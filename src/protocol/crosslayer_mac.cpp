#include "protocol/crosslayer_mac.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/cts_window_optimizer.hpp"
#include "core/listen_window_optimizer.hpp"
#include "snapshot/state_codec.hpp"
#include "telemetry/probes.hpp"

namespace dftmsn {

const char* mac_state_name(MacState s) {
  switch (s) {
    case MacState::kIdle: return "IDLE";
    case MacState::kSleeping: return "SLEEPING";
    case MacState::kListening: return "LISTENING";
    case MacState::kTxPreamble: return "TX_PREAMBLE";
    case MacState::kTxRts: return "TX_RTS";
    case MacState::kCollectCts: return "COLLECT_CTS";
    case MacState::kTxSchedule: return "TX_SCHEDULE";
    case MacState::kTxData: return "TX_DATA";
    case MacState::kWaitAcks: return "WAIT_ACKS";
    case MacState::kRxAwaitRts: return "RX_AWAIT_RTS";
    case MacState::kRxAwaitSchedule: return "RX_AWAIT_SCHEDULE";
    case MacState::kRxAwaitData: return "RX_AWAIT_DATA";
    case MacState::kDead: return "DEAD";
  }
  return "?";
}

namespace {
// Minimum seconds between two evaluations of the contention optimizers;
// the analytic models are polynomial in the neighbour count and need not
// run every cycle.
constexpr double kContentionUpdatePeriod = 10.0;
// The Eq. (10) cell model is evaluated over at most this many contenders;
// beyond that the collision probability is dominated by the closest
// competitors anyway and the O(m^2) cost stops paying for itself.
constexpr std::size_t kMaxContendersModeled = 8;
}  // namespace

CrossLayerMac::CrossLayerMac(NodeId id, Simulator& sim, Channel& channel,
                             Radio& radio, FtdQueue& queue,
                             std::unique_ptr<ForwardingStrategy> strategy,
                             const Config& config, const MacOptions& options,
                             NodeId first_sink_id, Metrics& metrics,
                             RandomStream rng)
    : id_(id),
      sim_(sim),
      channel_(channel),
      radio_(radio),
      queue_(queue),
      strategy_(std::move(strategy)),
      cfg_(config),
      options_(options),
      first_sink_id_(first_sink_id),
      metrics_(metrics),
      rng_(std::move(rng)),
      timing_(config.radio),
      sleep_ctl_(config.sleep,
                 // SleepController only reads the model once to derive
                 // T_min; a temporary suffices.
                 EnergyModel{config.power}, config.radio.switch_time_s),
      neighbors_(options.neighbor_ttl_s),
      tau_max_(config.contention.tau_max_slots),
      cts_window_(config.contention.cts_window_slots) {}

void CrossLayerMac::set_telemetry(telemetry::Registry* registry,
                                  telemetry::Profiler* profiler) {
  profiler_ = profiler;
  if (registry == nullptr) {
    h_queue_occ_ = h_xi_tx_ = h_ftd_tx_ = h_tau_ = h_sleep_ = nullptr;
    c_rts_tx_ = c_cts_tx_ = c_schedule_tx_ = c_ack_rx_ = c_rts_coll_ =
        c_cts_coll_ = nullptr;
    return;
  }
  // ξ and FTD live in [0, 1]; the exact value 1.0 lands in the overflow
  // bin (documented in docs/observability.md).
  h_queue_occ_ = registry->histogram("queue.occupancy", 0.0, 64.0, 64);
  h_xi_tx_ = registry->histogram("protocol.xi_at_tx", 0.0, 1.0, 20);
  h_ftd_tx_ = registry->histogram("protocol.ftd_at_tx", 0.0, 1.0, 20);
  h_tau_ = registry->histogram("mac.tau_slots", 0.0, 64.0, 64);
  h_sleep_ = registry->histogram("mac.sleep_interval_s", 0.0, 300.0, 60);
  c_rts_tx_ = registry->counter("mac.rts_tx");
  c_cts_tx_ = registry->counter("mac.cts_tx");
  c_schedule_tx_ = registry->counter("mac.schedule_tx");
  c_ack_rx_ = registry->counter("mac.ack_rx");
  c_rts_coll_ = registry->counter("mac.rts_collisions");
  c_cts_coll_ = registry->counter("mac.cts_collisions");
}

Frame CrossLayerMac::make_control(FramePayload payload) const {
  return Frame{id_, cfg_.radio.control_bits, std::move(payload)};
}

bool CrossLayerMac::can_transmit() const {
  return radio_.state() == RadioState::kIdle && !channel_.busy(id_);
}

SimTime CrossLayerMac::force_transmit(Frame frame) {
  if (radio_.state() == RadioState::kRx) {
    // Abandon the overlapping reception: we are committed to transmitting.
    channel_.forget(id_);
  }
  if (radio_.state() != RadioState::kIdle) return 0.0;
  return channel_.transmit(id_, std::move(frame));
}

void CrossLayerMac::start() {
  // Desynchronize node start-up to avoid a thundering herd at t=0.
  schedule_next_cycle(rng_.uniform(0.0, 1.0));
  xi_timer_ = sim_.schedule_in(cfg_.protocol.xi_timeout_s,
                               [this] { xi_decay_tick(); });
}

void CrossLayerMac::enqueue(Message m) {
  const auto dropped =
      queue_.insert(QueuedMessage{m, 0.0, sim_.now()}, rng_.uniform01());
  if (dropped) {
    metrics_.on_dropped(dropped->msg, dropped->reason);
    DFTMSN_PROBE_TRACE(trace_, TraceEventType::kDrop, sim_.now(), id_,
                       kInvalidNode, dropped->msg.id,
                       static_cast<double>(dropped->reason));
  }
  DFTMSN_PROBE_HIST(h_queue_occ_, static_cast<double>(queue_.size()));
}

void CrossLayerMac::crash(bool wipe_queue) {
  if (state_ == MacState::kDead) return;
  timer_.cancel();
  aux_timer_.cancel();
  xi_timer_.cancel();
  state_ = MacState::kDead;
  radio_.force_down();
  channel_.set_node_failed(id_, true);
  channel_.forget(id_);
  if (wipe_queue) {
    for (const auto& lost : queue_.wipe()) {
      metrics_.on_dropped(lost.msg, lost.reason);
      DFTMSN_PROBE_TRACE(trace_, TraceEventType::kDrop, sim_.now(), id_,
                         kInvalidNode, lost.msg.id,
                         static_cast<double>(lost.reason));
    }
  }
}

void CrossLayerMac::recover() {
  if (state_ != MacState::kDead) return;
  channel_.set_node_failed(id_, false);
  radio_.force_up();
  state_ = MacState::kIdle;
  recent_activity_.clear();
  consecutive_failures_ = 0;
  schedule_next_cycle(rng_.uniform(0.0, 1.0));
  xi_timer_ = sim_.schedule_in(cfg_.protocol.xi_timeout_s,
                               [this] { xi_decay_tick(); });
}

void CrossLayerMac::xi_decay_tick() {
  // Eq. (1), timeout branch — applied on a fixed Δ cadence rather than
  // only after transmission-free intervals. Without the unconditional
  // anchor, nodes that relay continuously among themselves never decay
  // and their ξ inflates in closed loops far from any sink (DESIGN.md).
  strategy_->on_idle_timeout();
  xi_timer_ = sim_.schedule_in(cfg_.protocol.xi_timeout_s,
                               [this] { xi_decay_tick(); });
}

// --------------------------------------------------------------------
// Sender side
// --------------------------------------------------------------------

void CrossLayerMac::schedule_next_cycle(SimTime delay) {
  timer_.cancel();
  timer_ = sim_.schedule_in(delay, [this] { begin_cycle(); });
}

void CrossLayerMac::begin_cycle() {
  if (state_ != MacState::kIdle) return;

  // Someone is on the air (possibly mid-frame toward us): stay quiet.
  if (!can_transmit()) {
    schedule_next_cycle(2.0 * timing_.slot_s);
    return;
  }

  if (queue_.empty()) {
    // Nothing to send: this still counts as an (inactive) working cycle
    // so that an idle node eventually satisfies the sleep condition.
    finish_cycle(false);
    return;
  }

  if (!channel_.anyone_in_range(id_)) {
    // Lone-sender fast path: nobody can hear the preamble/RTS, so skip
    // the frame exchange but account for it — the attempt still counts
    // as a failed working cycle and its TX energy is booked analytically.
    ++mac_stats_.cycles;
    metrics_.on_attempt();
    radio_.charge_extra(
        RadioState::kTx,
        2.0 * timing_.slot_s * (cfg_.power.tx_w - cfg_.power.idle_w));
    fail_cycle();
    return;
  }

  ++mac_stats_.cycles;
  metrics_.on_attempt();
  state_ = MacState::kListening;
  const int sigma =
      ListenWindowOptimizer::sigma(strategy_->local_metric(), tau_max_);
  const int tau = rng_.uniform_int(1, sigma);
  DFTMSN_PROBE_HIST(h_tau_, static_cast<double>(tau));
  timer_ = sim_.schedule_in(tau * timing_.slot_s, [this] { on_listen_done(); });
}

void CrossLayerMac::on_listen_done() {
  if (state_ != MacState::kListening) return;
  if (!can_transmit()) {
    // The channel was grabbed before our listen window ran out.
    state_ = MacState::kRxAwaitRts;
    timer_ = sim_.schedule_in(timing_.data_s + timing_.guard_s,
                              [this] { resume_idle(); });
    return;
  }

  // Commit to transmitting one turnaround slot from now. From this point
  // the node is deaf: a contender whose listen window ends in the same
  // slot also commits, and the two preambles collide (the Sec. 4.2
  // scenario the τ_max optimizer exists for).
  state_ = MacState::kTxPreamble;
  timer_ = sim_.schedule_in(timing_.slot_s, [this] {
    if (state_ != MacState::kTxPreamble) return;
    if (queue_.empty()) {  // drained while committing (unlikely)
      fail_cycle();
      return;
    }
    const QueuedMessage& head = queue_.head();
    inflight_msg_ = head.msg;
    inflight_ftd_ = head.ftd;
    const SimTime dur = force_transmit(make_control(PreambleFrame{}));
    if (dur == 0.0) {
      fail_cycle();
      return;
    }
    timer_ = sim_.schedule_in(dur, [this] { on_preamble_done(); });
  });
}

void CrossLayerMac::on_preamble_done() {
  if (state_ != MacState::kTxPreamble) return;
  state_ = MacState::kTxRts;
  const double xi = strategy_->local_metric();
  const SimTime dur = force_transmit(make_control(
      RtsFrame{xi, inflight_ftd_, cts_window_, inflight_msg_.id}));
  if (dur == 0.0) {
    fail_cycle();
    return;
  }
  DFTMSN_PROBE_HIST(h_xi_tx_, xi);
  DFTMSN_PROBE_HIST(h_ftd_tx_, inflight_ftd_);
  DFTMSN_PROBE_COUNT(c_rts_tx_);
  DFTMSN_PROBE_TRACE(trace_, TraceEventType::kRtsTx, sim_.now(), id_,
                     kInvalidNode, inflight_msg_.id, inflight_ftd_);
  timer_ = sim_.schedule_in(dur, [this] { on_rts_done(); });
}

void CrossLayerMac::on_rts_done() {
  if (state_ != MacState::kTxRts) return;
  state_ = MacState::kCollectCts;
  cts_candidates_.clear();
  timer_ = sim_.schedule_in(timing_.cts_window(cts_window_),
                            [this] { on_cts_window_end(); });
}

void CrossLayerMac::on_cts_window_end() {
  if (state_ != MacState::kCollectCts) return;
  scheduled_ = strategy_->select_receivers(inflight_ftd_, cts_candidates_);
  if (scheduled_.empty()) {
    fail_cycle();
    return;
  }

  ScheduleFrame sched;
  sched.entries.reserve(scheduled_.size());
  for (const ScheduledReceiver& r : scheduled_)
    sched.entries.push_back(ScheduleEntry{r.id, r.ftd_for_copy});
  sched.nav_duration =
      timing_.data_s +
      (static_cast<double>(scheduled_.size()) + 1.0) * timing_.slot_s;

  state_ = MacState::kTxSchedule;
  const SimTime dur = force_transmit(make_control(std::move(sched)));
  if (dur == 0.0) {
    fail_cycle();
    return;
  }
  DFTMSN_PROBE_COUNT(c_schedule_tx_);
  DFTMSN_PROBE_TRACE(trace_, TraceEventType::kScheduleTx, sim_.now(), id_,
                     kInvalidNode, inflight_msg_.id,
                     static_cast<double>(scheduled_.size()));
  timer_ = sim_.schedule_in(dur, [this] { on_schedule_done(); });
}

void CrossLayerMac::on_schedule_done() {
  if (state_ != MacState::kTxSchedule) return;
  state_ = MacState::kTxData;
  const SimTime dur = force_transmit(
      Frame{id_, inflight_msg_.bits, DataFrame{inflight_msg_}});
  if (dur == 0.0) {
    fail_cycle();
    return;
  }
  timer_ = sim_.schedule_in(dur, [this] { on_data_done(); });
}

void CrossLayerMac::on_data_done() {
  if (state_ != MacState::kTxData) return;
  state_ = MacState::kWaitAcks;
  acked_.clear();
  timer_ =
      sim_.schedule_in(timing_.ack_window(static_cast<int>(scheduled_.size())),
                       [this] { on_ack_window_end(); });
}

void CrossLayerMac::on_ack_window_end() {
  if (state_ != MacState::kWaitAcks) return;

  std::vector<ScheduledReceiver> acked;
  for (const ScheduledReceiver& r : scheduled_) {
    if (acked_.contains(r.id)) acked.push_back(r);
  }
  if (acked.empty()) {
    // Lost DATA or all ACKs collided: the copy stays untouched (Sec. 3.2.2
    // removes unacknowledged receivers from Φ; with Φ empty nothing moved).
    fail_cycle();
    return;
  }

  const TransmissionOutcome outcome =
      strategy_->on_transmission_complete(inflight_ftd_, acked, sim_.now());
  metrics_.on_data_tx(acked.size());
  ++mac_stats_.data_tx_ok;
  last_data_tx_ = sim_.now();
  DFTMSN_PROBE_TRACE(trace_, TraceEventType::kDataTx, sim_.now(), id_,
                     kInvalidNode, inflight_msg_.id,
                     static_cast<double>(acked.size()));

  if (outcome.disposition == TransmissionOutcome::Disposition::kRemove) {
    queue_.remove(inflight_msg_.id);
  } else {
    const auto dropped = queue_.update_ftd(inflight_msg_.id, outcome.new_ftd,
                                           cfg_.protocol.ftd_drop_threshold);
    if (dropped) {
      metrics_.on_dropped(dropped->msg, dropped->reason);
      DFTMSN_PROBE_TRACE(trace_, TraceEventType::kDrop, sim_.now(), id_,
                         kInvalidNode, dropped->msg.id,
                         static_cast<double>(dropped->reason));
    }
  }
  finish_cycle(true);
}

void CrossLayerMac::fail_cycle() {
  metrics_.on_attempt_failed();
  finish_cycle(false);
}

void CrossLayerMac::finish_cycle(bool transmitted) {
  state_ = MacState::kIdle;
  timer_.cancel();
  aux_timer_.cancel();

  sleep_ctl_.record_cycle(transmitted);
  note_activity(transmitted);
  consecutive_failures_ = transmitted ? 0 : consecutive_failures_ + 1;
  maybe_recompute_contention();

  if (should_sleep()) {
    go_to_sleep();
    return;
  }
  if (queue_.empty()) {
    schedule_next_cycle(options_.idle_poll_s);
  } else if (transmitted) {
    schedule_next_cycle(2.0 * timing_.slot_s);
  } else if (!channel_.anyone_in_range(id_)) {
    schedule_next_cycle(cfg_.protocol.lone_retry_s);
  } else {
    schedule_next_cycle(backoff_delay());
  }
}

SimTime CrossLayerMac::backoff_delay() {
  // Deterministic slot-granular gap (Sec. 3.2.1 restarts the asynchronous
  // phase right away). Keeping the gap jitter-free is essential: colliding
  // contenders must re-contend synchronously so that the σ = ξ·τ_max draw
  // — the paper's collision-avoidance mechanism — decides the outcome.
  const int gap = std::min(
      cfg_.protocol.retry_gap_slots * (1 + consecutive_failures_ / 3),
      cfg_.protocol.max_retry_gap_slots);
  return gap * timing_.slot_s;
}

void CrossLayerMac::note_activity(bool active) {
  recent_activity_.push_back(active);
  while (recent_activity_.size() >
         static_cast<std::size_t>(cfg_.protocol.idle_cycles_before_sleep))
    recent_activity_.pop_front();
}

bool CrossLayerMac::should_sleep() const {
  if (!options_.sleeping_enabled) return false;
  if (recent_activity_.size() <
      static_cast<std::size_t>(cfg_.protocol.idle_cycles_before_sleep))
    return false;
  return std::none_of(recent_activity_.begin(), recent_activity_.end(),
                      [](bool b) { return b; });
}

SimTime CrossLayerMac::sleep_period() {
  if (!options_.adaptive_sleep) return options_.fixed_sleep_s;
  return sleep_ctl_.sleep_period(
      queue_.count_more_important_than(cfg_.sleep.important_ftd),
      queue_.capacity());
}

void CrossLayerMac::go_to_sleep() {
  ++mac_stats_.sleeps;
  state_ = MacState::kSleeping;
  const SimTime period =
      std::max(sleep_period(), 2.0 * cfg_.radio.switch_time_s);
  DFTMSN_PROBE_HIST(h_sleep_, period);
  DFTMSN_PROBE_TRACE(trace_, TraceEventType::kSleep, sim_.now(), id_,
                     kInvalidNode, 0, period);
  channel_.forget(id_);
  radio_.sleep();
  timer_ = sim_.schedule_in(period, [this] { wake_up(); });
}

void CrossLayerMac::wake_up() {
  if (state_ != MacState::kSleeping) return;
  radio_.wake([this] {
    DFTMSN_PROBE_TRACE(trace_, TraceEventType::kWake, sim_.now(), id_,
                       kInvalidNode, 0, 0.0);
    state_ = MacState::kIdle;
    // Fresh L-cycle budget: the node genuinely "goes through the two
    // phases" after waking (Sec. 3.2). Without this, the first failed
    // post-wake attempt immediately re-satisfies the sleep condition and
    // the duty cycle collapses to a single 50 ms attempt per period.
    recent_activity_.clear();
    begin_cycle();
  });
}

void CrossLayerMac::maybe_recompute_contention() {
  if (!options_.adaptive_contention) return;
  const SimTime now = sim_.now();
  if (now - last_contention_update_ < kContentionUpdatePeriod) return;
  last_contention_update_ = now;

  // τ_max (Eq. 13): contenders = live neighbours + self, capped for cost.
  std::vector<double> xis = neighbors_.live_metrics(now);
  if (xis.size() > kMaxContendersModeled) xis.resize(kMaxContendersModeled);
  xis.push_back(strategy_->local_metric());
  tau_max_ = ListenWindowOptimizer::min_tau_max(
      xis, cfg_.contention.rts_collision_target,
      cfg_.contention.tau_cap_slots);

  // W (Eq. 14): expected repliers = neighbours that would qualify.
  const int repliers = std::max<std::size_t>(
      1, neighbors_.count_better_than(strategy_->local_metric(), now));
  cts_window_ = CtsWindowOptimizer::min_window(
      repliers, cfg_.contention.cts_collision_target,
      cfg_.contention.cts_window_cap);
}

// --------------------------------------------------------------------
// Receiver side
// --------------------------------------------------------------------

void CrossLayerMac::resume_idle(double extra_delay_slots) {
  state_ = MacState::kIdle;
  timer_.cancel();
  aux_timer_.cancel();
  schedule_next_cycle((extra_delay_slots + rng_.uniform(0.0, 2.0)) *
                      timing_.slot_s);
}

void CrossLayerMac::on_channel_busy() {
  if (state_ == MacState::kListening) {
    // Sec. 3.2.1: activity during the listen period aborts the attempt;
    // the node turns receiver for whatever is coming.
    timer_.cancel();
    state_ = MacState::kRxAwaitRts;
    timer_ = sim_.schedule_in(timing_.data_s + 3.0 * timing_.slot_s,
                              [this] { resume_idle(); });
  }
}

void CrossLayerMac::on_channel_idle() {}

void CrossLayerMac::on_collision() {
  ++mac_stats_.rx_collisions;
  if (state_ == MacState::kRxAwaitRts) {
    DFTMSN_PROBE_COUNT(c_rts_coll_);
    DFTMSN_PROBE_TRACE(trace_, TraceEventType::kRtsCollision, sim_.now(), id_,
                       kInvalidNode, 0, 0.0);
    // The expected preamble/RTS was garbled; give the air a moment.
    resume_idle(2.0);
    return;
  }
  if (state_ == MacState::kCollectCts) {
    // A contention slot garbled at us: that CTS (and its sender) is lost.
    DFTMSN_PROBE_COUNT(c_cts_coll_);
    DFTMSN_PROBE_TRACE(trace_, TraceEventType::kCtsCollision, sim_.now(), id_,
                       kInvalidNode, inflight_msg_.id, 0.0);
  }
  // In kCollectCts / kWaitAcks a collision simply loses that reply; in
  // kRxAwaitSchedule / kRxAwaitData the timeout recovers.
}

void CrossLayerMac::on_frame_received(const Frame& frame) {
  telemetry::ScopedTimer timer(profiler_,
                               telemetry::Subsystem::kMacHandshake);
  if (frame.is<PreambleFrame>()) {
    if (state_ == MacState::kIdle || state_ == MacState::kRxAwaitRts) {
      timer_.cancel();
      state_ = MacState::kRxAwaitRts;
      timer_ = sim_.schedule_in(3.0 * timing_.slot_s + timing_.guard_s,
                                [this] { resume_idle(); });
    }
    return;
  }
  if (frame.is<RtsFrame>()) {
    handle_rts(frame);
    return;
  }
  if (frame.is<CtsFrame>()) {
    handle_cts(frame);
    return;
  }
  if (frame.is<ScheduleFrame>()) {
    handle_schedule(frame);
    return;
  }
  if (frame.is<DataFrame>()) {
    handle_data(frame);
    // Overhearing someone else's DATA while waiting for an RTS that is
    // clearly not coming: free the receiver state promptly.
    if (state_ == MacState::kRxAwaitRts) resume_idle(1.0);
    return;
  }
  if (frame.is<AckFrame>()) {
    handle_ack(frame);
    if (state_ == MacState::kRxAwaitRts) resume_idle(1.0);
    return;
  }
}

void CrossLayerMac::handle_rts(const Frame& frame) {
  const auto& rts = frame.as<RtsFrame>();
  neighbors_.observe(frame.sender, rts.sender_metric, sim_.now());

  if (state_ != MacState::kRxAwaitRts && state_ != MacState::kIdle) return;
  timer_.cancel();

  const RtsInfo info{frame.sender, rts.sender_metric, rts.message_ftd,
                     rts.message_id};
  const int w = std::max(1, rts.contention_window);

  if (!strategy_->qualifies_as_receiver(info, queue_)) {
    // Not a candidate: sit out the CTS window. If a SCHEDULE follows we
    // will overhear it from kIdle and extend the deferral by its NAV; if
    // the sender found no receivers the channel frees up right away.
    state_ = MacState::kIdle;
    schedule_next_cycle((w + 3.0) * timing_.slot_s);
    return;
  }

  current_rts_ = info;
  state_ = MacState::kRxAwaitSchedule;

  // CTS in a uniformly random slot of the contention window (Sec. 4.3).
  const int slot = rng_.uniform_int(1, w);
  aux_timer_ = sim_.schedule_in((slot - 1) * timing_.slot_s,
                                [this] { send_cts(); });
  // Give the sender the whole window plus room for SCHEDULE.
  timer_ = sim_.schedule_in((w + 4.0) * timing_.slot_s + timing_.guard_s,
                            [this] { resume_idle(); });
}

void CrossLayerMac::send_cts() {
  if (state_ != MacState::kRxAwaitSchedule) return;
  // Committed at the slot boundary: two receivers that drew the same slot
  // both transmit and their CTSs collide at the sender (Eq. 14).
  ++mac_stats_.cts_sent;
  const SimTime dur = force_transmit(
      make_control(CtsFrame{current_rts_.sender, strategy_->local_metric(),
                            queue_.available_space_for(
                                current_rts_.message_ftd)}));
  if (dur > 0.0) {
    DFTMSN_PROBE_COUNT(c_cts_tx_);
    DFTMSN_PROBE_TRACE(trace_, TraceEventType::kCtsTx, sim_.now(), id_,
                       current_rts_.sender, current_rts_.message_id, 0.0);
  }
}

void CrossLayerMac::handle_cts(const Frame& frame) {
  const auto& cts = frame.as<CtsFrame>();
  neighbors_.observe(frame.sender, cts.receiver_metric, sim_.now());

  if (state_ == MacState::kCollectCts && cts.rts_sender == id_) {
    cts_candidates_.push_back(Candidate{frame.sender, cts.receiver_metric,
                                        cts.buffer_space,
                                        is_sink_id(frame.sender)});
    return;
  }
  // Overheard CTS for someone else: NAV — defer our own attempts past the
  // upcoming data exchange.
  if (state_ == MacState::kIdle) {
    schedule_next_cycle(timing_.data_s + 6.0 * timing_.slot_s);
  }
}

void CrossLayerMac::handle_schedule(const Frame& frame) {
  const auto& sched = frame.as<ScheduleFrame>();

  if (state_ == MacState::kRxAwaitSchedule &&
      frame.sender == current_rts_.sender) {
    timer_.cancel();
    aux_timer_.cancel();
    for (std::size_t k = 0; k < sched.entries.size(); ++k) {
      if (sched.entries[k].receiver == id_) {
        my_sched_ftd_ = sched.entries[k].ftd;
        my_ack_slot_ = static_cast<int>(k) + 1;
        state_ = MacState::kRxAwaitData;
        timer_ = sim_.schedule_in(timing_.data_s + 2.0 * timing_.slot_s,
                                  [this] { resume_idle(); });
        return;
      }
    }
    // Qualified but not chosen: honour the NAV.
    state_ = MacState::kIdle;
    schedule_next_cycle(sched.nav_duration);
    return;
  }

  // Overheard someone else's SCHEDULE: NAV.
  if (state_ == MacState::kIdle || state_ == MacState::kRxAwaitRts) {
    state_ = MacState::kIdle;
    schedule_next_cycle(sched.nav_duration);
  }
}

void CrossLayerMac::handle_data(const Frame& frame) {
  if (state_ != MacState::kRxAwaitData ||
      frame.sender != current_rts_.sender)
    return;
  timer_.cancel();

  const auto& data = frame.as<DataFrame>();
  Message copy = data.message;
  copy.hops += 1;
  const auto dropped =
      queue_.insert(QueuedMessage{copy, strategy_->receive_ftd(my_sched_ftd_),
                                  sim_.now()},
                    rng_.uniform01());
  if (dropped) {
    metrics_.on_dropped(dropped->msg, dropped->reason);
    DFTMSN_PROBE_TRACE(trace_, TraceEventType::kDrop, sim_.now(), id_,
                       kInvalidNode, dropped->msg.id,
                       static_cast<double>(dropped->reason));
  }
  DFTMSN_PROBE_HIST(h_queue_occ_, static_cast<double>(queue_.size()));
  DFTMSN_PROBE_TRACE(trace_, TraceEventType::kDataRx, sim_.now(), id_,
                     frame.sender, copy.id, 0.0);

  ++mac_stats_.data_received;
  note_activity(true);  // served as a receiver (Sec. 3.2 sleep rule)

  // ACK in our assigned slot (k·t_ack after the data, Sec. 3.2.2).
  inflight_msg_ = copy;  // remembered for the ACK's message id
  aux_timer_ = sim_.schedule_in((my_ack_slot_ - 1) * timing_.slot_s,
                                [this] { send_ack(); });
  timer_ = sim_.schedule_in((my_ack_slot_ + 1) * timing_.slot_s,
                            [this] { resume_idle(); });
}

void CrossLayerMac::send_ack() {
  if (state_ != MacState::kRxAwaitData) return;
  force_transmit(
      make_control(AckFrame{current_rts_.sender, inflight_msg_.id}));
}

void CrossLayerMac::handle_ack(const Frame& frame) {
  const auto& ack = frame.as<AckFrame>();
  if (state_ == MacState::kWaitAcks && ack.data_sender == id_ &&
      ack.message_id == inflight_msg_.id) {
    acked_.insert(frame.sender);
    DFTMSN_PROBE_COUNT(c_ack_rx_);
    DFTMSN_PROBE_TRACE(trace_, TraceEventType::kAckRx, sim_.now(), id_,
                       frame.sender, ack.message_id, 0.0);
  }
}

void CrossLayerMac::save_state(snapshot::Writer& w) const {
  w.begin_section("mac");
  w.u8(static_cast<std::uint8_t>(state_));
  w.boolean(timer_.pending());
  w.boolean(aux_timer_.pending());
  w.boolean(xi_timer_.pending());

  sleep_ctl_.save_state(w);
  neighbors_.save_state(w);
  w.i64(tau_max_);
  w.i64(cts_window_);
  w.f64(last_contention_update_);

  snapshot::save(w, inflight_msg_);
  w.f64(inflight_ftd_);
  w.size(cts_candidates_.size());
  for (const Candidate& c : cts_candidates_) {
    w.u32(c.id);
    w.f64(c.metric);
    w.size(c.buffer_space);
    w.boolean(c.is_sink);
  }
  w.size(scheduled_.size());
  for (const ScheduledReceiver& s : scheduled_) {
    w.u32(s.id);
    w.f64(s.metric);
    w.f64(s.ftd_for_copy);
    w.boolean(s.is_sink);
  }
  {
    std::vector<NodeId> acked(acked_.begin(), acked_.end());
    std::sort(acked.begin(), acked.end());
    w.size(acked.size());
    for (const NodeId id : acked) w.u32(id);
  }
  w.i64(consecutive_failures_);

  w.u32(current_rts_.sender);
  w.f64(current_rts_.sender_metric);
  w.f64(current_rts_.message_ftd);
  w.u64(current_rts_.message_id);
  w.f64(my_sched_ftd_);
  w.i64(my_ack_slot_);

  w.size(recent_activity_.size());
  for (const bool b : recent_activity_) w.boolean(b);
  w.f64(last_data_tx_);

  w.u64(mac_stats_.cycles);
  w.u64(mac_stats_.sleeps);
  w.u64(mac_stats_.cts_sent);
  w.u64(mac_stats_.data_received);
  w.u64(mac_stats_.rx_collisions);
  w.u64(mac_stats_.data_tx_ok);

  rng_.save_state(w);
  strategy_->save_state(w);
  queue_.save_state(w);
  w.end_section();
}

}  // namespace dftmsn
