#include "phy/channel.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dftmsn {

Channel::Channel(Simulator& sim, const MobilityManager& mobility,
                 double range_m, double bandwidth_bps)
    : sim_(sim),
      mobility_(mobility),
      range_m_(range_m),
      bandwidth_bps_(bandwidth_bps) {
  if (range_m <= 0) throw std::invalid_argument("Channel: range <= 0");
  if (bandwidth_bps <= 0) throw std::invalid_argument("Channel: bandwidth <= 0");
}

void Channel::attach(NodeId id, Radio& radio, ChannelListener& listener) {
  if (id != nodes_.size())
    throw std::invalid_argument("Channel: nodes must attach in id order");
  nodes_.push_back(NodeRx{&radio, &listener, {}, 0, false});
  failed_.push_back(0);
  neighbor_cache_.emplace_back();
}

void Channel::set_node_failed(NodeId id, bool failed) {
  failed_.at(id) = failed ? 1 : 0;
}

bool Channel::node_failed(NodeId id) const { return failed_.at(id) != 0; }

void Channel::set_corruption_hook(CorruptionHook hook) {
  corruption_hook_ = std::move(hook);
}

SimTime Channel::tx_duration(std::size_t bits) const {
  return static_cast<double>(bits) / bandwidth_bps_;
}

bool Channel::busy(NodeId id) const { return !nodes_.at(id).hearing.empty(); }

bool Channel::anyone_in_range(NodeId id) const {
  return !neighbors(id).empty();
}

const std::vector<NodeId>& Channel::neighbors(NodeId id) const {
  NeighborCache& c = neighbor_cache_.at(id);
  const std::uint64_t epoch = mobility_.positions_epoch();
  if (c.epoch != epoch) {
    mobility_.neighbors_of(id, range_m_, c.ids);
    c.epoch = epoch;
  }
  return c.ids;
}

bool Channel::erase_value(std::vector<TxId>& v, TxId value) {
  const auto it = std::find(v.begin(), v.end(), value);
  if (it == v.end()) return false;
  v.erase(it);
  return true;
}

void Channel::forget(NodeId id) {
  NodeRx& n = nodes_.at(id);
  if (n.locked != 0 && n.radio->state() == RadioState::kRx) n.radio->end_rx();
  n.locked = 0;
  n.locked_clean = false;
  n.hearing.clear();
}

SimTime Channel::transmit(NodeId sender, Frame frame) {
  NodeRx& s = nodes_.at(sender);
  frame.sender = sender;
  const SimTime duration = tx_duration(frame.bits);
  const TxId id = next_tx_id_++;

  ++counters_.frames_sent;
  if (is_data_frame(frame)) {
    counters_.data_bits_sent += frame.bits;
  } else {
    counters_.control_bits_sent += frame.bits;
  }

  s.radio->begin_tx();  // throws if the radio is not IDLE (MAC bug)

  telemetry::ScopedTimer scan_timer(profiler_,
                                    telemetry::Subsystem::kChannelScan);

  std::uint32_t slot;
  if (free_in_flight_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_in_flight_.back();
    free_in_flight_.pop_back();
  }
  InFlight& tx = in_flight_[slot];
  tx.id = id;
  tx.sender = sender;
  tx.frame = std::move(frame);
  tx.audience.clear();

  // Audience snapshot at frame start: awake nodes in range that are not
  // themselves transmitting. A node that wakes mid-frame misses it.
  for (const NodeId nb : neighbors(sender)) {
    if (nb >= nodes_.size()) continue;
    if (failed_[nb]) continue;
    NodeRx& n = nodes_[nb];
    const RadioState st = n.radio->state();
    if (st != RadioState::kIdle && st != RadioState::kRx) continue;
    tx.audience.push_back(nb);

    const bool was_quiet = n.hearing.empty();
    n.hearing.push_back(id);
    if (was_quiet) {
      // The node locks onto this frame and starts decoding it.
      n.locked = id;
      n.locked_clean = true;
      n.radio->begin_rx();
      n.listener->on_channel_busy();
    } else {
      // Overlap: both the locked frame and this one are corrupted.
      n.locked_clean = false;
    }
  }

  sim_.schedule_in(duration, [this, slot] { finish_tx(slot); });
  return duration;
}

void Channel::finish_tx(std::uint32_t slot) {
  // Listeners may transmit from the callbacks below, taking other slots;
  // this one stays reserved (and, in the deque, in place) until the end.
  const InFlight& tx = in_flight_[slot];
  const TxId id = tx.id;
  const NodeId sender = tx.sender;
  // A sender that crashed mid-frame already had its radio forced down; the
  // frame tail was never emitted, so every reception of it is corrupt.
  const bool sender_died = failed_.at(sender) != 0;
  Radio& sender_radio = *nodes_.at(sender).radio;
  if (sender_radio.state() == RadioState::kTx) sender_radio.end_tx();

  for (const NodeId nb : tx.audience) {
    NodeRx& n = nodes_.at(nb);
    // If the node slept (or crashed) meanwhile, forget() wiped its
    // bookkeeping.
    if (!erase_value(n.hearing, id)) continue;

    if (n.locked == id) {
      const bool clean = n.locked_clean;
      n.locked = 0;
      n.locked_clean = false;
      if (n.radio->state() == RadioState::kRx) n.radio->end_rx();
      // Deliver only if still in range at frame end (link survived), the
      // sender lived through the frame, and fault injection spared it.
      const bool in_range =
          mobility_.distance_between(sender, nb) <= range_m_;
      bool corrupted_by_fault = false;
      if (clean && in_range && !sender_died && corruption_hook_ &&
          corruption_hook_(sender, nb)) {
        corrupted_by_fault = true;
        ++counters_.faults_corrupted;
      }
      if (clean && in_range && !sender_died && !corrupted_by_fault) {
        ++counters_.frames_delivered;
        n.listener->on_frame_received(tx.frame);
      } else {
        ++counters_.collisions;
        n.listener->on_collision();
      }
    }
    if (n.hearing.empty() && n.radio->awake()) n.listener->on_channel_idle();
  }
  free_in_flight_.push_back(slot);
}

void Channel::save_state(snapshot::Writer& w) const {
  w.begin_section("channel");
  w.u64(counters_.frames_sent);
  w.u64(counters_.frames_delivered);
  w.u64(counters_.collisions);
  w.u64(counters_.data_bits_sent);
  w.u64(counters_.control_bits_sent);
  w.u64(counters_.faults_corrupted);
  w.u64(next_tx_id_);
  w.size(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeRx& n = nodes_[i];
    w.boolean(failed_[i] != 0);
    w.u64(n.locked);
    w.boolean(n.locked_clean);
    w.size(n.hearing.size());
    for (const TxId tx : n.hearing) w.u64(tx);
  }
  w.end_section();
}

void Channel::load_state(snapshot::Reader& r) {
  r.begin_section("channel");
  counters_.frames_sent = r.u64();
  counters_.frames_delivered = r.u64();
  counters_.collisions = r.u64();
  counters_.data_bits_sent = r.u64();
  counters_.control_bits_sent = r.u64();
  counters_.faults_corrupted = r.u64();
  next_tx_id_ = r.u64();
  const std::size_t n_nodes = r.size();
  if (n_nodes != nodes_.size())
    throw snapshot::SnapshotError("channel: node population mismatch");
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeRx& n = nodes_[i];
    failed_[i] = r.boolean() ? 1 : 0;
    n.locked = r.u64();
    n.locked_clean = r.boolean();
    n.hearing.resize(r.size());
    for (TxId& tx : n.hearing) tx = r.u64();
  }
  r.end_section();
}

}  // namespace dftmsn
