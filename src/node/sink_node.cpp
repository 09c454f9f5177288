#include "node/sink_node.hpp"

#include <algorithm>
#include <utility>

namespace dftmsn {

SinkNode::SinkNode(NodeId id, Simulator& sim, Channel& channel,
                   const EnergyModel& energy, const Config& config,
                   Metrics& metrics, RandomStream rng)
    : id_(id),
      sim_(sim),
      channel_(channel),
      radio_(sim, energy, config.radio.switch_time_s),
      cfg_(config),
      metrics_(metrics),
      rng_(std::move(rng)),
      slot_s_(config.radio.control_tx_time()) {}

bool SinkNode::can_transmit() const {
  return radio_.state() == RadioState::kIdle && !channel_.busy(id_);
}

void SinkNode::force_transmit(Frame frame) {
  // Committed slotted reply: same semantics as CrossLayerMac — a sink's
  // CTS drawn into the same slot as a sensor's CTS collides.
  if (radio_.state() == RadioState::kRx) channel_.forget(id_);
  if (radio_.state() != RadioState::kIdle) return;
  channel_.transmit(id_, std::move(frame));
}

bool SinkNode::fail() {
  if (down_) return false;
  down_ = true;
  cts_timer_.cancel();
  ack_timer_.cancel();
  reset_timer_.cancel();
  current_sender_ = kInvalidNode;
  awaiting_data_ = false;
  radio_.force_down();
  channel_.set_node_failed(id_, true);
  channel_.forget(id_);
  return true;
}

bool SinkNode::restore() {
  if (!down_) return false;
  down_ = false;
  channel_.set_node_failed(id_, false);
  radio_.force_up();
  return true;
}

void SinkNode::on_frame_received(const Frame& frame) {
  if (frame.is<RtsFrame>()) {
    handle_rts(frame);
  } else if (frame.is<ScheduleFrame>()) {
    handle_schedule(frame);
  } else if (frame.is<DataFrame>()) {
    handle_data(frame);
  }
  // Preambles, CTSs and ACKs need no sink-side action.
}

void SinkNode::handle_rts(const Frame& frame) {
  const auto& rts = frame.as<RtsFrame>();
  // A sink is always qualified (ξ = 1 > any sensor's ξ; effectively
  // unbounded storage behind the backbone).
  current_sender_ = frame.sender;
  expected_message_ = rts.message_id;
  awaiting_data_ = false;

  const int w = std::max(1, rts.contention_window);
  const int slot = rng_.uniform_int(1, w);
  cts_timer_.cancel();
  cts_timer_ = sim_.schedule_in((slot - 1) * slot_s_, [this] { send_cts(); });

  // Forget the exchange if no SCHEDULE follows.
  reset_timer_.cancel();
  reset_timer_ = sim_.schedule_in((w + 6.0) * slot_s_, [this] {
    current_sender_ = kInvalidNode;
    awaiting_data_ = false;
  });
}

void SinkNode::send_cts() {
  if (current_sender_ == kInvalidNode) return;
  force_transmit(
      Frame{id_, cfg_.radio.control_bits,
            CtsFrame{current_sender_, 1.0, cfg_.protocol.queue_capacity}});
}

void SinkNode::handle_schedule(const Frame& frame) {
  if (frame.sender != current_sender_) return;
  const auto& sched = frame.as<ScheduleFrame>();
  for (std::size_t k = 0; k < sched.entries.size(); ++k) {
    if (sched.entries[k].receiver == id_) {
      ack_slot_ = static_cast<int>(k) + 1;
      awaiting_data_ = true;
      // Re-arm the give-up timer past the data + ACK exchange.
      reset_timer_.cancel();
      reset_timer_ = sim_.schedule_in(
          cfg_.radio.data_tx_time() +
              (static_cast<double>(sched.entries.size()) + 4.0) * slot_s_,
          [this] {
            current_sender_ = kInvalidNode;
            awaiting_data_ = false;
          });
      return;
    }
  }
  awaiting_data_ = false;
}

void SinkNode::handle_data(const Frame& frame) {
  const auto& data = frame.as<DataFrame>();
  // Any DATA frame that physically reaches a sink counts as delivered —
  // the sink sits on the backbone and dedupes by message id. (An
  // unscheduled sink does not ACK, so the sender's FTD bookkeeping is
  // unaffected; see DESIGN.md.)
  ++data_heard_;
  Message delivered = data.message;
  delivered.hops += 1;
  metrics_.on_delivered(delivered, sim_.now());

  if (awaiting_data_ && frame.sender == current_sender_) {
    awaiting_data_ = false;
    expected_message_ = data.message.id;
    ack_timer_.cancel();
    ack_timer_ =
        sim_.schedule_in((ack_slot_ - 1) * slot_s_, [this] { send_ack(); });
  }
}

void SinkNode::send_ack() {
  if (current_sender_ == kInvalidNode) return;
  force_transmit(Frame{id_, cfg_.radio.control_bits,
                       AckFrame{current_sender_, expected_message_}});
  current_sender_ = kInvalidNode;
}

void SinkNode::save_state(snapshot::Writer& w) const {
  w.begin_section("sink_node");
  w.u32(id_);
  w.u32(current_sender_);
  w.u64(expected_message_);
  w.i64(ack_slot_);
  w.boolean(awaiting_data_);
  w.boolean(cts_timer_.pending());
  w.boolean(ack_timer_.pending());
  w.boolean(reset_timer_.pending());
  w.u64(data_heard_);
  w.boolean(down_);
  rng_.save_state(w);
  radio_.save_state(w);
  w.end_section();
}

}  // namespace dftmsn
