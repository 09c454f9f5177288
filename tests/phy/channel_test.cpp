#include "phy/channel.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mobility/mobility_manager.hpp"

namespace dftmsn {
namespace {

/// Records every callback for assertions.
class RecordingListener : public ChannelListener {
 public:
  void on_frame_received(const Frame& frame) override {
    received.push_back(frame);
  }
  void on_collision() override { ++collisions; }
  void on_channel_busy() override { ++busy_edges; }
  void on_channel_idle() override { ++idle_edges; }

  std::vector<Frame> received;
  int collisions = 0;
  int busy_edges = 0;
  int idle_edges = 0;
};

Frame control_frame(std::size_t bits = 50) {
  return Frame{0, bits, PreambleFrame{}};
}

/// Hidden-terminal line: node 0 at x=0, node 1 at x=8, node 2 at x=16.
/// With 10 m range, 0-1 and 1-2 hear each other; 0-2 are mutually hidden.
class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() : mobility_(sim_, 0.5) {
    const std::vector<Vec2> positions{{0, 0}, {8, 0}, {16, 0}};
    for (NodeId i = 0; i < 3; ++i) {
      mobility_.add_node(i, std::make_unique<StaticMobility>(positions[i]));
      radios_.push_back(std::make_unique<Radio>(sim_, model_, 0.002));
    }
    channel_ = std::make_unique<Channel>(sim_, mobility_, 10.0, 10'000.0);
    for (NodeId i = 0; i < 3; ++i) {
      channel_->attach(i, *radios_[i], listeners_[i]);
    }
  }

  Simulator sim_;
  EnergyModel model_{PowerConfig{}};
  MobilityManager mobility_;
  std::vector<std::unique_ptr<Radio>> radios_;
  RecordingListener listeners_[3];
  std::unique_ptr<Channel> channel_;
};

TEST_F(ChannelTest, TxDurationFromBits) {
  EXPECT_DOUBLE_EQ(channel_->tx_duration(50), 0.005);
  EXPECT_DOUBLE_EQ(channel_->tx_duration(1000), 0.1);
}

TEST_F(ChannelTest, CleanDeliveryWithinRangeOnly) {
  const SimTime dur = channel_->transmit(0, control_frame());
  EXPECT_DOUBLE_EQ(dur, 0.005);
  EXPECT_EQ(radios_[0]->state(), RadioState::kTx);
  EXPECT_EQ(radios_[1]->state(), RadioState::kRx);
  EXPECT_EQ(radios_[2]->state(), RadioState::kIdle);  // out of range
  sim_.run_all();
  EXPECT_EQ(radios_[0]->state(), RadioState::kIdle);
  ASSERT_EQ(listeners_[1].received.size(), 1u);
  EXPECT_EQ(listeners_[1].received[0].sender, 0u);
  EXPECT_EQ(listeners_[2].received.size(), 0u);
  EXPECT_EQ(listeners_[0].received.size(), 0u);  // no self-reception
  EXPECT_EQ(channel_->counters().frames_delivered, 1u);
}

TEST_F(ChannelTest, BusyIdleEdgesFire) {
  channel_->transmit(0, control_frame());
  EXPECT_EQ(listeners_[1].busy_edges, 1);
  EXPECT_TRUE(channel_->busy(1));
  EXPECT_FALSE(channel_->busy(2));
  sim_.run_all();
  EXPECT_EQ(listeners_[1].idle_edges, 1);
  EXPECT_FALSE(channel_->busy(1));
}

TEST_F(ChannelTest, HiddenTerminalsCollideAtMiddleNode) {
  // 0 and 2 cannot hear each other; both transmit; node 1 gets garbage.
  channel_->transmit(0, control_frame());
  channel_->transmit(2, control_frame());  // legal: node 2 heard nothing
  sim_.run_all();
  EXPECT_EQ(listeners_[1].received.size(), 0u);
  EXPECT_EQ(listeners_[1].collisions, 1);
  EXPECT_EQ(channel_->counters().collisions, 1u);
  EXPECT_EQ(radios_[1]->state(), RadioState::kIdle);  // recovered cleanly
}

TEST_F(ChannelTest, PartialOverlapAlsoCollides) {
  channel_->transmit(0, control_frame());
  sim_.schedule_in(0.002, [&] { channel_->transmit(2, control_frame()); });
  sim_.run_all();
  EXPECT_EQ(listeners_[1].received.size(), 0u);
  // Node 1 locked frame 0 (corrupted) and reports one collision; frame 2
  // was never locked.
  EXPECT_EQ(listeners_[1].collisions, 1);
}

TEST_F(ChannelTest, BackToBackFramesBothDeliver) {
  channel_->transmit(0, control_frame());
  sim_.schedule_in(0.005, [&] { channel_->transmit(0, control_frame()); });
  sim_.run_all();
  EXPECT_EQ(listeners_[1].received.size(), 2u);
  EXPECT_EQ(listeners_[1].collisions, 0);
}

TEST_F(ChannelTest, CarrierSensePreventsSameCellOverlap) {
  // Node 1 hears node 0's ongoing frame: its radio is RX, so a
  // carrier-sensing MAC (can_transmit) would defer; a buggy MAC that
  // transmits anyway gets a logic_error from the radio FSM.
  channel_->transmit(0, control_frame());
  EXPECT_THROW(channel_->transmit(1, control_frame()), std::logic_error);
}

TEST_F(ChannelTest, SleepingNodeMissesFrames) {
  radios_[1]->sleep();
  sim_.run_all();  // complete the switch
  ASSERT_TRUE(radios_[1]->asleep());
  channel_->transmit(0, control_frame());
  sim_.run_all();
  EXPECT_EQ(listeners_[1].received.size(), 0u);
}

TEST_F(ChannelTest, ForgetAbandonsReception) {
  channel_->transmit(0, control_frame());
  EXPECT_EQ(radios_[1]->state(), RadioState::kRx);
  channel_->forget(1);
  EXPECT_EQ(radios_[1]->state(), RadioState::kIdle);
  EXPECT_FALSE(channel_->busy(1));
  sim_.run_all();
  EXPECT_EQ(listeners_[1].received.size(), 0u);  // frame was abandoned
  EXPECT_EQ(listeners_[1].collisions, 0);
}

TEST_F(ChannelTest, SenderCannotDoubleTransmit) {
  channel_->transmit(0, control_frame());
  EXPECT_THROW(channel_->transmit(0, control_frame()), std::logic_error);
}

TEST_F(ChannelTest, CountersTrackBits) {
  channel_->transmit(0, control_frame(50));
  sim_.run_all();
  Frame data{0, 1000, DataFrame{Message{}}};
  channel_->transmit(0, std::move(data));
  sim_.run_all();
  EXPECT_EQ(channel_->counters().control_bits_sent, 50u);
  EXPECT_EQ(channel_->counters().data_bits_sent, 1000u);
  EXPECT_EQ(channel_->counters().frames_sent, 2u);
}

TEST_F(ChannelTest, FrameSenderFieldIsStamped) {
  Frame f = control_frame();
  f.sender = 42;  // bogus: transmit() must overwrite with the true sender
  channel_->transmit(0, std::move(f));
  sim_.run_all();
  ASSERT_EQ(listeners_[1].received.size(), 1u);
  EXPECT_EQ(listeners_[1].received[0].sender, 0u);
}

TEST_F(ChannelTest, BadConstructionThrows) {
  EXPECT_THROW(Channel(sim_, mobility_, 0.0, 10'000.0),
               std::invalid_argument);
  EXPECT_THROW(Channel(sim_, mobility_, 10.0, 0.0), std::invalid_argument);
}

TEST_F(ChannelTest, AttachOutOfOrderThrows) {
  Channel fresh(sim_, mobility_, 10.0, 10'000.0);
  Radio r(sim_, model_, 0.002);
  RecordingListener l;
  EXPECT_THROW(fresh.attach(1, r, l), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Re-entrant transmit: listeners that transmit from inside finish_tx's
// callbacks take a new in-flight slot while finish_tx is still walking
// its own slot's audience, and later audience members must still get the
// intact frame.

/// Transmits one control frame from its own node out of the callbacks
/// named in `reply_on`, while replies remain and its radio is idle.
class ReplyingListener : public RecordingListener {
 public:
  enum Trigger { kOnReceived = 1, kOnCollision = 2, kOnIdle = 4 };

  void on_frame_received(const Frame& frame) override {
    RecordingListener::on_frame_received(frame);
    maybe_reply(kOnReceived);
  }
  void on_collision() override {
    RecordingListener::on_collision();
    maybe_reply(kOnCollision);
  }
  void on_channel_idle() override {
    RecordingListener::on_channel_idle();
    maybe_reply(kOnIdle);
  }

  Channel* channel = nullptr;
  const Radio* radio = nullptr;
  NodeId id = 0;
  int reply_on = 0;
  int replies_left = 0;
  int replies_sent = 0;

 private:
  void maybe_reply(Trigger trigger) {
    if ((reply_on & trigger) == 0 || replies_left == 0) return;
    if (radio->state() != RadioState::kIdle) return;
    --replies_left;
    ++replies_sent;
    channel->transmit(id, control_frame());
  }
};

/// Line of four with 10 m range: node 3 at x=-8, 0 at 0, 1 at 8, 2 at 16.
/// Links: 3-0, 0-1, 1-2. Node 1's audience is {0, 2}, so a reply from
/// node 0 runs before node 2's reception of the same frame.
class ChannelReentryTest : public ::testing::Test {
 protected:
  ChannelReentryTest() : mobility_(sim_, 0.5) {
    const std::vector<Vec2> positions{{0, 0}, {8, 0}, {16, 0}, {-8, 0}};
    for (NodeId i = 0; i < 4; ++i) {
      mobility_.add_node(i, std::make_unique<StaticMobility>(positions[i]));
      radios_.push_back(std::make_unique<Radio>(sim_, model_, 0.002));
    }
    channel_ = std::make_unique<Channel>(sim_, mobility_, 10.0, 10'000.0);
    for (NodeId i = 0; i < 4; ++i) {
      channel_->attach(i, *radios_[i], listeners_[i]);
      listeners_[i].channel = channel_.get();
      listeners_[i].radio = radios_[i].get();
      listeners_[i].id = i;
    }
  }

  void expect_all_senders(NodeId node, NodeId sender) {
    for (const Frame& f : listeners_[node].received) EXPECT_EQ(f.sender, sender);
  }

  Simulator sim_;
  EnergyModel model_{PowerConfig{}};
  MobilityManager mobility_;
  std::vector<std::unique_ptr<Radio>> radios_;
  ReplyingListener listeners_[4];
  std::unique_ptr<Channel> channel_;
};

TEST_F(ChannelReentryTest, ReplyFromFrameReceived) {
  // 1 -> {0, 2}; node 0 answers from on_frame_received (heard by 1, 3)
  // before node 2's reception of 1's frame is processed.
  listeners_[0].reply_on = ReplyingListener::kOnReceived;
  listeners_[0].replies_left = 1;
  channel_->transmit(1, control_frame());
  sim_.run_all();
  EXPECT_EQ(listeners_[0].replies_sent, 1);
  ASSERT_EQ(listeners_[2].received.size(), 1u);
  expect_all_senders(2, 1);
  ASSERT_EQ(listeners_[1].received.size(), 1u);
  expect_all_senders(1, 0);
  ASSERT_EQ(listeners_[3].received.size(), 1u);
  expect_all_senders(3, 0);
  EXPECT_EQ(channel_->counters().frames_sent, 2u);
  EXPECT_EQ(channel_->counters().frames_delivered, 4u);
  EXPECT_EQ(channel_->counters().collisions, 0u);
}

TEST_F(ChannelReentryTest, ReplyFromCollision) {
  // 1 and 3 (hidden from each other) collide at 0, which locked 1's frame
  // and answers from on_collision while 3's frame is still on the air.
  // Node 2 then gets 1's frame cleanly; only node 1 hears the answer
  // (node 3 is still transmitting).
  listeners_[0].reply_on = ReplyingListener::kOnCollision;
  listeners_[0].replies_left = 1;
  channel_->transmit(1, control_frame());
  channel_->transmit(3, control_frame());
  sim_.run_all();
  EXPECT_EQ(listeners_[0].replies_sent, 1);
  EXPECT_EQ(listeners_[0].collisions, 1);
  ASSERT_EQ(listeners_[2].received.size(), 1u);
  expect_all_senders(2, 1);
  ASSERT_EQ(listeners_[1].received.size(), 1u);
  expect_all_senders(1, 0);
  EXPECT_EQ(listeners_[3].received.size(), 0u);
  EXPECT_EQ(channel_->counters().frames_sent, 3u);
  EXPECT_EQ(channel_->counters().frames_delivered, 2u);
  EXPECT_EQ(channel_->counters().collisions, 1u);
  for (const auto& r : radios_) EXPECT_EQ(r->state(), RadioState::kIdle);
}

TEST_F(ChannelReentryTest, ReplyFromChannelIdle) {
  // 1 -> {0, 2}; node 0 answers from the idle edge that ends its
  // reception, again before node 2's reception is processed.
  listeners_[0].reply_on = ReplyingListener::kOnIdle;
  listeners_[0].replies_left = 1;
  channel_->transmit(1, control_frame());
  sim_.run_all();
  EXPECT_EQ(listeners_[0].replies_sent, 1);
  ASSERT_EQ(listeners_[2].received.size(), 1u);
  expect_all_senders(2, 1);
  ASSERT_EQ(listeners_[1].received.size(), 1u);
  ASSERT_EQ(listeners_[3].received.size(), 1u);
  EXPECT_EQ(channel_->counters().frames_sent, 2u);
  EXPECT_EQ(channel_->counters().frames_delivered, 4u);
  EXPECT_EQ(channel_->counters().collisions, 0u);
}

TEST_F(ChannelReentryTest, PingPongChainsRecycleSlots) {
  // 0 and 1 answer each other's frames ten times each; 3 overhears 0 and
  // 2 overhears 1. Every answer is sent from inside the previous frame's
  // finish_tx, which then still delivers that frame to the overhearer.
  for (const NodeId i : {0u, 1u}) {
    listeners_[i].reply_on = ReplyingListener::kOnReceived;
    listeners_[i].replies_left = 10;
  }
  channel_->transmit(0, control_frame());
  sim_.run_all();
  EXPECT_EQ(listeners_[0].replies_sent, 10);
  EXPECT_EQ(listeners_[1].replies_sent, 10);
  EXPECT_EQ(listeners_[1].received.size(), 11u);
  EXPECT_EQ(listeners_[3].received.size(), 11u);
  expect_all_senders(3, 0);
  EXPECT_EQ(listeners_[0].received.size(), 10u);
  EXPECT_EQ(listeners_[2].received.size(), 10u);
  expect_all_senders(2, 1);
  EXPECT_EQ(channel_->counters().frames_sent, 21u);
  EXPECT_EQ(channel_->counters().frames_delivered, 42u);
  EXPECT_EQ(channel_->counters().collisions, 0u);
}

}  // namespace
}  // namespace dftmsn
