// Checkpoint round-trip property suite: for every protocol variant ×
// mobility model, snapshot a run mid-flight, resume from the bytes, and
// require the resumed run's Summary to be bit-identical to the
// uninterrupted one. This is the tentpole determinism guarantee: a resume
// is a pure fast-forward, never a perturbation.
#include "snapshot/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "../testutil/trace_fixtures.hpp"
#include "experiment/presets.hpp"
#include "experiment/runner.hpp"
#include "experiment/world.hpp"

namespace dftmsn {
namespace {

Config small_config(MobilityKind mobility) {
  Config c;
  c.scenario.num_sensors = 10;
  c.scenario.num_sinks = 2;
  c.scenario.field_m = 120.0;
  c.scenario.duration_s = 600.0;
  c.scenario.warmup_s = 50.0;
  c.scenario.speed_min_mps = 0.5;  // waypoint needs v_min > 0
  c.scenario.speed_max_mps = 4.0;
  c.scenario.mobility = mobility;
  c.scenario.seed = 20260806;
  if (mobility == MobilityKind::kTrace) {
    c.scenario.trace_path = testutil::write_test_trace(
        "checkpoint_roundtrip_test.tmp.trc", c.scenario.num_sensors,
        c.scenario.field_m, c.scenario.duration_s, c.scenario.seed);
  }
  return c;
}

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void expect_identical_results(const RunResult& a, const RunResult& b,
                              const std::string& label) {
  EXPECT_EQ(bits(a.delivery_ratio), bits(b.delivery_ratio)) << label;
  EXPECT_EQ(bits(a.mean_power_mw), bits(b.mean_power_mw)) << label;
  EXPECT_EQ(bits(a.mean_delay_s), bits(b.mean_delay_s)) << label;
  EXPECT_EQ(bits(a.mean_hops), bits(b.mean_hops)) << label;
  EXPECT_EQ(bits(a.overhead_bits_per_delivery),
            bits(b.overhead_bits_per_delivery))
      << label;
  EXPECT_EQ(a.generated, b.generated) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.collisions, b.collisions) << label;
  EXPECT_EQ(a.attempts, b.attempts) << label;
  EXPECT_EQ(a.failed_attempts, b.failed_attempts) << label;
  EXPECT_EQ(a.data_transmissions, b.data_transmissions) << label;
  EXPECT_EQ(a.drops_overflow, b.drops_overflow) << label;
  EXPECT_EQ(a.drops_threshold, b.drops_threshold) << label;
  EXPECT_EQ(a.events_executed, b.events_executed) << label;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << label;
  EXPECT_EQ(a.drops_node_failure, b.drops_node_failure) << label;
  EXPECT_EQ(a.frames_fault_corrupted, b.frames_fault_corrupted) << label;
}

constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::kOpt,    ProtocolKind::kNoOpt,    ProtocolKind::kNoSleep,
    ProtocolKind::kZbr,    ProtocolKind::kDirect,   ProtocolKind::kEpidemic,
    ProtocolKind::kSwim,
};
constexpr MobilityKind kAllMobility[] = {
    MobilityKind::kZone, MobilityKind::kWaypoint, MobilityKind::kPatrol,
    MobilityKind::kTrace};

TEST(CheckpointRoundTrip, EveryProtocolTimesEveryMobilityModel) {
  for (ProtocolKind kind : kAllProtocols) {
    for (MobilityKind mobility : kAllMobility) {
      const std::string label = std::string(protocol_kind_name(kind)) + "/" +
                                mobility_kind_name(mobility);
      const Config cfg = small_config(mobility);

      // Uninterrupted reference run, checkpointed mid-flight.
      World reference(cfg, kind);
      reference.run_until(cfg.scenario.duration_s / 2);
      const std::vector<std::uint8_t> image = make_checkpoint(reference);
      reference.run();
      const RunResult expected = reduce_world(reference);

      // Resumed run: rebuild + verified replay + finish.
      std::unique_ptr<World> resumed = resume_world(cfg, kind, image);
      resumed->run();
      expect_identical_results(expected, reduce_world(*resumed), label);
    }
  }
}

TEST(CheckpointRoundTrip, ResumeIsVerifiedAgainstRecordedBytes) {
  // resume_world's verify pass re-serializes the replayed world and
  // byte-compares it with the checkpoint; a checkpoint taken at a
  // different point must be rejected as a mismatch, not silently used.
  const Config cfg = small_config(MobilityKind::kZone);
  World world(cfg, ProtocolKind::kOpt);
  world.run_until(200.0);
  std::vector<std::uint8_t> image = make_checkpoint(world);

  // Forge the meta: claim the snapshot was taken 50 events earlier. The
  // replay then reproduces a *different* state than the recorded bytes.
  std::vector<std::uint8_t> state;
  const CheckpointMeta meta = read_checkpoint_meta(image, &state);
  ASSERT_GT(meta.events, 50u);
  World truncated(cfg, ProtocolKind::kOpt);
  truncated.replay_to(meta.events - 50, meta.time);
  EXPECT_THROW(snapshot::require_identical(state, truncated.serialize_state()),
               snapshot::SnapshotMismatch);
}

TEST(CheckpointRoundTrip, CheckpointAtTimeZeroResumes) {
  const Config cfg = small_config(MobilityKind::kZone);
  World world(cfg, ProtocolKind::kDirect);
  world.run_until(0.0);  // started, nothing executed yet
  const std::vector<std::uint8_t> image = make_checkpoint(world);
  world.run();
  std::unique_ptr<World> resumed =
      resume_world(cfg, ProtocolKind::kDirect, image);
  resumed->run();
  expect_identical_results(reduce_world(world), reduce_world(*resumed),
                           "t=0");
}

TEST(CheckpointRoundTrip, FaultPlansSurviveResume) {
  // Checkpoint across a crash/outage-laden run: injector state (burst
  // windows, rng) must replay exactly.
  Config cfg = small_config(MobilityKind::kZone);
  cfg.faults.plan = "crash@150:frac=0.2,for=200;loss@100:prob=0.3,for=80";
  World world(cfg, ProtocolKind::kOpt);
  world.run_until(300.0);
  const std::vector<std::uint8_t> image = make_checkpoint(world);
  world.run();
  std::unique_ptr<World> resumed = resume_world(cfg, ProtocolKind::kOpt, image);
  resumed->run();
  expect_identical_results(reduce_world(world), reduce_world(*resumed),
                           "faults");
}

TEST(CheckpointRoundTrip, PaperPresetImageStaysSmall) {
  // Size guard on the encoding: every random stream is 16 bytes of
  // (seed, draws). Writing engines out whole (312 words each, ~20 KB per
  // sensor) would fail this bound.
  const std::optional<Config> cfg = scenario_preset("paper");
  ASSERT_TRUE(cfg.has_value());
  World world(*cfg, ProtocolKind::kOpt);
  world.run_until(100.0);
  const std::size_t bytes = make_checkpoint(world).size();
  const auto sensors = static_cast<std::size_t>(cfg->scenario.num_sensors);
  EXPECT_LT(bytes, 4096u * sensors) << bytes / sensors << " B per sensor";
}

}  // namespace
}  // namespace dftmsn
