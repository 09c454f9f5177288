// Checkpoint container validation (magic/version/digest/identity checks)
// plus the tentpole acceptance test: an interrupted-then-resumed sweep
// produces bit-identical results to an uninterrupted one, at --jobs 1 and
// --jobs 4 alike.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "experiment/runner.hpp"
#include "experiment/supervisor.hpp"
#include "experiment/world.hpp"
#include "snapshot/checkpoint.hpp"

namespace dftmsn {
namespace {

Config small_config() {
  Config c;
  c.scenario.num_sensors = 10;
  c.scenario.num_sinks = 2;
  c.scenario.field_m = 120.0;
  c.scenario.duration_s = 600.0;
  c.scenario.warmup_s = 50.0;
  c.scenario.speed_max_mps = 4.0;
  c.scenario.seed = 4242;
  return c;
}

std::vector<std::uint8_t> checkpoint_at(const Config& cfg, ProtocolKind kind,
                                        SimTime at) {
  World world(cfg, kind);
  world.run_until(at);
  return make_checkpoint(world);
}

TEST(CheckpointFormat, MetaRoundTrips) {
  const Config cfg = small_config();
  World world(cfg, ProtocolKind::kOpt);
  world.run_until(250.0);
  const std::vector<std::uint8_t> image = make_checkpoint(world);
  const CheckpointMeta meta = read_checkpoint_meta(image);
  EXPECT_EQ(meta.version, 4u);  // v4: rng streams as (seed, draws)
  EXPECT_EQ(meta.config_digest, config_digest(cfg, ProtocolKind::kOpt));
  EXPECT_EQ(meta.protocol,
            static_cast<std::uint32_t>(ProtocolKind::kOpt));
  EXPECT_EQ(meta.seed, cfg.scenario.seed);
  EXPECT_DOUBLE_EQ(meta.time, 250.0);
  EXPECT_EQ(meta.events, world.sim().events_executed());
}

TEST(CheckpointFormat, DetectsTamperedBytes) {
  const std::vector<std::uint8_t> image =
      checkpoint_at(small_config(), ProtocolKind::kOpt, 100.0);
  // Flip one byte anywhere in the middle: the trailing digest must trip.
  std::vector<std::uint8_t> bent = image;
  bent[bent.size() / 2] ^= 0x01;
  EXPECT_THROW(read_checkpoint_meta(bent), snapshot::SnapshotError);
}

TEST(CheckpointFormat, DetectsTruncation) {
  const std::vector<std::uint8_t> image =
      checkpoint_at(small_config(), ProtocolKind::kOpt, 100.0);
  std::vector<std::uint8_t> cut(image.begin(),
                                image.begin() + image.size() / 2);
  EXPECT_THROW(read_checkpoint_meta(cut), snapshot::SnapshotError);
  EXPECT_THROW(read_checkpoint_meta({}), snapshot::SnapshotError);
}

TEST(CheckpointFormat, RejectsForeignMagic) {
  std::vector<std::uint8_t> image =
      checkpoint_at(small_config(), ProtocolKind::kOpt, 100.0);
  // Re-stamp the magic *and* recompute the digest, isolating the magic
  // check from the digest check.
  image[0] = 'X';
  std::uint64_t digest;
  {
    snapshot::StateHash h;
    h.update(image.data(), image.size() - 8);
    digest = h.value();
  }
  for (int i = 0; i < 8; ++i)
    image[image.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(digest >> (8 * i));
  EXPECT_THROW(read_checkpoint_meta(image), snapshot::SnapshotError);
}

TEST(CheckpointFormat, RejectsConfigDriftOnResume) {
  const Config cfg = small_config();
  const std::vector<std::uint8_t> image =
      checkpoint_at(cfg, ProtocolKind::kOpt, 100.0);

  Config drifted = cfg;
  drifted.protocol.alpha = 0.9;  // any registered key counts
  EXPECT_THROW(resume_world(drifted, ProtocolKind::kOpt, image),
               snapshot::SnapshotError);
  // Same config under another protocol is a different run too.
  EXPECT_THROW(resume_world(cfg, ProtocolKind::kZbr, image),
               snapshot::SnapshotError);
  // And the unchanged pair resumes fine.
  EXPECT_NO_THROW(resume_world(cfg, ProtocolKind::kOpt, image));
}

TEST(CheckpointFormat, FileRoundTripsThroughDisk) {
  const std::string path = "checkpoint_resume_test_tmp.ckpt";
  const Config cfg = small_config();
  World world(cfg, ProtocolKind::kOpt);
  world.run_until(150.0);
  write_checkpoint(path, world);
  std::vector<std::uint8_t> state;
  const CheckpointMeta meta = read_checkpoint_file(path, &state);
  EXPECT_DOUBLE_EQ(meta.time, 150.0);
  EXPECT_EQ(state, world.serialize_state());
  std::remove(path.c_str());
}

// The acceptance criterion: interrupt a supervised sweep at a checkpoint
// boundary, resume it, and require results bit-identical to the same
// sweep run start-to-finish — at jobs 1 and jobs 4.
class InterruptResume : public ::testing::TestWithParam<int> {};

TEST_P(InterruptResume, BitIdenticalToUninterruptedRun) {
  const int jobs = GetParam();
  const std::string dir =
      "ckpt_resume_jobs" + std::to_string(jobs) + ".tmp";
  std::filesystem::remove_all(dir);

  std::vector<RunSpec> specs(4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].config = small_config();
    specs[i].config.scenario.seed = 9000 + i;
    specs[i].kind = i % 2 == 0 ? ProtocolKind::kOpt : ProtocolKind::kDirect;
  }
  const std::vector<RunResult> reference = run_specs(specs, 1);

  SupervisorOptions opts;
  opts.checkpoint_dir = dir;
  opts.checkpoint_every_s = 150.0;
  opts.jobs = jobs;
  opts.stop_after_checkpoints = 1;  // deterministic mid-run interruption
  const SweepManifest interrupted = run_specs_supervised(specs, opts);
  EXPECT_EQ(interrupted.completed(), 0);
  EXPECT_EQ(interrupted.interrupted(), 4);

  opts.stop_after_checkpoints = 0;
  opts.resume = true;
  const SweepManifest resumed = run_specs_supervised(specs, opts);
  ASSERT_EQ(resumed.completed(), 4);
  EXPECT_EQ(resumed.quarantined(), 0);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunResult& a = reference[i];
    const RunResult& b = resumed.specs[i].result;
    EXPECT_EQ(std::memcmp(&a.delivery_ratio, &b.delivery_ratio,
                          sizeof(double)),
              0)
        << "spec " << i;
    EXPECT_EQ(std::memcmp(&a.mean_power_mw, &b.mean_power_mw, sizeof(double)),
              0)
        << "spec " << i;
    EXPECT_EQ(std::memcmp(&a.mean_delay_s, &b.mean_delay_s, sizeof(double)),
              0)
        << "spec " << i;
    EXPECT_EQ(a.generated, b.generated) << "spec " << i;
    EXPECT_EQ(a.delivered, b.delivered) << "spec " << i;
    EXPECT_EQ(a.collisions, b.collisions) << "spec " << i;
    EXPECT_EQ(a.events_executed, b.events_executed) << "spec " << i;
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Jobs, InterruptResume, ::testing::Values(1, 4));

}  // namespace
}  // namespace dftmsn
