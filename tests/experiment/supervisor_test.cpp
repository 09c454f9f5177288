// Supervisor behaviour: watchdog rescue of hung replications, retry from
// the last good checkpoint after crashes, quarantine when the retry
// budget runs out, manifest bookkeeping, and partial aggregation. Uses
// the fault harness's `hang`/`die` primitives (with `attempts=` gating)
// to make every failure deterministic.
#include "experiment/supervisor.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "experiment/runner.hpp"

namespace dftmsn {
namespace {

Config small_config(std::uint64_t seed) {
  Config c;
  c.scenario.num_sensors = 10;
  c.scenario.num_sinks = 2;
  c.scenario.field_m = 120.0;
  c.scenario.duration_s = 600.0;
  c.scenario.warmup_s = 50.0;
  c.scenario.speed_max_mps = 4.0;
  c.scenario.seed = seed;
  return c;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_TRUE(same_bits(a.delivery_ratio, b.delivery_ratio));
  EXPECT_TRUE(same_bits(a.mean_power_mw, b.mean_power_mw));
  EXPECT_TRUE(same_bits(a.mean_delay_s, b.mean_delay_s));
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

/// RAII scratch directory for checkpoints.
struct TempDir {
  explicit TempDir(const std::string& name) : path(name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

TEST(Supervisor, CrashingReplicationRetriesFromCheckpointUnperturbed) {
  TempDir dir("supervisor_die.tmp");
  RunSpec spec;
  spec.config = small_config(77);
  spec.config.faults.plan = "die@300:attempts=1";  // crashes attempt 0 only

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_s = 100.0;
  opts.retry_backoff_s = 0.0;
  const SweepManifest m = run_specs_supervised({spec}, opts);
  ASSERT_EQ(m.completed(), 1);
  EXPECT_EQ(m.specs[0].retries, 1);
  EXPECT_EQ(m.retried(), 1);

  // The retried replication must report exactly the numbers of a run
  // that executed attempt 1 start-to-finish: supervision is invisible.
  Config straight = spec.config;
  straight.faults.attempt = 1;
  expect_identical(run_once(straight, spec.kind), m.specs[0].result);
}

TEST(Supervisor, WatchdogRescuesHungReplication) {
  TempDir dir("supervisor_hang.tmp");
  RunSpec spec;
  spec.config = small_config(78);
  spec.config.faults.plan = "hang@300:attempts=1";  // hangs attempt 0 only

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_s = 100.0;
  opts.watchdog_secs = 0.4;
  opts.retry_backoff_s = 0.0;
  const SweepManifest m = run_specs_supervised({spec}, opts);
  ASSERT_EQ(m.completed(), 1);
  EXPECT_GE(m.specs[0].retries, 1);

  Config straight = spec.config;
  straight.faults.attempt = 1;
  expect_identical(run_once(straight, spec.kind), m.specs[0].result);
}

TEST(Supervisor, QuarantinesAfterRetryBudgetAndAggregatesTheRest) {
  TempDir dir("supervisor_quarantine.tmp");
  std::vector<RunSpec> specs(2);
  specs[0].config = small_config(79);
  specs[0].config.faults.plan = "die@300";  // ungated: dies every attempt
  specs[1].config = small_config(80);       // clean

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_s = 100.0;
  opts.max_retries = 1;
  opts.retry_backoff_s = 0.0;
  const SweepManifest m = run_specs_supervised(specs, opts);

  EXPECT_EQ(m.specs[0].status, SpecStatus::kQuarantined);
  EXPECT_EQ(m.specs[0].retries, 2);  // initial try + 1 retry, both died
  EXPECT_FALSE(m.specs[0].detail.empty());
  EXPECT_EQ(m.specs[1].status, SpecStatus::kCompleted);
  EXPECT_EQ(m.completed(), 1);
  EXPECT_EQ(m.quarantined(), 1);

  // Partial aggregation folds only the completed replication.
  const std::vector<RunResult> done = completed_results(m);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].generated, m.specs[1].result.generated);
}

TEST(Supervisor, AcceptanceMixedSweepWithHangAndCrashCompletes) {
  // The ISSUE acceptance scenario: a sweep containing >= 1 deliberately
  // hung and >= 1 crashing replication completes with correct counts.
  TempDir dir("supervisor_mixed.tmp");
  std::vector<RunSpec> specs(3);
  specs[0].config = small_config(81);
  specs[0].config.faults.plan = "hang@250:attempts=1";
  specs[1].config = small_config(82);
  specs[1].config.faults.plan = "die@250:attempts=1";
  specs[2].config = small_config(83);  // clean

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_s = 100.0;
  opts.watchdog_secs = 0.4;
  opts.retry_backoff_s = 0.0;
  opts.jobs = 3;
  const SweepManifest m = run_specs_supervised(specs, opts);
  EXPECT_EQ(m.completed(), 3);
  EXPECT_EQ(m.quarantined(), 0);
  EXPECT_EQ(m.interrupted(), 0);
  EXPECT_EQ(m.retried(), 2);
  EXPECT_EQ(m.specs[2].retries, 0);
}

TEST(Supervisor, InterruptedSweepResumesAndSkipsCompleted) {
  TempDir dir("supervisor_resume.tmp");
  std::vector<RunSpec> specs(2);
  specs[0].config = small_config(84);
  specs[1].config = small_config(85);

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.checkpoint_every_s = 150.0;
  opts.stop_after_checkpoints = 1;
  SweepManifest m = run_specs_supervised(specs, opts);
  EXPECT_EQ(m.interrupted(), 2);
  EXPECT_TRUE(std::filesystem::exists(manifest_path(dir.path)));
  EXPECT_TRUE(
      std::filesystem::exists(checkpoint_container_path(dir.path)));

  opts.stop_after_checkpoints = 0;
  opts.resume = true;
  m = run_specs_supervised(specs, opts);
  ASSERT_EQ(m.completed(), 2);
  const RunResult first = m.specs[0].result;

  // A third invocation finds everything completed and reloads results
  // from the manifest bit-for-bit, without running anything.
  m = run_specs_supervised(specs, opts);
  EXPECT_EQ(m.completed(), 2);
  expect_identical(first, m.specs[0].result);
}

TEST(Supervisor, ResumeRejectsManifestFromDifferentSweep) {
  TempDir dir("supervisor_drift.tmp");
  std::vector<RunSpec> specs(1);
  specs[0].config = small_config(86);

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  run_specs_supervised(specs, opts);

  opts.resume = true;
  specs[0].config.protocol.alpha = 0.9;  // drifted parameters
  EXPECT_THROW(run_specs_supervised(specs, opts), std::runtime_error);
}

TEST(Supervisor, ManifestRoundTripsThroughDisk) {
  TempDir dir("supervisor_manifest.tmp");
  std::filesystem::create_directories(dir.path);
  SweepManifest m;
  m.specs.resize(3);
  m.specs[0].status = SpecStatus::kCompleted;
  m.specs[0].config_digest = 12345678901234567890ull;
  m.specs[0].result.delivery_ratio = 0.123456789012345;
  m.specs[0].result.generated = 42;
  m.specs[0].result.events_executed = 99999;
  m.specs[1].status = SpecStatus::kQuarantined;
  m.specs[1].retries = 3;
  m.specs[1].detail = "watchdog: no event progress for 0.4s wall";
  m.specs[2].status = SpecStatus::kInterrupted;
  m.specs[2].detail = "interrupted at t=450.0";

  const std::string path = manifest_path(dir.path);
  {
    ManifestWriter writer(path, {m.specs[0].config_digest,
                                 m.specs[1].config_digest,
                                 m.specs[2].config_digest});
    for (std::size_t i = 0; i < m.specs.size(); ++i)
      writer.append(i, m.specs[i]);
  }
  SweepManifest loaded;
  ASSERT_TRUE(load_manifest(path, &loaded));
  ASSERT_EQ(loaded.specs.size(), 3u);
  EXPECT_EQ(loaded.specs[0].status, SpecStatus::kCompleted);
  EXPECT_EQ(loaded.specs[0].config_digest, 12345678901234567890ull);
  EXPECT_TRUE(same_bits(loaded.specs[0].result.delivery_ratio,
                        0.123456789012345));
  EXPECT_EQ(loaded.specs[0].result.generated, 42u);
  EXPECT_EQ(loaded.specs[1].status, SpecStatus::kQuarantined);
  EXPECT_EQ(loaded.specs[1].retries, 3);
  EXPECT_EQ(loaded.specs[1].detail,
            "watchdog: no event progress for 0.4s wall");
  EXPECT_EQ(loaded.specs[2].status, SpecStatus::kInterrupted);

  SweepManifest missing;
  EXPECT_FALSE(load_manifest(dir.path + "/nope.txt", &missing));
}

TEST(Supervisor, SweepAggregationSkipsQuarantinedPoints) {
  TempDir dir("supervisor_sweep.tmp");
  std::vector<SweepPoint> points(2);
  points[0].config = small_config(90);
  points[1].config = small_config(90);
  points[1].config.faults.plan = "die@200";  // every replication dies

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.max_retries = 0;
  opts.retry_backoff_s = 0.0;
  const SupervisedSweep sweep = run_sweep_supervised(points, 2, opts);
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_EQ(sweep.manifest.completed(), 2);
  EXPECT_EQ(sweep.manifest.quarantined(), 2);
  EXPECT_EQ(sweep.points[0].replications, 2);
  EXPECT_EQ(sweep.points[1].replications, 0);  // nothing to aggregate
}

TEST(Supervisor, ExternalStopMarksSpecsInterrupted) {
  TempDir dir("supervisor_stop.tmp");
  std::vector<RunSpec> specs(3);
  for (std::size_t i = 0; i < specs.size(); ++i)
    specs[i].config = small_config(95 + i);

  std::atomic<bool> stop{true};  // raised before anything starts
  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.stop = &stop;
  const SweepManifest m = run_specs_supervised(specs, opts);
  EXPECT_EQ(m.completed(), 0);
  EXPECT_EQ(m.interrupted(), 3);
}

}  // namespace
}  // namespace dftmsn
