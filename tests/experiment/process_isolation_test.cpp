// Process-isolated supervision (IsolationMode::kProcess): clean runs are
// bit-identical to in-process supervision at any jobs value, a worker
// that segfaults or aborts is retried from its checkpoint without
// perturbing the numbers, an ungated crasher is quarantined, a hung
// worker is SIGKILLed by the watchdog, and telemetry registries cross
// the process boundary intact.
//
// DFTMSN_CLI_PATH is injected by CMake ($<TARGET_FILE:dftmsn_cli>): the
// worker executable is the real CLI binary, exactly as in production.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/supervisor.hpp"
#include "experiment/world.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/ckpt_container.hpp"
#include "telemetry/json_value.hpp"

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

/// RAII scratch directory for checkpoints.
struct TempDir {
  explicit TempDir(const std::string& name) : path(name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

SupervisorOptions base_options(const std::string& dir, IsolationMode mode) {
  SupervisorOptions opts;
  opts.checkpoint_dir = dir;
  opts.checkpoint_every_s = 100.0;
  opts.retry_backoff_s = 0.0;
  opts.isolate = mode;
  if (mode == IsolationMode::kProcess) opts.worker_exe = DFTMSN_CLI_PATH;
  return opts;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(ProcessIsolation, CleanSweepManifestIdenticalToInProcess) {
  // The tentpole equivalence criterion: same specs, same manifest bytes,
  // for both isolation modes at jobs 1 and 4.
  std::vector<RunSpec> specs(3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].config = small_config(200 + i);
    specs[i].config.telemetry.enabled = true;
  }

  auto manifest_of = [&](const std::string& dirname, IsolationMode mode,
                         int jobs) {
    TempDir dir(dirname);
    SupervisorOptions opts = base_options(dir.path, mode);
    opts.jobs = jobs;
    const SweepManifest m = run_specs_supervised(specs, opts);
    EXPECT_EQ(m.completed(), 3);
    return file_bytes(manifest_path(dir.path));
  };

  const std::string ref =
      manifest_of("iso_ref.tmp", IsolationMode::kInProcess, 1);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(ref, manifest_of("iso_in4.tmp", IsolationMode::kInProcess, 4));
  EXPECT_EQ(ref, manifest_of("iso_pr1.tmp", IsolationMode::kProcess, 1));
  EXPECT_EQ(ref, manifest_of("iso_pr4.tmp", IsolationMode::kProcess, 4));
}

TEST(ProcessIsolation, SegfaultingWorkerRetriesUnperturbed) {
  // attempt 0 segfaults at t=300 (a real SIGSEGV — only the process
  // boundary survives it); the retry must report exactly the numbers of
  // a crash-free attempt-1 run.
  TempDir dir("iso_segv.tmp");
  RunSpec spec;
  spec.config = small_config(210);
  spec.config.faults.plan = "segv@300:attempts=1";

  SupervisorOptions opts = base_options(dir.path, IsolationMode::kProcess);
  opts.max_retries = 1;
  const SweepManifest m = run_specs_supervised({spec}, opts);
  ASSERT_EQ(m.completed(), 1);
  EXPECT_EQ(m.specs[0].retries, 1);
  EXPECT_GT(m.specs[0].checkpoints, 0u);  // the crash left checkpoints behind

  Config straight = spec.config;
  straight.faults.attempt = 1;
  const RunResult expect = run_once(straight, spec.kind);
  EXPECT_EQ(m.specs[0].result.generated, expect.generated);
  EXPECT_EQ(m.specs[0].result.delivered, expect.delivered);
  EXPECT_EQ(m.specs[0].result.events_executed, expect.events_executed);
  EXPECT_DOUBLE_EQ(m.specs[0].result.delivery_ratio, expect.delivery_ratio);
  EXPECT_DOUBLE_EQ(m.specs[0].result.mean_delay_s, expect.mean_delay_s);
}

TEST(ProcessIsolation, AbortingWorkerRetriesAndUngatedOneQuarantines) {
  TempDir dir("iso_abort.tmp");
  std::vector<RunSpec> specs(2);
  specs[0].config = small_config(211);
  specs[0].config.faults.plan = "abort@300:attempts=1";  // retry succeeds
  specs[1].config = small_config(212);
  specs[1].config.faults.plan = "segv@300";  // every attempt dies

  SupervisorOptions opts = base_options(dir.path, IsolationMode::kProcess);
  opts.max_retries = 1;
  const SweepManifest m = run_specs_supervised(specs, opts);

  EXPECT_EQ(m.specs[0].status, SpecStatus::kCompleted);
  EXPECT_EQ(m.specs[0].retries, 1);
  EXPECT_EQ(m.specs[1].status, SpecStatus::kQuarantined);
  EXPECT_EQ(m.specs[1].retries, 2);  // initial try + 1 retry, both killed
  // Under ASan the signal is intercepted and the worker exits nonzero
  // instead of dying by signal, so assert only that a failure reason was
  // recorded — not its exact wording.
  EXPECT_FALSE(m.specs[1].detail.empty());
}

TEST(ProcessIsolation, WatchdogKillsHungWorker) {
  // The in-process watchdog flips a cooperative abort flag; a worker
  // can't see that flag, so the parent must SIGKILL it and retry.
  TempDir dir("iso_hang.tmp");
  RunSpec spec;
  spec.config = small_config(213);
  spec.config.faults.plan = "hang@300:attempts=1";

  SupervisorOptions opts = base_options(dir.path, IsolationMode::kProcess);
  opts.watchdog_secs = 0.4;
  const SweepManifest m = run_specs_supervised({spec}, opts);
  ASSERT_EQ(m.completed(), 1);
  EXPECT_GE(m.specs[0].retries, 1);

  Config straight = spec.config;
  straight.faults.attempt = 1;
  const RunResult expect = run_once(straight, spec.kind);
  EXPECT_EQ(m.specs[0].result.events_executed, expect.events_executed);
  EXPECT_EQ(m.specs[0].result.delivered, expect.delivered);
}

TEST(ProcessIsolation, RegistryCrossesTheProcessBoundaryIntact) {
  RunSpec spec;
  spec.config = small_config(214);
  spec.config.telemetry.enabled = true;

  TempDir in_dir("iso_tel_in.tmp");
  TempDir pr_dir("iso_tel_pr.tmp");
  const SweepManifest in_proc = run_specs_supervised(
      {spec}, base_options(in_dir.path, IsolationMode::kInProcess));
  const SweepManifest isolated = run_specs_supervised(
      {spec}, base_options(pr_dir.path, IsolationMode::kProcess));
  ASSERT_EQ(in_proc.completed(), 1);
  ASSERT_EQ(isolated.completed(), 1);
  ASSERT_FALSE(isolated.specs[0].registry.empty());
  EXPECT_EQ(isolated.specs[0].registry.serialize(),
            in_proc.specs[0].registry.serialize());
}

TEST(ProcessIsolation, WorksWithoutACheckpointDir) {
  // No checkpoint_dir: the worker has no container to resume from, so
  // retries restart from scratch.
  RunSpec spec;
  spec.config = small_config(215);
  spec.config.faults.plan = "segv@300:attempts=1";

  SupervisorOptions opts;
  opts.retry_backoff_s = 0.0;
  opts.max_retries = 1;
  opts.isolate = IsolationMode::kProcess;
  opts.worker_exe = DFTMSN_CLI_PATH;
  const SweepManifest m = run_specs_supervised({spec}, opts);
  ASSERT_EQ(m.completed(), 1);
  EXPECT_EQ(m.specs[0].retries, 1);
  EXPECT_EQ(m.specs[0].checkpoints, 0u);
}

TEST(ProcessIsolation, FailedResumeVerificationRetriesInBothModes) {
  // A checkpoint that replay cannot reproduce — a sensor failed by hand
  // after t=100 — fails the resuming attempt's verification. Both modes
  // count that as a failed attempt, drop the entry and finish from
  // scratch on the retry, so their manifests are byte-identical.
  RunSpec spec;
  spec.config = small_config(217);

  auto manifest_of = [&](const std::string& dirname, IsolationMode mode) {
    TempDir dir(dirname);
    std::filesystem::create_directories(dir.path);
    {
      World w(spec.config, spec.kind);
      w.run_until(100.0);
      w.sensors()[0]->fail(false);
      snapshot::container_put(checkpoint_container_path(dir.path), 0,
                              make_checkpoint(w));
    }
    SupervisorOptions opts = base_options(dir.path, mode);
    opts.resume = true;
    const SweepManifest m = run_specs_supervised({spec}, opts);
    EXPECT_EQ(m.completed(), 1);
    EXPECT_EQ(m.specs[0].retries, 1);
    EXPECT_EQ(m.specs[0].result.events_executed,
              run_once(spec.config, spec.kind).events_executed);
    return file_bytes(manifest_path(dir.path));
  };

  const std::string in_proc =
      manifest_of("iso_stale_in.tmp", IsolationMode::kInProcess);
  ASSERT_FALSE(in_proc.empty());
  EXPECT_EQ(in_proc, manifest_of("iso_stale_pr.tmp", IsolationMode::kProcess));
}

TEST(ProcessIsolation, DeadWorkerIsNoticedWhileItsSiblingRuns) {
  // A parent learns of a worker's death from EOF on its socket, which
  // arrives only once every copy of the worker's end is closed. Were a
  // sibling spawned alongside it to inherit that end, the dead worker's
  // retry would wait for the sibling to exit. Spec 0 dies early; spec 1
  // runs several times longer: spec 0 must be retried, and done, first.
  TempDir dir("iso_sibling.tmp");
  std::vector<RunSpec> specs(2);
  specs[0].config = small_config(218);
  specs[0].config.faults.plan = "segv@50:attempts=1";
  specs[1].config = small_config(219);
  specs[1].config.scenario.num_sensors = 30;
  specs[1].config.scenario.duration_s = 4800.0;

  SupervisorOptions opts = base_options(dir.path, IsolationMode::kProcess);
  opts.checkpoint_every_s = 0.0;
  opts.jobs = 2;
  opts.max_retries = 1;
  opts.obs.trace_path = dir.path + "/trace.jsonl";
  const SweepManifest m = run_specs_supervised(specs, opts);
  ASSERT_EQ(m.completed(), 2);
  EXPECT_EQ(m.specs[0].retries, 1);
  EXPECT_EQ(m.specs[1].retries, 0);

  Config straight = specs[0].config;
  straight.faults.attempt = 1;
  const RunResult expect[] = {run_once(straight, specs[0].kind),
                              run_once(specs[1].config, specs[1].kind)};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(m.specs[i].result.events_executed, expect[i].events_executed);
    EXPECT_EQ(m.specs[i].result.delivered, expect[i].delivered);
    EXPECT_DOUBLE_EQ(m.specs[i].result.delivery_ratio,
                     expect[i].delivery_ratio);
  }

  // Wall-clock stamps (us) of spec 0's retry and of each spec's last
  // attempt end.
  double retry0 = -1.0, end0 = -1.0, end1 = -1.0;
  std::ifstream in(opts.obs.trace_path);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line == "[") continue;
    const telemetry::JsonValue v =
        telemetry::parse_json(line.substr(0, line.size() - 1));
    const double tid = v.number_or("tid", -1.0);
    const double ts = v.number_or("ts", -1.0);
    const std::string name = v.string_or("name", "");
    if (tid == 0.0 && name == "retry") retry0 = ts;
    if (name == "attempt" && v.string_or("ph", "") == "E")
      (tid == 0.0 ? end0 : end1) = ts;
  }
  ASSERT_GE(retry0, 0.0);
  ASSERT_GE(end1, 0.0);
  EXPECT_LT(retry0, end1) << "spec 0's death went unseen until spec 1 ended";
  EXPECT_LT(end0, end1) << "spec 0's retry waited for spec 1";
}

TEST(ProcessIsolation, ProcessModeWithoutWorkerExeThrows) {
  RunSpec spec;
  spec.config = small_config(216);
  SupervisorOptions opts;
  opts.isolate = IsolationMode::kProcess;  // worker_exe left empty
  EXPECT_THROW(run_specs_supervised({spec}, opts), std::runtime_error);
}

// --- end-to-end through the CLI itself ---------------------------------

int run_cli(const std::string& args) {
  const std::string cmd = std::string(DFTMSN_CLI_PATH) + " " + args +
                          " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ProcessIsolationCli, GatedSegvSweepExitsZeroUngatedExitsFive) {
  // The ISSUE acceptance commands: a gated segv plan completes (exit 0)
  // under --isolate process --max-retries 1; the ungated plan
  // quarantines every replication (exit 5).
  const std::string scenario =
      " scenario.num_sensors=10 scenario.duration_s=600"
      " scenario.warmup_s=50 --reps 2 --isolate process --max-retries 1"
      " --checkpoint-every 100 --checkpoint-dir ";
  TempDir d1("iso_cli_ok.tmp");
  EXPECT_EQ(run_cli("--faults segv@300:attempts=1" + scenario + d1.path), 0);

  TempDir d2("iso_cli_quar.tmp");
  EXPECT_EQ(run_cli("--faults segv@300" + scenario + d2.path), 5);
}

}  // namespace
}  // namespace dftmsn
