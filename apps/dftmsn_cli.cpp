// dftmsn command-line runner: run any scenario/protocol combination from
// the shell without writing C++.
//
//   dftmsn_cli [--protocol NAME] [--config FILE] [--reps N] [--jobs N]
//              [--faults PLAN] [--check-invariants] [--contacts-csv FILE]
//              [--list-params] [key=value ...]
//
// Examples:
//   dftmsn_cli --protocol OPT scenario.num_sinks=5 scenario.duration_s=10000
//   dftmsn_cli --protocol ZBR --reps 5 protocol.queue_capacity=50
//   dftmsn_cli --faults "crash@12500:frac=0.3" --check-invariants
//   dftmsn_cli --reps 8 --checkpoint-dir ckpt --checkpoint-every 2000
//              --watchdog-secs 30          (later: add --resume to continue)
//   dftmsn_cli --list-params
//
// Exit codes (full contract in docs/checkpoint_resume.md and
// docs/durability.md):
//   0  success (all replications completed; for --fsck: directory clean)
//   2  configuration / usage error (for --fsck: unrepairable damage)
//   3  protocol invariant violation (unsupervised runs)
//   4  interrupted (SIGINT/SIGTERM); checkpoints flushed, rerun with
//      --resume to continue
//   5  completed, but some replications were quarantined after
//      exhausting their retries (see the printed manifest)
//   7  --fsck applied repairs; the directory is resumable now
//   9  a scripted I/O crash-point (DFTMSN_IO_FAULTS / --io-faults)
//      terminated the process — test harnesses only
//
// The two worker modes run one frame loop (docs/distributed_sweeps.md):
// `--connect HOST:PORT` pulls specs from a dispatcher over TCP, and
// `--worker FD` (spawned by a supervising parent under --isolate=process;
// not for interactive use) is served one attempt over the socket it
// inherits as fd FD. Both exit 0 when the other end reports the sweep
// done (or hangs up cleanly) and 2 on a connect or wire-protocol
// failure. Simulation failures are *reported* inside result frames,
// never through this process's exit code. A worker killed by a signal
// (segv/abort fault plans, OOM, the parent's watchdog) has no exit code;
// the parent decodes the wait status instead.
#include <limits.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/config_io.hpp"
#include "experiment/fsck.hpp"
#include "experiment/presets.hpp"
#include "scenario/scenario.hpp"
#include "experiment/runner.hpp"
#include "experiment/supervisor.hpp"
#include "experiment/world.hpp"
#include "snapshot/io_env.hpp"
#include "snapshot/snapshot_io.hpp"
#include "telemetry/json_value.hpp"
#include "telemetry/report.hpp"
#include "telemetry/status.hpp"
#include "telemetry/sampler.hpp"
#include "trace/contact_probe.hpp"
#include "trace/recorder.hpp"

using namespace dftmsn;

namespace {

int usage(int code) {
  std::cout <<
      "usage: dftmsn_cli [options] [key=value ...]\n"
      "  --protocol NAME   OPT|NOOPT|NOSLEEP|ZBR|DIRECT|EPIDEMIC (default OPT)\n"
      "  --preset NAME     paper|air|flu|sparse|pressure scenario preset\n"
      "  --scenario NAME   generate a trace-driven scenario-library world\n"
      "                    (dense-urban|sparse-rural|convoy|mass-event) and\n"
      "                    run it; the generated motion trace is written to\n"
      "                    --scenario-dir (see docs/scenarios.md)\n"
      "  --scenario-dir D  directory for generated trace files (default .)\n"
      "  --config FILE     load key=value assignments from FILE first\n"
      "  --reps N          replicated runs with seeds seed..seed+N-1 (default 1)\n"
      "  --jobs N          worker threads for replicated runs (default 1;\n"
      "                    0 = one per hardware thread; results are\n"
      "                    bit-identical for every N)\n"
      "  --faults PLAN     deterministic fault plan, e.g.\n"
      "                    \"crash@600:frac=0.3;loss@100:prob=0.5,for=50\"\n"
      "                    (= faults.plan; see docs/fault_injection.md)\n"
      "  --check-invariants  verify protocol invariants after every event;\n"
      "                    first violation aborts with exit code 3\n"
      "  --contacts-csv F  write a contact trace to F (single-run only)\n"
      "  --list-params     print every configurable key with its default\n"
      "telemetry (see docs/observability.md):\n"
      "  --report-json F   write one canonical JSON run report to F\n"
      "                    (config digest + dump, summary stats, drop/fault\n"
      "                    breakdowns, instrument registry; implies\n"
      "                    telemetry.enabled=true and is byte-identical at\n"
      "                    every --jobs value)\n"
      "  --profile         collect wall-clock subsystem timings into the\n"
      "                    report's trailing \"profile\" section (host\n"
      "                    noise; excluded from determinism comparisons)\n"
      "  --timeseries-csv F  sample per-node xi / queue fill / radio state\n"
      "                    every telemetry.sample_period_s sim seconds\n"
      "                    (default 60) into F (single-run only)\n"
      "  --trace-csv F     stream MAC handshake/sleep/data/drop trace\n"
      "                    events to F (single-run only)\n"
      "supervision (see docs/checkpoint_resume.md):\n"
      "  --checkpoint-dir D   write the checkpoints.dcc container +\n"
      "                    manifest.txt under D; enables the supervised\n"
      "                    runner\n"
      "  --checkpoint-every S checkpoint every S simulated seconds\n"
      "                    (default 0: only on SIGINT/SIGTERM)\n"
      "  --resume          skip replications the manifest marks completed,\n"
      "                    resume the rest from their checkpoints\n"
      "  --watchdog-secs S abort a replication making no progress for S\n"
      "                    wall seconds, then retry it (default 0: off)\n"
      "  --max-retries N   retries per replication before quarantine\n"
      "                    (default 2)\n"
      "  --isolate MODE    in-process (default) or process: run each\n"
      "                    replication attempt in a spawned worker process\n"
      "                    so the sweep survives segfaults/aborts; clean\n"
      "                    runs are bit-identical to in-process\n"
      "  --worker FD       internal: run the replication attempt the parent\n"
      "                    serves over inherited socket FD (spawned by\n"
      "                    --isolate=process)\n"
      "distributed dispatch (see docs/distributed_sweeps.md):\n"
      "  --dispatch-port P serve the sweep as a lease-based work queue on\n"
      "                    TCP port P (0 = ephemeral port, announced as\n"
      "                    \"dispatch: listening on HOST:PORT\"); specs run\n"
      "                    on connected --connect workers; incompatible\n"
      "                    with --isolate process and --checkpoint-every\n"
      "  --dispatch-bind A bind address for --dispatch-port\n"
      "                    (default 127.0.0.1)\n"
      "  --lease-secs S    lease duration per granted spec; heartbeats\n"
      "                    showing event progress extend it (default 30)\n"
      "  --connect H:P     run as a pull-mode dispatch worker against the\n"
      "                    dispatcher at H:P until the sweep is done\n"
      "live status (purely observational; see docs/observability.md):\n"
      "  --status-every S  atomically rewrite status.json every S wall\n"
      "                    seconds (in --checkpoint-dir, or the current\n"
      "                    directory without one)\n"
      "  --status-port P   serve GET /status, /healthz and /metrics\n"
      "                    (Prometheus text) on 127.0.0.1:P while the sweep\n"
      "                    runs (0 = ephemeral port, printed at start)\n"
      "  --trace-out F     append lifecycle spans (attempt/checkpoint/\n"
      "                    retry/spawn/sigkill/quarantine) to F in Chrome\n"
      "                    trace-event JSONL, viewable in Perfetto\n"
      "  --status DIR      print the progress table from DIR/status.json\n"
      "                    and exit (reader side; add --watch to refresh\n"
      "                    every second until the sweep finishes)\n"
      "durability (see docs/durability.md):\n"
      "  --fsck DIR        scan DIR's container/manifest/trace files,\n"
      "                    repair torn tails and drop stale or corrupt\n"
      "                    entries; exit 0 clean, 7 repaired, 2\n"
      "                    unrepairable\n"
      "  --io-faults SPEC  deterministic I/O fault schedule, e.g.\n"
      "                    \"enospc@write#3\" or \"crash@rename#1\"\n"
      "                    (also read from $DFTMSN_IO_FAULTS; crash\n"
      "                    points _exit(9) — test harnesses only)\n";
  return code;
}

/// The worker must be this very binary: an --isolate=process sweep spawns
/// the executable that is already running, never a path from config.
std::string self_executable(const char* argv0) {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
  return std::string(argv0);  // non-procfs fallback
}

/// `--status DIR` reader: DIR/status.json is the whole interface — the
/// printing process never talks to the running sweep.
int run_status_reader(const std::string& dir, bool watch) {
  const std::string path = dir + "/status.json";
  for (;;) {
    telemetry::JsonValue doc;
    try {
      const std::vector<std::uint8_t> bytes = snapshot::read_file(path);
      doc = telemetry::parse_json(std::string(bytes.begin(), bytes.end()));
    } catch (const std::exception& e) {
      std::cerr << path << ": " << e.what() << "\n";
      return 2;
    }
    if (watch) std::cout << "\033[2J\033[H";  // clear screen, cursor home
    std::cout << telemetry::render_status_table(doc) << std::flush;
    if (!watch) return 0;
    // The sweep is over once every spec reached a terminal phase.
    const double total = doc.number_or("specs_total", 0.0);
    double terminal = 0.0;
    if (const telemetry::JsonValue* phases = doc.find("phases");
        phases != nullptr) {
      terminal = phases->number_or("done", 0.0) +
                 phases->number_or("quarantined", 0.0) +
                 phases->number_or("interrupted", 0.0);
    }
    if (total > 0.0 && terminal >= total) return 0;
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
}

std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) {
  // Flag only: workers observe it at the next event boundary, flush a
  // final checkpoint, and unwind cleanly.
  g_stop.store(true);
}

}  // namespace

int main(int argc, char** argv) {
  // Arm the I/O fault schedule before anything can touch the disk. The
  // environment variable (not a flag) is the canonical carrier so an
  // --isolate=process parent's schedule reaches the workers it spawns;
  // scope=parent/worker tokens then pick which process a fault fires in.
  if (const char* spec = std::getenv("DFTMSN_IO_FAULTS");
      spec != nullptr && *spec != '\0') {
    try {
      snapshot::IoEnv::instance().set_schedule_spec(spec);
      // An exiting process — not an unwinding exception — is the honest
      // simulation of losing power at the scheduled boundary.
      snapshot::IoEnv::instance().set_crash_exits(true);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }

  Config config;
  ProtocolKind kind = ProtocolKind::kOpt;
  int reps = 1;
  int jobs = 1;
  std::string contacts_csv;
  std::string report_json;
  std::string timeseries_csv;
  std::string trace_csv;
  bool profile = false;
  SupervisorOptions sup;
  bool supervised = false;
  std::string status_read_dir;
  bool status_watch = false;
  std::string scenario_name;
  std::string scenario_dir = ".";
  std::vector<std::string> overrides;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value after " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--worker") {
      // Worker mode short-circuits everything else: the frames the
      // parent serves over the inherited socket are the whole contract
      // (experiment/dispatch.hpp).
      const std::string fd = next();
      if (fd.empty() || fd.size() > 6 ||
          fd.find_first_not_of("0123456789") != std::string::npos) {
        std::cerr << "--worker needs a file descriptor number\n";
        return 2;
      }
      snapshot::IoEnv::instance().set_scope(snapshot::IoScope::kWorker);
      return serve_worker(std::atoi(fd.c_str()));
    }
    if (arg == "--connect") {
      // Dispatch-worker mode short-circuits the same way, into the same
      // frame loop over a TCP connection.
      const std::string hostport = next();
      const std::size_t colon = hostport.rfind(':');
      const int port = colon == std::string::npos
                           ? -1
                           : std::atoi(hostport.c_str() + colon + 1);
      if (colon == std::string::npos || colon == 0 || port < 1 ||
          port > 65535) {
        std::cerr << "--connect needs HOST:PORT (port 1..65535)\n";
        return 2;
      }
      return run_dispatch_worker(hostport.substr(0, colon), port);
    }
    if (arg == "--fsck") {
      const std::string dir = next();
      try {
        return run_fsck(dir, std::cout).exit_code();
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
      }
    }
    if (arg == "--io-faults") {
      const std::string spec = next();
      try {
        snapshot::IoEnv::instance().set_schedule_spec(spec);
        snapshot::IoEnv::instance().set_crash_exits(true);
        // Spawned workers inherit the schedule through the environment.
        ::setenv("DFTMSN_IO_FAULTS", spec.c_str(), 1);
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
      }
      continue;
    }
    if (arg == "--list-params") {
      for (const std::string& k : list_config_keys(config))
        std::cout << k << "\n";
      return 0;
    }
    if (arg == "--preset") {
      const std::string name = next();
      const auto preset = scenario_preset(name);
      if (!preset) {
        std::cerr << "unknown preset: " << name << " (";
        for (const std::string& p : scenario_preset_names())
          std::cerr << p << " ";
        std::cerr << ")\n";
        return 2;
      }
      config = *preset;
      continue;
    }
    if (arg == "--scenario") {
      scenario_name = next();
      if (!is_scenario_name(scenario_name)) {
        std::cerr << "unknown scenario: " << scenario_name << " (";
        for (const std::string& s : scenario_names()) std::cerr << s << " ";
        std::cerr << ")\n";
        return 2;
      }
      continue;
    }
    if (arg == "--scenario-dir") {
      scenario_dir = next();
      continue;
    }
    if (arg == "--protocol") {
      const std::string name = next();
      const auto parsed = parse_protocol_kind(name);
      if (!parsed) {
        std::cerr << "unknown protocol: " << name << "\n";
        return 2;
      }
      kind = *parsed;
      continue;
    }
    if (arg == "--config") {
      try {
        load_config_file(config, next());
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
      }
      continue;
    }
    if (arg == "--reps") {
      reps = std::atoi(next().c_str());
      if (reps < 1) {
        std::cerr << "--reps must be >= 1\n";
        return 2;
      }
      continue;
    }
    if (arg == "--jobs") {
      jobs = std::atoi(next().c_str());  // <= 0 means auto (all cores)
      continue;
    }
    if (arg == "--faults") {
      config.faults.plan = next();
      continue;
    }
    if (arg == "--check-invariants") {
      config.faults.check_invariants = true;
      continue;
    }
    if (arg == "--contacts-csv") {
      contacts_csv = next();
      continue;
    }
    if (arg == "--report-json") {
      report_json = next();
      continue;
    }
    if (arg == "--profile") {
      profile = true;
      continue;
    }
    if (arg == "--timeseries-csv") {
      timeseries_csv = next();
      continue;
    }
    if (arg == "--trace-csv") {
      trace_csv = next();
      continue;
    }
    if (arg == "--checkpoint-dir") {
      sup.checkpoint_dir = next();
      supervised = true;
      continue;
    }
    if (arg == "--checkpoint-every") {
      sup.checkpoint_every_s = std::atof(next().c_str());
      supervised = true;
      continue;
    }
    if (arg == "--resume") {
      sup.resume = true;
      supervised = true;
      continue;
    }
    if (arg == "--watchdog-secs") {
      sup.watchdog_secs = std::atof(next().c_str());
      supervised = true;
      continue;
    }
    if (arg == "--max-retries") {
      sup.max_retries = std::atoi(next().c_str());
      if (sup.max_retries < 0) {
        std::cerr << "--max-retries must be >= 0\n";
        return 2;
      }
      supervised = true;
      continue;
    }
    if (arg == "--status-every") {
      sup.obs.status_every_s = std::atof(next().c_str());
      if (sup.obs.status_every_s <= 0.0) {
        std::cerr << "--status-every must be > 0\n";
        return 2;
      }
      supervised = true;
      continue;
    }
    if (arg == "--status-port") {
      sup.obs.status_port = std::atoi(next().c_str());
      if (sup.obs.status_port < 0 || sup.obs.status_port > 65535) {
        std::cerr << "--status-port must be 0..65535\n";
        return 2;
      }
      supervised = true;
      continue;
    }
    if (arg == "--trace-out") {
      sup.obs.trace_path = next();
      supervised = true;
      continue;
    }
    if (arg == "--status") {
      status_read_dir = next();
      continue;
    }
    if (arg == "--watch") {
      status_watch = true;
      continue;
    }
    if (arg == "--dispatch-port") {
      sup.dispatch.port = std::atoi(next().c_str());
      if (sup.dispatch.port < 0 || sup.dispatch.port > 65535) {
        std::cerr << "--dispatch-port must be 0..65535\n";
        return 2;
      }
      supervised = true;
      continue;
    }
    if (arg == "--dispatch-bind") {
      sup.dispatch.bind = next();
      supervised = true;
      continue;
    }
    if (arg == "--lease-secs") {
      sup.dispatch.lease_secs = std::atof(next().c_str());
      if (sup.dispatch.lease_secs <= 0.0) {
        std::cerr << "--lease-secs must be > 0\n";
        return 2;
      }
      supervised = true;
      continue;
    }
    if (arg == "--isolate") {
      const std::string mode = next();
      if (mode == "in-process") {
        sup.isolate = IsolationMode::kInProcess;
      } else if (mode == "process") {
        sup.isolate = IsolationMode::kProcess;
      } else {
        std::cerr << "--isolate must be in-process or process\n";
        return 2;
      }
      supervised = true;
      continue;
    }
    overrides.push_back(arg);
  }
  if ((sup.resume || sup.checkpoint_every_s > 0) &&
      sup.checkpoint_dir.empty()) {
    std::cerr << "--resume/--checkpoint-every need --checkpoint-dir\n";
    return 2;
  }
  if (sup.dispatch.enabled() && sup.isolate == IsolationMode::kProcess) {
    std::cerr << "--dispatch-port runs specs on connected workers; it is "
                 "incompatible with --isolate process\n";
    return 2;
  }
  if (!status_read_dir.empty()) return run_status_reader(status_read_dir,
                                                         status_watch);
  if (status_watch) {
    std::cerr << "--watch needs --status DIR\n";
    return 2;
  }
  if (sup.obs.status_every_s > 0.0 && sup.obs.status_dir.empty())
    sup.obs.status_dir =
        sup.checkpoint_dir.empty() ? std::string(".") : sup.checkpoint_dir;

  try {
    if (!scenario_name.empty()) {
      // Like --preset, --scenario replaces the base config. The trace is
      // a function of the seed, so resolve the final seed first (a
      // scenario.seed=N override must regenerate the trace, not merely
      // reseed the traffic/placement streams against a stale one).
      Config probe = generate_scenario(scenario_name, config.scenario.seed)
                         .config;
      apply_config_overrides(probe, overrides);
      config = materialize_scenario(scenario_name, probe.scenario.seed,
                                    scenario_dir);
      std::cout << "scenario=" << scenario_name << " trace="
                << config.scenario.trace_path << "\n";
    }
    apply_config_overrides(config, overrides);
    config.validate();
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  // A report needs the instrument registry; --profile needs the timers.
  // Both are set before the specs are built so every replication (and, in
  // the supervised path, every checkpoint's config digest) agrees.
  if (!report_json.empty()) config.telemetry.enabled = true;
  if (profile) config.telemetry.profile = true;

  std::cout << "protocol=" << protocol_kind_name(kind)
            << " sensors=" << config.scenario.num_sensors
            << " sinks=" << config.scenario.num_sinks
            << " field=" << config.scenario.field_m << "m"
            << " duration=" << config.scenario.duration_s << "s"
            << " reps=" << reps << "\n";

  if (supervised) {
    if (!contacts_csv.empty() || !timeseries_csv.empty() ||
        !trace_csv.empty()) {
      std::cerr << "--contacts-csv/--timeseries-csv/--trace-csv are not "
                   "available under supervision\n";
      return 2;
    }
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    sup.jobs = jobs;
    sup.stop = &g_stop;
    sup.obs.announce = &std::cout;
    if (sup.isolate == IsolationMode::kProcess)
      sup.worker_exe = self_executable(argv[0]);

    std::vector<RunSpec> specs(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      specs[static_cast<std::size_t>(r)].config = config;
      specs[static_cast<std::size_t>(r)].config.scenario.seed =
          config.scenario.seed + static_cast<std::uint64_t>(r);
      specs[static_cast<std::size_t>(r)].kind = kind;
    }

    SweepManifest manifest;
    try {
      manifest = run_specs_supervised(specs, sup);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }

    for (std::size_t i = 0; i < manifest.specs.size(); ++i) {
      const SpecRecord& r = manifest.specs[i];
      std::cout << "rep " << i << ": " << spec_status_name(r.status)
                << " retries=" << r.retries;
      if (!r.detail.empty()) std::cout << " (" << r.detail << ")";
      std::cout << "\n";
    }
    std::cout << "manifest: completed=" << manifest.completed()
              << " retried=" << manifest.retried()
              << " quarantined=" << manifest.quarantined()
              << " interrupted=" << manifest.interrupted() << "\n";

    const std::vector<RunResult> done = completed_results(manifest);
    if (!done.empty()) {
      const ReplicatedResult r = reduce_results(done);
      std::cout << "over " << r.replications << " completed replications:\n"
                << "delivery_ratio=" << r.delivery_ratio.mean() << " +- "
                << r.delivery_ratio.ci95_half_width()
                << "\npower_mw=" << r.mean_power_mw.mean() << " +- "
                << r.mean_power_mw.ci95_half_width()
                << "\ndelay_s=" << r.mean_delay_s.mean() << " +- "
                << r.mean_delay_s.ci95_half_width() << "\n";
    }
    if (!report_json.empty()) {
      telemetry::ReportInputs in;
      in.config = &config;
      in.kind = kind;
      in.runs = &done;
      // Each completed spec's registry rides in the manifest (captured
      // from its accepted attempt, whichever isolation mode ran it);
      // merging in spec order makes the instrument sections identical at
      // every --jobs value and across isolation modes.
      RunTelemetry tel;
      for (const SpecRecord& rec : manifest.specs)
        if (rec.status == SpecStatus::kCompleted)
          tel.registry.merge(rec.registry);
      in.telemetry = &tel;
      in.supervisor.supervised = true;
      in.supervisor.completed = manifest.completed();
      in.supervisor.retried = manifest.retried();
      in.supervisor.quarantined = manifest.quarantined();
      in.supervisor.interrupted = manifest.interrupted();
      in.supervisor.checkpoints = manifest.total_checkpoints();
      try {
        telemetry::write_report_json(report_json, in);
        std::cout << "wrote " << report_json << "\n";
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
      }
    }
    if (manifest.interrupted() > 0) {
      if (!sup.checkpoint_dir.empty())
        std::cout << "interrupted; rerun with --resume --checkpoint-dir "
                  << sup.checkpoint_dir << " to continue\n";
      return 4;
    }
    if (manifest.quarantined() > 0) return 5;
    return 0;
  }

  try {
    if (reps == 1) {
      World world(config, kind);
      std::unique_ptr<CsvTraceSink> csv;
      std::unique_ptr<ContactProbe> probe;
      if (!contacts_csv.empty()) {
        csv = std::make_unique<CsvTraceSink>(contacts_csv);
        probe = std::make_unique<ContactProbe>(
            world.sim(), world.mobility(), config.radio.range_m, 1.0, *csv);
        probe->start();
      }
      std::unique_ptr<CsvTraceSink> trace_sink;
      if (!trace_csv.empty()) {
        trace_sink = std::make_unique<CsvTraceSink>(trace_csv);
        world.set_trace_sink(trace_sink.get());
      }
      std::unique_ptr<CsvTraceSink> ts_sink;
      std::unique_ptr<telemetry::TimeSeriesSampler> sampler;
      if (!timeseries_csv.empty()) {
        ts_sink = std::make_unique<CsvTraceSink>(timeseries_csv);
        const double period = config.telemetry.sample_period_s > 0.0
                                  ? config.telemetry.sample_period_s
                                  : 60.0;
        sampler = std::make_unique<telemetry::TimeSeriesSampler>(
            world.sim(), world.sensors(), world.metrics(), period, *ts_sink);
        sampler->start();
      }
      world.run();
      if (probe) probe->finish();

      const Metrics& m = world.metrics();
      std::cout << "delivery_ratio=" << m.delivery_ratio()
                << " power_mw=" << world.mean_sensor_power_mw()
                << " delay_s=" << m.mean_delay_s()
                << " hops=" << m.mean_hops() << "\n"
                << "generated=" << m.generated()
                << " delivered=" << m.delivered_unique()
                << " data_tx=" << m.data_transmissions()
                << " collisions=" << world.channel().counters().collisions
                << " drops_overflow=" << m.drops(DropReason::kOverflow)
                << " drops_ftd=" << m.drops(DropReason::kFtdThreshold) << "\n";
      if (const FaultInjector* inj = world.fault_injector()) {
        const FaultInjector::Counters& fc = inj->counters();
        std::cout << "faults: crashes=" << fc.crashes
                  << " outages=" << fc.outages
                  << " recoveries=" << fc.recoveries
                  << " loss_bursts=" << fc.loss_bursts
                  << " pressure=" << fc.pressure_events
                  << " drops_node_failure="
                  << m.drops(DropReason::kNodeFailure)
                  << " frames_corrupted="
                  << world.channel().counters().faults_corrupted << "\n";
      }
      if (const InvariantChecker* chk = world.invariant_checker())
        std::cout << "invariants: sweeps=" << chk->sweeps_run()
                  << " (all passed)\n";
      if (csv) std::cout << "wrote " << contacts_csv << "\n";
      if (trace_sink) std::cout << "wrote " << trace_csv << "\n";
      if (ts_sink)
        std::cout << "wrote " << timeseries_csv << " ("
                  << sampler->samples_taken() << " samples)\n";
      if (!report_json.empty()) {
        std::vector<RunResult> runs{reduce_world(world)};
        RunTelemetry tel;
        if (const telemetry::Registry* reg = world.registry())
          tel.registry.merge(*reg);
        if (const telemetry::Profiler* prof = world.profiler())
          tel.profile.merge(*prof);
        telemetry::ReportInputs in;
        in.config = &config;
        in.kind = kind;
        in.runs = &runs;
        in.telemetry = &tel;
        telemetry::write_report_json(report_json, in);
        std::cout << "wrote " << report_json << "\n";
      }
      return 0;
    }

    if (!contacts_csv.empty() || !timeseries_csv.empty() ||
        !trace_csv.empty()) {
      std::cerr << "--contacts-csv/--timeseries-csv/--trace-csv require "
                   "--reps 1\n";
      return 2;
    }
    // Expand the replication seeds exactly like run_replicated so the
    // printed aggregates are unchanged, but run them through run_specs
    // directly: the report needs the per-replication RunResults and the
    // per-slot telemetry capture (deterministic at every --jobs value).
    std::vector<RunSpec> specs(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      specs[static_cast<std::size_t>(r)].config = config;
      specs[static_cast<std::size_t>(r)].config.scenario.seed =
          config.scenario.seed + static_cast<std::uint64_t>(r);
      specs[static_cast<std::size_t>(r)].kind = kind;
    }
    std::vector<RunTelemetry> slots;
    const std::vector<RunResult> runs = run_specs(
        specs, jobs, report_json.empty() ? nullptr : &slots);
    const ReplicatedResult r = reduce_results(runs);
    std::cout << "delivery_ratio=" << r.delivery_ratio.mean() << " +- "
              << r.delivery_ratio.ci95_half_width()
              << "\npower_mw=" << r.mean_power_mw.mean() << " +- "
              << r.mean_power_mw.ci95_half_width()
              << "\ndelay_s=" << r.mean_delay_s.mean() << " +- "
              << r.mean_delay_s.ci95_half_width() << "\n";
    if (!report_json.empty()) {
      RunTelemetry tel;  // merged in replication order: jobs-independent
      for (const RunTelemetry& s : slots) {
        tel.registry.merge(s.registry);
        tel.profile.merge(s.profile);
      }
      telemetry::ReportInputs in;
      in.config = &config;
      in.kind = kind;
      in.runs = &runs;
      in.telemetry = &tel;
      telemetry::write_report_json(report_json, in);
      std::cout << "wrote " << report_json << "\n";
    }
  } catch (const InvariantViolation& v) {
    std::cerr << v.what() << "\n";
    return 3;
  } catch (const std::exception& e) {  // e.g. a malformed --faults plan
    std::cerr << e.what() << "\n";
    return 2;
  }
  return 0;
}
