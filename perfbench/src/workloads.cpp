// The three benchmark workloads. Each is a closed batch: a fixed list of
// specs generated from the benchmark seed, pulled by at most kJobs
// workers, with no arrival rate.
//
//   fig2_sweep    the paper's Fig. 2 grid through run_sweep (in-process)
//   large_world   one 100k-node OPT World, built and run on one thread
//   ckpt_recovery a supervised, process-isolated, checkpointed sweep in
//                 which every other spec's first worker dies by SIGSEGV
//
// The timed part runs with every observer off. The traced part (--trace 1)
// drives the same specs through the layers' public functions itself,
// with telemetry.profile on, spans around each call and the allocation
// counter armed, and derives the per-layer metrics from those.
#include <malloc.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "experiment/presets.hpp"
#include "experiment/supervisor.hpp"
#include "experiment/world.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/ckpt_container.hpp"
#include "telemetry/json_value.hpp"

namespace perfbench {
namespace {

using dftmsn::Config;
using dftmsn::ProtocolKind;
using dftmsn::RunResult;
using dftmsn::RunSpec;
using dftmsn::World;
using dftmsn::telemetry::Profiler;
using dftmsn::telemetry::Subsystem;

constexpr int kJobs = 2;
constexpr int kMinReps = 3;          ///< timed repetitions per run, at least
constexpr int kSetupBatches = 10;    ///< sweep set-up samples per repetition
constexpr double kSweepHorizonS = 1000.0;
constexpr double kSweepSliceS = 100.0;  ///< traced slice = checkpoint period
constexpr double kCrashAtS = 750.0;
constexpr int kLargeN = 100'000;
constexpr double kLargeHorizonS = 40.0;
constexpr double kLargeSliceS = 2.0;
constexpr int kCurveN = 1'000;
constexpr double kCurveHorizonS = 200.0;
constexpr std::size_t kProbeNodes = 64;  ///< neighbour queries per boundary
constexpr std::uint64_t kDefaultSeed = 42;

/// Results digests at the default seed (bit-for-bit pins of the
/// simulated output; a change to a trajectory shows up here first).
const std::map<std::string, std::uint64_t> kPinnedDigests = {
    {"fig2_sweep", 0x54c17022f02e4e10ULL},
    {"large_world", 0x02d65a29daca17c3ULL},
    {"ckpt_recovery", 0x3bc8fab990f7cb63ULL},
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Scenario seed of spec `i` under benchmark seed `seed`.
std::uint64_t spec_seed(std::uint64_t seed, std::size_t i) {
  return splitmix64(splitmix64(seed) + i) >> 16;
}

Config paper_config(int sinks, double horizon, std::uint64_t seed) {
  Config c = *dftmsn::scenario_preset("paper");
  c.scenario.num_sinks = sinks;
  c.scenario.duration_s = horizon;
  c.scenario.seed = seed;
  return c;
}

/// Sinks 1-5 x `kinds` on the paper preset, sinks-major with `kinds` in
/// the order given: the order bench/fig2_sinks.cpp submits its grid in.
/// Whatever tail that order leaves on the pool is part of the makespan.
std::vector<RunSpec> grid_specs(std::uint64_t seed,
                                const std::vector<ProtocolKind>& kinds) {
  std::vector<RunSpec> specs;
  for (int sinks = 1; sinks <= 5; ++sinks)
    for (const ProtocolKind k : kinds) {
      const std::size_t i = specs.size();
      specs.push_back({paper_config(sinks, kSweepHorizonS, spec_seed(seed, i)),
                       k});
    }
  return specs;
}

/// The scheduler_scale top point: paper density scaled to n sensors.
Config scaled_config(int n, double horizon, std::uint64_t seed) {
  Config c;
  c.scenario.num_sensors = n;
  c.scenario.num_sinks = std::max(1, (3 * n) / 100);
  c.scenario.field_m = 150.0 * std::sqrt(n / 100.0);
  c.scenario.duration_s = horizon;
  c.scenario.seed = seed;
  return c;
}

double node_sim_seconds(const std::vector<RunSpec>& specs) {
  double total = 0.0;
  for (const RunSpec& s : specs)
    total += s.config.scenario.num_sensors * s.config.scenario.duration_s;
  return total;
}

/// Repeats `rep` (which returns its measured seconds) until `seconds`
/// of wall time have passed and at least kMinReps ran.
template <class Rep>
std::vector<double> repeat_for(Outcome& out, double seconds, Rep&& rep) {
  std::vector<double> walls;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds ||
         static_cast<int>(walls.size()) < kMinReps)
    walls.push_back(rep());
  std::string line = "timed walls (s):";
  for (double w : walls) line += " " + std::to_string(w);
  out.notes.push_back(line);
  return walls;
}

/// Adds kSetupBatches samples of the time to construct every spec's
/// World: the per-spec construction a sweep pays inside its own wall.
/// One World lives at a time (destroyed untimed), as in a sweep's worker,
/// so sampling does not raise the peak RSS. Called before each timed
/// repetition, so the samples span the run.
void sample_setup(const std::vector<RunSpec>& specs,
                  std::vector<double>& samples) {
  for (int b = 0; b < kSetupBatches; ++b) {
    double batch = 0;
    for (const RunSpec& s : specs) {
      const auto t0 = Clock::now();
      const World w(s.config, s.kind);
      batch += seconds_since(t0);
    }
    samples.push_back(batch);
  }
}

void note_events(Outcome& out, const std::vector<RunResult>& results) {
  std::uint64_t events = 0;
  for (const RunResult& r : results) events += r.events_executed;
  out.notes.push_back("simulated events per repetition: " +
                      std::to_string(events));
}

void add_end_to_end(Outcome& out, double wall, double node_s, double setup,
                    double peak_rss_bytes) {
  out.add("wall_s", wall, "s");
  out.add("node_sim_s_per_s", node_s / wall, "node-s/s");
  out.add("setup_s", setup, "s");
  out.add("peak_rss_mb", peak_rss_bytes / (1024.0 * 1024.0), "MB");
}

/// Notes the results digest and, at the default seed, compares it with
/// the pin; a mismatch fails every result it covers.
void check_pinned(Outcome& out, const Options& opts,
                  const std::vector<RunResult>& results) {
  const std::uint64_t digest = results_digest(results);
  char buf[96];
  std::snprintf(buf, sizeof buf, "results digest %016llx",
                static_cast<unsigned long long>(digest));
  out.notes.emplace_back(buf);
  if (opts.seed != kDefaultSeed) return;
  const std::uint64_t pinned = kPinnedDigests.at(opts.workload);
  char msg[160];
  std::snprintf(msg, sizeof msg,
                "default-seed digest %016llx != pinned %016llx",
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(pinned));
  if (digest == pinned) return;
  out.failed += results.size();
  out.check(false, msg);
}

// --- traced execution ------------------------------------------------------

/// Sums of the World profiler's (nested) subsystem timers.
struct ProfileTotals {
  double dispatch = 0, scan = 0, mac = 0, mobility = 0;
  std::uint64_t ticks = 0;

  static ProfileTotals of(const Profiler& p) {
    ProfileTotals t;
    t.dispatch = p.stats(Subsystem::kEventDispatch).total_s;
    t.scan = p.stats(Subsystem::kChannelScan).total_s;
    t.mac = p.stats(Subsystem::kMacHandshake).total_s;
    t.mobility = p.stats(Subsystem::kMobilityUpdate).total_s;
    t.ticks = p.stats(Subsystem::kMobilityUpdate).calls;
    return t;
  }
  ProfileTotals operator-(const ProfileTotals& o) const {
    return {dispatch - o.dispatch, scan - o.scan, mac - o.mac,
            mobility - o.mobility, ticks - o.ticks};
  }
  ProfileTotals& operator+=(const ProfileTotals& o) {
    dispatch += o.dispatch;
    scan += o.scan;
    mac += o.mac;
    mobility += o.mobility;
    ticks += o.ticks;
    return *this;
  }
};

/// What the traced run learned about one spec.
struct SpecTrace {
  RunResult result;
  ProtocolKind kind = ProtocolKind::kOpt;
  int sensors = 0;
  std::size_t nodes = 0;
  ProfileTotals prof;       ///< run_until slices only (replay excluded)
  std::uint64_t frames_sent = 0, frames_delivered = 0, collisions = 0;
  double span_s = 0;        ///< whole spec, as the executor saw it
  double build_s = 0, run_s = 0, probe_s = 0, reduce_s = 0, teardown_s = 0;
  double snapshot_s = 0;    ///< encode + put + get + resume (ckpt only)
  std::uint64_t run_events = 0, allocs = 0;
  std::size_t pending_max = 0;
  std::vector<double> nb_ns;  ///< ns per neighbors_of call, per boundary
  std::uint64_t nb_calls = 0, nb_found = 0;
  // ckpt_recovery re-walk only:
  double attempt_work_s[2] = {0, 0};
  std::vector<double> encode_s, put_s, get_s, resume_s;
  std::vector<double> image_bytes;
  std::uint64_t replayed_events = 0;
  double recover_s = 0;  ///< get + resume + run back to the crash point
};

/// One slice of a traced run: run_until under the allocation counter,
/// then the slice-boundary probes (queue depth, neighbour queries).
void traced_slice(World& w, double until, SpecTrace& t, SpanLog& log,
                  std::uint64_t parent, std::int64_t spec, double* attempt,
                  std::vector<dftmsn::NodeId>& scratch) {
  const std::uint64_t ev0 = w.sim().events_executed();
  const double run = log.time(parent, spec, "World::run_until", [&] {
    AllocScope scope;
    w.run_until(until);
    t.allocs += scope.count();
  });
  t.run_s += run;
  if (attempt != nullptr) *attempt += run;
  t.run_events += w.sim().events_executed() - ev0;
  t.pending_max = std::max(t.pending_max, w.sim().queue().size());

  const auto& mob = w.mobility();
  const std::size_t n = static_cast<std::size_t>(t.sensors);
  const std::size_t k = std::min(kProbeNodes, n);
  const double range = w.config().radio.range_m;
  std::uint64_t found = 0;
  const double probe =
      log.time(parent, spec, "MobilityManager::neighbors_of", [&] {
        for (std::size_t j = 0; j < k; ++j) {
          mob.neighbors_of(static_cast<dftmsn::NodeId>(j * n / k), range,
                           scratch);
          found += scratch.size();
        }
      });
  t.probe_s += probe;
  t.nb_ns.push_back(probe * 1e9 / static_cast<double>(k));
  t.nb_calls += k;
  t.nb_found += found;
}

/// Builds, runs (in kSweepSliceS/kLargeSliceS slices), reduces and tears
/// down one spec with profiling on, every call inside its own span.
SpecTrace trace_spec(const RunSpec& in, std::size_t index, double slice_s,
                     SpanLog& log, std::uint64_t root) {
  RunSpec spec = in;
  spec.config.telemetry.profile = true;
  SpecTrace t;
  t.kind = spec.kind;
  t.sensors = spec.config.scenario.num_sensors;
  const auto spec_id = static_cast<std::int64_t>(index);
  const std::uint64_t span = log.next_id();
  const auto t0 = Clock::now();

  std::unique_ptr<World> w;
  t.build_s = log.time(span, spec_id, "World::World", [&] {
    w = std::make_unique<World>(spec.config, spec.kind);
  });
  t.nodes = w->mobility().node_count();
  std::vector<dftmsn::NodeId> scratch;
  const double horizon = spec.config.scenario.duration_s;
  const int slices = static_cast<int>(std::ceil(horizon / slice_s - 1e-9));
  for (int s = 1; s <= slices; ++s)
    traced_slice(*w, s == slices ? horizon : s * slice_s, t, log, span,
                 spec_id, nullptr, scratch);
  t.reduce_s = log.time(span, spec_id, "reduce_world",
                        [&] { t.result = dftmsn::reduce_world(*w); });
  t.prof = ProfileTotals::of(*w->profiler());
  const auto& c = w->channel().counters();
  t.frames_sent = c.frames_sent;
  t.frames_delivered = c.frames_delivered;
  t.collisions = c.collisions;
  t.teardown_s = log.time(span, spec_id, "World::~World", [&] { w.reset(); });
  t.span_s = log.record(span, root, spec_id,
                        std::string("spec ") +
                            dftmsn::protocol_kind_name(spec.kind),
                        t0);
  return t;
}

/// Runs every spec through trace_spec on a kJobs-wide pool; returns the
/// traced makespan.
double trace_batch(const std::vector<RunSpec>& specs, int jobs,
                   double slice_s, SpanLog& log, std::vector<SpecTrace>& out) {
  out.assign(specs.size(), SpecTrace{});
  const std::uint64_t root = log.next_id();
  const auto t0 = Clock::now();
  dftmsn::parallel_for(specs.size(), jobs, [&](std::size_t i) {
    out[i] = trace_spec(specs[i], i, slice_s, log, root);
  });
  return log.record(root, 0, -1, "traced batch", t0);
}

/// Snapshot layer timings on one live World: encode, put, get, and a
/// verified resume (which rebuilds and replays from event 0).
struct SnapshotProbe {
  double encode_s = 0, put_s = 0, get_s = 0, resume_s = 0, build_s = 0;
  double image_bytes = 0;
  int sensors = 0;
};

SnapshotProbe probe_snapshot(const RunSpec& spec, double until,
                             const std::string& dir, SpanLog& log,
                             Outcome& out) {
  namespace fs = std::filesystem;
  SnapshotProbe p;
  p.sensors = spec.config.scenario.num_sensors;
  const std::uint64_t span = log.next_id();
  const auto t0 = Clock::now();
  std::unique_ptr<World> w;
  p.build_s = log.time(span, -1, "World::World", [&] {
    w = std::make_unique<World>(spec.config, spec.kind);
  });
  w->run_until(until);
  std::vector<std::uint8_t> image;
  p.encode_s = log.time(span, -1, "make_checkpoint",
                        [&] { image = dftmsn::make_checkpoint(*w); });
  p.image_bytes = static_cast<double>(image.size());
  fs::create_directories(dir);
  const std::string path = (fs::path(dir) / "probe.dcc").string();
  p.put_s = log.time(span, -1, "container_put",
                     [&] { dftmsn::snapshot::container_put(path, 0, image); });
  std::optional<std::vector<std::uint8_t>> got;
  p.get_s = log.time(span, -1, "container_get", [&] {
    got = dftmsn::snapshot::container_get(path, 0);
  });
  out.check(got && *got == image, "snapshot probe: container_get != put");
  p.resume_s = log.time(span, -1, "resume_world", [&] {
    dftmsn::resume_world(spec.config, spec.kind, image, true);
  });
  log.record(span, 0, -1, "snapshot probe", t0);
  fs::remove_all(dir);
  return p;
}

/// Heap bytes a freshly built World holds, per sensor. Counted from
/// malloc's own books rather than the resident set, so heap reuse from
/// earlier runs in this process cannot hide it.
double heap_bytes_per_node(const RunSpec& spec) {
  const auto in_use = [] {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
  };
  const double before = in_use();
  World w(spec.config, spec.kind);
  return (in_use() - before) / spec.config.scenario.num_sensors;
}

/// A per-call timing as its median, p90 and sample count.
void ms_stats(Outcome& out, const std::string& name,
              const std::vector<double>& seconds) {
  std::vector<double> ms;
  for (double s : seconds) ms.push_back(s * 1e3);
  out.add(name, median(ms), "ms");
  out.add(name + ".p90", quantile(ms, 0.9), "ms");
  out.add(name + ".n", static_cast<double>(ms.size()), "count");
}

void not_measured(Outcome& out, const std::string& name, const char* unit,
                  const std::string& why) {
  out.add(name, 0.0, unit);
  out.not_measured.push_back(name + ": " + why);
}

/// Simulation-layer metrics out of traced specs, plus the self-time
/// closure: every term is exclusive, so with pool idle they must account
/// for jobs x the traced executor's makespan. `timed_wall` is the
/// untraced wall_s median.
void add_sim_layers(Outcome& out, const std::vector<SpecTrace>& specs,
                    double timed_wall, double executor_wall, int jobs) {
  ProfileTotals prof;
  double run = 0, build = 0, probe = 0, reduce = 0, teardown = 0, snap = 0,
         span = 0, sensors = 0;
  std::uint64_t useful_events = 0, run_events = 0, allocs = 0, frames = 0,
                delivered = 0, collisions = 0, attempts = 0, failed = 0,
                nb_calls = 0, nb_found = 0, node_steps = 0;
  std::size_t pending = 0;
  std::vector<double> nb_ns;
  std::map<ProtocolKind, double> per_kind;
  for (const SpecTrace& t : specs) {
    prof += t.prof;
    run += t.run_s;
    build += t.build_s;
    probe += t.probe_s;
    reduce += t.reduce_s;
    teardown += t.teardown_s;
    snap += t.snapshot_s;
    span += t.span_s;
    sensors += t.sensors;
    useful_events += t.result.events_executed;
    run_events += t.run_events;
    allocs += t.allocs;
    frames += t.frames_sent;
    delivered += t.frames_delivered;
    collisions += t.collisions;
    attempts += t.result.attempts;
    failed += t.result.failed_attempts;
    nb_calls += t.nb_calls;
    nb_found += t.nb_found;
    node_steps += t.prof.ticks * t.nodes;
    pending = std::max(pending, t.pending_max);
    nb_ns.insert(nb_ns.end(), t.nb_ns.begin(), t.nb_ns.end());
    per_kind[t.kind] += t.span_s;
  }
  const double unattributed =
      prof.dispatch - prof.scan - prof.mac - prof.mobility;
  const double loop_self = run - prof.dispatch;

  out.add("sim.events", static_cast<double>(useful_events), "count");
  out.add("sim.ns_per_event", timed_wall * 1e9 / useful_events, "ns");
  out.add("sim.allocs_per_event",
          static_cast<double>(allocs) / static_cast<double>(run_events),
          "count");
  out.add("sim.loop_self_s", loop_self, "s");
  out.add("sim.pending_max", static_cast<double>(pending), "count");
  out.add("sim.unattributed_callback_s", unattributed, "s");
  out.add("sim.unattributed_share", unattributed / prof.dispatch, "1");
  out.add("mobility.tick_self_s", prof.mobility, "s");
  out.add("mobility.ns_per_node_step",
          prof.mobility * 1e9 / static_cast<double>(node_steps), "ns");
  out.add("geom.neighbors_ns", median(nb_ns), "ns");
  out.add("geom.neighbors_ns.p90", quantile(nb_ns, 0.9), "ns");
  out.add("geom.neighbors_ns.n", static_cast<double>(nb_ns.size()), "count");
  out.add("geom.neighbors_mean",
          static_cast<double>(nb_found) / static_cast<double>(nb_calls),
          "count");
  out.add("phy.channel_scan_self_s", prof.scan, "s");
  out.add("phy.frames_sent", static_cast<double>(frames), "count");
  out.add("phy.collision_ratio",
          static_cast<double>(collisions) /
              static_cast<double>(collisions + delivered),
          "1");
  out.add("protocol.mac_rx_self_s", prof.mac, "s");
  out.add("protocol.failed_attempt_ratio",
          static_cast<double>(failed) / static_cast<double>(attempts), "1");
  for (const ProtocolKind k : {ProtocolKind::kOpt, ProtocolKind::kNoSleep,
                               ProtocolKind::kNoOpt, ProtocolKind::kZbr}) {
    const std::string name =
        std::string("protocol.spec_s.") + dftmsn::protocol_kind_name(k);
    if (per_kind.count(k) != 0)
      out.add(name, per_kind[k], "s");
    else
      not_measured(out, name, "s", "workload runs no such spec");
  }
  out.add("experiment.world_build_us_per_node", build * 1e6 / sensors, "us");

  const double capacity = jobs * executor_wall;
  const double idle = capacity - span;
  const double gaps = span - build - run - probe - reduce - teardown - snap;
  char line[640];
  std::snprintf(
      line, sizeof line,
      "self-time closure, jobs x traced wall = %.3f s = build %.3f + "
      "sim.loop %.3f + mobility.tick %.3f + phy.scan %.3f + protocol.mac_rx "
      "%.3f + sim.unattributed %.3f + geom.probe %.3f + snapshot %.3f + "
      "reduce %.3f + teardown %.3f + pool idle %.3f + gaps %.3f",
      capacity, build, loop_self, prof.mobility, prof.scan, prof.mac,
      unattributed, probe, snap, reduce, teardown, idle, gaps);
  out.notes.emplace_back(line);
  out.check(unattributed >= 0 && loop_self >= 0 && idle >= -1e-6 &&
                gaps >= -1e-6 && gaps <= 0.01 * capacity,
            "self-time closure: a term is negative or gaps exceed 1% of "
            "jobs x traced wall (double counting)");
}

/// experiment.* metrics of the benchmark's own in-process executor.
void add_executor_layers(Outcome& out, const std::vector<SpecTrace>& specs,
                         double executor_wall, int jobs) {
  std::vector<double> overhead;
  double span = 0;
  for (const SpecTrace& t : specs) {
    span += t.span_s;
    overhead.push_back(t.span_s - t.build_s - t.run_s - t.probe_s -
                       t.reduce_s - t.teardown_s - t.snapshot_s);
  }
  ms_stats(out, "experiment.spec_overhead_ms", overhead);
  out.add("experiment.pool_idle_share",
          1.0 - span / (jobs * executor_wall), "1");
  out.add("experiment.attempts", static_cast<double>(specs.size()), "count");
  out.add("experiment.retries", 0.0, "count");
  out.add("experiment.checkpoints", 0.0, "count");
  not_measured(out, "experiment.recovery_ms", "ms",
               "workload has no crash to recover from");
  not_measured(out, "experiment.replayed_event_share", "1",
               "workload never resumes");
}

void add_snapshot_layers(Outcome& out, const SnapshotProbe& p) {
  out.add("snapshot.image_bytes_per_node", p.image_bytes / p.sensors,
          "count");
  ms_stats(out, "snapshot.encode_ms", {p.encode_s});
  ms_stats(out, "snapshot.put_ms", {p.put_s});
  ms_stats(out, "snapshot.get_ms", {p.get_s});
  ms_stats(out, "snapshot.resume_ms", {p.resume_s});
  out.add("snapshot.resume_replay_share",
          (p.resume_s - p.build_s - p.encode_s) / p.resume_s, "1");
}

std::string fs_type_name(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext2/3/4";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::vector<RunResult> results_of(const std::vector<SpecTrace>& specs) {
  std::vector<RunResult> r;
  for (const SpecTrace& t : specs) r.push_back(t.result);
  return r;
}

void write_spans(Outcome& out, const Options& opts, const SpanLog& log) {
  const std::string path =
      (std::filesystem::path(opts.work_dir) /
       (opts.workload + "-seed" + std::to_string(opts.seed) + ".trace.json"))
          .string();
  log.write_chrome_trace(path, opts.workload);
  out.notes.push_back("spans (Chrome trace JSON): " + path);
}

/// Compares traced per-spec results with the timed ones (bit for bit).
void check_traced(Outcome& out, const std::vector<RunResult>& traced,
                  const std::vector<RunResult>& timed, const char* what) {
  out.attempted += traced.size();
  if (results_digest(traced) == results_digest(timed)) return;
  out.failed += traced.size();
  out.check(false, std::string(what) + ": traced results != timed results");
}

/// Untraced events/s of one World run to its horizon.
double events_per_s(const RunSpec& spec) {
  World w(spec.config, spec.kind);
  const auto t0 = Clock::now();
  w.run();
  return static_cast<double>(w.sim().events_executed()) / seconds_since(t0);
}

/// sim.curve_ratio: events/s at n=1k over n=100k at the same density.
/// `large_eps` <= 0 runs the 100k-node world here. Returns the n=1k spec.
RunSpec add_curve_ratio(Outcome& out, std::uint64_t seed, double large_eps) {
  const RunSpec small{scaled_config(kCurveN, kCurveHorizonS,
                                    spec_seed(seed, 1)),
                      ProtocolKind::kOpt};
  if (large_eps <= 0)
    large_eps = events_per_s({scaled_config(kLargeN, kLargeHorizonS,
                                            spec_seed(seed, 0)),
                              ProtocolKind::kOpt});
  const double small_eps = events_per_s(small);
  out.add("sim.curve_ratio", small_eps / large_eps, "1");
  char line[128];
  std::snprintf(line, sizeof line, "events/s: n=1k %.0f, n=100k %.0f",
                small_eps, large_eps);
  out.notes.emplace_back(line);
  return small;
}

}  // namespace

// --- fig2_sweep --------------------------------------------------------------

Outcome run_fig2_sweep(const Options& opts) {
  Outcome out;
  const std::vector<RunSpec> specs = grid_specs(
      opts.seed, {ProtocolKind::kOpt, ProtocolKind::kNoSleep,
                  ProtocolKind::kNoOpt, ProtocolKind::kZbr});
  std::vector<double> setups;
  std::vector<RunResult> first;
  const std::vector<double> walls = repeat_for(out, opts.seconds, [&] {
    sample_setup(specs, setups);
    std::vector<std::vector<RunResult>> raw;
    const auto t0 = Clock::now();
    dftmsn::run_sweep(specs, 1, kJobs, &raw);
    const double wall = seconds_since(t0);
    std::vector<RunResult> flat;
    for (const auto& point : raw) flat.push_back(point.at(0));
    out.attempted += specs.size();
    if (first.empty()) {
      first = flat;
    } else if (results_digest(flat) != results_digest(first)) {
      out.failed += specs.size();
      out.check(false, "fig2_sweep: repetition results differ");
    }
    return wall;
  });
  const double wall = median(walls);
  check_pinned(out, opts, first);
  note_events(out, first);
  if (!opts.trace) {
    add_end_to_end(out, wall, node_sim_seconds(specs), median(setups),
                   peak_rss_self_bytes());
    return out;
  }

  SpanLog log;
  std::vector<SpecTrace> traced;
  const double traced_wall =
      trace_batch(specs, kJobs, kSweepSliceS, log, traced);
  check_traced(out, results_of(traced), first, "fig2_sweep");
  add_sim_layers(out, traced, wall, traced_wall, kJobs);
  add_executor_layers(out, traced, traced_wall, kJobs);
  // Keeps the ROADMAP's cost-curve target in view of the gated workloads.
  add_curve_ratio(out, opts.seed, 0);
  out.add("experiment.rss_bytes_per_node", heap_bytes_per_node(specs.front()),
          "bytes");
  add_snapshot_layers(
      out, probe_snapshot(specs.front(), kSweepHorizonS / 2,
                          opts.work_dir + "/snapshot-probe", log, out));
  out.add("telemetry.trace_overhead_ratio", traced_wall / wall - 1.0, "1");
  write_spans(out, opts, log);
  return out;
}

// --- large_world -------------------------------------------------------------

namespace {

struct LargeRep {
  double setup_s = 0, wall_s = 0;
  RunResult result;
};

/// Runs `fn` in a forked child and returns the trivially copyable value
/// it produced. Only call while this process is single-threaded.
template <class T, class Fn>
T in_child(Fn&& fn) {
  static_assert(std::is_trivially_copyable_v<T>);
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int rc = 1;
    try {
      const T v = fn();
      if (::write(fds[1], &v, sizeof v) == static_cast<ssize_t>(sizeof v))
        rc = 0;
    } catch (...) {
    }
    ::_exit(rc);
  }
  ::close(fds[1]);
  T v{};
  std::size_t got = 0;
  while (got < sizeof v) {
    const ssize_t n =
        ::read(fds[0], reinterpret_cast<char*>(&v) + got, sizeof v - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof v || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("repetition process failed");
  return v;
}

}  // namespace

Outcome run_large_world(const Options& opts) {
  Outcome out;
  const RunSpec spec{
      scaled_config(kLargeN, kLargeHorizonS, spec_seed(opts.seed, 0)),
      ProtocolKind::kOpt};
  std::vector<double> setups;
  std::vector<RunResult> first;
  const std::vector<double> walls = repeat_for(out, opts.seconds, [&] {
    // Each repetition is a fresh process, as a user's one-World run is:
    // a warm heap from the previous repetition would flatter later ones.
    const LargeRep rep = in_child<LargeRep>([&] {
      LargeRep r;
      auto t0 = Clock::now();
      World w(spec.config, spec.kind);
      r.setup_s = seconds_since(t0);
      t0 = Clock::now();
      w.run();
      r.wall_s = seconds_since(t0);
      r.result = dftmsn::reduce_world(w);
      return r;
    });
    setups.push_back(rep.setup_s);
    const double wall = rep.wall_s;
    const std::vector<RunResult> r{rep.result};
    out.attempted += 1;
    if (first.empty()) {
      first = r;
    } else if (results_digest(r) != results_digest(first)) {
      out.failed += 1;
      out.check(false, "large_world: repetition results differ");
    }
    return wall;
  });
  const double wall = median(walls);
  check_pinned(out, opts, first);
  note_events(out, first);
  if (!opts.trace) {
    add_end_to_end(out, wall, node_sim_seconds({spec}), median(setups),
                   peak_rss_children_bytes());
    return out;
  }

  SpanLog log;
  std::vector<SpecTrace> traced;
  const double traced_makespan =
      trace_batch({spec}, 1, kLargeSliceS, log, traced);
  check_traced(out, results_of(traced), first, "large_world");
  add_sim_layers(out, traced, wall, traced_makespan, 1);
  add_executor_layers(out, traced, traced_makespan, 1);

  const RunSpec small = add_curve_ratio(out, opts.seed,
                                        first[0].events_executed / wall);
  out.add("experiment.rss_bytes_per_node", heap_bytes_per_node(spec),
          "bytes");
  // A 100k-node checkpoint image would be ~2 GB: the snapshot layer is
  // probed on the n=1k world of the same density instead.
  add_snapshot_layers(out,
                      probe_snapshot(small, kCurveHorizonS / 2,
                                     opts.work_dir + "/snapshot-probe", log,
                                     out));
  out.add("telemetry.trace_overhead_ratio",
          (traced[0].run_s + traced[0].probe_s) / wall - 1.0, "1");
  write_spans(out, opts, log);
  return out;
}

// --- ckpt_recovery -----------------------------------------------------------

namespace {

const char* const kDrillPlan = "segv@750:attempts=1";

/// Attempt spans (begin, end in seconds) per (spec, attempt), read back
/// from the supervisor's lifecycle trace.
using AttemptSpans = std::map<std::pair<std::size_t, int>,
                              std::pair<double, double>>;

AttemptSpans read_attempt_spans(const std::string& path) {
  AttemptSpans spans;
  std::map<std::size_t, int> open;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line == "[") continue;
    if (line.back() == ',') line.pop_back();
    const auto ev = dftmsn::telemetry::parse_json(line);
    if (ev.string_or("name", "") != "attempt") continue;
    const auto spec = static_cast<std::size_t>(ev.number_or("tid", 0));
    const double ts = ev.number_or("ts", 0) * 1e-6;
    if (ev.string_or("ph", "") == "B") {
      const auto* args = ev.find("args");
      const int attempt =
          args != nullptr ? std::stoi(args->string_or("attempt", "0")) : 0;
      open[spec] = attempt;
      spans[{spec, attempt}] = {ts, -1.0};
    } else if (ev.string_or("ph", "") == "E") {
      spans[{spec, open[spec]}].second = ts;
    }
  }
  return spans;
}

/// Re-walks one supervised spec in-process with the drill gated out:
/// the same slice -> checkpoint -> (crash at kCrashAtS -> container_get
/// -> resume_world) sequence its workers run, every call timed.
SpecTrace rewalk_spec(const RunSpec& in, std::size_t index, bool drill,
                      const std::string& container, SpanLog& log,
                      std::uint64_t root) {
  RunSpec spec = in;
  spec.config.telemetry.profile = true;
  SpecTrace t;
  t.kind = spec.kind;
  t.sensors = spec.config.scenario.num_sensors;
  const auto id = static_cast<std::int64_t>(index);
  const std::uint64_t span = log.next_id();
  const auto t0 = Clock::now();
  std::vector<dftmsn::NodeId> scratch;

  std::unique_ptr<World> w;
  t.build_s = log.time(span, id, "World::World", [&] {
    w = std::make_unique<World>(spec.config, spec.kind);
  });
  t.nodes = w->mobility().node_count();
  int attempt = 0;
  t.attempt_work_s[0] = t.build_s;
  ProfileTotals replayed;  // profiler time spent inside resume's replay
  const double horizon = spec.config.scenario.duration_s;
  for (double next = kSweepSliceS;;) {
    const double target = std::min(horizon, next);
    if (drill && attempt == 0 && target > kCrashAtS) {
      // The first worker dies at the crash point; its World is lost.
      traced_slice(*w, kCrashAtS, t, log, span, id, &t.attempt_work_s[0],
                   scratch);
      t.prof += ProfileTotals::of(*w->profiler());
      t.teardown_s += log.time(span, id, "World::~World", [&] { w.reset(); });
      attempt = 1;
      std::optional<std::vector<std::uint8_t>> image;
      const double get = log.time(span, id, "container_get", [&] {
        image = dftmsn::snapshot::container_get(container, index);
      });
      if (!image) throw std::runtime_error("re-walk: checkpoint missing");
      const double res = log.time(span, id, "resume_world", [&] {
        w = dftmsn::resume_world(spec.config, spec.kind, *image, true);
      });
      t.replayed_events += w->sim().events_executed();
      replayed = ProfileTotals::of(*w->profiler());
      t.get_s.push_back(get);
      t.resume_s.push_back(res);
      t.snapshot_s += get + res;
      const double before = t.attempt_work_s[1];
      traced_slice(*w, kCrashAtS, t, log, span, id, &t.attempt_work_s[1],
                   scratch);
      t.recover_s = get + res + (t.attempt_work_s[1] - before);
      t.attempt_work_s[1] += get + res;
      continue;
    }
    traced_slice(*w, target, t, log, span, id, &t.attempt_work_s[attempt],
                 scratch);
    if (target >= horizon) break;
    std::vector<std::uint8_t> image;
    const double enc = log.time(span, id, "make_checkpoint",
                                [&] { image = dftmsn::make_checkpoint(*w); });
    const double put = log.time(span, id, "container_put", [&] {
      dftmsn::snapshot::container_put(container, index, image);
    });
    t.encode_s.push_back(enc);
    t.put_s.push_back(put);
    t.image_bytes.push_back(static_cast<double>(image.size()));
    t.snapshot_s += enc + put;
    t.attempt_work_s[attempt] += enc + put;
    next += kSweepSliceS;
  }
  t.reduce_s = log.time(span, id, "reduce_world",
                        [&] { t.result = dftmsn::reduce_world(*w); });
  t.attempt_work_s[attempt] += t.reduce_s;
  t.prof += ProfileTotals::of(*w->profiler()) - replayed;
  const auto& c = w->channel().counters();
  t.frames_sent = c.frames_sent;
  t.frames_delivered = c.frames_delivered;
  t.collisions = c.collisions;
  // The supervisor drops a finished spec's entry; so does the re-walk.
  t.snapshot_s += log.time(span, id, "container_erase", [&] {
    dftmsn::snapshot::container_erase(container, index);
  });
  t.teardown_s += log.time(span, id, "World::~World", [&] { w.reset(); });
  t.span_s = log.record(
      span, root, id,
      std::string("spec ") + dftmsn::protocol_kind_name(spec.kind), t0);
  return t;
}

/// One run_specs_supervised call: its makespan, manifest, and the peak
/// RSS (KiB) perfbench_rss_probe logged for each of its workers.
struct SupervisedRun {
  double wall_s = 0;
  dftmsn::SweepManifest manifest;
  std::vector<double> worker_peaks_kib;
};

/// Reads and removes the probe's log: one worker's peak RSS a line.
std::vector<double> take_rss_log(const std::string& path) {
  std::vector<double> kib;
  {
    std::ifstream in(path);
    for (double v = 0; in >> v;) kib.push_back(v);
  }
  std::filesystem::remove(path);
  return kib;
}

/// The largest worker's peak RSS in bytes, after checking that the
/// probe logged one line per worker (attempt) the manifest records.
double largest_worker_peak(Outcome& out, const SupervisedRun& r) {
  std::size_t attempts = r.manifest.specs.size();
  for (const auto& s : r.manifest.specs) attempts += s.retries;
  out.check(r.worker_peaks_kib.size() == attempts,
            "ckpt_recovery: the RSS probe logged " +
                std::to_string(r.worker_peaks_kib.size()) +
                " workers for " + std::to_string(attempts) + " attempts");
  double kib = 0;
  for (double v : r.worker_peaks_kib) kib = std::max(kib, v);
  return kib * 1024.0;
}

/// Every spec completed, drill specs retried exactly once, and the
/// results equal the in-process reference bit for bit.
void check_manifest(Outcome& out, const dftmsn::SweepManifest& m,
                    const std::vector<RunSpec>& specs,
                    const std::vector<RunResult>& reference) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const dftmsn::SpecRecord& r = m.specs.at(i);
    const int want_retries = specs[i].config.faults.plan.empty() ? 0 : 1;
    ++out.attempted;
    if (r.status == dftmsn::SpecStatus::kCompleted &&
        r.retries == want_retries &&
        results_digest({r.result}) == results_digest({reference[i]}))
      continue;
    ++out.failed;
    out.check(false, "ckpt_recovery: spec " + std::to_string(i) + " " +
                         dftmsn::spec_status_name(r.status) + " after " +
                         std::to_string(r.retries) +
                         " retries, or its result != the reference (" +
                         r.detail + ")");
  }
}

}  // namespace

Outcome run_ckpt_recovery(const Options& opts) {
  namespace fs = std::filesystem;
  Outcome out;
  std::vector<RunSpec> specs = grid_specs(
      opts.seed, {ProtocolKind::kOpt, ProtocolKind::kNoOpt,
                  ProtocolKind::kZbr, ProtocolKind::kDirect});
  for (std::size_t i = 1; i < specs.size(); i += 2)
    specs[i].config.faults.plan = kDrillPlan;
  // The reference: the same specs in-process with the drill gated out
  // (its event stays scheduled, so trajectories are unchanged).
  std::vector<RunSpec> gated = specs;
  for (RunSpec& s : gated) s.config.faults.attempt = 1;

  const fs::path base = opts.work_dir;
  fs::create_directories(base);
  out.notes.push_back("checkpoint filesystem: " + fs_type_name(base.string()));
  const std::string tag = "ckpt-" + std::to_string(::getpid()) + "-";
  // Each worker is spawned as perfbench_rss_probe, which runs the CLI
  // and logs the CLI's own peak RSS. Set before any thread starts.
  const std::string rss_log = (base / (tag + "worker-rss.log")).string();
  ::setenv("PERFBENCH_WORKER_CLI", opts.worker_exe.c_str(), 1);
  ::setenv("PERFBENCH_RSS_LOG", rss_log.c_str(), 1);
  dftmsn::SupervisorOptions so;
  so.checkpoint_every_s = kSweepSliceS;
  so.isolate = dftmsn::IsolationMode::kProcess;
  so.worker_exe = opts.rss_probe;
  so.jobs = kJobs;
  int rep = 0;
  const auto supervised = [&](const std::string& name,
                              const std::string& trace) {
    const fs::path dir = base / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::remove(rss_log);
    dftmsn::SupervisorOptions o = so;
    o.checkpoint_dir = dir.string();
    o.obs.trace_path = trace;
    SupervisedRun r;
    const auto t0 = Clock::now();
    r.manifest = dftmsn::run_specs_supervised(specs, o);
    r.wall_s = seconds_since(t0);
    r.worker_peaks_kib = take_rss_log(rss_log);
    fs::remove_all(dir);
    return r;
  };
  std::vector<double> setups, worker_peaks;
  std::vector<dftmsn::SweepManifest> timed;
  const std::vector<double> walls = repeat_for(out, opts.seconds, [&] {
    sample_setup(specs, setups);
    SupervisedRun r = supervised(tag + std::to_string(rep++), "");
    worker_peaks.push_back(largest_worker_peak(out, r));
    timed.push_back(std::move(r.manifest));
    return r.wall_s;
  });
  std::string peaks = "largest worker peak RSS per repetition (MB):";
  for (double b : worker_peaks)
    peaks += " " + std::to_string(b / (1024.0 * 1024.0));
  out.notes.push_back(peaks);
  out.notes.push_back(
      "supervising process peak RSS after the timed repetitions (MB): " +
      std::to_string(peak_rss_self_bytes() / (1024.0 * 1024.0)));

  const std::vector<RunResult> reference = dftmsn::run_specs(gated, kJobs);
  check_pinned(out, opts, reference);
  note_events(out, reference);
  for (const dftmsn::SweepManifest& m : timed)
    check_manifest(out, m, specs, reference);
  const double wall = median(walls);
  if (!opts.trace) {
    add_end_to_end(out, wall, node_sim_seconds(specs), median(setups),
                   median(worker_peaks));
    return out;
  }

  // Traced supervised run: only the lifecycle trace is switched on.
  const std::string lifecycle =
      (base / (opts.workload + "-seed" + std::to_string(opts.seed) +
               ".lifecycle.json"))
          .string();
  const SupervisedRun traced = supervised(tag + "traced", lifecycle);
  largest_worker_peak(out, traced);
  const double traced_wall = traced.wall_s;
  const dftmsn::SweepManifest& manifest = traced.manifest;
  check_manifest(out, manifest, specs, reference);
  const AttemptSpans attempts = read_attempt_spans(lifecycle);
  out.notes.push_back("supervisor lifecycle trace: " + lifecycle);

  // In-process re-walk against a scratch container on the same disk.
  SpanLog log;
  const fs::path rewalk_dir = base / (tag + "rewalk");
  fs::remove_all(rewalk_dir);
  fs::create_directories(rewalk_dir);
  const std::string container = (rewalk_dir / "checkpoints.dcc").string();
  std::vector<SpecTrace> walked(gated.size());
  const std::uint64_t root = log.next_id();
  const auto t0 = Clock::now();
  dftmsn::parallel_for(gated.size(), kJobs, [&](std::size_t i) {
    walked[i] = rewalk_spec(gated[i], i, !specs[i].config.faults.plan.empty(),
                            container, log, root);
  });
  const double rewalk_wall = log.record(root, 0, -1, "re-walk", t0);
  fs::remove_all(rewalk_dir);
  check_traced(out, results_of(walked), reference, "ckpt_recovery re-walk");

  add_sim_layers(out, walked, wall, rewalk_wall, kJobs);
  not_measured(out, "sim.curve_ratio", "1",
               "measured on fig2_sweep and large_world");
  out.add("experiment.rss_bytes_per_node", heap_bytes_per_node(gated.front()),
          "bytes");

  std::vector<double> encode, put, get, resume, image, overhead_s,
      recovery_s;
  double build = 0, attempt_time = 0;
  std::uint64_t replayed = 0, useful = 0;
  for (std::size_t i = 0; i < walked.size(); ++i) {
    const SpecTrace& t = walked[i];
    encode.insert(encode.end(), t.encode_s.begin(), t.encode_s.end());
    put.insert(put.end(), t.put_s.begin(), t.put_s.end());
    get.insert(get.end(), t.get_s.begin(), t.get_s.end());
    resume.insert(resume.end(), t.resume_s.begin(), t.resume_s.end());
    image.insert(image.end(), t.image_bytes.begin(), t.image_bytes.end());
    build += t.build_s;
    replayed += t.replayed_events;
    useful += t.result.events_executed;
    for (int a = 0; a <= manifest.specs.at(i).retries && a < 2; ++a) {
      const auto it = attempts.find({i, a});
      if (it == attempts.end() || it->second.second < 0) continue;
      const double dur = it->second.second - it->second.first;
      attempt_time += dur;
      overhead_s.push_back(dur - t.attempt_work_s[a]);
      if (a == 1) {
        const double gap = it->second.first - attempts.at({i, 0}).second;
        recovery_s.push_back(gap + (dur - t.attempt_work_s[1]) + t.recover_s);
      }
    }
  }
  const double build_mean = build / walked.size();
  out.add("snapshot.image_bytes_per_node",
          median(image) / specs[0].config.scenario.num_sensors, "count");
  ms_stats(out, "snapshot.encode_ms", encode);
  ms_stats(out, "snapshot.put_ms", put);
  ms_stats(out, "snapshot.get_ms", get);
  ms_stats(out, "snapshot.resume_ms", resume);
  out.add("snapshot.resume_replay_share",
          (median(resume) - build_mean - median(encode)) / median(resume),
          "1");
  std::size_t retries = 0;
  for (const auto& r : manifest.specs) retries += r.retries;
  out.add("experiment.attempts",
          static_cast<double>(manifest.specs.size() + retries), "count");
  out.add("experiment.retries", static_cast<double>(retries), "count");
  out.add("experiment.checkpoints",
          static_cast<double>(manifest.total_checkpoints()), "count");
  ms_stats(out, "experiment.spec_overhead_ms", overhead_s);
  out.add("experiment.recovery_ms", median(recovery_s) * 1e3, "ms");
  out.add("experiment.replayed_event_share",
          static_cast<double>(replayed) / static_cast<double>(useful), "1");
  out.add("experiment.pool_idle_share",
          1.0 - attempt_time / (kJobs * traced_wall), "1");
  out.add("telemetry.trace_overhead_ratio", traced_wall / wall - 1.0, "1");
  out.check(overhead_s.size() == specs.size() + retries,
            "ckpt_recovery: lifecycle trace lacks attempt spans");
  write_spans(out, opts, log);
  return out;
}

}  // namespace perfbench
