// Self-healing sweep supervision on top of run_specs: periodic
// checkpoints, a wall-clock watchdog that detects hung replications, a
// bounded retry-with-backoff loop that restarts a failed replication from
// its last good checkpoint, quarantine of replications that keep failing,
// and graceful partial aggregation of whatever did complete.
//
// Determinism contract: supervision never changes a replication's
// trajectory. Checkpoints are written from, not fed back into, the
// running world; a retried replication bumps only Config::faults.attempt
// (an internal knob that gates `attempts=`-qualified fault events without
// perturbing the event or random streams); and every resume is
// byte-verified against the checkpoint it came from. A sweep that needed
// three retries therefore reports the same numbers as one that needed
// none — and the same numbers at every --jobs value.
//
// Failure taxonomy:
//   - SimulatedCrash / InvariantViolation / any std::exception out of a
//     replication -> retry from the last good checkpoint (or from
//     scratch), at most max_retries times, then quarantine.
//   - a resume that fails verification -> a failed attempt; the
//     checkpoint is dropped and the retry starts from scratch.
//   - watchdog trip (no executed-event progress for watchdog_secs of
//     wall time) -> cooperative abort via the simulator's abort flag
//     (reaches even a mid-event `hang` fault), then same retry path.
//   - external stop (SIGINT/SIGTERM flag) -> flush one final checkpoint
//     at the clean event boundary the abort left us on, mark the
//     replication interrupted, and keep the manifest resumable.
//
// Three backends run the attempts: pool threads (in-process), spawned
// worker processes (IsolationMode::kProcess) and the TCP dispatch queue
// (dispatch.hpp). All of them execute an attempt through run_attempt
// (worker.hpp) and record its outcome through the same lifecycle
// transitions (start, complete, retry-or-quarantine, interrupt), each of
// which makes that transition's manifest, status-board and trace writes;
// the two local backends also share one retry loop. Under process
// isolation a worker that dies by signal (segfault, abort, OOM kill) or
// reports an error is retried from the spec's on-disk checkpoint, and a
// hung or stopped worker is SIGKILLed by the watchdog instead of
// cooperatively aborted (see dispatch.hpp for the wire it speaks).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "experiment/dispatch.hpp"
#include "experiment/runner.hpp"
#include "snapshot/snapshot_io.hpp"
#include "telemetry/registry.hpp"

namespace dftmsn {

/// The live observability plane (telemetry/status.hpp). All of it is
/// read-only with respect to the sweep: enabling any field leaves
/// trajectories, manifest bytes and --report-json bit-identical at any
/// jobs value (tier1-status enforces this).
struct ObservabilityOptions {
  /// Seconds between atomic rewrites of status_dir/status.json.
  /// <= 0: no status file.
  double status_every_s = 0.0;
  /// Directory status.json lands in (required when status_every_s > 0;
  /// the CLI defaults it to the checkpoint dir).
  std::string status_dir;
  /// HTTP listener on 127.0.0.1 serving /status, /healthz, /metrics.
  /// -1: off. 0: ephemeral port (announced on `announce`).
  int status_port = -1;
  /// Append-only lifecycle trace in Chrome trace-event JSONL
  /// (Perfetto-viewable). Empty: off.
  std::string trace_path;
  /// Where "status: listening on 127.0.0.1:PORT" is printed (needed to
  /// discover an ephemeral port). nullptr: silent.
  std::ostream* announce = nullptr;

  [[nodiscard]] bool enabled() const {
    return status_every_s > 0.0 || status_port >= 0 || !trace_path.empty();
  }
};

/// Where a replication attempt executes.
enum class IsolationMode : std::uint8_t {
  /// In this process, on a pool thread (default). Fast, but a fault that
  /// raises a real signal (segv/abort plans, genuine memory bugs) takes
  /// the whole sweep down.
  kInProcess,
  /// In a spawned child process (`worker_exe --worker 3`), one per
  /// attempt, served its spec in dispatch frames over a socketpair it
  /// inherits as fd 3. The parent survives any worker death — segfault,
  /// abort, OOM kill — and retries from the last checkpoint. Clean runs
  /// are bit-identical to kInProcess (equivalence test-enforced).
  kProcess,
};

struct SupervisorOptions {
  /// Directory for the checkpoints.dcc container + manifest.txt. Empty:
  /// no checkpointing (failures retry from scratch, stop loses progress).
  std::string checkpoint_dir;
  /// Simulated seconds between periodic checkpoints. <= 0: checkpoint
  /// only on external stop.
  double checkpoint_every_s = 0.0;
  /// Wall-clock seconds without event progress before a replication is
  /// declared hung and aborted. <= 0: watchdog off.
  double watchdog_secs = 0.0;
  /// Retries per replication before quarantine.
  int max_retries = 2;
  /// Base wall-clock backoff before a retry; doubles per retry.
  double retry_backoff_s = 0.05;
  int jobs = 1;
  /// Reuse manifest.txt + checkpoints in checkpoint_dir: completed
  /// replications are skipped, unfinished ones resume from their last
  /// checkpoint.
  bool resume = false;
  /// External stop flag (SIGINT/SIGTERM handler sets it). nullptr: none.
  const std::atomic<bool>* stop = nullptr;
  /// Test hook: deterministically interrupt every replication after it
  /// has written this many periodic checkpoints (simulates a kill at a
  /// checkpoint boundary without signals). 0: off.
  int stop_after_checkpoints = 0;
  /// Where replication attempts execute (see IsolationMode).
  IsolationMode isolate = IsolationMode::kInProcess;
  /// Worker executable for kProcess (the CLI passes its own path, so the
  /// worker is always the very binary that built the sweep). Required
  /// when isolate == kProcess.
  std::string worker_exe;
  /// Live status/health/trace plane (purely observational).
  ObservabilityOptions obs;
  /// Lease-based TCP dispatch (experiment/dispatch.hpp). When enabled,
  /// specs run on connected pull-mode workers instead of pool threads;
  /// incompatible with IsolationMode::kProcess and with periodic
  /// checkpoints (a remote worker cannot write this host's container).
  /// Clean dispatched sweeps produce manifests and reports
  /// byte-identical to in-process runs.
  DispatchOptions dispatch;
};

enum class SpecStatus : std::uint8_t {
  kPending,      ///< never ran (stop arrived first)
  kCompleted,    ///< ran to horizon, result valid
  kQuarantined,  ///< failed max_retries + 1 times, gave up
  kInterrupted,  ///< external stop; checkpoint flushed if dir set
};
const char* spec_status_name(SpecStatus s);

struct SpecRecord {
  SpecStatus status = SpecStatus::kPending;
  int retries = 0;           ///< restarts consumed (0 = clean first run)
  std::uint64_t checkpoints = 0;  ///< checkpoint files written (all attempts)
  std::uint64_t config_digest = 0;
  std::string detail;        ///< last failure message; empty when clean
  RunResult result;          ///< valid only when status == kCompleted
  /// The completed run's instrument registry (empty when telemetry was
  /// off or the spec did not complete). Captured from the final —
  /// accepted — attempt only: a resume replays from event 0, so the
  /// registry of the attempt that reached the horizon always covers the
  /// whole run and retried prefixes are never double-counted.
  telemetry::Registry registry;
};

struct SweepManifest {
  std::vector<SpecRecord> specs;

  [[nodiscard]] int count(SpecStatus s) const;
  [[nodiscard]] int completed() const {
    return count(SpecStatus::kCompleted);
  }
  [[nodiscard]] int quarantined() const {
    return count(SpecStatus::kQuarantined);
  }
  [[nodiscard]] int interrupted() const {
    return count(SpecStatus::kInterrupted) + count(SpecStatus::kPending);
  }
  /// Replications that needed at least one restart.
  [[nodiscard]] int retried() const;
  /// Checkpoint files written across all specs and attempts.
  [[nodiscard]] std::uint64_t total_checkpoints() const;
};

/// Counters out of the streaming core (memory-behaviour test surface).
struct StreamStats {
  /// High-water mark of the index-order reorder buffer: the most
  /// terminal records ever held waiting for a lower index to finish.
  /// jobs=1 keeps this at 1 — nothing retains the whole sweep.
  std::size_t peak_buffered = 0;
};

/// Receives spec `i`'s terminal record, exactly once per spec, in strict
/// spec-index order (a reorder buffer holds out-of-order completions).
using SpecSink = std::function<void(std::size_t, SpecRecord&&)>;

/// Streaming core of supervised execution: runs every spec (thread pool,
/// process isolation, or the dispatch queue per opts), appends each
/// terminal record to checkpoint_dir/manifest.txt as it is emitted (one
/// block + fresh cumulative digest line per record, fsynced), and hands
/// it to `sink` instead of accumulating a SweepManifest. Peak memory is
/// O(reorder window), not O(specs).
StreamStats run_specs_streamed(const std::vector<RunSpec>& specs,
                               const SupervisorOptions& opts,
                               const SpecSink& sink);

/// Runs every spec under supervision, up to opts.jobs at a time. The
/// manifest has one record per spec, in input order; it is also written
/// to checkpoint_dir/manifest.txt (streamed, see run_specs_streamed)
/// when a dir is configured. Collecting wrapper over the streaming core.
SweepManifest run_specs_supervised(const std::vector<RunSpec>& specs,
                                   const SupervisorOptions& opts);

/// run_sweep under supervision: expands points × replications exactly
/// like run_sweep (replication r of point p runs seed base_seed + r), and
/// aggregates each point over its *completed* replications only.
struct SupervisedSweep {
  SweepManifest manifest;
  std::vector<ReplicatedResult> points;
};
SupervisedSweep run_sweep_supervised(const std::vector<SweepPoint>& points,
                                     int replications,
                                     const SupervisorOptions& opts);

/// The RunResults of completed specs, in spec order (partial aggregation
/// input for callers that flattened their own batch).
std::vector<RunResult> completed_results(const SweepManifest& manifest);

// --- manifest / checkpoint file layout ---------------------------------

std::string manifest_path(const std::string& checkpoint_dir);
/// The single indexed container every spec's checkpoint lives in
/// ("DFTMSNCC", see snapshot/ckpt_container.hpp); spec index = entry key.
std::string checkpoint_container_path(const std::string& checkpoint_dir);

/// The one manifest writer ("dftmsn-manifest v4", streamed layout).
/// The constructor lands an all-pending scaffold atomically and durably
/// before any spec runs; append() adds one spec's terminal block plus a
/// fresh cumulative digest line in one pwrite + fsync. RunResult doubles
/// are stored as IEEE-754 bit patterns, so a resumed sweep reports
/// bit-identical aggregates. The file is loadable after every append
/// (load_manifest takes the *last* digest line; later spec records
/// win), and a torn tail truncates back to the previous digest line
/// (salvage_manifest_tail / --fsck).
class ManifestWriter {
 public:
  /// One pending record per spec, carrying its config digest.
  ManifestWriter(std::string path,
                 const std::vector<std::uint64_t>& config_digests);
  ManifestWriter(const ManifestWriter&) = delete;
  ManifestWriter& operator=(const ManifestWriter&) = delete;
  ~ManifestWriter();

  /// Appends spec i's block + new cumulative digest line: a tear can
  /// only ever cost the block being written, never reach back past the
  /// previous digest line.
  void append(std::size_t i, const SpecRecord& r);

 private:
  /// Hashes `s` into the running digest and returns it with the new
  /// cumulative digest line appended (also hashed: later lines cover it).
  std::string seal(std::string s);

  std::string path_;
  int fd_ = -1;
  std::uint64_t offset_ = 0;
  snapshot::StateHash hash_;
};

/// Loads a manifest written by ManifestWriter (interior cumulative
/// digest lines are skipped; later records for a spec win). Returns
/// false if the file does not exist; throws std::runtime_error if it
/// exists but is malformed.
bool load_manifest(const std::string& path, SweepManifest* out);

/// Salvages a streamed manifest with a torn tail: truncates the file
/// back to its last line-aligned prefix that ends in a validating
/// cumulative digest line. Returns true when the file validates after
/// the call (*bytes_removed = 0 if it already did); false when no
/// validating prefix exists (the file stays untouched).
bool salvage_manifest_tail(const std::string& path,
                           std::size_t* bytes_removed);

}  // namespace dftmsn
