// What a supervising sweep parent and its replication workers exchange,
// and the parent's verdict on a spawned worker.
//
// The parent describes each attempt as one WorkerRequest — the full
// Config (bit-exact encoding, see save_config_exact), the protocol kind,
// the attempt number, the spec index and the checkpoint policy — and the
// worker answers with one WorkerResult: either the finished RunResult
// plus its telemetry registry, or a structured error. Their field codecs
// below are the payloads of the dispatch grant and result frames
// (experiment/dispatch.hpp), whose digest and wire version cover them;
// a torn or tampered frame fails validation loudly and the parent
// retries instead of trusting garbage.
//
// Every worker receives them the same way. A `--connect HOST:PORT`
// worker speaks the frames over TCP; the `--worker FD` child of process
// isolation speaks them over one end of a socketpair it inherits as fd
// FD.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.hpp"
#include "experiment/runner.hpp"
#include "protocol/mac_common.hpp"
#include "snapshot/snapshot_io.hpp"
#include "telemetry/registry.hpp"

namespace dftmsn {

// Worker process exit codes, shared by `--worker` and `--connect`. They
// line up with the CLI's own ok/usage-error codes; a simulation failure
// travels in the result frame, never in the exit code.
inline constexpr int kWorkerExitOk = 0;
inline constexpr int kWorkerExitBadRequest = 2;

/// Everything a worker needs to run one replication attempt.
struct WorkerRequest {
  Config config;
  ProtocolKind kind = ProtocolKind::kOpt;
  int attempt = 0;               ///< gates attempts=-qualified fault events
  /// The spec index: names the attempt's result and container entry.
  std::uint64_t spec = 0;
  /// Checkpoint container ("DFTMSNCC") the attempt reads/writes its
  /// entry in. Empty: no checkpointing (always so for a remote worker).
  std::string checkpoint_path;
  double checkpoint_every_s = 0.0;
};

/// What a worker reports back. On ok=false only `error` is meaningful.
struct WorkerResult {
  bool ok = false;
  std::string error;
  RunResult result;
  std::uint64_t checkpoints_written = 0;
  telemetry::Registry registry;  ///< empty when telemetry is disabled
};

/// Field codecs of the grant and result frames. The loaders throw
/// snapshot::SnapshotError (or std::invalid_argument, for config keys
/// this build does not register) on malformed fields.
void save_worker_request(const WorkerRequest& req, snapshot::Writer& w);
void load_worker_request(WorkerRequest& req, snapshot::Reader& rd);
void save_worker_result(const WorkerResult& res, snapshot::Writer& w);
void load_worker_result(WorkerResult& res, snapshot::Reader& rd);

/// What the parent's stream from a spawned worker delivered.
enum class WorkerStream : std::uint8_t {
  kOk,       ///< a result frame with ok=true
  kError,    ///< a result frame with ok=false (worker reported a failure)
  kNothing,  ///< the stream ended before any result frame
  kCorrupt,  ///< a damaged frame
};

/// Supervisor verdict for one finished worker.
struct WorkerExitDecision {
  bool accept = false;    ///< take the result; false = retry/quarantine path
  std::string detail;     ///< failure message for the manifest (retry path)
};

/// Maps a waitpid status + what the worker's stream delivered to the
/// supervisor action. `reported_error` is the error string out of a
/// decoded error result (empty otherwise). Pure function — unit-testable
/// against a table of crafted wait statuses.
WorkerExitDecision decode_worker_exit(int wait_status, WorkerStream stream,
                                      const std::string& reported_error);

/// "SIGSEGV" for 11, "signal 42" for everything unnamed. Hand-mapped:
/// strsignal() is locale-dependent and not async-signal relevant here,
/// but its strings vary across libcs and would leak into manifest
/// golden comparisons.
std::string worker_signal_name(int sig);

}  // namespace dftmsn
