// Lease-based work queue for supervised sweeps, and the framed wire
// (dispatch wire v5) every worker speaks.
//
// The dispatcher runs inside the sweep parent (`--dispatch-port`): it
// listens on a TCP socket (loopback by default, bindable for LAN) and
// grants one replication spec at a time, each under its own
// time-bounded lease. Pull-mode workers (`dftmsn_cli --connect
// HOST:PORT`) request work, heartbeat while running, and stream back
// results. The `--worker FD` child of process isolation runs the same
// frame loop (serve_worker) over an inherited socketpair, against a
// parent that grants it exactly one spec. Every message is one *frame*:
//
//   offset 0  u32   magic "DFW3" (0x33574644 little-endian)
//   offset 4  u8    frame type (FrameType)
//   offset 5  u32   payload length (hard-capped; a hostile length field
//                   cannot drive an allocation)
//   offset 9  payload — snapshot::Writer-encoded fields per type; a
//                   grant carries the WorkerRequest's fields and a
//                   result the WorkerResult's (worker_protocol.hpp)
//   tail      u64   FNV-1a digest of everything before it
//
// A torn, truncated or tampered frame throws and drops the connection —
// never a crash, never a silently wrong accept.
//
// Failure semantics (docs/distributed_sweeps.md):
//  - crash / hang / partition: the worker stops heartbeating (or its
//    heartbeats stop showing progress), the lease expires, and the
//    spec is requeued with bounded backoff. Transport losses do not
//    consume the spec's simulation retry budget.
//  - simulation failure (the worker *reports* an error result): the
//    normal retry/quarantine path, identical to the local modes.
//  - duplicates: completion is idempotent — the first accepted result
//    per spec wins; a later result for a terminal spec, or for an
//    attempt the spec has moved past, is discarded (a resurrected worker
//    can neither double-publish nor fail a spec twice).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "experiment/worker_protocol.hpp"

namespace dftmsn {

namespace telemetry {
class StatusBoard;
}

/// CLI-facing dispatcher knobs (a member of SupervisorOptions).
struct DispatchOptions {
  int port = -1;                  ///< -1: dispatch off; 0: ephemeral port
  std::string bind = "127.0.0.1";
  double lease_secs = 30.0;       ///< heartbeat-extended lease per spec
  /// Test hook: the bound port is published here once listening (the
  /// CLI announces it on stdout instead).
  std::atomic<int>* port_out = nullptr;
  [[nodiscard]] bool enabled() const { return port >= 0; }
};

inline constexpr std::uint32_t kDispatchFrameMagic = 0x33574644;  // "DFW3"
inline constexpr std::size_t kDispatchFrameHeader = 9;
inline constexpr std::size_t kDispatchFrameTrailer = 8;
inline constexpr std::size_t kMaxDispatchPayload = 64u << 20;

/// Version a worker announces in its hello frame; must match the
/// dispatcher's build. v5: one spec per grant, the request and result
/// fields inline, no lease ids.
inline constexpr std::uint32_t kDispatchWireVersion = 5;

enum class FrameType : std::uint8_t {
  kHello = 1,      ///< worker -> dispatcher: version + worker name
  kRequest = 2,    ///< worker -> dispatcher: give me a spec
  kGrant = 3,      ///< dispatcher -> worker: lease + one spec's request
  kNoWork = 4,     ///< dispatcher -> worker: nothing now (done=sweep over)
  kResult = 5,     ///< worker -> dispatcher: one spec's result
  kHeartbeat = 6,  ///< worker -> dispatcher: liveness + progress
};

/// A decoded frame; only the fields of `type` are meaningful.
struct WireFrame {
  FrameType type = FrameType::kHello;
  // kHello
  std::uint32_t version = 0;
  std::string worker_name;
  // kGrant
  double lease_secs = 0.0;
  WorkerRequest request;
  // kNoWork
  bool done = false;
  // kResult / kHeartbeat
  std::uint64_t spec = 0;
  std::int64_t attempt = 0;          ///< kResult
  WorkerResult result;               ///< kResult
  std::uint64_t events = 0;          ///< kHeartbeat
  std::uint64_t sim_time_bits = 0;   ///< kHeartbeat
  std::uint64_t checkpoint_seq = 0;  ///< kHeartbeat: checkpoints so far
};

std::vector<std::uint8_t> encode_hello_frame(const std::string& worker_name);
std::vector<std::uint8_t> encode_request_frame();
std::vector<std::uint8_t> encode_grant_frame(double lease_secs,
                                             const WorkerRequest& request);
std::vector<std::uint8_t> encode_nowork_frame(bool done);
std::vector<std::uint8_t> encode_result_frame(std::uint64_t spec,
                                              std::int64_t attempt,
                                              const WorkerResult& result);
std::vector<std::uint8_t> encode_heartbeat_frame(
    std::uint64_t spec, std::uint64_t events, std::uint64_t sim_time_bits,
    std::uint64_t checkpoint_seq = 0);

/// Tries to extract one complete frame from the front of `data`.
/// Returns 0 when more bytes are needed, else the number of bytes
/// consumed with *out filled. Throws snapshot::SnapshotError naming
/// `context` on a damaged frame (bad magic/type/length/digest, torn
/// payload); the caller must drop the connection.
std::size_t try_extract_frame(const std::uint8_t* data, std::size_t len,
                              const std::string& context, WireFrame* out);

/// Blocks until one whole frame arrived on stream socket `fd`; `buf`
/// carries bytes past it to the next call. Returns false on EOF at a
/// frame boundary. Throws snapshot::SnapshotError on a damaged frame or
/// an EOF mid-frame, net::NetError on a socket error.
bool read_frame(int fd, std::vector<std::uint8_t>& buf,
                const std::string& context, WireFrame* out);

/// The retry rule every backend applies. After failure k of a spec
/// (k = 1, 2, ...) the retry waits min(5, base_s * 2^(k-1)) wall
/// seconds; a transport requeue waits the same per loss.
double retry_backoff_s(double base_s, int k);

/// The manifest detail of a failed attempt: "attempt N: <error>", on one
/// line.
std::string attempt_failure_detail(int attempt, const std::string& error);

/// Retry/requeue policy the supervisor hands the dispatcher; mirrors
/// the local supervision loop so a dispatched sweep makes the identical
/// accept/retry/quarantine decisions.
struct DispatchPolicy {
  int max_retries = 2;          ///< simulation-failure retry budget
  double retry_backoff_s = 0.05;
  const std::atomic<bool>* stop = nullptr;
};

/// Terminal + lifecycle callbacks out of the dispatcher event loop. All
/// callbacks fire on the dispatcher's (single) thread, in spec index
/// submission order for make_request and acceptance order otherwise.
struct DispatchCallbacks {
  /// The request for attempt `attempt` of spec i (required; its `spec`
  /// and `attempt` fields are the ones the worker echoes back).
  std::function<WorkerRequest(std::size_t, int)> make_request;
  /// Spec granted under a lease; `attempt` is its sim attempt number.
  std::function<void(std::size_t, int)> on_started;
  /// Result accepted: spec completed on `attempt` with this decoded,
  /// digest-validated result. First accepted result per spec wins.
  std::function<void(std::size_t, int, WorkerResult&&)> on_completed;
  /// Terminal failure: sim retry budget (or the transport requeue
  /// bound) exhausted; `retries` and `detail` follow the local loop's
  /// manifest conventions.
  std::function<void(std::size_t, int, const std::string&)> on_quarantined;
  /// External stop: spec will not run. `detail` is empty for a spec
  /// that never started (callers substitute their "stopped before
  /// start" convention).
  std::function<void(std::size_t, const std::string&)> on_interrupted;
  /// A sim-failure retry is scheduled: next attempt number + detail.
  std::function<void(std::size_t, int, const std::string&)> on_retrying;
  /// A spec was requeued after a transport loss (trace bookkeeping
  /// only — transport losses do not touch manifest retries).
  std::function<void(std::size_t, int, const std::string&)> on_requeued;
  /// Heartbeat progress for a running spec: events, sim-time seconds.
  std::function<void(std::size_t, std::uint64_t, double)> on_progress;
  /// One human line (the "dispatch: listening on ..." announce).
  std::function<void(const std::string&)> announce;
};

/// Runs the dispatcher event loop on the calling thread until every
/// non-skipped spec is terminal (or stop is raised). `skip[i]` true
/// marks spec i already terminal (resume carry-over) — it is never
/// granted. Returns normally even when workers crash, hang or vanish;
/// throws net::NetError only if the listener cannot bind.
void run_dispatch_queue(std::size_t num_specs, const std::vector<char>& skip,
                        const DispatchOptions& opts,
                        const DispatchPolicy& policy,
                        telemetry::StatusBoard* board, DispatchCallbacks cb);

/// Worker side: pulls specs over the connected stream socket `fd` until
/// the other end reports the sweep done or hangs up, then closes it.
/// Runs each granted spec through run_attempt (worker.hpp), heartbeating
/// while it runs, and sends its result back. Returns a process exit
/// code: 0 clean, kWorkerExitBadRequest on a wire failure (a damaged or
/// undecodable frame included).
int serve_worker(int fd);

/// `--connect`: serve_worker on a TCP connection to a dispatcher.
/// Returns kWorkerExitBadRequest when the connection fails.
int run_dispatch_worker(const std::string& host, int port);

}  // namespace dftmsn
