#include "experiment/supervisor.hpp"

#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/net_util.hpp"
#include "common/thread_pool.hpp"
#include "experiment/dispatch.hpp"
#include "experiment/worker.hpp"
#include "experiment/worker_protocol.hpp"
#include "experiment/world.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/ckpt_container.hpp"
#include "snapshot/io_env.hpp"
#include "snapshot/snapshot_io.hpp"
#include "telemetry/lifecycle_trace.hpp"
#include "telemetry/status.hpp"
#include "telemetry/status_server.hpp"

extern char** environ;

namespace dftmsn {
namespace {

using Clock = std::chrono::steady_clock;

// Manifest doubles are stored as IEEE-754 bit patterns (decimal u64), so
// a resumed sweep folds bit-identical values into its aggregates.
std::uint64_t double_bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

double bits_double(std::uint64_t u) {
  double v = 0.0;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

std::string sanitize(std::string s) {
  for (char& c : s)
    if (c == '\n' || c == '\r') c = ' ';
  return s;
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

bool from_hex(const std::string& s, std::vector<std::uint8_t>* out) {
  if (s.size() % 2 != 0) return false;
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  out->clear();
  out->reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    const int hi = nibble(s[i]);
    const int lo = nibble(s[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<std::uint8_t>(hi * 16 + lo));
  }
  return true;
}

bool parse_status(const std::string& s, SpecStatus* out) {
  if (s == "pending") *out = SpecStatus::kPending;
  else if (s == "completed") *out = SpecStatus::kCompleted;
  else if (s == "quarantined") *out = SpecStatus::kQuarantined;
  else if (s == "interrupted") *out = SpecStatus::kInterrupted;
  else return false;
  return true;
}

void put_result(std::ostream& os, const RunResult& r) {
  os << double_bits(r.delivery_ratio) << ' ' << double_bits(r.mean_power_mw)
     << ' ' << double_bits(r.mean_delay_s) << ' ' << double_bits(r.mean_hops)
     << ' ' << double_bits(r.overhead_bits_per_delivery) << ' '
     << double_bits(r.fairness_jain) << ' ' << r.generated
     << ' ' << r.delivered << ' ' << r.collisions << ' ' << r.attempts << ' '
     << r.failed_attempts << ' ' << r.data_transmissions << ' '
     << r.drops_overflow << ' ' << r.drops_threshold << ' '
     << r.drops_delivered << ' '
     << r.events_executed << ' ' << r.faults_injected << ' '
     << r.drops_node_failure << ' ' << r.frames_fault_corrupted << ' '
     << r.invariant_sweeps;
}

void put_spec_block(std::ostream& os, std::size_t i, const SpecRecord& r) {
  os << "spec " << i << ' ' << spec_status_name(r.status) << " retries="
     << r.retries << " checkpoints=" << r.checkpoints << " digest="
     << r.config_digest << " detail=" << sanitize(r.detail) << "\n";
  if (r.status == SpecStatus::kCompleted) {
    os << "result " << i << ' ';
    put_result(os, r.result);
    os << "\n";
    // v3 addition: the completed run's instrument registry, hex of its
    // canonical byte form, so a resumed sweep reports the same merged
    // telemetry a straight-through sweep would. Omitted when telemetry
    // was off (the registry is empty) — deterministically, so the line
    // set never depends on jobs or isolation mode.
    if (!r.registry.empty())
      os << "registry " << i << ' ' << to_hex(r.registry.serialize())
         << "\n";
  }
}

bool get_result(std::istream& is, RunResult* r) {
  std::uint64_t dr = 0, pw = 0, dl = 0, hp = 0, ov = 0, fj = 0;
  if (!(is >> dr >> pw >> dl >> hp >> ov >> fj >> r->generated >>
        r->delivered >> r->collisions >> r->attempts >> r->failed_attempts >>
        r->data_transmissions >> r->drops_overflow >> r->drops_threshold >>
        r->drops_delivered >>
        r->events_executed >> r->faults_injected >> r->drops_node_failure >>
        r->frames_fault_corrupted >> r->invariant_sweeps))
    return false;
  r->delivery_ratio = bits_double(dr);
  r->mean_power_mw = bits_double(pw);
  r->mean_delay_s = bits_double(dl);
  r->mean_hops = bits_double(hp);
  r->overhead_bits_per_delivery = bits_double(ov);
  r->fairness_jain = bits_double(fj);
  return true;
}

bool stop_requested(const SupervisorOptions& opts) {
  return opts.stop != nullptr && opts.stop->load();
}

/// Per-spec supervision state shared between the thread running the
/// spec and the watchdog and status-sampler threads. Everything but the
/// trailing watchdog-thread scratch is cross-thread surface.
struct Slot {
  std::atomic<bool> abort{false};
  std::atomic<bool> active{false};
  std::atomic<bool> watchdog_fired{false};
  /// Process isolation: the spawned worker's pid while one is running
  /// (-1 otherwise) — a hung or stopped worker cannot honor the abort
  /// flag, so the watchdog SIGKILLs it instead.
  std::atomic<long> child_pid{-1};
  /// The current attempt's progress, which the watchdog and the status
  /// sampler read: stored by the simulator in-process, and from the
  /// worker's heartbeats under isolation.
  std::atomic<std::uint64_t> events{0};
  std::atomic<std::uint64_t> time_bits{0};
  std::atomic<std::uint64_t> seq{0};

  bool seen = false;
  std::uint64_t last_progress = 0;
  Clock::time_point last_change{};
  /// Watchdog-thread scratch: last pid a SIGKILL was traced for, so the
  /// repeated kill of one stubborn child logs a single sigkill event.
  long last_killed_pid = -1;

  void arm() {
    watchdog_fired.store(false);
    abort.store(false);
    events.store(0);
    time_bits.store(0, std::memory_order_relaxed);
    seq.store(0, std::memory_order_relaxed);
  }
  /// An abort that ended the attempt came from the external stop, not
  /// from the watchdog.
  [[nodiscard]] bool stopped(const SupervisorOptions& opts) const {
    return !watchdog_fired.load() && stop_requested(opts);
  }
};

/// One supervised sweep as its backends see it, and the spec lifecycle
/// all three drive through it. Each transition makes all of its writes
/// in one place: the spec's manifest record (terminal transitions
/// publish it to the streamed manifest), the status board and the
/// lifecycle trace. The board and trace are null when the observability
/// plane is off. One spec's calls come from one thread at a time: its
/// pool thread, or the dispatcher's event loop.
struct Sweep {
  const std::vector<RunSpec>& specs;
  const SupervisorOptions& opts;
  std::string ckpt;  ///< checkpoint container; empty: no checkpoints
  std::vector<SpecRecord>& records;
  SpecSink publish;  ///< in spec-index order to the manifest and sink
  telemetry::StatusBoard* board = nullptr;
  telemetry::LifecycleTrace* trace = nullptr;
  /// Nonzero while spec i's "attempt" span is open in the trace. Under
  /// dispatch a lost grant closes it, and a late result or a stop may
  /// then settle the spec with no attempt running.
  std::vector<char> in_attempt;

  void start(std::size_t i, int attempt) {
    if (board) board->mark_running(i, attempt);
    if (trace) {
      trace->begin(i, "attempt", {{"attempt", std::to_string(attempt)}});
      in_attempt[i] = 1;
    }
  }

  /// Closes spec i's attempt span, if one is open.
  void end_attempt(std::size_t i) {
    if (trace && in_attempt[i]) {
      trace->end(i, "attempt");
      in_attempt[i] = 0;
    }
  }

  /// Accepts attempt `attempt`'s result. It replayed (or ran) the whole
  /// trajectory from event 0, so its registry covers the full run: one
  /// merge, no double-counted retry prefixes.
  void complete(std::size_t i, int attempt, WorkerResult&& w) {
    SpecRecord& rec = records[i];
    rec.status = SpecStatus::kCompleted;
    rec.retries = attempt;
    rec.detail.clear();
    rec.result = w.result;
    rec.registry.merge(w.registry);
    end_attempt(i);
    publish_completed(i);
  }

  /// Publishes a completed record: the accepted one above, or on resume
  /// one from an earlier run, whose spec never re-runs.
  void publish_completed(std::size_t i) {
    SpecRecord& rec = records[i];
    if (board) {
      board->update_progress(i, rec.result.events_executed,
                             specs[i].config.scenario.duration_s);
      board->sync_checkpoints(i, rec.checkpoints);
      board->mark_done(i);
      board->absorb_registry(rec.registry);
    }
    publish(i, std::move(rec));
  }

  /// A failed attempt (or, under dispatch, a spec whose transport kept
  /// failing): retried as attempt `retries`, or, with give_up, the spec
  /// is quarantined after `retries` restarts.
  void retry_or_quarantine(std::size_t i, int retries,
                           const std::string& detail, bool give_up) {
    SpecRecord& rec = records[i];
    rec.retries = retries;
    rec.detail = detail;
    if (give_up) rec.status = SpecStatus::kQuarantined;
    if (board && give_up) board->mark_quarantined(i, detail);
    if (board && !give_up) board->mark_retrying(i, retries, detail);
    end_attempt(i);
    if (trace) {
      trace->instant(i, give_up ? "quarantine" : "retry",
                     {{"attempt", std::to_string(std::max(0, retries - 1))},
                      {"reason", detail}});
    }
    if (give_up) publish(i, std::move(rec));
  }

  /// External stop. `detail` names where a running attempt stopped; an
  /// empty one means the spec stopped between attempts and keeps its
  /// last failure, or reads "stopped before start".
  void interrupt(std::size_t i, const std::string& detail) {
    SpecRecord& rec = records[i];
    rec.status = SpecStatus::kInterrupted;
    if (!detail.empty())
      rec.detail = detail;
    else if (rec.detail.empty())
      rec.detail = "stopped before start";
    if (board) {
      board->sync_checkpoints(i, rec.checkpoints);
      board->mark_interrupted(i, rec.detail);
    }
    end_attempt(i);
    if (trace) trace->instant(i, "interrupted", {{"reason", rec.detail}});
    publish(i, std::move(rec));
  }

  /// Attempt `attempt` of spec i as every backend describes it to
  /// run_attempt — directly, or in a grant frame across a process or TCP
  /// boundary.
  [[nodiscard]] WorkerRequest request(std::size_t i, int attempt,
                                      const std::string& container) const {
    WorkerRequest req;
    req.config = specs[i].config;
    req.kind = specs[i].kind;
    req.attempt = attempt;
    req.spec = i;
    req.checkpoint_path = container;
    req.checkpoint_every_s = opts.checkpoint_every_s;
    return req;
  }

  [[nodiscard]] std::string watchdog_detail(const std::string& what) const {
    return "watchdog: no event progress for " +
           std::to_string(opts.watchdog_secs) + "s wall (" + what + ")";
  }
};

/// How one local attempt ended: w.ok with a result, or else an external
/// stop (interrupted) or a failure, with the reason in w.error.
struct AttemptReport {
  WorkerResult w;
  bool interrupted = false;
};

/// The retry loop both local backends share: `attempt_fn` runs attempt
/// k, and the loop completes, interrupts, retries with backoff, or
/// quarantines once the retry budget is spent.
void supervise_spec(Sweep& sw, std::size_t i, Slot& slot,
                    const std::function<AttemptReport(int)>& attempt_fn) {
  for (int attempt = 0;;) {
    if (stop_requested(sw.opts)) return sw.interrupt(i, "");
    slot.arm();
    sw.start(i, attempt);
    AttemptReport rep = attempt_fn(attempt);
    sw.records[i].checkpoints += rep.w.checkpoints_written;
    if (rep.w.ok) {
      // The spent entry goes; a failed cleanup cannot turn the accepted
      // result into a retry.
      erase_checkpoint(sw.ckpt, i);
      return sw.complete(i, attempt, std::move(rep.w));
    }
    if (rep.interrupted) return sw.interrupt(i, rep.w.error);
    const std::string detail = attempt_failure_detail(attempt, rep.w.error);
    const bool give_up = ++attempt > sw.opts.max_retries;
    sw.retry_or_quarantine(i, attempt, detail, give_up);
    if (give_up) return;
    const double backoff = retry_backoff_s(sw.opts.retry_backoff_s, attempt);
    if (backoff > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
}

/// One attempt on this pool thread. `image` is the spec's last good
/// checkpoint, kept in memory: a retry must not depend on re-reading an
/// entry a torn write may have damaged.
AttemptReport attempt_in_process(const Sweep& sw, std::size_t i, int attempt,
                                 Slot& slot,
                                 std::vector<std::uint8_t>& image) {
  AttemptHooks hooks;
  hooks.image = &image;
  hooks.keep_image = true;
  hooks.progress = {&slot.events, &slot.time_bits, &slot.seq};
  hooks.abort = &slot.abort;
  hooks.stop_after_checkpoints = sw.opts.stop_after_checkpoints;
  AttemptOutput out;
  AttemptReport rep;
  bool drop_image = false;
  slot.active.store(true);  // building and replay are watchdog-monitored
  try {
    run_attempt(sw.request(i, attempt, sw.ckpt), hooks, out);
    if (!out.report.ok) {
      rep.interrupted = true;
      out.report.error =
          "test hook: stopped after " +
          std::to_string(out.report.checkpoints_written) + " checkpoints";
    }
  } catch (const RunAborted& e) {
    if (slot.stopped(sw.opts)) {
      // External stop: the abort unwound at a clean event boundary, so
      // flush one final checkpoint and leave the spec resumable.
      if (out.world && !sw.ckpt.empty()) {
        try {
          snapshot::container_put(sw.ckpt, i, make_checkpoint(*out.world));
          ++out.report.checkpoints_written;
        } catch (const std::exception&) {
          // Keep whatever checkpoint was already on disk.
        }
      }
      rep.interrupted = true;
      out.report.error = "interrupted at t=" + std::to_string(e.at);
    } else {
      out.report.error = sw.watchdog_detail(
          "aborted at t=" + std::to_string(e.at) + " after " +
          std::to_string(e.events) + " events");
    }
  } catch (const std::exception& e) {
    // SimulatedCrash, InvariantViolation, bad fault plans, a failed
    // resume, ...
    out.report.error = e.what();
    drop_image = drops_checkpoint(e);
  }
  slot.active.store(false);
  if (drop_image) image.clear();
  rep.w = std::move(out.report);
  return rep;
}

/// Closes a descriptor when it goes out of scope.
struct Fd {
  explicit Fd(int f) : fd(f) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { ::close(fd); }
  int fd;
};

/// Spawns `exe --worker 3` with `child_end` as the child's fd 3. The
/// socketpair is close-on-exec, so a sibling spawned concurrently never
/// inherits this worker's ends and delays its EOF.
pid_t spawn_worker(const std::string& exe, int child_end) {
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  char* argv[] = {const_cast<char*>(exe.c_str()),
                  const_cast<char*>("--worker"), const_cast<char*>("3"),
                  nullptr};
  pid_t pid = -1;
  int rc = ::posix_spawn_file_actions_adddup2(&actions, child_end, 3);
  if (rc == 0)
    rc = ::posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv, environ);
  ::posix_spawn_file_actions_destroy(&actions);
  if (rc != 0)
    throw std::runtime_error(std::string("cannot spawn worker ") + exe +
                             ": " + std::strerror(rc));
  return pid;
}

/// Serves a spawned worker the dispatch frames of a one-spec queue over
/// `fd`: a grant of `request` for its first request, nowork(done) for
/// the next, so a healthy worker exits 0. Reads to EOF, filing each
/// heartbeat into the slot's progress atomics and the result into *res.
WorkerStream serve_grant(int fd, const WorkerRequest& request,
                         double lease_secs, Slot& slot, WorkerResult* res) {
  const std::string ctx =
      "worker stream of spec " + std::to_string(request.spec);
  const auto send = [fd](const std::vector<std::uint8_t>& bytes) {
    net::write_full(fd, bytes.data(), bytes.size());
  };
  WorkerStream got = WorkerStream::kNothing;
  std::vector<std::uint8_t> buf;
  bool said_hello = false;
  bool granted = false;
  try {
    for (WireFrame f; read_frame(fd, buf, ctx, &f);) {
      if (!said_hello) {
        if (f.type != FrameType::kHello || f.version != kDispatchWireVersion)
          throw snapshot::SnapshotError(
              ctx + ": expected hello (wire version " +
              std::to_string(kDispatchWireVersion) + ")");
        said_hello = true;
      } else if (f.type == FrameType::kRequest) {
        send(granted ? encode_nowork_frame(true)
                     : encode_grant_frame(lease_secs, request));
        granted = true;
      } else if (f.type == FrameType::kHeartbeat) {
        slot.events.store(f.events);
        slot.time_bits.store(f.sim_time_bits, std::memory_order_relaxed);
        slot.seq.store(f.checkpoint_seq, std::memory_order_relaxed);
      } else if (f.type == FrameType::kResult) {
        *res = std::move(f.result);
        got = res->ok ? WorkerStream::kOk : WorkerStream::kError;
      } else {
        throw snapshot::SnapshotError(ctx + ": unexpected frame");
      }
    }
  } catch (const net::NetError&) {
    // The worker died mid-conversation (EPIPE, ECONNRESET): as EOF.
  } catch (const std::exception&) {
    // A damaged frame. Hang up; a worker still running fails its next
    // send.
    got = WorkerStream::kCorrupt;
    ::shutdown(fd, SHUT_RDWR);
  }
  return got;
}

/// One attempt in a spawned worker (`worker_exe --worker 3`), served
/// over a socketpair (serve_grant) and judged by its result frame plus
/// waitpid. The worker resumes from the spec's container entry itself,
/// so the parent only decides accept / retry / quarantine.
AttemptReport attempt_isolated(const Sweep& sw, std::size_t i, int attempt,
                               Slot& slot) {
  // The lease sets the worker's heartbeat period (lease/4), so a
  // watchdog window sees at least four progress readings.
  const double lease =
      sw.opts.watchdog_secs > 0.0 ? sw.opts.watchdog_secs : 1.0;

  AttemptReport rep;
  std::string fail;
  try {
    int sv[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
      throw std::runtime_error(std::string("socketpair: ") +
                               std::strerror(errno));
    const Fd ours(sv[0]);
    pid_t pid = -1;
    {
      // With our copy of the child's end closed, EOF means the worker
      // (and anything it forked) is gone.
      const Fd theirs(sv[1]);
      pid = spawn_worker(sw.opts.worker_exe, theirs.fd);
    }

    slot.child_pid.store(pid);
    slot.active.store(true);
    if (sw.board) sw.board->mark_worker_spawn(i);
    if (sw.trace)
      sw.trace->instant(i, "worker_spawn",
                        {{"pid", std::to_string(pid)},
                         {"attempt", std::to_string(attempt)}});
    // An abort that raced the pid publication (external stop between
    // spawn and store) could not kill the child — honor it here. The
    // symmetric watchdog-side race (pid read just before a worker exits
    // and the pid is reused) is accepted: the window is one poll
    // interval and the stray SIGKILL would need a same-pid recycle
    // within it.
    if (slot.abort.load()) ::kill(pid, SIGKILL);

    WorkerResult wres;
    const WorkerStream got =
        serve_grant(ours.fd, sw.request(i, attempt, sw.ckpt), lease, slot,
                    &wres);
    int status = 0;
    pid_t waited = -1;
    do {
      waited = ::waitpid(pid, &status, 0);
    } while (waited < 0 && errno == EINTR);
    slot.active.store(false);
    slot.child_pid.store(-1);
    if (waited != pid)
      throw std::runtime_error(std::string("waitpid: ") +
                               std::strerror(errno));

    // Checkpoint counts come only from a decoded result; a SIGKILLed
    // worker's partial writes are simply not counted.
    rep.w.checkpoints_written = wres.checkpoints_written;
    if (slot.stopped(sw.opts)) {
      // External stop: the watchdog SIGKILLed the worker, so its last
      // periodic checkpoint (unlike the in-process path, no final one
      // can be flushed) keeps the spec resumable.
      rep.interrupted = true;
      rep.w.error = "interrupted (worker stopped)";
      return rep;
    }
    const WorkerExitDecision verdict =
        decode_worker_exit(status, got, wres.error);
    if (verdict.accept) {
      rep.w = std::move(wres);
      return rep;
    }
    fail = verdict.detail;
  } catch (const std::exception& e) {
    slot.active.store(false);
    slot.child_pid.store(-1);
    fail = e.what();
  }
  // A watchdog SIGKILL shows up to waitpid as a plain signal death; keep
  // the decoded verdict (signal name and all) inside the watchdog
  // message instead of overwriting it.
  if (slot.watchdog_fired.load())
    fail = sw.watchdog_detail(fail.empty() ? "worker killed" : fail);
  rep.w.error = fail;
  return rep;
}

/// Runs spec i to a terminal record on a local backend.
void supervise_local(Sweep& sw, std::size_t i, Slot& slot) {
  if (sw.opts.isolate == IsolationMode::kInProcess) {
    std::vector<std::uint8_t> image;
    if (sw.opts.resume)
      image = load_resume_image(sw.ckpt, i, sw.specs[i].config,
                                sw.specs[i].kind);
    return supervise_spec(sw, i, slot, [&](int attempt) {
      return attempt_in_process(sw, i, attempt, slot, image);
    });
  }
  // Workers adopt any valid on-disk checkpoint; a non-resume sweep must
  // therefore clear leftovers the in-process path would simply ignore.
  // An unreadable container cannot seed the worker either; --fsck
  // reports the damage.
  if (!sw.opts.resume) erase_checkpoint(sw.ckpt, i);
  supervise_spec(sw, i, slot, [&](int attempt) {
    return attempt_isolated(sw, i, attempt, slot);
  });
}

}  // namespace

const char* spec_status_name(SpecStatus s) {
  switch (s) {
    case SpecStatus::kPending: return "pending";
    case SpecStatus::kCompleted: return "completed";
    case SpecStatus::kQuarantined: return "quarantined";
    case SpecStatus::kInterrupted: return "interrupted";
  }
  return "?";
}

int SweepManifest::count(SpecStatus s) const {
  int n = 0;
  for (const SpecRecord& r : specs) n += (r.status == s) ? 1 : 0;
  return n;
}

int SweepManifest::retried() const {
  int n = 0;
  for (const SpecRecord& r : specs) n += (r.retries > 0) ? 1 : 0;
  return n;
}

std::uint64_t SweepManifest::total_checkpoints() const {
  std::uint64_t n = 0;
  for (const SpecRecord& r : specs) n += r.checkpoints;
  return n;
}

std::string manifest_path(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/manifest.txt";
}

std::string checkpoint_container_path(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/checkpoints.dcc";
}

namespace {

/// strtoull with the failure modes closed: empty field, leading junk,
/// trailing junk, sign, and overflow all throw via `bad`, naming the
/// offending line.
std::uint64_t parse_u64_field(
    const std::string& kv, std::size_t prefix, const std::string& line,
    const std::function<void(const std::string&)>& bad) {
  const char* s = kv.c_str() + prefix;
  if (*s == '\0' || *s == '-' || *s == '+')
    bad("bad number \"" + std::string(s) + "\" in: " + line);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0')
    bad("bad number \"" + std::string(s) + "\" in: " + line);
  return static_cast<std::uint64_t>(v);
}

}  // namespace

bool load_manifest(const std::string& path, SweepManifest* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;

  const auto bad = [&path](const std::string& what) {
    throw std::runtime_error("manifest " + path + ": " + what);
  };

  // Digest first (same discipline as every binary format here): the
  // whole file must end with "digest <fnv>\n" covering everything before
  // that line, so torn writes and bit flips fail with one clear message
  // instead of parsing into wrong numbers.
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string whole = buf.str();
  if (whole.empty() || whole.back() != '\n')
    bad("truncated (no trailing newline)");
  std::size_t dpos = whole.rfind("digest ", whole.size() - 1);
  if (dpos == std::string::npos || (dpos != 0 && whole[dpos - 1] != '\n') ||
      whole.find('\n', dpos) != whole.size() - 1)
    bad("missing trailing digest line");
  {
    const std::string dline =
        whole.substr(dpos, whole.size() - 1 - dpos);  // sans newline
    const std::uint64_t stored = parse_u64_field(dline, 7, dline, bad);
    snapshot::StateHash h;
    h.update(whole.data(), dpos);
    if (h.value() != stored)
      bad("digest mismatch (torn or corrupt file)");
  }

  std::istringstream body(whole.substr(0, dpos));
  std::string line;
  // Strict version gate: older manifests (pre-registry v2, pre-digest
  // v3) are rejected rather than half-loaded — a stale manifest means
  // re-running the sweep, not silently resuming without telemetry.
  if (!std::getline(body, line) || line != "dftmsn-manifest v4")
    bad("unrecognized header");
  std::size_t n = 0;
  {
    if (!std::getline(body, line)) bad("missing spec count");
    std::istringstream is(line);
    std::string tag;
    if (!(is >> tag >> n) || tag != "specs") bad("missing spec count");
  }
  SweepManifest m;
  m.specs.resize(n);
  while (std::getline(body, line)) {
    if (line.empty()) continue;
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    // Streamed manifests carry a fresh cumulative digest line after
    // every appended block; all of them are covered by the trailing
    // digest already verified above, so the body parser skips them.
    if (tag == "digest") continue;
    std::size_t i = 0;
    is >> i;
    if (!is || i >= n) bad("malformed line: " + line);
    SpecRecord& r = m.specs[i];
    if (tag == "spec") {
      std::string status, kv;
      is >> status;
      if (!parse_status(status, &r.status)) bad("bad status: " + status);
      if (!(is >> kv) || kv.rfind("retries=", 0) != 0)
        bad("missing retries: " + line);
      const std::uint64_t retries = parse_u64_field(kv, 8, line, bad);
      if (retries > static_cast<std::uint64_t>(
                        std::numeric_limits<int>::max()))
        bad("retries out of range in: " + line);
      r.retries = static_cast<int>(retries);
      if (!(is >> kv) || kv.rfind("checkpoints=", 0) != 0)
        bad("missing checkpoints: " + line);
      r.checkpoints = parse_u64_field(kv, 12, line, bad);
      if (!(is >> kv) || kv.rfind("digest=", 0) != 0)
        bad("missing digest: " + line);
      r.config_digest = parse_u64_field(kv, 7, line, bad);
      std::string detail;
      std::getline(is, detail);
      const auto at = detail.find("detail=");
      r.detail = at == std::string::npos ? "" : detail.substr(at + 7);
    } else if (tag == "result") {
      if (!get_result(is, &r.result)) bad("malformed result: " + line);
    } else if (tag == "registry") {
      std::string hex;
      std::vector<std::uint8_t> bytes;
      if (!(is >> hex) || !from_hex(hex, &bytes))
        bad("malformed registry: " + line);
      try {
        snapshot::Reader rd(bytes);
        r.registry = telemetry::Registry();
        r.registry.load_state(rd);
      } catch (const std::exception& e) {
        bad("undecodable registry: " + std::string(e.what()));
      }
    } else {
      bad("unknown tag: " + tag);
    }
  }
  *out = std::move(m);
  return true;
}

bool salvage_manifest_tail(const std::string& path,
                           std::size_t* bytes_removed) {
  if (bytes_removed != nullptr) *bytes_removed = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string whole = buf.str();

  // Scan complete lines, tracking the hash of every byte consumed so
  // far. Each "digest <v>" line whose value matches the hash of the
  // bytes *before* it marks a self-consistent prefix a torn tail can be
  // cut back to.
  snapshot::StateHash h;
  std::size_t pos = 0;
  std::size_t good_end = 0;  // end offset of the last validating prefix
  while (pos < whole.size()) {
    const std::size_t nl = whole.find('\n', pos);
    if (nl == std::string::npos) break;  // torn final line
    const std::string line = whole.substr(pos, nl - pos);
    if (line.rfind("digest ", 0) == 0) {
      char* end = nullptr;
      errno = 0;
      const unsigned long long v = std::strtoull(line.c_str() + 7, &end, 10);
      if (errno != ERANGE && end != line.c_str() + 7 && *end == '\0' &&
          h.value() == v)
        good_end = nl + 1;
    }
    h.update(whole.data() + pos, nl + 1 - pos);
    pos = nl + 1;
  }
  if (good_end == 0) return false;  // nothing validates: not salvageable
  if (good_end == whole.size()) return true;  // already clean

  auto& io = snapshot::IoEnv::instance();
  const int fd = io.open_rw(path);
  try {
    io.ftruncate_file(fd, path, good_end);
    io.fsync_file(fd, path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  if (bytes_removed != nullptr) *bytes_removed = whole.size() - good_end;
  return true;
}

ManifestWriter::ManifestWriter(std::string path,
                               const std::vector<std::uint64_t>& config_digests)
    : path_(std::move(path)) {
  std::ostringstream os;
  os << "dftmsn-manifest v4\n";
  os << "specs " << config_digests.size() << "\n";
  for (std::size_t i = 0; i < config_digests.size(); ++i) {
    SpecRecord pending;
    pending.config_digest = config_digests[i];
    put_spec_block(os, i, pending);
  }
  const std::string s = seal(os.str());
  // The scaffold lands atomically before any spec runs: a SIGKILL
  // before the first completion still leaves a loadable manifest next
  // to whatever checkpoints made it to disk.
  snapshot::write_file_atomic(path_,
                              std::vector<std::uint8_t>(s.begin(), s.end()));
  fd_ = snapshot::IoEnv::instance().open_rw(path_);
  offset_ = s.size();
}

ManifestWriter::~ManifestWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void ManifestWriter::append(std::size_t i, const SpecRecord& r) {
  std::ostringstream os;
  put_spec_block(os, i, r);
  const std::string s = seal(os.str());
  auto& io = snapshot::IoEnv::instance();
  io.pwrite_all(fd_, path_, s.data(), s.size(), offset_);
  io.fsync_file(fd_, path_);
  offset_ += s.size();
}

std::string ManifestWriter::seal(std::string s) {
  hash_.update(s.data(), s.size());
  const std::string dline = "digest " + std::to_string(hash_.value()) + "\n";
  hash_.update(dline.data(), dline.size());
  return s + dline;
}

StreamStats run_specs_streamed(const std::vector<RunSpec>& specs,
                               const SupervisorOptions& opts,
                               const SpecSink& sink) {
  const bool dispatched = opts.dispatch.enabled();
  if (dispatched && opts.isolate == IsolationMode::kProcess)
    throw std::runtime_error(
        "supervisor: dispatch mode runs specs on connected workers; "
        "process isolation is incompatible with --dispatch-port");
  if (dispatched && opts.checkpoint_every_s > 0.0)
    throw std::runtime_error(
        "supervisor: dispatch workers cannot write this host's checkpoint "
        "container; --checkpoint-every is incompatible with --dispatch-port");

  std::vector<std::uint64_t> digests(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    digests[i] = config_digest(specs[i].config, specs[i].kind);

  const bool use_dir = !opts.checkpoint_dir.empty();
  if (use_dir) std::filesystem::create_directories(opts.checkpoint_dir);

  if (opts.isolate == IsolationMode::kProcess && opts.worker_exe.empty())
    throw std::runtime_error(
        "supervisor: process isolation needs a worker executable");

  // Per-spec records. `records[i]` starts as a fresh record holding
  // only the config digest; a resume fills in carried-over completions
  // (skip[i] = 1), which skip execution and re-emit through the reorder
  // buffer. Everything else reruns with a fresh retry budget (from its
  // checkpoint, if it has a valid one).
  std::vector<SpecRecord> records(specs.size());
  std::vector<char> skip(specs.size(), 0);
  for (std::size_t i = 0; i < specs.size(); ++i)
    records[i].config_digest = digests[i];
  if (opts.resume && use_dir) {
    SweepManifest prev;
    if (load_manifest(manifest_path(opts.checkpoint_dir), &prev)) {
      if (prev.specs.size() != specs.size())
        throw std::runtime_error(
            "supervisor: manifest holds " +
            std::to_string(prev.specs.size()) + " specs but this sweep has " +
            std::to_string(specs.size()) + " — refusing to resume");
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (prev.specs[i].config_digest != digests[i])
          throw std::runtime_error(
              "supervisor: manifest was written by a different sweep "
              "(config digest mismatch at spec " + std::to_string(i) +
              ") — refusing to resume");
        if (prev.specs[i].status == SpecStatus::kCompleted) {
          records[i] = std::move(prev.specs[i]);
          skip[i] = 1;
        }
      }
    }
  }

  // The streamed manifest: an all-pending scaffold before any spec runs
  // (a SIGKILL landing before the first completion must still leave a
  // resumable manifest), then one appended block per terminal record.
  std::optional<ManifestWriter> writer;
  if (use_dir) writer.emplace(manifest_path(opts.checkpoint_dir), digests);

  // Index-order reorder buffer: terminal records publish in completion
  // order but emit (manifest append + sink) in strict spec-index order,
  // so manifest bytes are identical at every jobs value and downstream
  // aggregation can fold incrementally. Peak memory is the out-of-order
  // window, not the whole sweep.
  StreamStats stats;
  std::mutex emit_mu;
  std::map<std::size_t, SpecRecord> buffered;
  std::size_t next_emit = 0;
  const auto publish = [&](std::size_t i, SpecRecord&& rec) {
    std::lock_guard<std::mutex> lock(emit_mu);
    buffered.emplace(i, std::move(rec));
    stats.peak_buffered = std::max(stats.peak_buffered, buffered.size());
    for (auto it = buffered.find(next_emit); it != buffered.end();
         it = buffered.find(next_emit)) {
      if (writer) writer->append(next_emit, it->second);
      if (sink) sink(next_emit, std::move(it->second));
      buffered.erase(it);
      ++next_emit;
    }
  };

  std::vector<Slot> slots(specs.size());

  // --- observability plane (purely observational; see supervisor.hpp).
  // Declaration order matters: the server thread reads the board and is
  // a member declared last, so it is destroyed (and joined) first.
  std::unique_ptr<telemetry::StatusBoard> board;
  std::unique_ptr<telemetry::LifecycleTrace> ltrace;
  std::unique_ptr<telemetry::StatusServer> server;
  std::string status_dir;
  if (opts.obs.enabled()) {
    if (opts.obs.status_every_s > 0.0) {
      status_dir = opts.obs.status_dir.empty() ? opts.checkpoint_dir
                                               : opts.obs.status_dir;
      if (status_dir.empty())
        throw std::runtime_error(
            "supervisor: --status-every needs a status directory "
            "(or a checkpoint dir to default to)");
      std::filesystem::create_directories(status_dir);
    }
    board = std::make_unique<telemetry::StatusBoard>();
    std::vector<double> horizons(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
      horizons[i] = specs[i].config.scenario.duration_s;
    board->reset(specs.size(), horizons);
    if (!opts.obs.trace_path.empty())
      ltrace = std::make_unique<telemetry::LifecycleTrace>(opts.obs.trace_path);
  }
  Sweep sw{specs, opts, std::string(), records, publish, board.get(),
           ltrace.get(), std::vector<char>(specs.size())};
  if (use_dir) sw.ckpt = checkpoint_container_path(opts.checkpoint_dir);
  // Resume carry-over: completed specs never re-run, so they emit (in
  // index order) and reach the board here or never.
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (skip[i]) sw.publish_completed(i);
  if (board && opts.obs.status_port >= 0) {
    telemetry::StatusServer::Handlers handlers;
    telemetry::StatusBoard* b = board.get();
    handlers.status_json = [b] { return b->render_status_json(); };
    handlers.metrics_text = [b] { return b->render_prometheus(); };
    handlers.healthy = [b] { return b->healthy(); };
    server = std::make_unique<telemetry::StatusServer>(opts.obs.status_port,
                                                       std::move(handlers));
    // Flushed eagerly: harnesses discover an ephemeral port by polling
    // this line, and a block-buffered redirect would starve them.
    if (opts.obs.announce)
      *opts.obs.announce << "status: listening on 127.0.0.1:"
                         << server->port() << std::endl;
  }

  std::atomic<bool> watchdog_quit{false};
  std::thread watchdog;
  // Dispatch mode has no slots to watch and no children to kill: lease
  // expiry is its hang detector, and the dispatcher polls opts.stop
  // itself.
  if (!dispatched && (opts.watchdog_secs > 0.0 || opts.stop)) {
    const auto poll = std::chrono::duration<double>(
        opts.watchdog_secs > 0.0
            ? std::clamp(opts.watchdog_secs / 4.0, 0.01, 0.25)
            : 0.05);
    // `poll` by value: it goes out of scope while the thread runs.
    watchdog = std::thread([&, poll] {
      while (!watchdog_quit.load()) {
        const bool ext = opts.stop && opts.stop->load();
        const Clock::time_point now = Clock::now();
        for (std::size_t si = 0; si < slots.size(); ++si) {
          Slot& s = slots[si];
          // An isolated worker cannot observe the abort flag — SIGKILL
          // is the only lever the parent has on a hung or stopped child.
          // Repeated kills of one stubborn pid trace a single sigkill.
          const auto kill_child = [&s, si, &sw] {
            const long pid = s.child_pid.load();
            if (pid <= 0) return;
            ::kill(static_cast<pid_t>(pid), SIGKILL);
            if (pid == s.last_killed_pid) return;
            s.last_killed_pid = pid;
            if (sw.board) sw.board->mark_sigkill(si);
            if (sw.trace)
              sw.trace->instant(si, "sigkill", {{"pid", std::to_string(pid)}});
          };
          if (ext) {
            s.abort.store(true);
            kill_child();
            continue;
          }
          if (!s.active.load()) {
            s.seen = false;
            continue;
          }
          if (opts.watchdog_secs <= 0.0) continue;
          const std::uint64_t p = s.events.load();
          if (!s.seen || p != s.last_progress) {
            s.seen = true;
            s.last_progress = p;
            s.last_change = now;
            continue;
          }
          if (std::chrono::duration<double>(now - s.last_change).count() >
              opts.watchdog_secs) {
            // exchange() gives the trip *edge*: the flag is re-armed by
            // the runner at each attempt start, so one stall counts once
            // no matter how many polls see it.
            if (!s.watchdog_fired.exchange(true)) {
              if (sw.board) sw.board->mark_watchdog(si);
              if (sw.trace)
                sw.trace->instant(
                    si, "watchdog",
                    {{"stalled_s", std::to_string(opts.watchdog_secs)}});
            }
            s.abort.store(true);
            kill_child();
          }
        }
        std::this_thread::sleep_for(poll);
      }
    });
  }

  // Status sampling thread: mirrors live progress counters (the same
  // ones the watchdog reads) onto the board, recomputes EMA/ETA, and
  // atomically rewrites status.json on its cadence. Read-only with
  // respect to the sweep.
  std::atomic<bool> status_quit{false};
  std::thread status_thread;
  if (board) {
    status_thread = std::thread([&] {
      const Clock::time_point t0 = Clock::now();
      std::vector<std::uint64_t> last_seq(specs.size(), 0);
      double next_write = 0.0;  // first rewrite happens immediately
      const double period = opts.obs.status_every_s;
      const auto poll = std::chrono::duration<double>(
          period > 0.0 ? std::clamp(period / 2.0, 0.01, 0.25) : 0.25);
      for (;;) {
        const bool quitting = status_quit.load();
        for (std::size_t i = 0; i < slots.size(); ++i) {
          Slot& s = slots[i];
          if (!s.active.load()) continue;
          const std::uint64_t seq = s.seq.load();
          board->update_progress(i, s.events.load(),
                                 bits_double(s.time_bits.load()));
          if (seq > last_seq[i]) {
            board->mark_checkpoint(i, seq - last_seq[i]);
            if (sw.trace)
              sw.trace->instant(i, "checkpoint",
                                 {{"seq", std::to_string(seq)}});
          }
          last_seq[i] = seq;  // retries reset the sequence; track down too
        }
        const double wall =
            std::chrono::duration<double>(Clock::now() - t0).count();
        board->sample(wall);
        if (!status_dir.empty() && (quitting || wall >= next_write)) {
          const std::string doc = board->render_status_json();
          try {
            snapshot::write_file_atomic(
                status_dir + "/status.json",
                std::vector<std::uint8_t>(doc.begin(), doc.end()));
          } catch (const std::exception&) {
            // Status is best-effort; a full disk must not kill the sweep.
          }
          next_write = wall + period;
        }
        if (quitting) break;
        std::this_thread::sleep_for(poll);
      }
    });
  }

  const auto join_threads = [&] {
    status_quit.store(true);
    if (status_thread.joinable()) status_thread.join();
    watchdog_quit.store(true);
    if (watchdog.joinable()) watchdog.join();
  };

  try {
    if (dispatched) {
      // The dispatcher event loop drives the same lifecycle transitions
      // the local loops do, so a clean dispatched sweep is byte-identical
      // to an in-process one.
      DispatchPolicy policy;
      policy.max_retries = opts.max_retries;
      policy.retry_backoff_s = opts.retry_backoff_s;
      policy.stop = opts.stop;

      DispatchCallbacks cb;
      cb.make_request = [&](std::size_t i, int attempt) {
        return sw.request(i, attempt, std::string());
      };
      cb.on_started = [&](std::size_t i, int a) { sw.start(i, a); };
      cb.on_completed = [&](std::size_t i, int a, WorkerResult&& w) {
        sw.complete(i, a, std::move(w));
      };
      cb.on_quarantined = [&](std::size_t i, int retries,
                              const std::string& detail) {
        sw.retry_or_quarantine(i, retries, detail, true);
      };
      cb.on_interrupted = [&](std::size_t i, const std::string& detail) {
        sw.interrupt(i, detail);
      };
      cb.on_retrying = [&](std::size_t i, int next,
                           const std::string& detail) {
        sw.retry_or_quarantine(i, next, detail, false);
      };
      cb.on_requeued = [&](std::size_t i, int count,
                           const std::string& reason) {
        sw.end_attempt(i);  // the lost grant's attempt is over
        if (sw.trace)
          sw.trace->instant(i, "requeue",
                            {{"count", std::to_string(count)},
                             {"reason", sanitize(reason)}});
      };
      cb.on_progress = [&](std::size_t i, std::uint64_t events, double t) {
        if (sw.board) sw.board->update_progress(i, events, t);
      };
      cb.announce = [&](const std::string& line) {
        if (opts.obs.announce) *opts.obs.announce << line << std::endl;
      };
      run_dispatch_queue(specs.size(), skip, opts.dispatch, policy,
                         board.get(), std::move(cb));
    } else {
      parallel_for(specs.size(), resolve_jobs(opts.jobs), [&](std::size_t i) {
        if (!skip[i]) supervise_local(sw, i, slots[i]);
      });
    }
  } catch (...) {
    join_threads();
    throw;
  }

  join_threads();
  return stats;
}

SweepManifest run_specs_supervised(const std::vector<RunSpec>& specs,
                                   const SupervisorOptions& opts) {
  SweepManifest manifest;
  manifest.specs.resize(specs.size());
  run_specs_streamed(specs, opts,
                     [&manifest](std::size_t i, SpecRecord&& rec) {
                       manifest.specs[i] = std::move(rec);
                     });
  return manifest;
}

std::vector<RunResult> completed_results(const SweepManifest& manifest) {
  std::vector<RunResult> out;
  for (const SpecRecord& r : manifest.specs)
    if (r.status == SpecStatus::kCompleted) out.push_back(r.result);
  return out;
}

SupervisedSweep run_sweep_supervised(const std::vector<SweepPoint>& points,
                                     int replications,
                                     const SupervisorOptions& opts) {
  if (replications < 0) replications = 0;
  std::vector<RunSpec> specs;
  specs.reserve(points.size() * static_cast<std::size_t>(replications));
  for (const SweepPoint& p : points) {
    const std::uint64_t base_seed = p.config.scenario.seed;
    for (int rep = 0; rep < replications; ++rep) {
      RunSpec s = p;
      s.config.scenario.seed = base_seed + static_cast<std::uint64_t>(rep);
      specs.push_back(std::move(s));
    }
  }

  SupervisedSweep out;
  out.manifest.specs.resize(specs.size());
  out.points.reserve(points.size());
  const std::size_t reps = static_cast<std::size_t>(replications);
  // Streaming aggregation: records arrive in strict spec-index order
  // (replication order within each point), so a point's aggregate folds
  // the moment its last replication emits — the fold only ever holds
  // one point's completed results, and is bit-identical to aggregating
  // after the fact (reduce_results folds in input order either way).
  std::vector<RunResult> fold;
  run_specs_streamed(specs, opts, [&](std::size_t i, SpecRecord&& rec) {
    if (rec.status == SpecStatus::kCompleted) fold.push_back(rec.result);
    out.manifest.specs[i] = std::move(rec);
    if (reps != 0 && (i + 1) % reps == 0) {
      out.points.push_back(reduce_results(fold));
      fold.clear();
    }
  });
  // replications == 0: no specs ran, every point aggregates over nothing.
  while (out.points.size() < points.size())
    out.points.push_back(reduce_results(std::vector<RunResult>()));
  return out;
}

}  // namespace dftmsn
