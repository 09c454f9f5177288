#include "experiment/dispatch.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <vector>

#include "common/net_util.hpp"
#include "snapshot/snapshot_io.hpp"
#include "telemetry/status.hpp"

namespace dftmsn {
namespace {

using snapshot::SnapshotError;

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

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
  return v;
}

std::vector<std::uint8_t> frame_payload(FrameType type,
                                        const snapshot::Writer& w) {
  const std::vector<std::uint8_t>& payload = w.bytes();
  std::vector<std::uint8_t> out;
  out.reserve(kDispatchFrameHeader + payload.size() + kDispatchFrameTrailer);
  put_u32(out, kDispatchFrameMagic);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  snapshot::StateHash h;
  h.update(out.data(), out.size());
  put_u64(out, h.value());
  return out;
}

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kRequest: return "request";
    case FrameType::kGrant: return "grant";
    case FrameType::kNoWork: return "nowork";
    case FrameType::kResult: return "result";
    case FrameType::kHeartbeat: return "heartbeat";
  }
  return "?";
}

}  // namespace

double retry_backoff_s(double base_s, int k) {
  return std::min(5.0, base_s * std::pow(2.0, k - 1));
}

std::string attempt_failure_detail(int attempt, const std::string& error) {
  return sanitize("attempt " + std::to_string(attempt) + ": " + error);
}

std::vector<std::uint8_t> encode_hello_frame(const std::string& worker_name) {
  snapshot::Writer w;
  w.u32(kDispatchWireVersion);
  w.str(worker_name);
  return frame_payload(FrameType::kHello, w);
}

std::vector<std::uint8_t> encode_request_frame() {
  snapshot::Writer w;
  w.u8(0);
  return frame_payload(FrameType::kRequest, w);
}

std::vector<std::uint8_t> encode_grant_frame(double lease_secs,
                                             const WorkerRequest& request) {
  snapshot::Writer w;
  w.f64(lease_secs);
  save_worker_request(request, w);
  return frame_payload(FrameType::kGrant, w);
}

std::vector<std::uint8_t> encode_nowork_frame(bool done) {
  snapshot::Writer w;
  w.u8(done ? 1 : 0);
  return frame_payload(FrameType::kNoWork, w);
}

std::vector<std::uint8_t> encode_result_frame(std::uint64_t spec,
                                              std::int64_t attempt,
                                              const WorkerResult& result) {
  snapshot::Writer w;
  w.u64(spec);
  w.i64(attempt);
  save_worker_result(result, w);
  return frame_payload(FrameType::kResult, w);
}

std::vector<std::uint8_t> encode_heartbeat_frame(
    std::uint64_t spec, std::uint64_t events, std::uint64_t sim_time_bits,
    std::uint64_t checkpoint_seq) {
  snapshot::Writer w;
  w.u64(spec);
  w.u64(events);
  w.u64(sim_time_bits);
  w.u64(checkpoint_seq);
  return frame_payload(FrameType::kHeartbeat, w);
}

std::size_t try_extract_frame(const std::uint8_t* data, std::size_t len,
                              const std::string& context, WireFrame* out) {
  if (len < kDispatchFrameHeader) return 0;
  if (get_u32(data) != kDispatchFrameMagic)
    throw SnapshotError(context + ": bad frame magic");
  const std::uint8_t type = data[4];
  if (type < 1 || type > 6)
    throw SnapshotError(context + ": unknown frame type " +
                        std::to_string(int(type)));
  const std::uint32_t plen = get_u32(data + 5);
  if (plen > kMaxDispatchPayload)
    throw SnapshotError(context + ": frame payload length " +
                        std::to_string(plen) + " exceeds cap");
  const std::size_t total =
      kDispatchFrameHeader + plen + kDispatchFrameTrailer;
  if (len < total) return 0;
  {
    snapshot::StateHash h;
    h.update(data, kDispatchFrameHeader + plen);
    if (h.value() != get_u64(data + kDispatchFrameHeader + plen))
      throw SnapshotError(context + ": frame digest mismatch (torn or "
                          "corrupt frame)");
  }

  WireFrame f;
  f.type = static_cast<FrameType>(type);
  snapshot::Reader r(std::vector<std::uint8_t>(
      data + kDispatchFrameHeader, data + kDispatchFrameHeader + plen));
  try {
    switch (f.type) {
      case FrameType::kHello:
        f.version = r.u32();
        f.worker_name = r.str();
        break;
      case FrameType::kRequest:
        (void)r.u8();
        break;
      case FrameType::kGrant:
        f.lease_secs = r.f64();
        load_worker_request(f.request, r);
        break;
      case FrameType::kNoWork:
        f.done = r.u8() != 0;
        break;
      case FrameType::kResult:
        f.spec = r.u64();
        f.attempt = r.i64();
        load_worker_result(f.result, r);
        break;
      case FrameType::kHeartbeat:
        f.spec = r.u64();
        f.events = r.u64();
        f.sim_time_bits = r.u64();
        f.checkpoint_seq = r.u64();
        break;
    }
    if (!r.at_end())
      throw SnapshotError("trailing payload bytes");
  } catch (const std::exception& e) {
    throw SnapshotError(context + ": bad " + frame_type_name(f.type) +
                        " frame: " + e.what());
  }
  *out = std::move(f);
  return total;
}

bool read_frame(int fd, std::vector<std::uint8_t>& buf,
                const std::string& context, WireFrame* out) {
  std::uint8_t chunk[16 * 1024];
  for (;;) {
    const std::size_t used =
        try_extract_frame(buf.data(), buf.size(), context, out);
    if (used > 0) {
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(used));
      return true;
    }
    const ssize_t got = net::recv_some(fd, chunk, sizeof(chunk));
    if (got == 0) {
      if (buf.empty()) return false;
      throw SnapshotError(context + ": stream ended mid-frame");
    }
    if (got < 0)
      throw net::NetError(std::string("recv: ") + std::strerror(errno));
    buf.insert(buf.end(), chunk, chunk + got);
  }
}

namespace {

enum class SState : std::uint8_t { kReady, kWaiting, kLeased, kTerminal };

/// Transport losses (lost connection / expired lease) do not consume the
/// sim retry budget; they have their own generous bound so a truly
/// cursed spec still terminates.
constexpr int kMaxTransportRequeues = 32;

/// One spec's queue state. While kLeased, `holder`, `due` and `events`
/// are its lease: the connection that holds it, its deadline and the
/// event count of its last progressing heartbeat.
struct SpecState {
  SState st = SState::kReady;
  int attempt = 0;
  int requeues = 0;
  bool ever_started = false;
  int holder = -1;
  double due = 0.0;  ///< kWaiting: end of backoff; kLeased: lease deadline
  std::uint64_t events = 0;
};

struct ConnState {
  std::string name;
  bool said_hello = false;
  std::vector<std::uint8_t> buf;
};

}  // namespace

void run_dispatch_queue(std::size_t num_specs, const std::vector<char>& skip,
                        const DispatchOptions& opts,
                        const DispatchPolicy& policy,
                        telemetry::StatusBoard* board, DispatchCallbacks cb) {
  const int lfd = net::listen_tcp(opts.bind, opts.port, /*backlog=*/16);
  const int port = net::bound_port(lfd);
  if (opts.port_out != nullptr) opts.port_out->store(port);
  if (cb.announce)
    cb.announce("dispatch: listening on " + opts.bind + ":" +
                std::to_string(port));
  if (board != nullptr) board->dispatch_enable();

  const std::size_t n = num_specs;
  std::vector<SpecState> specs(n);
  std::deque<std::size_t> ready;
  std::size_t terminal = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < skip.size() && skip[i]) {
      specs[i].st = SState::kTerminal;
      ++terminal;
    } else {
      ready.push_back(i);
    }
  }

  std::map<int, ConnState> conns;
  telemetry::DispatchCounters counters;

  const auto push_board = [&] {
    if (board != nullptr) board->dispatch_update(counters);
  };

  const auto update_worker_row = [&](int fd, bool connected) {
    if (board == nullptr) return;
    const auto it = conns.find(fd);
    if (it == conns.end() || it->second.name.empty()) return;
    std::uint64_t active = 0;
    if (connected)
      for (const SpecState& s : specs)
        if (s.st == SState::kLeased && s.holder == fd) ++active;
    board->dispatch_worker(it->second.name, connected, active);
  };

  // A spec lost in transit (dead/hung/partitioned worker): back on the
  // queue under its own bounded backoff. Transport losses deliberately
  // do not consume the sim retry budget — the spec never *failed*, its
  // worker did — so a dispatched sweep's manifest retries stay
  // identical to a clean local run's.
  const auto requeue_spec = [&](std::size_t i, const std::string& reason) {
    SpecState& s = specs[i];
    if (s.st != SState::kLeased) return;
    ++s.requeues;
    ++counters.requeues;
    if (s.requeues > kMaxTransportRequeues) {
      s.st = SState::kTerminal;
      ++terminal;
      const std::string detail = sanitize(
          "dispatch: spec lost " + std::to_string(s.requeues) +
          " times (last: " + reason + ")");
      if (cb.on_quarantined) cb.on_quarantined(i, s.attempt, detail);
      return;
    }
    s.st = SState::kWaiting;
    s.due = now_s() + retry_backoff_s(policy.retry_backoff_s, s.requeues);
    if (cb.on_requeued) cb.on_requeued(i, s.requeues, reason);
  };

  const auto drop_conn = [&](int fd, const std::string& why) {
    update_worker_row(fd, false);
    for (std::size_t i = 0; i < n; ++i)
      if (specs[i].st == SState::kLeased && specs[i].holder == fd)
        requeue_spec(i, why);
    ::close(fd);
    conns.erase(fd);
  };

  const auto send_frame = [&](int fd, const std::vector<std::uint8_t>& bytes) {
    try {
      net::write_full(fd, bytes.data(), bytes.size());
      return true;
    } catch (const net::NetError& e) {
      drop_conn(fd, e.what());
      return false;
    }
  };

  const auto handle_result = [&](int fd, WireFrame&& f,
                                 const std::string& ctx) {
    if (f.spec >= n)
      throw SnapshotError(ctx + ": result for unknown spec " +
                          std::to_string(f.spec));
    SpecState& s = specs[f.spec];
    if (s.st == SState::kTerminal || f.attempt != s.attempt) {
      // Idempotent completion: the first accepted result won, or the
      // attempt was already settled. A resurrected or raced worker's
      // stale report must neither complete the spec nor fail it twice.
      ++counters.duplicates_discarded;
      return;
    }
    // The current attempt is settled, whoever holds its lease now: the
    // holder's own result will be a duplicate.
    const int a = s.attempt;
    if (f.result.ok) {
      s.st = SState::kTerminal;
      ++terminal;
      ++counters.results_accepted;
      if (cb.on_completed) cb.on_completed(f.spec, a, std::move(f.result));
    } else {
      // Worker-reported simulation failure: the normal retry /
      // quarantine path, with the local loop's detail formatting.
      const std::string detail = attempt_failure_detail(a, f.result.error);
      s.attempt = a + 1;
      if (s.attempt > policy.max_retries) {
        s.st = SState::kTerminal;
        ++terminal;
        if (cb.on_quarantined) cb.on_quarantined(f.spec, s.attempt, detail);
      } else {
        s.st = SState::kWaiting;
        s.due = now_s() + retry_backoff_s(policy.retry_backoff_s, s.attempt);
        if (cb.on_retrying) cb.on_retrying(f.spec, s.attempt, detail);
      }
    }
    update_worker_row(fd, true);
  };

  // Waiting specs whose backoff elapsed go back on the queue. Runs at
  // the loop top and before every grant, so a request arriving in the
  // poll that requeued a spec with zero backoff is granted it.
  const auto promote_waiting = [&] {
    const double now = now_s();
    for (std::size_t i = 0; i < n; ++i)
      if (specs[i].st == SState::kWaiting && specs[i].due <= now) {
        specs[i].st = SState::kReady;
        ready.push_back(i);
      }
  };

  const auto handle_request = [&](int fd) {
    promote_waiting();
    // A spec settled while it waited in the queue leaves a stale entry.
    while (!ready.empty() && specs[ready.front()].st != SState::kReady)
      ready.pop_front();
    if (ready.empty()) {
      send_frame(fd, encode_nowork_frame(terminal == n));
      return;
    }
    const std::size_t i = ready.front();
    ready.pop_front();
    SpecState& s = specs[i];
    s.st = SState::kLeased;
    s.ever_started = true;
    s.holder = fd;
    s.due = now_s() + opts.lease_secs;
    s.events = 0;
    if (cb.on_started) cb.on_started(i, s.attempt);
    ++counters.batches_granted;
    if (send_frame(fd, encode_grant_frame(opts.lease_secs,
                                          cb.make_request(i, s.attempt))))
      update_worker_row(fd, true);
  };

  const auto handle_heartbeat = [&](int fd, const WireFrame& f) {
    if (f.spec >= n) return;
    SpecState& s = specs[f.spec];
    // Only the lease holder's *progressing* heartbeats extend its lease:
    // a stale holder (its lease expired and the spec moved on) is
    // ignored, and a SIGSTOPed or wedged worker keeps the TCP stream
    // alive but its event counter freezes, so its lease still expires
    // and the spec is reassigned.
    if (s.st != SState::kLeased || s.holder != fd || f.events <= s.events)
      return;
    s.events = f.events;
    s.due = now_s() + opts.lease_secs;
    if (cb.on_progress)
      cb.on_progress(f.spec, f.events, bits_double(f.sim_time_bits));
  };

  bool stopped = false;
  std::vector<std::uint8_t> rbuf(64 * 1024);
  for (;;) {
    if (policy.stop != nullptr && policy.stop->load()) {
      stopped = true;
      break;
    }
    promote_waiting();
    const double now = now_s();

    // Expired leases: the worker crashed, hung, or was partitioned —
    // whatever the cause, it lost the lease and the spec is requeued.
    for (std::size_t i = 0; i < n; ++i) {
      if (specs[i].st != SState::kLeased || specs[i].due > now) continue;
      ++counters.leases_expired;
      const int fd = specs[i].holder;
      requeue_spec(i, "lease expired");
      update_worker_row(fd, true);
    }
    push_board();

    if (terminal == n) break;

    std::vector<pollfd> pfds;
    pfds.push_back({lfd, POLLIN, 0});
    for (const auto& [fd, conn] : conns) pfds.push_back({fd, POLLIN, 0});
    net::poll_retry(pfds.data(), pfds.size(), /*timeout_ms=*/50);

    if (pfds[0].revents & POLLIN) {
      const int fd = net::accept_retry(lfd);
      if (fd >= 0) conns.emplace(fd, ConnState{});
    }

    for (std::size_t k = 1; k < pfds.size(); ++k) {
      const int fd = pfds[k].fd;
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (conns.find(fd) == conns.end()) continue;  // dropped this round
      const ssize_t got = net::recv_some(fd, rbuf.data(), rbuf.size());
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
        drop_conn(fd, std::strerror(errno));
        continue;
      }
      if (got == 0) {
        drop_conn(fd, "connection closed");
        continue;
      }
      ConnState& conn = conns[fd];
      conn.buf.insert(conn.buf.end(), rbuf.data(), rbuf.data() + got);
      const std::string ctx =
          "dispatch connection '" +
          (conn.name.empty() ? "fd" + std::to_string(fd) : conn.name) + "'";
      try {
        for (;;) {
          WireFrame f;
          const std::size_t used =
              try_extract_frame(conn.buf.data(), conn.buf.size(), ctx, &f);
          if (used == 0) break;
          conn.buf.erase(conn.buf.begin(),
                         conn.buf.begin() + static_cast<std::ptrdiff_t>(used));
          if (!conn.said_hello) {
            if (f.type != FrameType::kHello ||
                f.version != kDispatchWireVersion)
              throw SnapshotError(ctx + ": expected hello (wire version " +
                                  std::to_string(kDispatchWireVersion) + ")");
            conn.said_hello = true;
            conn.name = f.worker_name.empty()
                            ? "fd" + std::to_string(fd)
                            : sanitize(f.worker_name);
            update_worker_row(fd, true);
            continue;
          }
          switch (f.type) {
            case FrameType::kRequest:
              handle_request(fd);
              break;
            case FrameType::kResult:
              handle_result(fd, std::move(f), ctx);
              break;
            case FrameType::kHeartbeat:
              handle_heartbeat(fd, f);
              break;
            default:
              throw SnapshotError(ctx + ": unexpected " +
                                  std::string(frame_type_name(f.type)) +
                                  " frame from a worker");
          }
          if (conns.find(fd) == conns.end()) break;  // send failure dropped it
        }
      } catch (const std::exception& e) {
        // Torn/corrupt/hostile frame: named rejection, connection drop,
        // its specs requeued. Never a crash, never a wrong accept.
        if (cb.announce)
          cb.announce(std::string("dispatch: dropping connection: ") +
                      e.what());
        drop_conn(fd, e.what());
      }
    }
  }

  if (stopped) {
    // External stop: surface every unfinished spec as interrupted, in
    // index order, exactly once.
    for (std::size_t i = 0; i < n; ++i) {
      if (specs[i].st == SState::kTerminal) continue;
      specs[i].st = SState::kTerminal;
      ++terminal;
      if (cb.on_interrupted)
        cb.on_interrupted(
            i, specs[i].ever_started ? "interrupted (dispatch stopped)"
                                     : std::string());
    }
  }

  // Sweep over (or stopped): tell every connected worker, best-effort,
  // then tear the plane down.
  for (const auto& [fd, conn] : conns) {
    try {
      const auto bye = encode_nowork_frame(true);
      net::write_full(fd, bye.data(), bye.size());
    } catch (const net::NetError&) {
    }
  }
  for (const auto& [fd, conn] : conns) {
    if (board != nullptr && !conn.name.empty())
      board->dispatch_worker(conn.name, false, 0);
    ::close(fd);
  }
  conns.clear();
  push_board();
  ::close(lfd);
}

}  // namespace dftmsn
