// Dispatch-plane suite (docs/distributed_sweeps.md): the wire frame
// codec (round-trips, partial prefixes, damage rejection), the lease
// machinery against real loopback sockets (expiry without progress,
// requeue, duplicate-result idempotency, stale-attempt reports,
// heartbeat-gated extension by the lease holder only), a worker whose
// parent hangs up mid-attempt exiting instead of running on, and the
// headline robustness contract — a dispatched sweep's manifest is
// byte-identical to an in-process run of the same specs.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/net_util.hpp"
#include "experiment/dispatch.hpp"
#include "experiment/supervisor.hpp"
#include "experiment/worker_protocol.hpp"
#include "snapshot/snapshot_io.hpp"
#include "telemetry/json_value.hpp"
#include "telemetry/status.hpp"

namespace dftmsn {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

Config small_config(std::uint64_t seed) {
  Config c;
  c.scenario.num_sensors = 6;
  c.scenario.num_sinks = 1;
  c.scenario.field_m = 100.0;
  c.scenario.duration_s = 150.0;
  c.scenario.speed_max_mps = 4.0;
  c.scenario.seed = seed;
  return c;
}

std::vector<RunSpec> make_specs(int n) {
  std::vector<RunSpec> specs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    specs[static_cast<std::size_t>(i)].config =
        small_config(40 + static_cast<std::uint64_t>(i));
    specs[static_cast<std::size_t>(i)].kind = ProtocolKind::kDirect;
  }
  return specs;
}

/// A dispatcher's make_request: `base` for every spec, stamped with the
/// spec index and attempt a worker echoes back in its result.
std::function<WorkerRequest(std::size_t, int)> requests_from(
    const WorkerRequest& base) {
  return [base](std::size_t i, int attempt) {
    WorkerRequest req = base;
    req.spec = i;
    req.attempt = attempt;
    return req;
  };
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Spins until `pred` holds; fails the test (and stops spinning) after
/// `secs` of wall time so a dispatcher bug cannot hang the suite.
template <typename Pred>
void wait_for(const Pred& pred, double secs, const char* what) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(secs);
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timed out waiting for " << what;
    sleep_ms(5);
  }
}

// --- frame codec -------------------------------------------------------

TEST(DispatchFrames, RoundTripEveryType) {
  WireFrame f;

  const auto hello = encode_hello_frame("worker-a");
  ASSERT_EQ(try_extract_frame(hello.data(), hello.size(), "t", &f),
            hello.size());
  EXPECT_EQ(f.type, FrameType::kHello);
  EXPECT_EQ(f.version, kDispatchWireVersion);
  EXPECT_EQ(f.worker_name, "worker-a");

  const auto request = encode_request_frame();
  ASSERT_EQ(try_extract_frame(request.data(), request.size(), "t", &f),
            request.size());
  EXPECT_EQ(f.type, FrameType::kRequest);

  WorkerRequest req;
  req.config = small_config(9);
  req.spec = 5;
  req.attempt = -3;  // the i64 lane must survive negatives intact
  req.checkpoint_path = "ck/spec_5.ckpt";
  req.checkpoint_every_s = 25.0;
  const auto grant = encode_grant_frame(2.5, req);
  ASSERT_EQ(try_extract_frame(grant.data(), grant.size(), "t", &f),
            grant.size());
  EXPECT_EQ(f.type, FrameType::kGrant);
  EXPECT_EQ(f.lease_secs, 2.5);
  EXPECT_EQ(f.request.config.scenario.seed, 9u);
  EXPECT_EQ(f.request.spec, 5u);
  EXPECT_EQ(f.request.attempt, -3);
  EXPECT_EQ(f.request.checkpoint_path, "ck/spec_5.ckpt");
  EXPECT_EQ(f.request.checkpoint_every_s, 25.0);

  for (const bool done : {false, true}) {
    const auto nowork = encode_nowork_frame(done);
    ASSERT_EQ(try_extract_frame(nowork.data(), nowork.size(), "t", &f),
              nowork.size());
    EXPECT_EQ(f.type, FrameType::kNoWork);
    EXPECT_EQ(f.done, done);
  }

  WorkerResult res;
  res.error = "simulated failure";
  res.checkpoints_written = 3;
  const auto result = encode_result_frame(5, 2, res);
  ASSERT_EQ(try_extract_frame(result.data(), result.size(), "t", &f),
            result.size());
  EXPECT_EQ(f.type, FrameType::kResult);
  EXPECT_EQ(f.spec, 5u);
  EXPECT_EQ(f.attempt, 2);
  EXPECT_FALSE(f.result.ok);
  EXPECT_EQ(f.result.error, "simulated failure");
  EXPECT_EQ(f.result.checkpoints_written, 3u);

  const auto hb = encode_heartbeat_frame(5, 12345, 0x3ff0000000000000u, 7);
  ASSERT_EQ(try_extract_frame(hb.data(), hb.size(), "t", &f), hb.size());
  EXPECT_EQ(f.type, FrameType::kHeartbeat);
  EXPECT_EQ(f.spec, 5u);
  EXPECT_EQ(f.events, 12345u);
  EXPECT_EQ(f.sim_time_bits, 0x3ff0000000000000u);
  EXPECT_EQ(f.checkpoint_seq, 7u);
}

TEST(DispatchFrames, EveryPartialPrefixAsksForMoreBytes) {
  WorkerRequest req;
  req.spec = 1;
  req.checkpoint_path = "ck";
  const auto grant = encode_grant_frame(1.0, req);
  WireFrame f;
  for (std::size_t len = 0; len < grant.size(); ++len)
    EXPECT_EQ(try_extract_frame(grant.data(), len, "t", &f), 0u)
        << "prefix of " << len << " bytes";
}

TEST(DispatchFrames, ConcatenatedStreamExtractsInOrder) {
  std::vector<std::uint8_t> stream;
  for (const auto& frame :
       {encode_hello_frame("w"), encode_request_frame(),
        encode_heartbeat_frame(2, 3, 4), encode_nowork_frame(true)})
    stream.insert(stream.end(), frame.begin(), frame.end());

  std::vector<FrameType> seen;
  std::size_t off = 0;
  while (off < stream.size()) {
    WireFrame f;
    const std::size_t used =
        try_extract_frame(stream.data() + off, stream.size() - off, "t", &f);
    ASSERT_GT(used, 0u);
    seen.push_back(f.type);
    off += used;
  }
  EXPECT_EQ(seen, (std::vector<FrameType>{FrameType::kHello,
                                          FrameType::kRequest,
                                          FrameType::kHeartbeat,
                                          FrameType::kNoWork}));
}

TEST(DispatchFrames, DamageIsRejectedNamingTheContext) {
  const auto good = encode_heartbeat_frame(2, 3, 4);
  WireFrame f;

  const auto expect_throw = [&](std::vector<std::uint8_t> bytes,
                                const char* what) {
    try {
      try_extract_frame(bytes.data(), bytes.size(), "ctx", &f);
      ADD_FAILURE() << what << ": damage accepted";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("ctx"), std::string::npos)
          << what << ": error does not name the context: " << e.what();
    }
  };

  auto bad_magic = good;
  bad_magic[0] ^= 0xff;
  expect_throw(bad_magic, "bad magic");

  auto bad_type = good;
  bad_type[4] = 77;
  expect_throw(bad_type, "unknown type");

  auto huge_len = good;
  huge_len[5] = 0xff;  // length field little-endian low byte
  huge_len[6] = 0xff;
  huge_len[7] = 0xff;
  huge_len[8] = 0xff;  // ~4 GiB: over the cap, rejected before allocating
  expect_throw(huge_len, "oversized length");

  auto bad_digest = good;
  bad_digest.at(bad_digest.size() - 1) ^= 0x01;
  expect_throw(bad_digest, "digest flip");

  auto torn_payload = good;
  torn_payload[kDispatchFrameHeader] ^= 0xa5;
  expect_throw(torn_payload, "payload flip");
}

// --- lease machinery over real sockets ---------------------------------

/// Minimal raw-socket worker stub: speaks just enough of the protocol to
/// act out misbehaviour the real worker never exhibits.
struct Stub {
  int fd = -1;
  std::vector<std::uint8_t> buf;

  explicit Stub(int port) { fd = net::connect_tcp("127.0.0.1", port); }
  ~Stub() {
    if (fd >= 0) ::close(fd);
  }

  void send(const std::vector<std::uint8_t>& bytes) const {
    net::write_full(fd, bytes.data(), bytes.size());
  }

  WireFrame read_frame() {
    std::vector<std::uint8_t> chunk(4096);
    for (;;) {
      WireFrame f;
      const std::size_t used =
          try_extract_frame(buf.data(), buf.size(), "stub", &f);
      if (used > 0) {
        buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(used));
        return f;
      }
      const ssize_t got = net::recv_some(fd, chunk.data(), chunk.size());
      if (got <= 0) throw net::NetError("stub: dispatcher hung up");
      buf.insert(buf.end(), chunk.data(), chunk.data() + got);
    }
  }
};

TEST(DispatchQueue, LeaseExpiryRequeuesAndDuplicateResultIsDiscarded) {
  telemetry::StatusBoard board;
  board.reset(3, {150.0, 150.0, 150.0});

  std::atomic<int> port{0};
  DispatchOptions opts;
  opts.port = 0;
  opts.port_out = &port;
  opts.lease_secs = 0.2;  // expires fast: the stub never heartbeats
  DispatchPolicy pol;
  pol.retry_backoff_s = 0.0;

  WorkerRequest req;
  req.config = small_config(50);

  std::atomic<int> requeued{0};
  std::atomic<int> completed{0};
  std::atomic<int> quarantined{0};
  DispatchCallbacks cb;
  cb.make_request = requests_from(req);
  cb.on_started = [](std::size_t, int) {};
  cb.on_completed = [&](std::size_t, int, WorkerResult&&) { ++completed; };
  cb.on_quarantined = [&](std::size_t, int, const std::string&) {
    ++quarantined;
  };
  cb.on_interrupted = [](std::size_t, const std::string&) {};
  cb.on_retrying = [](std::size_t, int, const std::string&) {};
  cb.on_requeued = [&](std::size_t, int, const std::string&) { ++requeued; };
  cb.on_progress = [](std::size_t, std::uint64_t, double) {};
  cb.announce = [](const std::string&) {};

  std::thread dispatcher([&] {
    run_dispatch_queue(3, std::vector<char>(3, 0), opts, pol, &board, cb);
  });
  wait_for([&] { return port.load() > 0; }, 10.0, "listener port");

  // Stub 1 takes a lease and goes silent: no heartbeat, no result. The
  // lease must expire and the spec requeue (to the back of the ready
  // queue) without consuming the sim retry budget.
  Stub s1(port.load());
  s1.send(encode_hello_frame("stalled"));
  s1.send(encode_request_frame());
  const WireFrame g1 = s1.read_frame();
  ASSERT_EQ(g1.type, FrameType::kGrant);
  const std::uint64_t spec0 = g1.request.spec;
  EXPECT_EQ(spec0, 0u);
  wait_for([&] { return requeued.load() > 0; }, 10.0, "lease expiry requeue");

  WorkerResult ok;
  ok.ok = true;
  ok.result.delivery_ratio = 1.0;
  ok.result.generated = 4;
  ok.result.delivered = 4;

  // Stub 2 drains spec 1, parks a lease on spec 2, then picks the
  // requeued spec 0 up and completes it — leaving spec 2 in flight so
  // the queue stays alive for the duplicate to arrive.
  Stub s2(port.load());
  s2.send(encode_hello_frame("healthy"));
  s2.send(encode_request_frame());
  const WireFrame g2 = s2.read_frame();
  ASSERT_EQ(g2.type, FrameType::kGrant);
  EXPECT_EQ(g2.request.spec, 1u);
  s2.send(encode_result_frame(1, g2.request.attempt, ok));
  wait_for([&] { return completed.load() == 1; }, 10.0, "spec 1 completion");

  s2.send(encode_request_frame());
  const WireFrame g3 = s2.read_frame();
  ASSERT_EQ(g3.type, FrameType::kGrant);
  EXPECT_EQ(g3.request.spec, 2u);  // parked: completed last

  s2.send(encode_request_frame());
  const WireFrame g4 = s2.read_frame();
  ASSERT_EQ(g4.type, FrameType::kGrant);
  EXPECT_EQ(g4.request.spec, spec0);
  EXPECT_EQ(g4.request.attempt, g1.request.attempt)
      << "a transport loss must not consume the sim retry budget";
  s2.send(encode_result_frame(spec0, g4.request.attempt, ok));
  wait_for([&] { return completed.load() == 2; }, 10.0, "spec 0 completion");

  // The resurrected stub 1 now publishes its stale result for the
  // already-terminal spec 0: discarded by spec id, not double-completed.
  s1.send(encode_result_frame(spec0, g1.request.attempt, ok));
  wait_for(
      [&] { return board.snapshot().dispatch.duplicates_discarded >= 1; },
      10.0, "duplicate discard");
  EXPECT_EQ(completed.load(), 2);

  // Unpark spec 2 so the queue can finish. (Its lease may have expired
  // and requeued meanwhile — a late result for a non-terminal spec is
  // still the first accepted one, so it completes either way.)
  s2.send(encode_result_frame(2, g3.request.attempt, ok));
  dispatcher.join();

  EXPECT_EQ(completed.load(), 3);
  EXPECT_EQ(quarantined.load(), 0);
  const telemetry::StatusSnapshot snap = board.snapshot();
  EXPECT_TRUE(snap.dispatch_enabled);
  EXPECT_GE(snap.dispatch.leases_expired, 1u);
  EXPECT_EQ(snap.dispatch.duplicates_discarded, 1u);
  EXPECT_EQ(snap.dispatch.results_accepted, 3u);
}

TEST(DispatchQueue, HeartbeatsExtendLeaseOnlyWithEventProgress) {
  telemetry::StatusBoard board;
  board.reset(1, {150.0});

  std::atomic<int> port{0};
  DispatchOptions opts;
  opts.port = 0;
  opts.port_out = &port;
  opts.lease_secs = 0.3;
  DispatchPolicy pol;
  pol.retry_backoff_s = 0.0;

  WorkerRequest req;
  req.config = small_config(51);

  std::atomic<int> requeued{0};
  std::atomic<bool> done{false};
  DispatchCallbacks cb;
  cb.make_request = requests_from(req);
  cb.on_started = [](std::size_t, int) {};
  cb.on_completed = [&](std::size_t, int, WorkerResult&&) {};
  cb.on_quarantined = [](std::size_t, int, const std::string&) {};
  cb.on_interrupted = [](std::size_t, const std::string&) {};
  cb.on_retrying = [](std::size_t, int, const std::string&) {};
  cb.on_requeued = [&](std::size_t, int, const std::string&) { ++requeued; };
  cb.on_progress = [](std::size_t, std::uint64_t, double) {};
  cb.announce = [](const std::string&) {};

  std::thread dispatcher([&] {
    run_dispatch_queue(1, std::vector<char>(1, 0), opts, pol, &board, cb);
    done.store(true);
  });
  wait_for([&] { return port.load() > 0; }, 10.0, "listener port");

  Stub s(port.load());
  s.send(encode_hello_frame("hb"));
  s.send(encode_request_frame());
  const WireFrame g = s.read_frame();
  ASSERT_EQ(g.type, FrameType::kGrant);

  // Progressing heartbeats (events strictly increasing) hold the lease
  // well past several base durations.
  std::uint64_t events = 1;
  for (int i = 0; i < 10; ++i) {
    s.send(encode_heartbeat_frame(g.request.spec, events++, 0));
    sleep_ms(100);
  }
  EXPECT_EQ(requeued.load(), 0)
      << "a progressing worker's lease must not expire";

  // A frozen counter (the SIGSTOP signature: frames may flow, progress
  // does not) stops extending it.
  for (int i = 0; i < 10 && requeued.load() == 0; ++i) {
    s.send(encode_heartbeat_frame(g.request.spec, events, 0));
    sleep_ms(100);
  }
  wait_for([&] { return requeued.load() > 0; }, 10.0,
           "expiry under frozen progress");

  WorkerResult ok;
  ok.ok = true;
  s.send(encode_request_frame());
  const WireFrame g2 = s.read_frame();
  ASSERT_EQ(g2.type, FrameType::kGrant);
  s.send(encode_result_frame(g2.request.spec, g2.request.attempt, ok));
  dispatcher.join();
  EXPECT_TRUE(done.load());
}

TEST(DispatchQueue, OnlyTheLeaseHolderExtendsALease) {
  std::atomic<int> port{0};
  DispatchOptions opts;
  opts.port = 0;
  opts.port_out = &port;
  opts.lease_secs = 0.2;
  DispatchPolicy pol;
  pol.retry_backoff_s = 0.0;

  WorkerRequest req;
  req.config = small_config(54);

  std::atomic<int> requeued{0};
  std::atomic<int> progressed{0};
  DispatchCallbacks cb;
  cb.make_request = requests_from(req);
  cb.on_requeued = [&](std::size_t, int, const std::string&) { ++requeued; };
  cb.on_progress = [&](std::size_t, std::uint64_t, double) { ++progressed; };

  std::thread dispatcher([&] {
    run_dispatch_queue(1, std::vector<char>(1, 0), opts, pol, nullptr, cb);
  });
  wait_for([&] { return port.load() > 0; }, 10.0, "listener port");

  // Stub 1 takes spec 0 and stays silent until its lease expires.
  Stub s1(port.load());
  s1.send(encode_hello_frame("former"));
  s1.send(encode_request_frame());
  const WireFrame g1 = s1.read_frame();
  ASSERT_EQ(g1.type, FrameType::kGrant);
  wait_for([&] { return requeued.load() == 1; }, 10.0, "first expiry");

  // Stub 2 takes the new grant and never heartbeats; stub 1 wakes up and
  // heartbeats progress on spec 0. Those heartbeats are not the holder's,
  // so stub 2's lease must expire all the same.
  Stub s2(port.load());
  s2.send(encode_hello_frame("holder"));
  s2.send(encode_request_frame());
  const WireFrame g2 = s2.read_frame();
  ASSERT_EQ(g2.type, FrameType::kGrant);
  EXPECT_EQ(g2.request.spec, g1.request.spec);
  std::uint64_t events = 1;
  for (int i = 0; i < 100 && requeued.load() < 2; ++i) {
    s1.send(encode_heartbeat_frame(g1.request.spec, events++, 0));
    sleep_ms(20);
  }
  EXPECT_EQ(requeued.load(), 2)
      << "a former holder's heartbeats extended the new holder's lease";
  EXPECT_EQ(progressed.load(), 0);

  WorkerResult ok;
  ok.ok = true;
  s2.send(encode_request_frame());
  const WireFrame g3 = s2.read_frame();
  ASSERT_EQ(g3.type, FrameType::kGrant);
  s2.send(encode_result_frame(g3.request.spec, g3.request.attempt, ok));
  dispatcher.join();
}

/// Plays the parent's side of one grant over `fd`: takes the worker's
/// hello and request, grants `req` on a 0.2 s lease, and waits for the
/// attempt's first heartbeat. A failed ASSERT returns from here only, so
/// the caller still hangs up and joins its worker thread.
void grant_and_await_heartbeat(int fd, const WorkerRequest& req) {
  std::vector<std::uint8_t> buf;
  WireFrame f;
  ASSERT_TRUE(read_frame(fd, buf, "test peer", &f));
  ASSERT_EQ(f.type, FrameType::kHello);
  ASSERT_TRUE(read_frame(fd, buf, "test peer", &f));
  ASSERT_EQ(f.type, FrameType::kRequest);
  const auto grant = encode_grant_frame(0.2, req);
  net::write_full(fd, grant.data(), grant.size());
  ASSERT_TRUE(read_frame(fd, buf, "test peer", &f));
  ASSERT_EQ(f.type, FrameType::kHeartbeat);
}

TEST(DispatchQueue, WorkerAbandonsAttemptWhenPeerHangsUp) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::atomic<int> rc{-1};
  std::thread worker([&] { rc.store(serve_worker(fds[1])); });

  // The attempt wedges for a minute of wall time in its first event.
  WorkerRequest req;
  req.config = small_config(52);
  req.config.faults.plan = "hang@1:for=60";
  grant_and_await_heartbeat(fds[0], req);
  ::close(fds[0]);  // the parent dies mid-attempt

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rc.load() == -1 && std::chrono::steady_clock::now() < deadline)
    sleep_ms(5);
  EXPECT_NE(rc.load(), -1)
      << "an orphaned worker must not sit out its stalled attempt";
  worker.join();
  EXPECT_NE(rc.load(), kWorkerExitOk);
}

// --- end-to-end byte identity ------------------------------------------

TEST(DispatchQueue, DispatchedSweepMatchesInProcessManifestBytes) {
  TempDir ref_dir("dispatch_ref.tmp");
  TempDir run_dir("dispatch_run.tmp");
  const std::vector<RunSpec> specs = make_specs(5);

  SupervisorOptions ref_opts;
  ref_opts.checkpoint_dir = ref_dir.path;
  ref_opts.jobs = 1;
  const SweepManifest ref = run_specs_supervised(specs, ref_opts);
  ASSERT_EQ(ref.completed(), 5);

  SupervisorOptions opts;
  opts.checkpoint_dir = run_dir.path;
  std::atomic<int> port{0};
  opts.dispatch.port = 0;
  opts.dispatch.port_out = &port;

  SweepManifest got;
  std::thread supervisor([&] { got = run_specs_supervised(specs, opts); });
  wait_for([&] { return port.load() > 0; }, 10.0, "dispatch port");
  std::thread w1([&] {
    EXPECT_EQ(run_dispatch_worker("127.0.0.1", port.load()), 0);
  });
  std::thread w2([&] {
    EXPECT_EQ(run_dispatch_worker("127.0.0.1", port.load()), 0);
  });
  supervisor.join();
  w1.join();
  w2.join();

  ASSERT_EQ(got.completed(), 5);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(got.specs[i].retries, ref.specs[i].retries);
    EXPECT_EQ(got.specs[i].result.delivered, ref.specs[i].result.delivered);
  }
  EXPECT_EQ(snapshot::read_file(manifest_path(run_dir.path)),
            snapshot::read_file(manifest_path(ref_dir.path)))
      << "dispatched manifest must be byte-identical to in-process";
}

TEST(DispatchQueue, LostGrantClosesItsAttemptSpanInTheTrace) {
  TempDir dir("dispatch_trace.tmp");
  const std::vector<RunSpec> specs = make_specs(4);

  SupervisorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.obs.trace_path = dir.path + "/trace.jsonl";
  std::atomic<int> port{0};
  opts.dispatch.port = 0;
  opts.dispatch.port_out = &port;

  SweepManifest got;
  std::thread supervisor([&] { got = run_specs_supervised(specs, opts); });
  wait_for([&] { return port.load() > 0; }, 10.0, "dispatch port");
  {
    // A worker that hangs up holding its grant: the dispatcher drops the
    // connection and requeues the spec, whose attempt span must close.
    Stub lost(port.load());
    lost.send(encode_hello_frame("lost"));
    lost.send(encode_request_frame());
    EXPECT_EQ(lost.read_frame().type, FrameType::kGrant);
  }
  std::thread worker([&] {
    EXPECT_EQ(run_dispatch_worker("127.0.0.1", port.load()), 0);
  });
  supervisor.join();
  worker.join();
  ASSERT_EQ(got.completed(), 4);

  std::ifstream in(opts.obs.trace_path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  ASSERT_EQ(line, "[");
  std::map<std::uint64_t, int> open;  // per spec: begins minus ends
  int requeues = 0;
  while (std::getline(in, line)) {
    ASSERT_EQ(line.back(), ',');
    const telemetry::JsonValue v =
        telemetry::parse_json(line.substr(0, line.size() - 1));
    const auto spec = static_cast<std::uint64_t>(v.number_or("tid", -1));
    const std::string ph = v.string_or("ph", "");
    if (ph == "B") {
      ASSERT_EQ(++open[spec], 1) << "nested span, spec " << spec;
    } else if (ph == "E") {
      ASSERT_EQ(--open[spec], 0) << "unopened end, spec " << spec;
    }
    if (v.string_or("name", "") == "requeue") {
      ++requeues;
      EXPECT_EQ(open[spec], 0) << "requeue inside an open span";
    }
  }
  EXPECT_EQ(requeues, 1);
  EXPECT_EQ(open.size(), specs.size());
  for (const auto& [spec, depth] : open)
    EXPECT_EQ(depth, 0) << "unclosed span, spec " << spec;
}

TEST(DispatchQueue, SimFailureRetriesThenQuarantinesLikeLocalModes) {
  // An invariant-violating config quarantines after max_retries + 1
  // reported failures — the dispatcher must mirror the local loop's
  // retry bookkeeping, not treat a reported failure as a transport loss.
  std::atomic<int> port{0};
  DispatchOptions opts;
  opts.port = 0;
  opts.port_out = &port;
  DispatchPolicy pol;
  pol.max_retries = 1;
  pol.retry_backoff_s = 0.0;

  WorkerRequest req;
  req.config = small_config(52);

  std::vector<int> retry_attempts;
  std::atomic<int> quarantined_attempt{-1};
  std::string quarantine_detail;
  std::mutex mu;
  DispatchCallbacks cb;
  cb.make_request = requests_from(req);
  cb.on_started = [](std::size_t, int) {};
  cb.on_completed = [&](std::size_t, int, WorkerResult&&) {
    ADD_FAILURE() << "failing spec must not complete";
  };
  cb.on_quarantined = [&](std::size_t, int attempt,
                          const std::string& detail) {
    std::lock_guard<std::mutex> lock(mu);
    quarantine_detail = detail;
    quarantined_attempt.store(attempt);
  };
  cb.on_interrupted = [](std::size_t, const std::string&) {};
  cb.on_retrying = [&](std::size_t, int attempt, const std::string&) {
    std::lock_guard<std::mutex> lock(mu);
    retry_attempts.push_back(attempt);
  };
  cb.on_requeued = [](std::size_t, int, const std::string&) {};
  cb.on_progress = [](std::size_t, std::uint64_t, double) {};
  cb.announce = [](const std::string&) {};

  std::thread dispatcher([&] {
    run_dispatch_queue(1, std::vector<char>(1, 0), opts, pol, nullptr, cb);
  });
  wait_for([&] { return port.load() > 0; }, 10.0, "listener port");

  Stub s(port.load());
  s.send(encode_hello_frame("failer"));
  WorkerResult bad;
  bad.ok = false;
  bad.error = "simulated failure";
  for (int round = 0; round < 2; ++round) {
    s.send(encode_request_frame());
    const WireFrame g = s.read_frame();
    ASSERT_EQ(g.type, FrameType::kGrant);
    EXPECT_EQ(g.request.attempt, round);
    s.send(encode_result_frame(g.request.spec, g.request.attempt, bad));
  }
  dispatcher.join();

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(retry_attempts, std::vector<int>{1});
  EXPECT_EQ(quarantined_attempt.load(), 2);
  EXPECT_NE(quarantine_detail.find("attempt 1: simulated failure"),
            std::string::npos)
      << quarantine_detail;
}

TEST(DispatchQueue, StaleFailureReportIsADuplicate) {
  // A worker whose lease expired reports the failure of an attempt that
  // another worker already reported and the spec retried: the stale
  // report must not retry the spec a second time.
  telemetry::StatusBoard board;
  board.reset(1, {150.0});

  std::atomic<int> port{0};
  DispatchOptions opts;
  opts.port = 0;
  opts.port_out = &port;
  opts.lease_secs = 0.2;
  DispatchPolicy pol;
  pol.max_retries = 2;
  pol.retry_backoff_s = 0.0;

  WorkerRequest req;
  req.config = small_config(53);

  std::vector<int> retry_attempts;
  std::atomic<int> requeued{0};
  std::atomic<int> retried{0};
  std::atomic<int> completed_attempt{-1};
  std::mutex mu;
  DispatchCallbacks cb;
  cb.make_request = requests_from(req);
  cb.on_completed = [&](std::size_t, int attempt, WorkerResult&&) {
    completed_attempt.store(attempt);
  };
  cb.on_retrying = [&](std::size_t, int attempt, const std::string&) {
    std::lock_guard<std::mutex> lock(mu);
    retry_attempts.push_back(attempt);
    ++retried;
  };
  cb.on_requeued = [&](std::size_t, int, const std::string&) { ++requeued; };

  std::thread dispatcher([&] {
    run_dispatch_queue(1, std::vector<char>(1, 0), opts, pol, &board, cb);
  });
  wait_for([&] { return port.load() > 0; }, 10.0, "listener port");

  // Stub 1 takes the grant and stays silent until its lease expires.
  Stub s1(port.load());
  s1.send(encode_hello_frame("stale"));
  s1.send(encode_request_frame());
  const WireFrame g1 = s1.read_frame();
  ASSERT_EQ(g1.type, FrameType::kGrant);
  wait_for([&] { return requeued.load() > 0; }, 10.0, "lease expiry");

  // Stub 2 takes attempt 0 and reports a failure: the spec retries.
  Stub s2(port.load());
  s2.send(encode_hello_frame("live"));
  s2.send(encode_request_frame());
  const WireFrame g2 = s2.read_frame();
  ASSERT_EQ(g2.type, FrameType::kGrant);
  EXPECT_EQ(g2.request.attempt, 0);
  WorkerResult bad;
  bad.error = "simulated failure";
  s2.send(encode_result_frame(0, 0, bad));
  wait_for([&] { return retried.load() == 1; }, 10.0, "first retry");

  // Stub 1 now reports the same failure of attempt 0. Wait until the
  // dispatcher has handled it, whichever way it goes.
  s1.send(encode_result_frame(0, g1.request.attempt, bad));
  wait_for(
      [&] {
        return board.snapshot().dispatch.duplicates_discarded >= 1 ||
               retried.load() > 1;
      },
      10.0, "stale report handled");

  // Stub 2 takes attempt 1 and completes it.
  WorkerResult ok;
  ok.ok = true;
  s2.send(encode_request_frame());
  const WireFrame g3 = s2.read_frame();
  ASSERT_EQ(g3.type, FrameType::kGrant);
  EXPECT_EQ(g3.request.attempt, 1);
  s2.send(encode_result_frame(0, g3.request.attempt, ok));
  dispatcher.join();

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(retry_attempts, std::vector<int>{1});
  EXPECT_EQ(completed_attempt.load(), 1);
  EXPECT_EQ(board.snapshot().dispatch.duplicates_discarded, 1u);
}

}  // namespace
}  // namespace dftmsn
