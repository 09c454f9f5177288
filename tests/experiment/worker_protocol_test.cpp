// Worker protocol: bit-exact request/result round-trips through the
// grant and result frames that carry them, and the table of
// waitpid-status + stream state -> supervisor decisions.
#include "experiment/worker_protocol.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>

#include "experiment/dispatch.hpp"

namespace dftmsn {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Linux wait-status encoding (what waitpid writes): a normal exit is
// code << 8, a signal death is the raw signal number.
int exited(int code) { return code << 8; }
int signaled(int sig) { return sig; }

WireFrame extract(const std::vector<std::uint8_t>& frame) {
  WireFrame f;
  EXPECT_EQ(try_extract_frame(frame.data(), frame.size(), "t", &f),
            frame.size());
  return f;
}

TEST(WorkerProtocol, RequestRoundTripsConfigBitExactly) {
  WorkerRequest req;
  // Doubles that do NOT survive the 6-significant-digit textual config
  // form — the whole reason the exact codec exists.
  req.config.protocol.alpha = 0.1 + 0.2;  // 0.30000000000000004
  req.config.scenario.duration_s = 1234.5678901234567;
  req.config.scenario.seed = 0xdeadbeefcafeull;
  req.config.faults.plan = "segv@300:attempts=1";
  req.kind = ProtocolKind::kDirect;
  req.attempt = 3;
  req.spec = 7;
  req.checkpoint_path = "ck/spec_7.ckpt";
  req.checkpoint_every_s = 250.25;

  const WorkerRequest got = extract(encode_grant_frame(1.0, req)).request;
  EXPECT_TRUE(same_bits(got.config.protocol.alpha, req.config.protocol.alpha));
  EXPECT_TRUE(same_bits(got.config.scenario.duration_s,
                        req.config.scenario.duration_s));
  EXPECT_EQ(got.config.scenario.seed, req.config.scenario.seed);
  EXPECT_EQ(got.config.faults.plan, req.config.faults.plan);
  EXPECT_EQ(got.kind, req.kind);
  EXPECT_EQ(got.attempt, req.attempt);
  EXPECT_EQ(got.spec, req.spec);
  EXPECT_EQ(got.checkpoint_path, req.checkpoint_path);
  EXPECT_TRUE(same_bits(got.checkpoint_every_s, req.checkpoint_every_s));
}

TEST(WorkerProtocol, OkResultRoundTripsWithRegistry) {
  WorkerResult res;
  res.ok = true;
  res.result.delivery_ratio = 0.1 + 0.2;
  res.result.generated = 41;
  res.result.delivered = 12;
  res.result.events_executed = 987654;
  res.checkpoints_written = 5;
  res.registry.counter("mac.rts_sent")->inc(17);
  res.registry.gauge("queue.peak_fill")->set(0.75);
  res.registry.histogram("delay", 0.0, 100.0, 4)->observe(12.5);

  const WorkerResult got = extract(encode_result_frame(4, 1, res)).result;
  EXPECT_TRUE(got.ok);
  EXPECT_TRUE(got.error.empty());
  EXPECT_TRUE(same_bits(got.result.delivery_ratio, res.result.delivery_ratio));
  EXPECT_EQ(got.result.generated, 41u);
  EXPECT_EQ(got.result.delivered, 12u);
  EXPECT_EQ(got.result.events_executed, 987654u);
  EXPECT_EQ(got.checkpoints_written, 5u);
  EXPECT_EQ(got.registry.serialize(), res.registry.serialize());
}

TEST(WorkerProtocol, ErrorResultRoundTrips) {
  WorkerResult res;
  res.ok = false;
  res.error = "simulated crash at t=300";
  res.checkpoints_written = 2;

  const WorkerResult got = extract(encode_result_frame(4, 1, res)).result;
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.error, "simulated crash at t=300");
  EXPECT_EQ(got.checkpoints_written, 2u);
  EXPECT_TRUE(got.registry.empty());
}

TEST(WorkerProtocol, DecodeWorkerExitTable) {
  struct Case {
    const char* name;
    int status;
    WorkerStream stream;
    const char* reported;
    bool accept;
    const char* detail_contains;  ///< nullptr: detail must be empty
  };
  const Case cases[] = {
      {"clean exit + ok result", exited(0), WorkerStream::kOk, "", true,
       nullptr},
      {"clean exit, no result", exited(0), WorkerStream::kNothing, "", false,
       "sent no result"},
      {"clean exit, torn result stream", exited(0), WorkerStream::kCorrupt,
       "", false, "corrupt"},
      {"clean exit, error result", exited(0), WorkerStream::kError,
       "invariant I3 violated", false, "invariant I3 violated"},
      {"nonzero exit with structured error", exited(kWorkerExitBadRequest),
       WorkerStream::kError, "simulated crash at t=300", false,
       "simulated crash at t=300"},
      {"bad-request exit, nothing sent", exited(kWorkerExitBadRequest),
       WorkerStream::kNothing, "", false, "worker exit code 2"},
      {"segfault", signaled(SIGSEGV), WorkerStream::kNothing, "", false,
       "worker killed by SIGSEGV"},
      {"abort", signaled(SIGABRT), WorkerStream::kNothing, "", false,
       "worker killed by SIGABRT"},
      {"watchdog/oom kill", signaled(SIGKILL), WorkerStream::kNothing, "",
       false, "worker killed by SIGKILL"},
      {"unnamed signal", signaled(35), WorkerStream::kNothing, "", false,
       "worker killed by signal 35"},
      // A signal death outranks a result that made it onto the stream:
      // the worker died before it could exit cleanly.
      {"signal death after an ok result", signaled(SIGKILL),
       WorkerStream::kOk, "", false, "worker killed by SIGKILL"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const WorkerExitDecision d =
        decode_worker_exit(c.status, c.stream, c.reported);
    EXPECT_EQ(d.accept, c.accept);
    if (c.detail_contains == nullptr) {
      EXPECT_TRUE(d.detail.empty()) << d.detail;
    } else {
      EXPECT_NE(d.detail.find(c.detail_contains), std::string::npos)
          << d.detail;
    }
  }
}

TEST(WorkerProtocol, SignalNames) {
  EXPECT_EQ(worker_signal_name(SIGSEGV), "SIGSEGV");
  EXPECT_EQ(worker_signal_name(SIGBUS), "SIGBUS");
  EXPECT_EQ(worker_signal_name(SIGABRT), "SIGABRT");
  EXPECT_EQ(worker_signal_name(SIGKILL), "SIGKILL");
  EXPECT_EQ(worker_signal_name(SIGTERM), "SIGTERM");
  EXPECT_EQ(worker_signal_name(42), "signal 42");
}

}  // namespace
}  // namespace dftmsn
