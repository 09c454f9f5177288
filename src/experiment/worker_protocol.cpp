#include "experiment/worker_protocol.hpp"

#include <sys/wait.h>

#include <csignal>

#include "common/config_io.hpp"

namespace dftmsn {
namespace {

// The six doubles go first as bit patterns, then the counters, in
// RunResult declaration order — the same order the manifest uses.
void save_run_result(const RunResult& r, snapshot::Writer& w) {
  w.begin_section("run_result");
  w.f64(r.delivery_ratio);
  w.f64(r.mean_power_mw);
  w.f64(r.mean_delay_s);
  w.f64(r.mean_hops);
  w.f64(r.overhead_bits_per_delivery);
  w.f64(r.fairness_jain);
  w.u64(r.generated);
  w.u64(r.delivered);
  w.u64(r.collisions);
  w.u64(r.attempts);
  w.u64(r.failed_attempts);
  w.u64(r.data_transmissions);
  w.u64(r.drops_overflow);
  w.u64(r.drops_threshold);
  w.u64(r.drops_delivered);
  w.u64(r.events_executed);
  w.u64(r.faults_injected);
  w.u64(r.drops_node_failure);
  w.u64(r.frames_fault_corrupted);
  w.u64(r.invariant_sweeps);
  w.end_section();
}

void load_run_result(RunResult& r, snapshot::Reader& rd) {
  rd.begin_section("run_result");
  r.delivery_ratio = rd.f64();
  r.mean_power_mw = rd.f64();
  r.mean_delay_s = rd.f64();
  r.mean_hops = rd.f64();
  r.overhead_bits_per_delivery = rd.f64();
  r.fairness_jain = rd.f64();
  r.generated = rd.u64();
  r.delivered = rd.u64();
  r.collisions = rd.u64();
  r.attempts = rd.u64();
  r.failed_attempts = rd.u64();
  r.data_transmissions = rd.u64();
  r.drops_overflow = rd.u64();
  r.drops_threshold = rd.u64();
  r.drops_delivered = rd.u64();
  r.events_executed = rd.u64();
  r.faults_injected = rd.u64();
  r.drops_node_failure = rd.u64();
  r.frames_fault_corrupted = rd.u64();
  r.invariant_sweeps = rd.u64();
  rd.end_section();
}

}  // namespace

void save_worker_request(const WorkerRequest& req, snapshot::Writer& w) {
  save_config_exact(req.config, w);
  w.u32(static_cast<std::uint32_t>(req.kind));
  w.i64(req.attempt);
  w.u64(req.spec);
  w.str(req.checkpoint_path);
  w.f64(req.checkpoint_every_s);
}

void load_worker_request(WorkerRequest& req, snapshot::Reader& rd) {
  load_config_exact(req.config, rd);
  req.kind = static_cast<ProtocolKind>(rd.u32());
  req.attempt = static_cast<int>(rd.i64());
  req.spec = rd.u64();
  req.checkpoint_path = rd.str();
  req.checkpoint_every_s = rd.f64();
}

void save_worker_result(const WorkerResult& res, snapshot::Writer& w) {
  w.boolean(res.ok);
  w.str(res.error);
  save_run_result(res.result, w);
  w.u64(res.checkpoints_written);
  res.registry.save_state(w);
}

void load_worker_result(WorkerResult& res, snapshot::Reader& rd) {
  res.ok = rd.boolean();
  res.error = rd.str();
  load_run_result(res.result, rd);
  res.checkpoints_written = rd.u64();
  res.registry.load_state(rd);
}

std::string worker_signal_name(int sig) {
  // Hand-mapped so manifest strings are identical across libcs.
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGABRT: return "SIGABRT";
    case SIGKILL: return "SIGKILL";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGTERM: return "SIGTERM";
    default: return "signal " + std::to_string(sig);
  }
}

WorkerExitDecision decode_worker_exit(int wait_status, WorkerStream stream,
                                      const std::string& reported_error) {
  if (WIFSIGNALED(wait_status))
    return {false,
            "worker killed by " + worker_signal_name(WTERMSIG(wait_status))};
  if (WIFEXITED(wait_status)) {
    const int code = WEXITSTATUS(wait_status);
    if (code == 0) {
      switch (stream) {
        case WorkerStream::kOk:
          return {true, ""};
        case WorkerStream::kNothing:
          return {false, "worker exited 0 but sent no result"};
        case WorkerStream::kCorrupt:
          return {false, "worker exited 0 but its result stream is corrupt"};
        case WorkerStream::kError:
          return {false, reported_error.empty()
                             ? "worker exited 0 with an error result"
                             : reported_error};
      }
    }
    // Nonzero exit: prefer the structured error the worker managed to
    // send; a bare exit code is the fallback diagnosis.
    return {false, reported_error.empty()
                       ? "worker exit code " + std::to_string(code)
                       : reported_error};
  }
  return {false, "worker wait status " + std::to_string(wait_status)};
}

}  // namespace dftmsn
