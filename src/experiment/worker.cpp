#include "experiment/worker.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/net_util.hpp"
#include "experiment/dispatch.hpp"
#include "experiment/world.hpp"
#include "experiment/worker_protocol.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/ckpt_container.hpp"

namespace dftmsn {

void run_attempt(const WorkerRequest& req, const AttemptHooks& hooks,
                 AttemptOutput& out) {
  Config cfg = req.config;
  // The only knob a retry turns: gates `attempts=`-qualified fault
  // events (see FaultInjector) without touching event or rng streams.
  cfg.faults.attempt = req.attempt;
  const AttemptProgress& p = hooks.progress;
  if (hooks.image != nullptr && !hooks.image->empty()) {
    out.world = resume_world(cfg, req.kind, *hooks.image, true, hooks.abort,
                             p.events);
    if (!hooks.keep_image) std::vector<std::uint8_t>().swap(*hooks.image);
  } else {
    out.world = std::make_unique<World>(cfg, req.kind);
    out.world->sim().set_abort_flag(hooks.abort);
    out.world->sim().set_progress_counter(p.events);
  }
  World& world = *out.world;
  // The sim-time and checkpoint-seq fields feed the status plane only:
  // slice-boundary granularity is plenty for a human progress view, and
  // the stores are free on the sim hot path.
  const auto publish_time = [&] {
    if (p.sim_time_bits != nullptr)
      p.sim_time_bits->store(std::bit_cast<std::uint64_t>(world.sim().now()),
                             std::memory_order_relaxed);
  };

  const double horizon = cfg.scenario.duration_s;
  const bool periodic =
      !req.checkpoint_path.empty() && req.checkpoint_every_s > 0.0;
  const double step = periodic          ? req.checkpoint_every_s
                      : horizon > 0.0 ? horizon / 16.0
                                      : 1.0;
  std::uint64_t& written = out.report.checkpoints_written;
  publish_time();
  while (world.sim().now() < horizon) {
    world.run_until(std::min(
        horizon, (std::floor(world.sim().now() / step) + 1.0) * step));
    publish_time();
    if (!periodic || world.sim().now() >= horizon) continue;
    std::vector<std::uint8_t> scratch;
    std::vector<std::uint8_t>& image =
        hooks.keep_image ? *hooks.image : scratch;
    image = make_checkpoint(world);
    snapshot::container_put(req.checkpoint_path, req.spec, image);
    ++written;
    if (p.checkpoint_seq != nullptr)
      p.checkpoint_seq->store(written, std::memory_order_relaxed);
    if (hooks.stop_after_checkpoints > 0 &&
        written >= static_cast<std::uint64_t>(hooks.stop_after_checkpoints))
      return;
  }
  out.report.result = reduce_world(world);
  if (world.registry() != nullptr) out.report.registry.merge(*world.registry());
  out.report.ok = true;
}

bool drops_checkpoint(const std::exception& e) {
  return dynamic_cast<const snapshot::SnapshotError*>(&e) != nullptr ||
         dynamic_cast<const snapshot::SnapshotMismatch*>(&e) != nullptr;
}

void erase_checkpoint(const std::string& container, std::uint64_t spec) {
  if (container.empty()) return;
  try {
    snapshot::container_erase(container, spec);
  } catch (const std::exception&) {
  }
}

std::vector<std::uint8_t> load_resume_image(const std::string& container,
                                            std::uint64_t spec,
                                            const Config& config,
                                            ProtocolKind kind) {
  if (container.empty()) return {};
  try {
    auto entry = snapshot::container_get(container, spec);
    if (entry) {
      const CheckpointMeta meta = read_checkpoint_meta(*entry);
      if (meta.config_digest == config_digest(config, kind) &&
          meta.seed == config.scenario.seed)
        return std::move(*entry);
    }
  } catch (const std::exception&) {
    // Unreadable container or entry: the spec starts from scratch.
  }
  return {};
}

namespace {

/// Runs a grant's spec in-process and reports its outcome as a
/// WorkerResult: a simulation failure is a structured error, so the
/// parent's retry/quarantine decisions match the in-process backend
/// byte for byte. A heartbeat thread streams the attempt's live progress
/// back every lease/4 (clamped to [0.05, 5] s); a frozen event counter
/// (SIGSTOP, wedged sim) stops extending the lease even though frames
/// keep flowing. A failed heartbeat means the parent is gone: it aborts
/// the attempt (a wedged `hang@` polls the flag too), so an orphaned
/// worker exits instead of running on. A spawned local worker resumes
/// from, checkpoints into and on a bad image erases the spec's container
/// entry; a remote grant carries no container, so its spec runs from
/// scratch, uncheckpointed.
WorkerResult run_leased_spec(
    const WireFrame& grant,
    const std::function<void(const std::vector<std::uint8_t>&)>& send) {
  const WorkerRequest& req = grant.request;
  try {
    req.config.validate();
  } catch (const std::exception& e) {
    WorkerResult res;
    res.error = std::string("bad request: ") + e.what();
    return res;
  }

  // A fresh process has no in-memory image: the container entry the
  // previous attempt left is the one to resume (a torn tail simply
  // hides it — container_get recovers what precedes the tear).
  std::vector<std::uint8_t> image = load_resume_image(
      req.checkpoint_path, req.spec, req.config, req.kind);

  std::atomic<std::uint64_t> events{0};
  std::atomic<std::uint64_t> time_bits{0};
  std::atomic<std::uint64_t> seq{0};
  std::atomic<bool> orphaned{false};
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  const auto period = std::chrono::duration<double>(
      std::clamp(grant.lease_secs / 4.0, 0.05, 5.0));
  std::thread heartbeat([&] {
    std::unique_lock<std::mutex> lock(hb_mu);
    while (!hb_cv.wait_for(lock, period, [&] { return hb_stop; })) {
      lock.unlock();
      try {
        send(encode_heartbeat_frame(req.spec, events.load(), time_bits.load(),
                                    seq.load()));
      } catch (const std::exception&) {
        orphaned.store(true);  // the result send will fail too
        return;
      }
      lock.lock();
    }
  });

  AttemptHooks hooks;
  hooks.image = &image;
  hooks.progress = {&events, &time_bits, &seq};
  hooks.abort = &orphaned;
  AttemptOutput out;
  try {
    run_attempt(req, hooks, out);
  } catch (const std::exception& e) {
    // InvariantViolation, SimulatedCrash, a failed resume, ... — a
    // *reported* failure, which consumes the spec's sim retry budget.
    if (drops_checkpoint(e))
      erase_checkpoint(req.checkpoint_path, req.spec);
    out.report.ok = false;
    out.report.error = e.what();
  }
  {
    std::lock_guard<std::mutex> lock(hb_mu);
    hb_stop = true;
  }
  hb_cv.notify_one();
  heartbeat.join();
  return std::move(out.report);
}

}  // namespace

int serve_worker(int fd) {
  // The heartbeat thread and the main loop share the socket; frames must
  // not interleave mid-write.
  std::mutex send_mu;
  const auto send = [&](const std::vector<std::uint8_t>& bytes) {
    std::lock_guard<std::mutex> lock(send_mu);
    net::write_full(fd, bytes.data(), bytes.size());
  };

  // Chaos-test hook: sever the connection (no goodbye, no flush beyond
  // what the socket already carried) after the Nth result frame.
  long drop_after = -1;
  if (const char* env = std::getenv("DFTMSN_DISPATCH_DROP_AFTER"))
    drop_after = std::atol(env);
  long results_sent = 0;

  std::vector<std::uint8_t> buf;
  try {
    send(encode_hello_frame("worker-" + std::to_string(::getpid())));
    for (;;) {
      send(encode_request_frame());
      WireFrame f;
      // The other end gone: the sweep is over for us.
      if (!read_frame(fd, buf, "dispatch stream", &f)) break;
      if (f.type == FrameType::kNoWork) {
        if (f.done) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      if (f.type != FrameType::kGrant)
        throw snapshot::SnapshotError(
            "dispatch stream: expected grant or nowork");
      const WorkerResult res = run_leased_spec(f, send);
      send(encode_result_frame(f.request.spec, f.request.attempt, res));
      ++results_sent;
      if (drop_after >= 0 && results_sent >= drop_after) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
        return kWorkerExitOk;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker: dispatch failure: %s\n", e.what());
    ::close(fd);
    return kWorkerExitBadRequest;
  }
  ::close(fd);
  return kWorkerExitOk;
}

int run_dispatch_worker(const std::string& host, int port) {
  int fd = -1;
  try {
    fd = net::connect_tcp(host, port);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker: cannot connect to %s:%d: %s\n", host.c_str(),
                 port, e.what());
    return kWorkerExitBadRequest;
  }
  return serve_worker(fd);
}

}  // namespace dftmsn
