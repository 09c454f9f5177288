// One replication attempt, as every execution backend runs it.
// run_attempt is the only code that builds or resumes an attempt's
// World, slices it, checkpoints it and reduces it; the supervisor's pool
// threads and the one frame loop that both the `--worker FD` child of
// process isolation and the `--connect` dispatch worker run
// (serve_worker, dispatch.hpp) all call it, so a clean run produces
// bit-identical results and checkpoint counts in every mode. The
// in-process backend and the frame loop also share one resume rule:
// load_resume_image picks the entry, drops_checkpoint says when a
// failure discards it.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "experiment/worker_protocol.hpp"
#include "experiment/world.hpp"

namespace dftmsn {

/// Where an attempt publishes its live progress for the parent's
/// watchdog and status plane. Any pointer may be null.
struct AttemptProgress {
  std::atomic<std::uint64_t>* events = nullptr;          ///< executed events
  std::atomic<std::uint64_t>* sim_time_bits = nullptr;   ///< sim clock
  std::atomic<std::uint64_t>* checkpoint_seq = nullptr;  ///< checkpoints
};

/// The in-memory side of an attempt, which a request cannot carry.
struct AttemptHooks {
  /// The spec's last good checkpoint. A non-empty image is resumed from
  /// (replayed and verified); nullptr or empty: a fresh World. With
  /// keep_image each checkpoint the attempt writes replaces it, so it
  /// survives the attempt; otherwise it is released once the World is
  /// resumed.
  std::vector<std::uint8_t>* image = nullptr;
  bool keep_image = false;
  AttemptProgress progress;
  const std::atomic<bool>* abort = nullptr;  ///< the simulator's abort flag
  /// Test hook: return (report.ok = false) after this many checkpoints.
  int stop_after_checkpoints = 0;
};

/// What an attempt has produced. run_attempt fills it as it goes, so
/// after a throw it still holds the checkpoints written and the World
/// the failure unwound.
struct AttemptOutput {
  /// ok once the horizon is reached, with the result and registry;
  /// checkpoints_written counts this attempt's periodic checkpoints.
  WorkerResult report;
  std::unique_ptr<World> world;
};

/// Runs attempt req.attempt of req.config. The World is sliced at
/// multiples of req.checkpoint_every_s when checkpointing to a container
/// (so a resumed run hits the boundaries an uninterrupted one would) and
/// at horizon/16 otherwise (so the sim-time readout moves); slicing
/// never changes a trajectory. Throws whatever the attempt throws
/// (RunAborted, SimulatedCrash, InvariantViolation, snapshot errors).
void run_attempt(const WorkerRequest& req, const AttemptHooks& hooks,
                 AttemptOutput& out);

/// Whether a failed attempt's checkpoint must be dropped, so the retry
/// starts from scratch: a SnapshotError (an image that cannot be read or
/// written) or the SnapshotMismatch of a failed resume verification.
bool drops_checkpoint(const std::exception& e);

/// Erases spec's entry from `container`, best effort: a no-op without a
/// container, and a failed erase leaves an entry the next container_put
/// supersedes (and --fsck reports).
void erase_checkpoint(const std::string& container, std::uint64_t spec);

/// The spec's container entry if it can seed a resume of (config,
/// kind); empty when there is no container, the container or entry is
/// missing or unreadable, or the entry was written for another (config
/// digest, seed).
std::vector<std::uint8_t> load_resume_image(const std::string& container,
                                            std::uint64_t spec,
                                            const Config& config,
                                            ProtocolKind kind);

}  // namespace dftmsn
