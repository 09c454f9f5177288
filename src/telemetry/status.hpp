// Live sweep observability: the StatusBoard aggregates per-spec
// lifecycle state, executed-event throughput and an ETA estimate while
// a supervised sweep runs, and renders three views of it — the
// canonical status.json document ("dftmsn-status-v1"), Prometheus text
// exposition for /metrics, and a human progress table for
// `dftmsn_cli --status DIR`.
//
// Contract (shared with the rest of the telemetry layer, and enforced
// by tier1-status): the board only *observes*. The supervisor feeds it
// at state transitions and a sampling thread reads the same progress
// counters the watchdog already reads; nothing here is allowed to
// perturb a trajectory, a manifest byte, or a --report-json byte.
//
// All mutators and renderers are mutex-serialized: the supervisor's
// runner threads, the watchdog, the sampling thread and the HTTP
// listener all touch one board concurrently.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/registry.hpp"

namespace dftmsn::telemetry {

struct JsonValue;

/// Per-spec lifecycle phase as the observability plane reports it —
/// finer-grained than the manifest's SpecStatus (which has no
/// running/checkpointed/retrying states because it only records
/// outcomes).
enum class SpecPhase : std::uint8_t {
  kPending,       ///< not started yet
  kRunning,       ///< an attempt is executing
  kCheckpointed,  ///< running, and at least one checkpoint landed
  kRetrying,      ///< last attempt failed; waiting out backoff / restarting
  kQuarantined,   ///< retries exhausted, gave up (terminal)
  kDone,          ///< completed, result accepted (terminal)
  kInterrupted,   ///< external stop (terminal for this sweep)
};
inline constexpr int kSpecPhaseCount = 7;
const char* spec_phase_name(SpecPhase p);

/// One spec's row in a snapshot.
struct SpecProgress {
  SpecPhase phase = SpecPhase::kPending;
  std::uint64_t events = 0;      ///< executed events, current attempt
  double sim_time_s = 0.0;       ///< virtual time reached, current attempt
  std::uint64_t checkpoints = 0; ///< checkpoints written, all attempts
  int retries = 0;               ///< restarts consumed
  std::string detail;            ///< last failure message; empty when clean
};

/// One connected pull-mode worker as the dispatcher reports it
/// (--dispatch-port sweeps only; see experiment/dispatch.hpp).
struct DispatchWorkerRow {
  std::string name;
  bool connected = false;
  std::uint64_t active_specs = 0;  ///< specs currently leased to it
};

/// Dispatcher lifecycle counters. The dispatcher owns the authoritative
/// tallies and pushes whole snapshots (it is single-threaded), so the
/// board never has to reconstruct them from events.
struct DispatchCounters {
  /// Grants, one spec each (the name predates single-spec leases and is
  /// kept for the dftmsn-status-v1 schema).
  std::uint64_t batches_granted = 0;
  std::uint64_t results_accepted = 0;
  std::uint64_t duplicates_discarded = 0;
  std::uint64_t requeues = 0;        ///< transport requeues (lost lease/conn)
  std::uint64_t leases_expired = 0;
};

/// A consistent copy of the whole board (one lock, then render/inspect
/// without holding it).
struct StatusSnapshot {
  double wall_s = 0.0;            ///< wall clock of the last sample()
  std::uint64_t phase_counts[kSpecPhaseCount] = {};
  std::uint64_t events_executed = 0;
  double events_per_sec_ema = 0.0;  ///< 0 until two samples exist
  double progress = 0.0;            ///< [0,1] mean sim-time fraction
  double eta_s = -1.0;              ///< -1 while unknown
  bool healthy = true;
  std::uint64_t retries_total = 0;
  std::uint64_t watchdog_trips = 0;
  std::uint64_t worker_spawns = 0;
  std::uint64_t sigkills = 0;
  std::uint64_t checkpoints_total = 0;
  std::vector<SpecProgress> specs;
  /// Dispatch plane; rendered only when a dispatcher armed the board,
  /// so non-dispatched sweeps keep byte-identical status documents.
  bool dispatch_enabled = false;
  DispatchCounters dispatch;
  std::vector<DispatchWorkerRow> dispatch_workers;
};

class StatusBoard {
 public:
  /// Arms the board for a sweep of n specs; horizons[i] is spec i's
  /// simulated duration (the denominator of its progress fraction).
  void reset(std::size_t n, const std::vector<double>& horizons);

  // --- transitions (supervisor / watchdog threads) ---------------------
  void mark_running(std::size_t i, int attempt);
  /// `count` new checkpoints observed (phase becomes kCheckpointed while
  /// the attempt keeps running).
  void mark_checkpoint(std::size_t i, std::uint64_t count);
  /// Overwrites spec i's checkpoint count with the supervisor's
  /// authoritative tally (the sampler's delta accumulation can lag one
  /// poll interval at a terminal transition).
  void sync_checkpoints(std::size_t i, std::uint64_t total);
  void mark_retrying(std::size_t i, int retries, const std::string& reason);
  void mark_quarantined(std::size_t i, const std::string& reason);
  void mark_done(std::size_t i);
  void mark_interrupted(std::size_t i, const std::string& reason);
  /// Watchdog fired for spec i: counts a trip and holds /healthz at 503
  /// until the spec leaves the stalled state via retry or a terminal
  /// transition.
  void mark_watchdog(std::size_t i);
  void mark_worker_spawn(std::size_t i);
  void mark_sigkill(std::size_t i);

  // --- dispatch plane (dispatcher thread) ------------------------------
  /// Arms the dispatch section of status.json and /metrics. Called once
  /// by the dispatcher before it starts granting leases.
  void dispatch_enable();
  /// Upserts one worker row (keyed by name, insertion-ordered).
  void dispatch_worker(const std::string& name, bool connected,
                       std::uint64_t active_specs);
  /// Overwrites the dispatcher counter totals.
  void dispatch_update(const DispatchCounters& totals);

  // --- sampled data (sampling thread) ----------------------------------
  void update_progress(std::size_t i, std::uint64_t events, double sim_time_s);
  /// Folds a completed spec's instrument registry into the merged view
  /// /metrics exposes. Call once per completed spec.
  void absorb_registry(const Registry& r);

  /// Recomputes throughput EMA (alpha 0.25 over instantaneous
  /// events/sec), overall progress and ETA as of wall_s seconds since
  /// sweep start. Wall time is injected — not read from a clock — so
  /// the math is unit-testable on hand-computed inputs.
  void sample(double wall_s);

  [[nodiscard]] bool healthy() const;
  [[nodiscard]] StatusSnapshot snapshot() const;

  // --- renderers -------------------------------------------------------
  [[nodiscard]] std::string render_status_json() const;
  [[nodiscard]] std::string render_prometheus() const;

 private:
  struct Row {
    SpecProgress p;
    double horizon = 0.0;
    bool stalled = false;
  };

  [[nodiscard]] StatusSnapshot snapshot_locked() const;

  mutable std::mutex mu_;
  std::vector<Row> rows_;
  Registry merged_;
  double wall_ = 0.0;
  double last_wall_ = -1.0;
  std::uint64_t last_events_ = 0;
  double ema_ = -1.0;  ///< <0: unseeded
  double progress_ = 0.0;
  double eta_ = -1.0;
  std::uint64_t retries_ = 0;
  std::uint64_t trips_ = 0;
  std::uint64_t spawns_ = 0;
  std::uint64_t sigkills_ = 0;
  bool dispatch_enabled_ = false;
  DispatchCounters dispatch_;
  std::vector<DispatchWorkerRow> dispatch_workers_;
};

/// Renders the human progress table `dftmsn_cli --status DIR` prints,
/// from a parsed status.json document (reader side only needs the file).
std::string render_status_table(const JsonValue& status);

}  // namespace dftmsn::telemetry
