#include "faults/fault_injector.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace dftmsn {

FaultInjector::FaultInjector(Simulator& sim, Channel& channel, FaultPlan plan,
                             std::vector<std::unique_ptr<SensorNode>>& sensors,
                             std::vector<std::unique_ptr<SinkNode>>& sinks,
                             RandomStream rng, int attempt)
    : sim_(sim),
      plan_(std::move(plan)),
      sensors_(sensors),
      sinks_(sinks),
      rng_(std::move(rng)),
      attempt_(attempt) {
  const NodeId total = static_cast<NodeId>(sensors_.size() + sinks_.size());
  bool any_loss = false;
  for (const FaultEvent& e : plan_.events) {
    if (!e.targets_fraction() && e.node >= total)
      throw std::invalid_argument("fault plan: node " +
                                  std::to_string(e.node) +
                                  " does not exist (population " +
                                  std::to_string(total) + ")");
    if (e.kind == FaultKind::kPressure && !e.targets_fraction() &&
        is_sink(e.node))
      throw std::invalid_argument(
          "fault plan: pressure targets must be sensors (node " +
          std::to_string(e.node) + " is a sink)");
    if (e.kind == FaultKind::kLoss) any_loss = true;
  }

  // The hook only draws randomness while a burst is active, so merely
  // installing it never perturbs a run.
  if (any_loss)
    channel.set_corruption_hook(
        [this](NodeId, NodeId) { return corrupts_reception(); });

  for (const FaultEvent& e : plan_.events)
    sim_.schedule_at(e.at, [this, &e] { apply(e); });
}

std::vector<NodeId> FaultInjector::resolve_targets(const FaultEvent& e) {
  if (!e.targets_fraction()) return {e.node};

  // frac= covers sensors only; sinks must be hit by explicit node=.
  const int n = static_cast<int>(sensors_.size());
  const int k = std::clamp(
      static_cast<int>(std::llround(e.frac * static_cast<double>(n))), 1, n);
  std::vector<NodeId> ids(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] =
      static_cast<NodeId>(i);
  // Partial Fisher-Yates: the first k slots end up a uniform k-subset.
  for (int j = 0; j < k; ++j)
    std::swap(ids[static_cast<std::size_t>(j)],
              ids[static_cast<std::size_t>(rng_.uniform_int(j, n - 1))]);
  ids.resize(static_cast<std::size_t>(k));
  return ids;
}

bool FaultInjector::take_down(NodeId id, bool preserve_state) {
  if (is_sink(id)) return sinks_.at(id - first_sink_id())->fail();
  return sensors_.at(id)->fail(preserve_state);
}

bool FaultInjector::bring_back(NodeId id) {
  if (is_sink(id)) return sinks_.at(id - first_sink_id())->restore();
  return sensors_.at(id)->restore();
}

void FaultInjector::apply(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::kCrash:
    case FaultKind::kOutage: {
      const bool preserve = e.kind == FaultKind::kOutage;
      std::vector<NodeId> downed;
      for (NodeId id : resolve_targets(e))
        if (take_down(id, preserve)) downed.push_back(id);
      (preserve ? counters_.outages : counters_.crashes) += downed.size();
      if (e.duration > 0 && !downed.empty())
        sim_.schedule_in(e.duration, [this, downed = std::move(downed)] {
          for (NodeId id : downed)
            if (bring_back(id)) ++counters_.recoveries;
        });
      break;
    }
    case FaultKind::kRecover:
      for (NodeId id : resolve_targets(e))
        if (bring_back(id)) ++counters_.recoveries;
      break;
    case FaultKind::kLoss:
      bursts_.push_back({sim_.now() + e.duration, e.prob});
      ++counters_.loss_bursts;
      break;
    case FaultKind::kPressure: {
      std::vector<NodeId> clamped = resolve_targets(e);
      for (NodeId id : clamped)
        counters_.pressure_evictions +=
            sensors_.at(id)->apply_buffer_pressure(e.capacity);
      ++counters_.pressure_events;
      // Overlapping pressure windows are not stacked: the first window to
      // end restores the configured capacity for its targets.
      sim_.schedule_in(e.duration, [this, clamped = std::move(clamped)] {
        for (NodeId id : clamped) sensors_.at(id)->release_buffer_pressure();
      });
      break;
    }
    case FaultKind::kHang: {
      if (e.attempts > 0 && attempt_ >= e.attempts) break;  // gated out
      ++counters_.hangs;
      // Stall inside the event, polling the simulator's abort flag so a
      // supervisor watchdog can reclaim the run. An optional 'for=' caps
      // the stall in *wall-clock* seconds (unattended runs self-heal).
      const auto started = std::chrono::steady_clock::now();
      while (!sim_.abort_requested()) {
        if (e.duration > 0) {
          const std::chrono::duration<double> elapsed =
              std::chrono::steady_clock::now() - started;
          if (elapsed.count() >= e.duration) break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      break;
    }
    case FaultKind::kDie:
      if (e.attempts > 0 && attempt_ >= e.attempts) break;  // gated out
      throw SimulatedCrash(sim_.now());
    case FaultKind::kSegv:
      if (e.attempts > 0 && attempt_ >= e.attempts) break;  // gated out
      // A real signal, not an exception: only a process boundary
      // (--isolate=process) survives this. In-process the run dies.
      std::raise(SIGSEGV);
      break;
    case FaultKind::kAbort:
      if (e.attempts > 0 && attempt_ >= e.attempts) break;  // gated out
      std::abort();
  }
}

bool FaultInjector::corrupts_reception() {
  const SimTime now = sim_.now();
  bursts_.erase(std::remove_if(bursts_.begin(), bursts_.end(),
                               [now](const LossBurst& b) {
                                 return b.until <= now;
                               }),
                bursts_.end());
  if (bursts_.empty()) return false;
  double survive = 1.0;
  for (const LossBurst& b : bursts_) survive *= 1.0 - b.prob;
  return rng_.uniform01() < 1.0 - survive;
}

void FaultInjector::save_state(snapshot::Writer& w) const {
  w.begin_section("fault_injector");
  w.u64(counters_.crashes);
  w.u64(counters_.outages);
  w.u64(counters_.recoveries);
  w.u64(counters_.loss_bursts);
  w.u64(counters_.pressure_events);
  w.u64(counters_.pressure_evictions);
  // counters_.hangs is deliberately NOT serialized: attempts=-gated hang
  // events fire on early attempts only, so the count is attempt-dependent
  // and would break the resume byte-compare for state that does not
  // influence the simulation trajectory.
  w.size(bursts_.size());
  for (const LossBurst& b : bursts_) {
    w.f64(b.until);
    w.f64(b.prob);
  }
  rng_.save_state(w);
  w.end_section();
}

}  // namespace dftmsn
