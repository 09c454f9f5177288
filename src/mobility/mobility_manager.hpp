// Owns every node's mobility model, advances them on a fixed simulator
// tick, and answers position / neighbourhood queries for the channel —
// through a zone-grid spatial index when one is enabled, so hot queries
// scan neighboring cells instead of all n nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "geom/spatial_index.hpp"
#include "mobility/mobility_model.hpp"
#include "sim/simulator.hpp"
#include "telemetry/profiler.hpp"

namespace dftmsn {

class MobilityManager {
 public:
  /// `step` is the mobility tick in seconds.
  MobilityManager(Simulator& sim, double step);

  /// Switches neighbourhood queries to a uniform-grid spatial index with
  /// `cell_edge`-sized cells (typically the radio range). Must be called
  /// before the first add_node. Queries answer bit-identically to the
  /// brute-force scan (test-enforced; see neighbors_of_scan) — only
  /// their cost changes.
  void enable_spatial_index(double field_edge, double cell_edge);
  [[nodiscard]] bool spatial_index_enabled() const { return index_ != nullptr; }

  /// Registers a node's model; node ids must be added in order 0,1,2,...
  /// (they index the internal table).
  void add_node(NodeId id, std::unique_ptr<MobilityModel> model);

  /// Starts the periodic tick. Call once after all nodes are added.
  void start();

  [[nodiscard]] std::size_t node_count() const { return models_.size(); }

  [[nodiscard]] Vec2 position(NodeId id) const;

  /// Read-only access to a node's model (diagnostics / tests).
  [[nodiscard]] const MobilityModel& model(NodeId id) const {
    return *models_.at(id);
  }

  /// All nodes (other than `id`) within `range` metres of node `id`,
  /// ascending by id.
  [[nodiscard]] std::vector<NodeId> neighbors_of(NodeId id,
                                                 double range) const;

  /// Allocation-free variant for hot paths: replaces `out`'s contents.
  void neighbors_of(NodeId id, double range, std::vector<NodeId>& out) const;

  /// Brute-force all-nodes reference scan — the oracle the spatial index
  /// is property-tested against. Diagnostic/test use only (O(n)).
  [[nodiscard]] std::vector<NodeId> neighbors_of_scan(NodeId id,
                                                      double range) const;

  /// All nodes within `range` of an arbitrary point.
  [[nodiscard]] std::vector<NodeId> nodes_in_range(const Vec2& p,
                                                   double range) const;

  /// Distance between two registered nodes.
  [[nodiscard]] double distance_between(NodeId a, NodeId b) const;

  /// Changes whenever a node position may have changed: a node was added,
  /// the tick moved the nodes, or a snapshot was restored. Positions hold
  /// still between two changes, so anything derived from them (e.g. the
  /// channel's per-node neighbour lists) stays exact until then.
  [[nodiscard]] std::uint64_t positions_epoch() const { return epoch_; }

  /// Wall-clock profiler for the periodic tick (telemetry; nullptr =
  /// disabled, never perturbs the simulation).
  void set_profiler(telemetry::Profiler* profiler) { profiler_ = profiler; }

  /// Snapshot: the started flag plus every model's kinematic state, in id
  /// order. load_state requires the same population to be registered
  /// already (the periodic tick event itself is restored by replay).
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  void tick();
  /// Re-syncs the index with the models and bumps the positions epoch.
  void refresh_index();

  Simulator& sim_;
  double step_;
  bool started_ = false;
  std::uint64_t epoch_ = 0;
  std::vector<std::unique_ptr<MobilityModel>> models_;
  std::unique_ptr<SpatialIndex> index_;  ///< null = brute-force queries
  telemetry::Profiler* profiler_ = nullptr;
};

}  // namespace dftmsn
