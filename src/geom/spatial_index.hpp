// Uniform-grid spatial index over node positions: disc queries touch only
// the cells overlapping the disc instead of every node (RTXP's "hot
// operations stay in the neighborhood" rule applied to the channel).
//
// Equivalence contract (test-enforced): for any field state, a disc query
// returns exactly the brute-force all-nodes scan result. That holds
// bitwise because (a) cached positions are copies of the doubles the
// models report, (b) membership uses the identical expression
// distance2(center, pos) <= range * range, and (c) cell coverage is
// conservative: clamping is monotone, so a node within `range` of the
// center always lies in a covered cell, including nodes straddling cell
// borders and pairs at exactly `range`.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "geom/vec2.hpp"

namespace dftmsn {

class SpatialIndex {
 public:
  /// Cells are `cell_edge`-sized (clamped so the per-axis cell count
  /// stays in [1, 1024]) over a `field_edge` square. Positions slightly
  /// outside the field clamp into the border cells.
  SpatialIndex(double field_edge, double cell_edge);

  /// Registers node `id` at `p`. Ids must be added in order 0,1,2,...
  void insert(NodeId id, const Vec2& p);

  /// Moves node `id` to `p` (no-op bucket-wise if the cell is unchanged).
  void update(NodeId id, const Vec2& p);

  [[nodiscard]] std::size_t node_count() const { return pos_.size(); }
  [[nodiscard]] const Vec2& position(NodeId id) const { return pos_[id]; }
  [[nodiscard]] int cells_per_side() const { return per_side_; }

  /// Appends every node (other than `exclude`; pass kInvalidNode to keep
  /// all) with distance2(center, pos) <= range^2 to `out`, in ascending
  /// id order.
  void collect_in_disc(const Vec2& center, double range, NodeId exclude,
                       std::vector<NodeId>& out) const;

 private:
  [[nodiscard]] int axis_cell(double v) const;
  [[nodiscard]] std::int32_t cell_of(const Vec2& p) const;

  double cell_edge_;
  int per_side_;
  std::vector<std::vector<NodeId>> cells_;  ///< row-major cell buckets
  std::vector<std::int32_t> cell_index_;    ///< node id -> cell
  std::vector<Vec2> pos_;                   ///< node id -> cached position
};

}  // namespace dftmsn
