#include "geom/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dftmsn {

SpatialIndex::SpatialIndex(double field_edge, double cell_edge) {
  if (field_edge <= 0)
    throw std::invalid_argument("SpatialIndex: field edge <= 0");
  if (cell_edge <= 0)
    throw std::invalid_argument("SpatialIndex: cell edge <= 0");
  per_side_ = std::clamp(
      static_cast<int>(std::ceil(field_edge / cell_edge)), 1, 1024);
  cell_edge_ = field_edge / per_side_;
  cells_.resize(static_cast<std::size_t>(per_side_) * per_side_);
}

int SpatialIndex::axis_cell(double v) const {
  const int i = static_cast<int>(std::floor(v / cell_edge_));
  return std::clamp(i, 0, per_side_ - 1);
}

std::int32_t SpatialIndex::cell_of(const Vec2& p) const {
  return axis_cell(p.y) * per_side_ + axis_cell(p.x);
}

void SpatialIndex::insert(NodeId id, const Vec2& p) {
  if (id != pos_.size())
    throw std::invalid_argument("SpatialIndex: nodes must insert in id order");
  const std::int32_t c = cell_of(p);
  pos_.push_back(p);
  cell_index_.push_back(c);
  cells_[static_cast<std::size_t>(c)].push_back(id);
}

void SpatialIndex::update(NodeId id, const Vec2& p) {
  pos_[id] = p;
  const std::int32_t c = cell_of(p);
  const std::int32_t old = cell_index_[id];
  if (c == old) return;
  auto& bucket = cells_[static_cast<std::size_t>(old)];
  bucket.erase(std::find(bucket.begin(), bucket.end(), id));
  cell_index_[id] = c;
  cells_[static_cast<std::size_t>(c)].push_back(id);
}

void SpatialIndex::collect_in_disc(const Vec2& center, double range,
                                   NodeId exclude,
                                   std::vector<NodeId>& out) const {
  const double r2 = range * range;
  const std::size_t first = out.size();
  const int x0 = axis_cell(center.x - range), x1 = axis_cell(center.x + range);
  const int y0 = axis_cell(center.y - range), y1 = axis_cell(center.y + range);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      for (const NodeId id : cells_[static_cast<std::size_t>(y) * per_side_ + x]) {
        if (id == exclude) continue;
        if (distance2(center, pos_[id]) <= r2) out.push_back(id);
      }
    }
  }
  // Brute force enumerates ascending ids; match it exactly.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

}  // namespace dftmsn
