#include "mobility/mobility_manager.hpp"

#include <stdexcept>

namespace dftmsn {

MobilityManager::MobilityManager(Simulator& sim, double step)
    : sim_(sim), step_(step) {
  if (step <= 0) throw std::invalid_argument("MobilityManager: step <= 0");
}

void MobilityManager::enable_spatial_index(double field_edge,
                                           double cell_edge) {
  if (!models_.empty())
    throw std::logic_error(
        "MobilityManager: enable_spatial_index before adding nodes");
  index_ = std::make_unique<SpatialIndex>(field_edge, cell_edge);
}

void MobilityManager::add_node(NodeId id, std::unique_ptr<MobilityModel> model) {
  if (id != models_.size())
    throw std::invalid_argument("MobilityManager: nodes must be added in id order");
  if (!model) throw std::invalid_argument("MobilityManager: null model");
  if (index_) index_->insert(id, model->position());
  models_.push_back(std::move(model));
  ++epoch_;
}

void MobilityManager::start() {
  if (started_) return;
  started_ = true;
  sim_.schedule_in(step_, [this] { tick(); });
}

void MobilityManager::refresh_index() {
  ++epoch_;
  if (!index_) return;
  for (NodeId id = 0; id < models_.size(); ++id)
    index_->update(id, models_[id]->position());
}

void MobilityManager::tick() {
  {
    telemetry::ScopedTimer timer(profiler_,
                                 telemetry::Subsystem::kMobilityUpdate);
    for (auto& m : models_) m->step(step_);
    refresh_index();
  }
  sim_.schedule_in(step_, [this] { tick(); });
}

Vec2 MobilityManager::position(NodeId id) const {
  return models_.at(id)->position();
}

std::vector<NodeId> MobilityManager::neighbors_of(NodeId id,
                                                  double range) const {
  std::vector<NodeId> out;
  neighbors_of(id, range, out);
  return out;
}

void MobilityManager::neighbors_of(NodeId id, double range,
                                   std::vector<NodeId>& out) const {
  out.clear();
  if (index_) {
    index_->collect_in_disc(index_->position(id), range, id, out);
    return;
  }
  const Vec2 p = position(id);
  const double r2 = range * range;
  for (NodeId other = 0; other < models_.size(); ++other) {
    if (other == id) continue;
    if (distance2(p, models_[other]->position()) <= r2) out.push_back(other);
  }
}

std::vector<NodeId> MobilityManager::neighbors_of_scan(NodeId id,
                                                       double range) const {
  const Vec2 p = position(id);
  const double r2 = range * range;
  std::vector<NodeId> out;
  for (NodeId other = 0; other < models_.size(); ++other) {
    if (other == id) continue;
    if (distance2(p, models_[other]->position()) <= r2) out.push_back(other);
  }
  return out;
}

std::vector<NodeId> MobilityManager::nodes_in_range(const Vec2& p,
                                                    double range) const {
  std::vector<NodeId> out;
  if (index_) {
    index_->collect_in_disc(p, range, kInvalidNode, out);
    return out;
  }
  const double r2 = range * range;
  for (NodeId id = 0; id < models_.size(); ++id) {
    if (distance2(p, models_[id]->position()) <= r2) out.push_back(id);
  }
  return out;
}

double MobilityManager::distance_between(NodeId a, NodeId b) const {
  return distance(position(a), position(b));
}

void MobilityManager::save_state(snapshot::Writer& w) const {
  w.begin_section("mobility");
  w.boolean(started_);
  w.size(models_.size());
  for (const auto& m : models_) m->save_state(w);
  w.end_section();
}

void MobilityManager::load_state(snapshot::Reader& r) {
  r.begin_section("mobility");
  started_ = r.boolean();
  const std::size_t n = r.size();
  if (n != models_.size())
    throw snapshot::SnapshotError("mobility: node population mismatch");
  for (const auto& m : models_) m->load_state(r);
  // The index caches positions; re-sync it with the restored kinematics.
  refresh_index();
  r.end_section();
}

}  // namespace dftmsn
