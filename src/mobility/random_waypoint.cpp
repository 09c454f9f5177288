#include "mobility/random_waypoint.hpp"

#include <algorithm>
#include <utility>

namespace dftmsn {

RandomWaypoint::RandomWaypoint(const ZoneGrid& grid, Params params, Vec2 start,
                               RandomStream rng)
    : grid_(grid),
      params_(params),
      rng_(std::move(rng)),
      position_(grid.clamp_to_field(start)) {
  pick_waypoint();
}

void RandomWaypoint::pick_waypoint() {
  waypoint_ = {rng_.uniform(0.0, grid_.field_edge()),
               rng_.uniform(0.0, grid_.field_edge())};
  speed_ = rng_.uniform(params_.speed_min, params_.speed_max);
  pause_remaining_s_ =
      params_.pause_max_s > 0 ? rng_.uniform(0.0, params_.pause_max_s) : 0.0;
}

void RandomWaypoint::step(double dt) {
  double budget = dt;
  while (budget > 0.0) {
    const Vec2 to_go = waypoint_ - position_;
    const double dist = to_go.norm();
    if (dist < 1e-9 || speed_ <= 0.0) {
      // At the waypoint: spend pause time, then pick the next one.
      if (pause_remaining_s_ > budget) {
        pause_remaining_s_ -= budget;
        return;
      }
      budget -= pause_remaining_s_;
      pick_waypoint();
      continue;
    }
    const double travel_time = dist / speed_;
    const double used = std::min(budget, travel_time);
    position_ += to_go.normalized() * (speed_ * used);
    budget -= used;
    if (used == travel_time) position_ = waypoint_;
  }
}

void RandomWaypoint::save_state(snapshot::Writer& w) const {
  w.begin_section("random_waypoint");
  snapshot::save(w, position_);
  snapshot::save(w, waypoint_);
  w.f64(speed_);
  w.f64(pause_remaining_s_);
  rng_.save_state(w);
  w.end_section();
}

void RandomWaypoint::load_state(snapshot::Reader& r) {
  r.begin_section("random_waypoint");
  snapshot::load(r, position_);
  snapshot::load(r, waypoint_);
  speed_ = r.f64();
  pause_remaining_s_ = r.f64();
  rng_.load_state(r);
  r.end_section();
}

}  // namespace dftmsn
