#include "mobility/zone_mobility.hpp"

#include <cmath>
#include <numbers>
#include <utility>

namespace dftmsn {

ZoneMobility::ZoneMobility(const ZoneGrid& grid, Params params, Vec2 start,
                           RandomStream rng)
    : grid_(grid),
      params_(params),
      rng_(std::move(rng)),
      position_(grid.clamp_to_field(start)),
      speed_(rng_.uniform(params.speed_min, params.speed_max)),
      home_zone_(grid.zone_of(position_)),
      current_zone_(home_zone_) {
  repick_velocity();
}

void ZoneMobility::repick_velocity() {
  const double angle = rng_.uniform(0.0, 2.0 * std::numbers::pi);
  velocity_ = unit_from_angle(angle) * speed_;
  leg_remaining_s_ = rng_.exponential(params_.leg_mean_s);
}

void ZoneMobility::turn_into_current_zone() {
  // Aim at a random point strictly inside the current zone; this guarantees
  // the bounce direction re-enters the zone regardless of which edge (or
  // corner) was hit.
  const auto b = grid_.zone_bounds(current_zone_);
  const double margin_x = 0.25 * (b.max.x - b.min.x);
  const double margin_y = 0.25 * (b.max.y - b.min.y);
  const Vec2 target{rng_.uniform(b.min.x + margin_x, b.max.x - margin_x),
                    rng_.uniform(b.min.y + margin_y, b.max.y - margin_y)};
  velocity_ = (target - position_).normalized() * speed_;
  leg_remaining_s_ = rng_.exponential(params_.leg_mean_s);
}

void ZoneMobility::step(double dt) {
  leg_remaining_s_ -= dt;
  if (leg_remaining_s_ <= 0.0) repick_velocity();

  Vec2 next = position_ + velocity_ * dt;

  // Field boundary: clamp and turn back inside.
  const bool left_field = next.x < 0.0 || next.x > grid_.field_edge() ||
                          next.y < 0.0 || next.y > grid_.field_edge();
  next = grid_.clamp_to_field(next);

  const ZoneId next_zone = grid_.zone_of(next);
  if (next_zone != current_zone_) {
    const double cross_prob = (next_zone == home_zone_)
                                  ? params_.home_return_prob
                                  : params_.exit_prob;
    if (rng_.bernoulli(cross_prob)) {
      current_zone_ = next_zone;
      position_ = next;
    } else {
      // Bounce: stay put this step and head back into the zone interior.
      turn_into_current_zone();
    }
    return;
  }

  position_ = next;
  if (left_field) turn_into_current_zone();
}

void ZoneMobility::save_state(snapshot::Writer& w) const {
  w.begin_section("zone_mobility");
  snapshot::save(w, position_);
  w.f64(speed_);
  snapshot::save(w, velocity_);
  w.i64(home_zone_);
  w.i64(current_zone_);
  w.f64(leg_remaining_s_);
  rng_.save_state(w);
  w.end_section();
}

void ZoneMobility::load_state(snapshot::Reader& r) {
  r.begin_section("zone_mobility");
  snapshot::load(r, position_);
  speed_ = r.f64();
  snapshot::load(r, velocity_);
  home_zone_ = static_cast<ZoneId>(r.i64());
  current_zone_ = static_cast<ZoneId>(r.i64());
  leg_remaining_s_ = r.f64();
  rng_.load_state(r);
  r.end_section();
}

}  // namespace dftmsn
