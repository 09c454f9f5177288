#include "core/listen_window_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace dftmsn {

namespace {

/// Per-contender state of one Eq. 10-12 evaluation.
struct Contender {
  int sigma = 0;   ///< σ_j of Eq. (9)
  double r = 0.0;  ///< θ_j/σ_j at the current τ, θ_j = max(σ_j − τ, 0)
  double p = 0.0;  ///< P_j of Eq. (10), accumulated in ascending τ
};

/// Fills every c[i].p with P_i of Eq. (10) at `tau_max`.
///
/// Bit-identical to evaluating each P_i on its own (the differential
/// suite's oracle): every product Π_{j≠i} θ_ij/σ_j is still formed left to
/// right over j and every P_i is still summed in ascending τ. Three things
/// make it cheap. σ_j is quantized once per call instead of once per term.
/// The left prefix Π_{j<i} at a given τ is shared by all i. And each P_i
/// stops at τ = min(σ_i, min_{j≠i} σ_j − 1), since every later term has a
/// θ_ij = 0 factor and adds exactly 0.0.
void grasp_probabilities(std::span<const double> xis, int tau_max,
                         std::vector<Contender>& c) {
  const std::size_t m = xis.size();
  c.assign(m, Contender{});
  if (m == 0) return;
  // Smallest and second-smallest σ, counted with multiplicity.
  int lo1 = std::numeric_limits<int>::max();
  int lo2 = lo1;
  for (std::size_t j = 0; j < m; ++j) {
    const int s = ListenWindowOptimizer::sigma(xis[j], tau_max);
    c[j].sigma = s;
    if (s < lo1) {
      lo2 = lo1;
      lo1 = s;
    } else if (s < lo2) {
      lo2 = s;
    }
  }
  for (int tau = 1; tau <= lo1; ++tau) {
    for (Contender& cj : c) {
      const double theta = cj.sigma > tau ? cj.sigma - tau : 0.0;
      cj.r = theta / cj.sigma;
    }
    double left = 1.0;  // Π_{j<i} r_j
    for (std::size_t i = 0; i < m; ++i) {
      // τ <= lo1 <= σ_i, so only the other contenders bound the range.
      const int others_min = c[i].sigma == lo1 ? lo2 : lo1;
      if (tau < others_min) {
        // Every other contender picks a strictly later slot (Eq. 11).
        double others_larger = left;
        for (std::size_t j = i + 1; j < m; ++j) others_larger *= c[j].r;
        c[i].p += others_larger / c[i].sigma;
      }
      left *= c[i].r;
    }
  }
}

double collision_from(std::span<const double> xis, int tau_max,
                      std::vector<Contender>& c) {
  if (xis.size() < 2) return 0.0;
  grasp_probabilities(xis, tau_max, c);
  double sum = 0.0;
  for (const Contender& ci : c) sum += ci.p;
  return std::clamp(1.0 - sum, 0.0, 1.0);
}

}  // namespace

int ListenWindowOptimizer::sigma(double xi, int tau_max) {
  const double clamped_xi = std::clamp(xi, kXiFloor, 1.0);
  const int s = static_cast<int>(std::lround(clamped_xi * tau_max));
  return std::max(1, s);
}

double ListenWindowOptimizer::grasp_probability(std::span<const double> xis,
                                                std::size_t i, int tau_max) {
  std::vector<Contender> c;
  grasp_probabilities(xis, tau_max, c);
  return c[i].p;
}

double ListenWindowOptimizer::collision_probability(
    std::span<const double> xis, int tau_max) {
  std::vector<Contender> c;
  return collision_from(xis, tau_max, c);
}

int ListenWindowOptimizer::min_tau_max(std::span<const double> xis,
                                       double target, int cap) {
  if (xis.size() < 2) return 1;
  std::vector<Contender> c;  // reused by every evaluation below
  const auto gamma = [&](int tau_max) {
    return collision_from(xis, tau_max, c);
  };
  // γ decreases (essentially monotonically) in τ_max: gallop to bracket
  // the answer, then binary-search. O(log cap) evaluations instead of cap.
  if (gamma(1) <= target) return 1;
  int lo = 1;  // γ(lo) > target throughout
  int hi = std::min(cap, 2);
  while (hi > lo && gamma(hi) > target) {
    lo = hi;
    hi = std::min(cap, hi * 2);
  }
  if (hi <= lo) return cap;  // γ(cap) > target: unattainable
  while (lo + 1 < hi) {
    const int mid = (lo + hi) / 2;
    if (gamma(mid) <= target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace dftmsn
