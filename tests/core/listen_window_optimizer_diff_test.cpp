// Differential suite: the Eq. 10-13 solver vs its historical reference.
//
// The reference below is a verbatim copy of the solver before it shared
// σ_j and prefix products across contenders (one sigma() call per term,
// every τ loop run to σ_i). The current solver must reproduce it bit for
// bit: every P_i, every γ and every min_tau_max answer, over seeded
// populations that mix ξ = 0, ξ below the 0.1 floor, ξ exactly at the
// floor, duplicates, ξ = 1 and uniform draws. Values are compared by bit
// pattern, not within a tolerance: the MAC feeds γ into a bisection whose
// decisions pick the simulated τ_max, so a last-ulp difference could move
// a trajectory.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "core/listen_window_optimizer.hpp"

namespace dftmsn {
namespace {

using LWO = ListenWindowOptimizer;

// ---------------------------------------------------------------------------
// Reference model: the pre-sharing solver, verbatim.

struct Reference {
  static double grasp_probability(std::span<const double> xis, std::size_t i,
                                  int tau_max) {
    const int sigma_i = LWO::sigma(xis[i], tau_max);
    double p = 0.0;
    for (int tau = 1; tau <= sigma_i; ++tau) {
      double others_larger = 1.0;
      for (std::size_t j = 0; j < xis.size(); ++j) {
        if (j == i) continue;
        const int sigma_j = LWO::sigma(xis[j], tau_max);
        const double theta = sigma_j > tau ? sigma_j - tau : 0.0;
        others_larger *= theta / sigma_j;
        if (others_larger == 0.0) break;
      }
      p += others_larger / sigma_i;
    }
    return p;
  }

  static double collision_probability(std::span<const double> xis,
                                      int tau_max) {
    if (xis.size() < 2) return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < xis.size(); ++i)
      sum += grasp_probability(xis, i, tau_max);
    return std::clamp(1.0 - sum, 0.0, 1.0);
  }

  static int min_tau_max(std::span<const double> xis, double target, int cap) {
    if (xis.size() < 2) return 1;
    if (collision_probability(xis, 1) <= target) return 1;
    int lo = 1, hi = 2;
    while (hi < cap && collision_probability(xis, hi) > target) {
      lo = hi;
      hi = std::min(cap, hi * 2);
    }
    if (collision_probability(xis, hi) > target) return cap;
    while (lo + 1 < hi) {
      const int mid = (lo + hi) / 2;
      if (collision_probability(xis, mid) <= target) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    return hi;
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One ξ drawn from a mix of the solver's edge classes.
double draw_xi(std::mt19937_64& rng, const std::vector<double>& so_far) {
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  switch (std::uniform_int_distribution<int>(0, 6)(rng)) {
    case 0: return 0.0;
    case 1: return u01(rng) * LWO::kXiFloor;  // below the floor
    case 2: return LWO::kXiFloor;
    case 3: return 1.0;
    case 4:  // duplicate of an earlier contender
      if (!so_far.empty()) {
        return so_far[std::uniform_int_distribution<std::size_t>(
            0, so_far.size() - 1)(rng)];
      }
      return u01(rng);
    default: return u01(rng);
  }
}

std::vector<double> draw_population(std::mt19937_64& rng, int m) {
  std::vector<double> xis;
  for (int i = 0; i < m; ++i) xis.push_back(draw_xi(rng, xis));
  return xis;
}

void expect_same_at(std::span<const double> xis, int tau_max) {
  ASSERT_EQ(bits(LWO::collision_probability(xis, tau_max)),
            bits(Reference::collision_probability(xis, tau_max)))
      << "m=" << xis.size() << " tau_max=" << tau_max;
  for (std::size_t i = 0; i < xis.size(); ++i) {
    ASSERT_EQ(bits(LWO::grasp_probability(xis, i, tau_max)),
              bits(Reference::grasp_probability(xis, i, tau_max)))
        << "m=" << xis.size() << " i=" << i << " tau_max=" << tau_max;
  }
}

class ListenWindowDiff : public ::testing::TestWithParam<int> {};

TEST_P(ListenWindowDiff, GraspAndCollisionBitIdentical) {
  const int m = GetParam();
  std::mt19937_64 rng(0x5eed0000u + static_cast<unsigned>(m));
  for (int trial = 0; trial < 16; ++trial) {
    const std::vector<double> xis = draw_population(rng, m);
    for (int tau_max = 1; tau_max <= 256; ++tau_max) expect_same_at(xis, tau_max);
  }
}

TEST_P(ListenWindowDiff, MinTauMaxAgrees) {
  const int m = GetParam();
  std::mt19937_64 rng(0xca9u * 1000u + static_cast<unsigned>(m));
  std::uniform_real_distribution<double> utarget(0.01, 0.5);
  std::uniform_int_distribution<int> ucap(2, 256);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<double> xis = draw_population(rng, m);
    for (int k = 0; k < 6; ++k) {
      const double target = utarget(rng);
      // Cap 1 is excluded: the reference could return 2 there (fixed bug,
      // see ListenWindow.MinTauMaxNeverExceedsCap).
      for (const int cap : {2, 3, ucap(rng), 256}) {
        ASSERT_EQ(LWO::min_tau_max(xis, target, cap),
                  Reference::min_tau_max(xis, target, cap))
            << "m=" << m << " target=" << target << " cap=" << cap;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Contenders, ListenWindowDiff, ::testing::Range(1, 13));

TEST(ListenWindowDiffEdges, HandPickedPopulations) {
  const std::vector<std::vector<double>> cases{
      {0.0, 0.0},
      {0.1, 0.1, 0.1},
      {1.0, 1.0},
      {0.05, 0.1, 0.0999999},
      {1.0, 0.1},
      {0.2, 0.2, 0.2, 0.9, 0.9},
      {0.0, 1.0, 0.5, 0.25, 0.125, 0.0625},
  };
  for (const auto& xis : cases) {
    for (int tau_max = 1; tau_max <= 256; ++tau_max) expect_same_at(xis, tau_max);
    for (const double target : {0.01, 0.1, 0.25, 0.5}) {
      for (const int cap : {2, 8, 128, 256}) {
        ASSERT_EQ(LWO::min_tau_max(xis, target, cap),
                  Reference::min_tau_max(xis, target, cap));
      }
    }
  }
}

}  // namespace
}  // namespace dftmsn
