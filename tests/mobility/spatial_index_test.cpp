// SpatialIndex equivalence suite: every grid-accelerated disc query must
// return exactly what the brute-force all-nodes scan returns — same nodes,
// same (ascending id) order — for every mobility kind and for adversarial
// geometries: nodes straddling cell borders, pairs at exactly the query
// range, positions clamped at field corners, ranges larger than the field
// and smaller than a cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "../testutil/trace_fixtures.hpp"
#include "experiment/world.hpp"
#include "geom/spatial_index.hpp"
#include "mobility/mobility_model.hpp"
#include "scenario/scenario.hpp"
#include "snapshot/checkpoint.hpp"

namespace dftmsn {
namespace {

// ---------------------------------------------------------------------------
// Direct SpatialIndex vs brute force over its own cached positions.

std::vector<NodeId> brute_disc(const std::vector<Vec2>& pos, const Vec2& c,
                               double range, NodeId exclude) {
  std::vector<NodeId> out;
  const double r2 = range * range;
  for (NodeId id = 0; id < pos.size(); ++id) {
    if (id == exclude) continue;
    if (distance2(c, pos[id]) <= r2) out.push_back(id);
  }
  return out;
}

void expect_equivalent(const SpatialIndex& idx, const std::vector<Vec2>& pos,
                       const Vec2& center, double range, NodeId exclude) {
  std::vector<NodeId> got;
  idx.collect_in_disc(center, range, exclude, got);
  const std::vector<NodeId> want = brute_disc(pos, center, range, exclude);
  ASSERT_EQ(got, want) << "center=(" << center.x << "," << center.y
                       << ") range=" << range << " exclude=" << exclude;
}

TEST(SpatialIndex, RandomFieldMatchesBruteForce) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.0, 150.0);
  SpatialIndex idx(150.0, 10.0);
  std::vector<Vec2> pos;
  for (NodeId id = 0; id < 200; ++id) {
    pos.push_back({u(rng), u(rng)});
    idx.insert(id, pos.back());
  }
  std::uniform_real_distribution<double> ur(0.0, 40.0);
  for (int trial = 0; trial < 300; ++trial) {
    const Vec2 c{u(rng), u(rng)};
    expect_equivalent(idx, pos, c, ur(rng), rng() % 2 ? NodeId(rng() % 200)
                                                     : kInvalidNode);
  }
}

TEST(SpatialIndex, UpdateMovesNodesAcrossCells) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  SpatialIndex idx(100.0, 10.0);
  std::vector<Vec2> pos;
  for (NodeId id = 0; id < 64; ++id) {
    pos.push_back({u(rng), u(rng)});
    idx.insert(id, pos.back());
  }
  for (int step = 0; step < 50; ++step) {
    for (NodeId id = 0; id < 64; ++id) {
      pos[id] = {u(rng), u(rng)};  // teleport: worst case for bucket moves
      idx.update(id, pos[id]);
    }
    for (int trial = 0; trial < 20; ++trial)
      expect_equivalent(idx, pos, {u(rng), u(rng)}, u(rng) * 0.3,
                        NodeId(rng() % 64));
  }
}

TEST(SpatialIndex, CellBorderStraddling) {
  // Nodes placed exactly on cell boundaries (multiples of the cell edge)
  // and epsilon either side of them; query centered on a grid corner.
  SpatialIndex idx(100.0, 10.0);
  std::vector<Vec2> pos;
  NodeId id = 0;
  const double eps = 1e-9;
  for (double x : {20.0 - eps, 20.0, 20.0 + eps}) {
    for (double y : {30.0 - eps, 30.0, 30.0 + eps}) {
      pos.push_back({x, y});
      idx.insert(id++, pos.back());
    }
  }
  for (double range : {eps / 2, eps, 1.0, 10.0, 9.999999999}) {
    expect_equivalent(idx, pos, {20.0, 30.0}, range, kInvalidNode);
    expect_equivalent(idx, pos, {20.0 - eps, 30.0 + eps}, range, 0);
  }
}

TEST(SpatialIndex, ExactlyAtRangeIsIncluded) {
  // 5.0 + 10.0 = 15.0 exactly in binary floating point, so the pair's
  // distance2 is exactly range^2 — the <= boundary itself.
  SpatialIndex idx(100.0, 10.0);
  idx.insert(0, {5.0, 50.0});
  idx.insert(1, {15.0, 50.0});   // exactly range away along x
  idx.insert(2, {5.0, 60.0});    // exactly range away along y
  idx.insert(3, {5.0, 60.0 + 1e-12});  // just beyond
  std::vector<NodeId> got;
  idx.collect_in_disc({5.0, 50.0}, 10.0, 0, got);
  EXPECT_EQ(got, (std::vector<NodeId>{1, 2}));
  const std::vector<Vec2> pos{{5.0, 50.0}, {15.0, 50.0}, {5.0, 60.0},
                              {5.0, 60.0 + 1e-12}};
  expect_equivalent(idx, pos, {5.0, 50.0}, 10.0, 0);
}

TEST(SpatialIndex, FieldCornersAndOutOfFieldQueries) {
  SpatialIndex idx(100.0, 10.0);
  const std::vector<Vec2> pos{{0.0, 0.0}, {100.0, 100.0}, {0.0, 100.0},
                              {100.0, 0.0}, {50.0, 50.0}};
  for (NodeId id = 0; id < pos.size(); ++id) idx.insert(id, pos[id]);
  // Query centers outside the field must clamp, not crash or miss.
  for (const Vec2& c : {Vec2{-5.0, -5.0}, Vec2{105.0, 105.0},
                        Vec2{-10.0, 50.0}, Vec2{50.0, 200.0}}) {
    for (double range : {1.0, 12.0, 80.0, 500.0})
      expect_equivalent(idx, pos, c, range, kInvalidNode);
  }
}

TEST(SpatialIndex, RangeLargerThanFieldCoversEveryone) {
  SpatialIndex idx(50.0, 10.0);
  std::vector<Vec2> pos;
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> u(0.0, 50.0);
  for (NodeId id = 0; id < 40; ++id) {
    pos.push_back({u(rng), u(rng)});
    idx.insert(id, pos.back());
  }
  std::vector<NodeId> got;
  idx.collect_in_disc({25.0, 25.0}, 1000.0, kInvalidNode, got);
  ASSERT_EQ(got.size(), 40u);
  for (NodeId id = 0; id < 40; ++id) EXPECT_EQ(got[id], id);
}

TEST(SpatialIndex, TinyRangeOnlyFindsCohabitants) {
  SpatialIndex idx(100.0, 10.0);
  idx.insert(0, {42.0, 42.0});
  idx.insert(1, {42.0, 42.0});  // same point
  idx.insert(2, {42.1, 42.0});
  std::vector<NodeId> got;
  idx.collect_in_disc({42.0, 42.0}, 0.0, 0, got);
  EXPECT_EQ(got, (std::vector<NodeId>{1}));
}

// ---------------------------------------------------------------------------
// MobilityManager: grid-accelerated queries vs the brute-force oracle for
// every mobility kind, sampled along a real World trajectory (sensors
// moving per model, static sinks included).

class SpatialIndexMobility : public ::testing::TestWithParam<MobilityKind> {};

TEST_P(SpatialIndexMobility, WorldQueriesMatchBruteForceOracle) {
  Config c;
  c.scenario.num_sensors = 40;
  c.scenario.num_sinks = 3;
  c.scenario.duration_s = 500.0;
  c.scenario.seed = 20240807;
  c.scenario.speed_min_mps = 0.5;  // waypoint rejects 0 (RWP stall)
  c.scenario.mobility = GetParam();
  if (GetParam() == MobilityKind::kTrace) {
    c.scenario.trace_path = testutil::write_test_trace(
        "spatial_index_test.tmp.trc", c.scenario.num_sensors,
        c.scenario.field_m, c.scenario.duration_s, c.scenario.seed);
  }
  World w(c, ProtocolKind::kOpt);
  const MobilityManager& mm = w.mobility();
  ASSERT_TRUE(mm.spatial_index_enabled());

  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> upos(0.0, c.scenario.field_m);
  for (const double t : {0.0, 3.7, 50.0, 211.9, 500.0}) {
    if (t > 0.0) w.run_until(t);
    for (NodeId id = 0; id < mm.node_count(); ++id) {
      for (const double range : {c.radio.range_m, 5.0, 75.0, 0.1}) {
        const auto got = mm.neighbors_of(id, range);
        const auto want = mm.neighbors_of_scan(id, range);
        ASSERT_EQ(got, want) << "kind=" << mobility_kind_name(GetParam())
                             << " t=" << t << " id=" << id
                             << " range=" << range;
      }
    }
    // Arbitrary-point queries (sink placement / diagnostics path).
    for (int trial = 0; trial < 25; ++trial) {
      const Vec2 p{upos(rng), upos(rng)};
      const double range = upos(rng) * 0.4;
      const auto got = mm.nodes_in_range(p, range);
      std::vector<NodeId> want;
      const double r2 = range * range;
      for (NodeId id = 0; id < mm.node_count(); ++id) {
        if (distance2(p, mm.position(id)) <= r2) want.push_back(id);
      }
      ASSERT_EQ(got, want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SpatialIndexMobility,
                         ::testing::Values(MobilityKind::kZone,
                                           MobilityKind::kWaypoint,
                                           MobilityKind::kPatrol,
                                           MobilityKind::kTrace),
                         [](const auto& info) {
                           return mobility_kind_name(info.param);
                         });

// ---------------------------------------------------------------------------
// Channel neighbour cache: the per-node lists the channel keeps between
// position changes, and the carrier-sense fast path answered from them,
// must equal the brute-force oracle after every mobility tick — also in a
// world rebuilt from a checkpoint by replay.

void expect_channel_cache_exact(const World& w, const std::string& where) {
  const MobilityManager& mm = w.mobility();
  const double range = w.config().radio.range_m;
  for (NodeId id = 0; id < mm.node_count(); ++id) {
    const std::vector<NodeId> want = mm.neighbors_of_scan(id, range);
    ASSERT_EQ(w.channel().anyone_in_range(id), !want.empty())
        << where << " id=" << id;
    ASSERT_EQ(w.channel().neighbors(id), want) << where << " id=" << id;
  }
}

/// Runs `c` tick by tick to its horizon, checkpointing halfway; the
/// resumed world is then checked from the cut to the horizon too.
void check_channel_cache_trajectory(const Config& c, const std::string& label) {
  const double step = c.scenario.mobility_step_s;
  const int ticks = static_cast<int>(c.scenario.duration_s / step);
  const int cut = ticks / 2;
  World w(c, ProtocolKind::kOpt);
  expect_channel_cache_exact(w, label + " t=0");
  std::vector<std::uint8_t> image;
  for (int k = 1; k <= ticks && !::testing::Test::HasFatalFailure(); ++k) {
    w.run_until(k * step);
    expect_channel_cache_exact(w, label + " tick " + std::to_string(k));
    if (k == cut) image = make_checkpoint(w);
  }
  ASSERT_FALSE(image.empty());
  const std::unique_ptr<World> resumed =
      resume_world(c, ProtocolKind::kOpt, image);
  expect_channel_cache_exact(*resumed, label + " resumed");
  for (int k = cut + 1; k <= ticks && !::testing::Test::HasFatalFailure();
       ++k) {
    resumed->run_until(k * step);
    expect_channel_cache_exact(*resumed,
                               label + " resumed tick " + std::to_string(k));
  }
}

class SpatialIndexChannelCache
    : public ::testing::TestWithParam<MobilityKind> {};

TEST_P(SpatialIndexChannelCache, ExactAfterEveryTickAndResume) {
  Config c;
  c.scenario.num_sensors = 40;
  c.scenario.num_sinks = 3;
  c.scenario.duration_s = 120.0;
  c.scenario.seed = 20261017;
  c.scenario.speed_min_mps = 0.5;
  c.scenario.mobility = GetParam();
  if (GetParam() == MobilityKind::kTrace) {
    c.scenario.trace_path = testutil::write_test_trace(
        "spatial_index_cache_test.tmp.trc", c.scenario.num_sensors,
        c.scenario.field_m, c.scenario.duration_s, c.scenario.seed);
  }
  check_channel_cache_trajectory(c, mobility_kind_name(GetParam()));
  if (!c.scenario.trace_path.empty()) std::remove(c.scenario.trace_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SpatialIndexChannelCache,
                         ::testing::Values(MobilityKind::kZone,
                                           MobilityKind::kWaypoint,
                                           MobilityKind::kPatrol,
                                           MobilityKind::kTrace),
                         [](const auto& info) {
                           return mobility_kind_name(info.param);
                         });

TEST(SpatialIndexChannelCacheScenario, ConvoyExactAfterEveryTickAndResume) {
  Config c = materialize_scenario("convoy", 45, ".");
  c.scenario.duration_s = 120.0;
  check_channel_cache_trajectory(c, "convoy");
  std::remove(c.scenario.trace_path.c_str());
}

}  // namespace
}  // namespace dftmsn
