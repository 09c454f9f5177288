// Cross-scenario conformance suite (ctest label tier1-scenario): golden
// Summary pins per scenario under OPT and ZBR at seed 42, jobs-1-vs-4
// bitwise equality over a mixed-scenario spec list, and checkpoint
// round-trip byte-identity under trace-driven mobility — so the scenario
// library locks protocol behaviour down across qualitatively different
// worlds, not just the paper's field.
//
// Regenerating the pins after an intentional behaviour change:
//   DFTMSN_PRINT_GOLDENS=1 ./tests/test_scenario
//       --gtest_filter='*GoldenSummaryPins*'   (one command line)
// and paste the printed kGoldens table over the one below.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/world.hpp"
#include "scenario/scenario.hpp"
#include "snapshot/checkpoint.hpp"

namespace dftmsn {
namespace {

constexpr std::uint64_t kGoldenSeed = 42;
constexpr double kRelTol = 1e-12;

struct GoldenRow {
  const char* scenario;
  ProtocolKind kind;
  double delivery_ratio;
  double mean_delay_s;
  double mean_power_mw;
  std::uint64_t generated;
  std::uint64_t delivered;
  std::uint64_t collisions;
  std::uint64_t data_transmissions;
  std::uint64_t events_executed;
};

// Recorded with DFTMSN_PRINT_GOLDENS=1 (see header comment).
constexpr GoldenRow kGoldens[] = {
    {"dense-urban", ProtocolKind::kOpt, 0.74261922785768353, 343.55283013828426, 1.4175189338463596, 2642, 1962, 2047, 13408, 595093},
    {"dense-urban", ProtocolKind::kZbr, 0.7278576835730507, 345.02414422467126, 1.3260184849501608, 2642, 1923, 2218, 12108, 627863},
    {"sparse-rural", ProtocolKind::kOpt, 0.16510318949343339, 837.03332344080093, 0.88504229454434746, 533, 88, 2, 194, 54053},
    {"sparse-rural", ProtocolKind::kZbr, 0.13133208255159476, 690.78145044675853, 0.86724860356611244, 533, 70, 2, 117, 52443},
    {"convoy", ProtocolKind::kOpt, 0.03826086956521739, 773.38101296667821, 0.77897630177056021, 575, 22, 9, 100, 48716},
    {"convoy", ProtocolKind::kZbr, 0.043478260869565216, 891.13070634158964, 0.78445596385766159, 575, 25, 25, 175, 52070},
    {"mass-event", ProtocolKind::kOpt, 0.30959125859975717, 260.64308688111277, 5.5947151971875595, 2471, 765, 147040, 16915, 1221510},
    {"mass-event", ProtocolKind::kZbr, 0.15216511533791988, 378.09593074821163, 3.5029725600742214, 2471, 376, 85080, 5290, 817070},
};

void expect_rel(double actual, double golden, const std::string& what) {
  const double tol = std::abs(golden) * kRelTol;
  EXPECT_NEAR(actual, golden, tol) << what;
}

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void expect_bitwise_equal(const RunResult& a, const RunResult& b,
                          const std::string& label) {
  EXPECT_EQ(bits(a.delivery_ratio), bits(b.delivery_ratio)) << label;
  EXPECT_EQ(bits(a.mean_power_mw), bits(b.mean_power_mw)) << label;
  EXPECT_EQ(bits(a.mean_delay_s), bits(b.mean_delay_s)) << label;
  EXPECT_EQ(bits(a.mean_hops), bits(b.mean_hops)) << label;
  EXPECT_EQ(a.generated, b.generated) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.collisions, b.collisions) << label;
  EXPECT_EQ(a.attempts, b.attempts) << label;
  EXPECT_EQ(a.data_transmissions, b.data_transmissions) << label;
  EXPECT_EQ(a.drops_overflow, b.drops_overflow) << label;
  EXPECT_EQ(a.events_executed, b.events_executed) << label;
}

TEST(ScenarioConformance, GoldenSummaryPins) {
  const bool print = std::getenv("DFTMSN_PRINT_GOLDENS") != nullptr;
  for (const GoldenRow& g : kGoldens) {
    Config cfg = materialize_scenario(g.scenario, kGoldenSeed, ".");
    const RunResult r = run_once(cfg, g.kind);
    std::remove(cfg.scenario.trace_path.c_str());
    const std::string label =
        std::string(g.scenario) + "/" + protocol_kind_name(g.kind);
    if (print) {
      std::printf(
          "    {\"%s\", ProtocolKind::%s, %.17g, %.17g, %.17g, %llu, %llu, "
          "%llu, %llu, %llu},\n",
          g.scenario,
          g.kind == ProtocolKind::kOpt ? "kOpt" : "kZbr", r.delivery_ratio,
          r.mean_delay_s, r.mean_power_mw,
          static_cast<unsigned long long>(r.generated),
          static_cast<unsigned long long>(r.delivered),
          static_cast<unsigned long long>(r.collisions),
          static_cast<unsigned long long>(r.data_transmissions),
          static_cast<unsigned long long>(r.events_executed));
      continue;
    }
    expect_rel(r.delivery_ratio, g.delivery_ratio, label + " delivery_ratio");
    expect_rel(r.mean_delay_s, g.mean_delay_s, label + " mean_delay_s");
    expect_rel(r.mean_power_mw, g.mean_power_mw, label + " mean_power_mw");
    EXPECT_EQ(r.generated, g.generated) << label;
    EXPECT_EQ(r.delivered, g.delivered) << label;
    EXPECT_EQ(r.collisions, g.collisions) << label;
    EXPECT_EQ(r.data_transmissions, g.data_transmissions) << label;
    EXPECT_EQ(r.events_executed, g.events_executed) << label;
  }
}

TEST(ScenarioConformance, MixedScenarioBatchIsJobsInvariant) {
  // One spec per scenario, alternating protocols, durations trimmed: the
  // batch must reduce bit-identically whether run serially or on 4
  // threads (runner.hpp determinism contract, now across trace worlds).
  // Seed differs from the golden pins' so concurrently scheduled ctest
  // entries from this binary never remove each other's trace files.
  std::vector<RunSpec> specs;
  int i = 0;
  for (const std::string& name : scenario_names()) {
    RunSpec spec;
    spec.config = materialize_scenario(name, 43, ".");
    spec.config.scenario.duration_s =
        std::min(spec.config.scenario.duration_s, 500.0);
    spec.kind = (i++ % 2 == 0) ? ProtocolKind::kOpt : ProtocolKind::kZbr;
    specs.push_back(std::move(spec));
  }
  const std::vector<RunResult> serial = run_specs(specs, 1);
  const std::vector<RunResult> parallel = run_specs(specs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    expect_bitwise_equal(serial[s], parallel[s],
                         specs[s].config.scenario.trace_path + " jobs 1 vs 4");
    std::remove(specs[s].config.scenario.trace_path.c_str());
  }
}

TEST(ScenarioConformance, TraceCheckpointRoundTripIsByteIdentical) {
  // Snapshot a trace-driven scenario mid-flight; the resumed world must
  // replay onto the recorded bytes (resume_world verifies) and finish
  // with a bit-identical Summary.
  Config cfg = materialize_scenario("convoy", 44, ".");
  cfg.scenario.duration_s = 600.0;
  World reference(cfg, ProtocolKind::kOpt);
  reference.run_until(300.0);
  const std::vector<std::uint8_t> image = make_checkpoint(reference);
  reference.run();

  std::unique_ptr<World> resumed =
      resume_world(cfg, ProtocolKind::kOpt, image);
  resumed->run();
  expect_bitwise_equal(reduce_world(reference), reduce_world(*resumed),
                       "convoy checkpoint");
  std::remove(cfg.scenario.trace_path.c_str());
}

TEST(ScenarioConformance, StaleCheckpointFormatIsRejected) {
  // A checkpoint stamped with an older format version must be refused
  // with the one-line version message — never half-parsed. The digest is
  // recomputed after the patch so only the version check can fire.
  Config cfg = materialize_scenario("convoy", 45, ".");
  cfg.scenario.duration_s = 200.0;
  World world(cfg, ProtocolKind::kOpt);
  world.run_until(100.0);
  std::vector<std::uint8_t> image = make_checkpoint(world);
  std::remove(cfg.scenario.trace_path.c_str());

  image[8] = 3;  // u32 version little-endian, directly after the magic
  snapshot::StateHash h;
  h.update(image.data(), image.size() - 8);
  for (int i = 0; i < 8; ++i)
    image[image.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(h.value() >> (8 * i));
  try {
    read_checkpoint_meta(image, nullptr);
    FAIL() << "expected stale-version rejection";
  } catch (const snapshot::SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported format version 3"), std::string::npos)
        << what;
    EXPECT_NE(what.find("this build reads version 4"), std::string::npos)
        << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << "one-line error: " << what;
  }
}

}  // namespace
}  // namespace dftmsn
