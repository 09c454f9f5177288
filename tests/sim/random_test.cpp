#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

namespace dftmsn {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

std::vector<std::uint8_t> saved(const RandomStream& rs) {
  snapshot::Writer w;
  rs.save_state(w);
  return w.bytes();
}

void load(RandomStream& rs, std::vector<std::uint8_t> bytes) {
  snapshot::Reader r(std::move(bytes));
  rs.load_state(r);
  EXPECT_TRUE(r.at_end());
}

TEST(RandomStream, Uniform01InRange) {
  RandomStream rs(42);
  for (int i = 0; i < 1000; ++i) {
    const double v = rs.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RandomStream, UniformRespectsBounds) {
  RandomStream rs(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rs.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RandomStream, UniformDegenerateIntervalReturnsBound) {
  RandomStream rs(7);
  EXPECT_DOUBLE_EQ(rs.uniform(1.5, 1.5), 1.5);
}

TEST(RandomStream, UniformIntInclusive) {
  RandomStream rs(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rs.uniform_int(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= v == 1;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomStream, ExponentialMeanRoughlyCorrect) {
  RandomStream rs(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rs.exponential(120.0);
  const double mean = sum / n;
  EXPECT_NEAR(mean, 120.0, 5.0);
}

TEST(RandomStream, BernoulliExtremes) {
  RandomStream rs(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rs.bernoulli(0.0));
    EXPECT_TRUE(rs.bernoulli(1.0));
  }
}

TEST(RandomStream, InvalidArgumentsThrow) {
  RandomStream rs(1);
  EXPECT_THROW(rs.uniform(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rs.uniform_int(4, 1), std::invalid_argument);
  EXPECT_THROW(rs.exponential(0.0), std::invalid_argument);
}

TEST(RandomStreamState, RestoredStreamContinuesBitForBit) {
  for (const int k : {0, 1, 37, 5000}) {
    RandomStream original(2026);
    // uniform_int may reject and redraw, so k calls can take more than k
    // engine words: the saved count must follow the engine, not the calls.
    for (int i = 0; i < k; ++i) (void)original.uniform_int(0, 6);
    RandomStream restored(99);  // another seed: load must replace it
    load(restored, saved(original));
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(bits(original.uniform01()), bits(restored.uniform01()))
          << "k=" << k << " i=" << i;
      ASSERT_EQ(bits(original.uniform(-3.0, 8.5)),
                bits(restored.uniform(-3.0, 8.5)));
      ASSERT_EQ(original.uniform_int(-5, 1000), restored.uniform_int(-5, 1000));
      ASSERT_EQ(bits(original.exponential(120.0)),
                bits(restored.exponential(120.0)));
      ASSERT_EQ(original.bernoulli(0.3), restored.bernoulli(0.3));
    }
  }
}

TEST(RandomStreamState, SaveLoadSaveIsByteIdentical) {
  RandomStream rs(77);
  for (int i = 0; i < 123; ++i) (void)rs.exponential(4.0);
  const std::vector<std::uint8_t> first = saved(rs);
  // str("rng") + section length + the 16-byte (seed, draws) body.
  EXPECT_EQ(first.size(), 8u + 3u + 8u + 16u);
  RandomStream copy(1);
  load(copy, first);
  EXPECT_EQ(saved(copy), first);
}

TEST(RandomStreamState, SameSeedBytesMatchExactlyWhenDrawCountsMatch) {
  // The property resume verification rests on: same-seed streams encode
  // identically iff their engines are in the same state.
  RandomStream a(5), b(5);
  EXPECT_EQ(saved(a), saved(b));
  for (int i = 0; i < 250; ++i) {
    (void)a.uniform01();
    (void)b.uniform01();
  }
  EXPECT_EQ(saved(a), saved(b));
  (void)a.bernoulli(0.5);
  EXPECT_NE(saved(a), saved(b));
  (void)b.uniform01();
  EXPECT_EQ(saved(a), saved(b));
  EXPECT_NE(saved(RandomStream(5)), saved(RandomStream(6)));
}

TEST(RandomStreamState, TruncatedRngSectionThrows) {
  RandomStream rs(3);
  (void)rs.uniform01();
  const std::vector<std::uint8_t> full = saved(rs);

  // Section length says 8 but the draw count is missing.
  snapshot::Writer short_body;
  short_body.begin_section("rng");
  short_body.u64(3);
  short_body.end_section();
  RandomStream target(3);
  EXPECT_THROW(load(target, short_body.bytes()), snapshot::SnapshotError);

  // Buffer cut inside the section at every offset.
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::vector<std::uint8_t> cut(
        full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(load(target, cut), snapshot::SnapshotError) << "len=" << len;
  }
}

// --- RandomStreamDiff: the lazily seeded twister against std::mt19937_64.
// The draw counts straddle every place the lazy engine differs from the
// batch one: the first draw (seeds only what the first twist reads), the
// last draw that extends the seed recurrence (155), the switch from
// reading x[k+156] to x[k-156] (156), the last word of a block (311
// reads the new x[0]) and the first two block boundaries.

constexpr std::uint64_t kDiffCounts[] = {0,   1,   155, 156, 157,  311,
                                         312, 313, 623, 624, 625, 100000};

std::vector<std::uint64_t> diff_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, 5489, ~std::uint64_t{0}};
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  while (seeds.size() < 32) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    seeds.push_back(x ^ (x >> 29));
  }
  return seeds;
}

/// Draws `k` uniform01 values from both and checks that their bits agree.
void expect_same_uniforms(RandomStream& rs, std::mt19937_64& oracle,
                          std::uint64_t k, const char* what) {
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  for (std::uint64_t i = 0; i < k; ++i)
    ASSERT_EQ(bits(rs.uniform01()), bits(dist(oracle))) << what << " i=" << i;
}

/// Walks a seed's stream and its oracle through every draw up to the
/// largest count, comparing each uniform01, and calls at(k, rs, oracle)
/// once k words are drawn, for each k in kDiffCounts.
template <typename At>
void walk_counts(std::uint64_t seed, const At& at) {
  RandomStream rs(seed);
  std::mt19937_64 oracle(seed);
  std::uint64_t drawn = 0;
  for (const std::uint64_t k : kDiffCounts) {
    expect_same_uniforms(rs, oracle, k - drawn, "walk");
    drawn = k;
    at(k, rs, oracle);
  }
}

TEST(RandomStreamDiff, DistributionsMatchTheOracleAtEachCount) {
  for (const std::uint64_t seed : diff_seeds()) {
    SCOPED_TRACE(seed);
    walk_counts(seed, [](std::uint64_t k, const RandomStream& rs,
                         const std::mt19937_64& oracle) {
      RandomStream a = rs;
      std::mt19937_64 o = oracle;
      constexpr int lo = std::numeric_limits<int>::min();
      constexpr int hi = std::numeric_limits<int>::max();
      for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(a.uniform_int(-5, 1000),
                  std::uniform_int_distribution<int>(-5, 1000)(o))
            << "k=" << k;
        // The widest range: the most rejections the distribution makes.
        ASSERT_EQ(a.uniform_int(lo, hi),
                  std::uniform_int_distribution<int>(lo, hi)(o))
            << "k=" << k;
        ASSERT_EQ(bits(a.exponential(120.0)),
                  bits(std::exponential_distribution<double>(1.0 / 120.0)(o)))
            << "k=" << k;
        ASSERT_EQ(bits(a.uniform(-3.0, 8.5)),
                  bits(std::uniform_real_distribution<double>(-3.0, 8.5)(o)))
            << "k=" << k;
      }
      // The distributions drew exactly as many words as the oracle's.
      expect_same_uniforms(a, o, 3, "after distributions");
    });
  }
}

TEST(RandomStreamDiff, CopyTakenMidFirstBlockContinuesExactly) {
  for (const std::uint64_t seed : diff_seeds()) {
    SCOPED_TRACE(seed);
    for (const std::uint64_t k : {0, 1, 100, 155, 156, 200, 311}) {
      RandomStream rs(seed);
      std::mt19937_64 oracle(seed);
      expect_same_uniforms(rs, oracle, k, "prefix");
      RandomStream copy = rs;
      std::mt19937_64 oracle_copy = oracle;
      expect_same_uniforms(rs, oracle, 700, "original");
      expect_same_uniforms(copy, oracle_copy, 700, "copy");
    }
  }
}

TEST(RandomStreamDiff, LoadStateAtEachCountContinuesTheOracle) {
  for (const std::uint64_t seed : diff_seeds()) {
    SCOPED_TRACE(seed);
    walk_counts(seed, [seed](std::uint64_t k, const RandomStream& rs,
                             const std::mt19937_64& oracle) {
      RandomStream loaded(seed ^ 0x5a5a);  // mid-block, another seed
      (void)loaded.uniform01();
      load(loaded, saved(rs));
      EXPECT_EQ(saved(loaded), saved(rs)) << "k=" << k;
      std::mt19937_64 o = oracle;
      expect_same_uniforms(loaded, o, 400, "loaded");
    });
  }
}

// A stream is compact (no state words) before draw 156 and materialized
// from then on: copies, moves and loads must carry either state into a
// stream in either state. These counts straddle the switch and the first
// block boundary.
constexpr std::uint64_t kEdgeCounts[] = {0, 1, 155, 156, 157, 311, 312};

/// A stream of `seed` with `k` words drawn, checked against the oracle.
RandomStream stream_at(std::uint64_t seed, std::uint64_t k) {
  RandomStream rs(seed);
  std::mt19937_64 oracle(seed);
  expect_same_uniforms(rs, oracle, k, "prefix");
  return rs;
}

/// The oracle for `seed` with `k` words drawn.
std::mt19937_64 oracle_at(std::uint64_t seed, std::uint64_t k) {
  std::mt19937_64 oracle(seed);
  oracle.discard(k);
  return oracle;
}

TEST(RandomStreamDiff, MoveConstructAtEachEdgeContinuesTheOracle) {
  for (const std::uint64_t seed : diff_seeds()) {
    SCOPED_TRACE(seed);
    for (const std::uint64_t k : kEdgeCounts) {
      RandomStream source = stream_at(seed, k);
      RandomStream moved(std::move(source));
      std::mt19937_64 oracle = oracle_at(seed, k);
      expect_same_uniforms(moved, oracle, 700, "moved");
      // The moved-from stream restarts its seed's sequence.
      std::mt19937_64 fresh(seed);
      expect_same_uniforms(source, fresh, 400, "moved-from");
    }
  }
}

TEST(RandomStreamDiff, MoveAssignAtEachEdgeContinuesTheOracle) {
  for (const std::uint64_t seed : diff_seeds()) {
    SCOPED_TRACE(seed);
    for (const std::uint64_t k : kEdgeCounts) {
      // Into a compact and into a materialized stream of another seed.
      for (const std::uint64_t target_k : {3, 500}) {
        RandomStream source = stream_at(seed, k);
        RandomStream target = stream_at(seed ^ 0x5a5a, target_k);
        target = std::move(source);
        std::mt19937_64 oracle = oracle_at(seed, k);
        expect_same_uniforms(target, oracle, 700, "move-assigned");
        std::mt19937_64 fresh(seed);
        expect_same_uniforms(source, fresh, 400, "moved-from");
      }
    }
  }
}

TEST(RandomStreamDiff, CopyAssignAcrossStatesContinuesTheOracle) {
  struct Case {
    std::uint64_t source_k, target_k;
  };
  // compact -> materialized, materialized -> compact, and materialized
  // -> materialized (the target's words are overwritten in place).
  constexpr Case kCases[] = {{100, 400}, {400, 100}, {700, 300}};
  for (const std::uint64_t seed : diff_seeds()) {
    SCOPED_TRACE(seed);
    for (const Case& c : kCases) {
      RandomStream source = stream_at(seed, c.source_k);
      RandomStream target = stream_at(seed ^ 0x5a5a, c.target_k);
      target = source;
      std::mt19937_64 for_target = oracle_at(seed, c.source_k);
      std::mt19937_64 for_source = for_target;
      expect_same_uniforms(target, for_target, 700, "copy");
      expect_same_uniforms(source, for_source, 700, "source");
    }
  }
}

TEST(RandomStreamDiff, CompactImageLoadsIntoAMaterializedStream) {
  for (const std::uint64_t seed : diff_seeds()) {
    SCOPED_TRACE(seed);
    for (const std::uint64_t k : {0, 1, 100, 155}) {
      const RandomStream source = stream_at(seed, k);
      RandomStream loaded = stream_at(seed ^ 0x5a5a, 500);
      load(loaded, saved(source));
      EXPECT_EQ(saved(loaded), saved(source)) << "k=" << k;
      std::mt19937_64 oracle = oracle_at(seed, k);
      expect_same_uniforms(loaded, oracle, 700, "loaded");
    }
  }
}

TEST(RandomSource, SameNameIndexIsDeterministic) {
  RandomSource a(123), b(123);
  RandomStream s1 = a.stream("mobility", 7);
  RandomStream s2 = b.stream("mobility", 7);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(s1.uniform01(), s2.uniform01());
}

TEST(RandomSource, DifferentNamesDecorrelated) {
  RandomSource src(123);
  RandomStream s1 = src.stream("mobility", 0);
  RandomStream s2 = src.stream("traffic", 0);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s1.uniform01() == s2.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RandomSource, DifferentSeedsDiffer) {
  RandomSource a(1), b(2);
  RandomStream s1 = a.stream("x");
  RandomStream s2 = b.stream("x");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s1.uniform01() == s2.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RandomSource, DifferentIndicesDiffer) {
  RandomSource src(9);
  RandomStream s1 = src.stream("node", 0);
  RandomStream s2 = src.stream("node", 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s1.uniform01() == s2.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

}  // namespace
}  // namespace dftmsn
