// Seeded random streams. Each consumer gets its own named substream so
// adding a new random draw in one subsystem does not perturb another.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

#include "snapshot/snapshot_io.hpp"

namespace dftmsn {

/// One random stream: thin, convenience-wrapped mt19937_64.
class RandomStream {
 public:
  explicit RandomStream(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exact engine state in 16 bytes: the seed the stream was built from
  /// and the number of 64-bit words drawn since (u64 seed, u64 draws).
  /// For one seed, equal draw counts mean identical engine state, so two
  /// same-seed streams serialize identically exactly when they would
  /// continue identically. Loading reseeds and discards `draws` words,
  /// so a restored stream continues the original draw sequence
  /// bit-for-bit.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  /// mt19937_64 that counts the words drawn from it. The distributions
  /// draw only through it, so no draw can escape the count.
  class CountingEngine {
   public:
    using result_type = std::mt19937_64::result_type;

    explicit CountingEngine(std::uint64_t seed) : seed_(seed), mt_(seed) {}

    static constexpr result_type min() { return std::mt19937_64::min(); }
    static constexpr result_type max() { return std::mt19937_64::max(); }
    result_type operator()() {
      ++draws_;
      return mt_();
    }

    [[nodiscard]] std::uint64_t seed() const { return seed_; }
    [[nodiscard]] std::uint64_t draws() const { return draws_; }
    void restore(std::uint64_t seed, std::uint64_t draws);

   private:
    std::uint64_t seed_;
    std::uint64_t draws_ = 0;
    std::mt19937_64 mt_;
  };

  CountingEngine engine_;
};

/// Root seed from which named substreams are derived. Substream seeds are
/// stable hashes of (root seed, name, index), so e.g. node 7's mobility
/// stream is the same regardless of how many other streams exist.
class RandomSource {
 public:
  explicit RandomSource(std::uint64_t root_seed) : root_(root_seed) {}

  /// Derives the deterministic substream for (name, index).
  [[nodiscard]] RandomStream stream(std::string_view name,
                                    std::uint64_t index = 0) const;

  [[nodiscard]] std::uint64_t root_seed() const { return root_; }

 private:
  std::uint64_t root_;
};

}  // namespace dftmsn
