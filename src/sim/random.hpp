// Seeded random streams. Each consumer gets its own named substream so
// adding a new random draw in one subsystem does not perturb another.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "snapshot/snapshot_io.hpp"

namespace dftmsn {

/// One random stream: an MT19937-64 (the standard library's mt19937_64
/// sequence, word for word) behind the distributions the simulator draws
/// from.
/// Building a stream computes nothing, and a stream holds no state words
/// until its 157th draw: before that it is 40 bytes.
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
  /// continue identically. Loading reseeds and steps the engine `draws`
  /// words, so a restored stream continues the original draw sequence
  /// bit-for-bit.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  /// MT19937-64 that counts the words drawn from it. The distributions
  /// draw only through it, so no draw can escape the count.
  ///
  /// Draw k twists state word k % n in place instead of twisting all n
  /// words when the block starts. The batch twist updates the words in
  /// index order, so word k reads the same values either way: x[k+1] and
  /// x[k+m] not yet twisted in this block (x[k+m-n] already twisted once
  /// k >= n-m; k = n-1 reads the new x[0]).
  ///
  /// Before draw m, draw k reads only the seed words x[k], x[k+1] and
  /// x[k+m], and the seed recurrence is first order, so a *compact*
  /// engine walks two cursors along it and holds no words. Draw m
  /// allocates the n words and replays the first m draws into them once;
  /// the engine is *materialized* from then on.
  class CountingEngine {
   public:
    using result_type = std::uint64_t;

    explicit CountingEngine(std::uint64_t seed) : seed_(seed), near_(seed) {}
    CountingEngine(const CountingEngine& other);
    CountingEngine& operator=(const CountingEngine& other);
    /// A moved-from engine restarts its seed's sequence.
    CountingEngine(CountingEngine&& other) noexcept;
    CountingEngine& operator=(CountingEngine&& other) noexcept;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()();

    [[nodiscard]] std::uint64_t seed() const { return seed_; }
    [[nodiscard]] std::uint64_t draws() const { return draws_; }
    void restore(std::uint64_t seed, std::uint64_t draws);

   private:
    // The MT19937-64 parameters, named as in [rand.eng.mers].
    static constexpr unsigned w = 64;
    static constexpr std::uint32_t n = 312, m = 156;
    static constexpr unsigned r = 31;
    static constexpr std::uint64_t a = 0xB5026F5AA96619E9ULL;
    static constexpr unsigned u = 29;
    static constexpr std::uint64_t d = 0x5555555555555555ULL;
    static constexpr unsigned s = 17;
    static constexpr std::uint64_t b = 0x71D67FFFEDA60000ULL;
    static constexpr unsigned t = 37;
    static constexpr std::uint64_t c = 0xFFF7EEE000000000ULL;
    static constexpr unsigned l = 43;
    static constexpr std::uint64_t f = 6364136223846793005ULL;

    /// Seed word i from seed word i - 1.
    static std::uint64_t seed_step(std::uint64_t prev, std::uint32_t i);
    /// The twist of word k from x[k], x[k+1] and x[k+m] (or x[k+m-n]).
    static std::uint64_t twist(std::uint64_t xk, std::uint64_t xk1,
                               std::uint64_t xkm);
    static result_type temper(std::uint64_t z);

    /// A draw of an engine without words: compact before draw m, and at
    /// draw m it materializes first.
    result_type draw_without_words();
    /// At draw m: allocates the words and twists the first m of them.
    void materialize();

    std::uint64_t seed_;
    std::uint64_t draws_ = 0;
    /// Compact, before draw m: seed word x[draws_]. Materialized: the
    /// index of the word the next draw twists.
    std::uint64_t near_;
    /// Compact, drawn from, before draw m: seed word x[draws_ + m].
    std::uint64_t far_ = 0;
    /// The n state words; null while compact.
    std::unique_ptr<std::uint64_t[]> x_;
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
