#include "sim/random.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

namespace dftmsn {

double RandomStream::uniform01() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double RandomStream::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("RandomStream::uniform: lo > hi");
  if (lo == hi) return lo;
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

int RandomStream::uniform_int(int lo, int hi) {
  if (lo > hi) throw std::invalid_argument("RandomStream::uniform_int: lo > hi");
  return std::uniform_int_distribution<int>(lo, hi)(engine_);
}

double RandomStream::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("RandomStream::exponential: mean <= 0");
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

bool RandomStream::bernoulli(double p) {
  const double clamped = std::clamp(p, 0.0, 1.0);
  return uniform01() < clamped;
}

// A World holds about three streams per sensor: the lazy state must not
// make one larger than a stream wrapping the standard library's engine.
static_assert(sizeof(RandomStream) == 2520);

void RandomStream::CountingEngine::seed_through(std::uint32_t end) {
  for (std::uint32_t i = seeded_; i < end; ++i)
    x_[i] = f * (x_[i - 1] ^ (x_[i - 1] >> (w - 2))) + i;
  seeded_ = end;
}

std::uint64_t RandomStream::CountingEngine::operator()() {
  constexpr std::uint64_t upper = ~std::uint64_t{0} << r;
  ++draws_;
  const std::uint32_t k = p_;
  if (seeded_ < n) seed_through(std::min(k + m + 1, n));
  const std::uint32_t next = k + 1 < n ? k + 1 : 0;
  const std::uint64_t y = (x_[k] & upper) | (x_[next] & ~upper);
  x_[k] = x_[k < n - m ? k + m : k + m - n] ^ (y >> 1) ^ ((y & 1) ? a : 0);
  p_ = next;

  std::uint64_t z = x_[k];
  z ^= (z >> u) & d;
  z ^= (z << s) & b;
  z ^= (z << t) & c;
  return z ^ (z >> l);
}

void RandomStream::CountingEngine::restore(std::uint64_t seed,
                                           std::uint64_t draws) {
  *this = CountingEngine(seed);
  for (std::uint64_t i = 0; i < draws; ++i) (void)(*this)();
}

void RandomStream::save_state(snapshot::Writer& w) const {
  w.begin_section("rng");
  w.u64(engine_.seed());
  w.u64(engine_.draws());
  w.end_section();
}

void RandomStream::load_state(snapshot::Reader& r) {
  r.begin_section("rng");
  const std::uint64_t seed = r.u64();
  const std::uint64_t draws = r.u64();
  r.end_section();
  engine_.restore(seed, draws);
}

namespace {

/// FNV-1a 64-bit over the name bytes, then mixed with seed and index via
/// splitmix64 finalization steps.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

RandomStream RandomSource::stream(std::string_view name,
                                  std::uint64_t index) const {
  const std::uint64_t seed = mix(root_ ^ mix(fnv1a(name) ^ mix(index)));
  return RandomStream{seed};
}

}  // namespace dftmsn
