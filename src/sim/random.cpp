#include "sim/random.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <utility>

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

// A World holds about three streams per sensor, and most never draw m
// words: a compact stream must stay five words.
static_assert(sizeof(RandomStream) == 40);

RandomStream::CountingEngine::CountingEngine(const CountingEngine& other)
    : CountingEngine(other.seed_) {
  *this = other;
}

RandomStream::CountingEngine& RandomStream::CountingEngine::operator=(
    const CountingEngine& other) {
  if (this == &other) return *this;
  if (!other.x_) {
    x_.reset();
  } else {
    if (!x_) x_ = std::make_unique_for_overwrite<std::uint64_t[]>(n);
    std::copy_n(other.x_.get(), n, x_.get());
  }
  seed_ = other.seed_;
  draws_ = other.draws_;
  near_ = other.near_;
  far_ = other.far_;
  return *this;
}

RandomStream::CountingEngine::CountingEngine(CountingEngine&& other) noexcept
    : CountingEngine(other.seed_) {
  *this = std::move(other);
}

RandomStream::CountingEngine& RandomStream::CountingEngine::operator=(
    CountingEngine&& other) noexcept {
  if (this == &other) return *this;
  seed_ = other.seed_;
  draws_ = std::exchange(other.draws_, 0);
  near_ = std::exchange(other.near_, other.seed_);
  far_ = std::exchange(other.far_, 0);
  x_ = std::move(other.x_);
  return *this;
}

std::uint64_t RandomStream::CountingEngine::seed_step(std::uint64_t prev,
                                                      std::uint32_t i) {
  return f * (prev ^ (prev >> (w - 2))) + i;
}

std::uint64_t RandomStream::CountingEngine::twist(std::uint64_t xk,
                                                  std::uint64_t xk1,
                                                  std::uint64_t xkm) {
  constexpr std::uint64_t upper = ~std::uint64_t{0} << r;
  const std::uint64_t y = (xk & upper) | (xk1 & ~upper);
  // The low bit of y is a coin flip: select `a` by mask, as a branch on
  // it would mispredict on half the draws.
  return xkm ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & a);
}

std::uint64_t RandomStream::CountingEngine::temper(std::uint64_t z) {
  z ^= (z >> u) & d;
  z ^= (z << s) & b;
  z ^= (z << t) & c;
  return z ^ (z >> l);
}

std::uint64_t RandomStream::CountingEngine::draw_without_words() {
  if (draws_ == m) {
    materialize();
    return (*this)();
  }
  const auto k = static_cast<std::uint32_t>(draws_);
  if (k == 0) {
    far_ = seed_;
    for (std::uint32_t i = 1; i <= m; ++i) far_ = seed_step(far_, i);
  }
  const std::uint64_t next = seed_step(near_, k + 1);
  const std::uint64_t z = twist(near_, next, far_);
  near_ = next;
  far_ = seed_step(far_, k + m + 1);
  ++draws_;
  return temper(z);
}

void RandomStream::CountingEngine::materialize() {
  x_ = std::make_unique_for_overwrite<std::uint64_t[]>(n);
  x_[0] = seed_;
  for (std::uint32_t i = 1; i < n; ++i) x_[i] = seed_step(x_[i - 1], i);
  for (std::uint32_t k = 0; k < m; ++k)
    x_[k] = twist(x_[k], x_[k + 1], x_[k + m]);
  near_ = m;
}

std::uint64_t RandomStream::CountingEngine::operator()() {
  if (!x_) [[unlikely]]
    return draw_without_words();
  ++draws_;
  const auto k = static_cast<std::uint32_t>(near_);
  const std::uint32_t next = k + 1 < n ? k + 1 : 0;
  const std::uint64_t z =
      twist(x_[k], x_[next], x_[k < n - m ? k + m : k + m - n]);
  x_[k] = z;
  near_ = next;
  return temper(z);
}

void RandomStream::CountingEngine::restore(std::uint64_t seed,
                                           std::uint64_t draws) {
  *this = CountingEngine(seed);
  // Draw m replays the draws before it itself.
  if (draws >= m) draws_ = m;
  while (draws_ < draws) (void)(*this)();
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
