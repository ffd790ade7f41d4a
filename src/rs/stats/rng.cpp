#include "rs/stats/rng.hpp"

#include <bit>
#include <cmath>

namespace rs::stats {

namespace {
std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
}

std::uint64_t Rng::NextBounded(std::uint64_t n) {
  if (n == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = NextUint64();
    if (r >= threshold) return r % n;
  }
}

double Rng::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  const double u1 = NextOpenDouble();
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_gaussian_ = mag * std::sin(angle);
  have_cached_gaussian_ = true;
  return mag * std::cos(angle);
}

Rng Rng::Split() { return Rng(NextUint64() ^ 0xA5A5A5A5A5A5A5A5ULL); }

Rng Rng::SubstreamAt(std::uint64_t index) const {
  // Fold the full 256-bit state (rotations keep the words from cancelling)
  // with a golden-ratio-spaced counter, then reseed through the same
  // SplitMix64 expansion the seeded constructor uses. `index + 1` keeps
  // substream 0 distinct from the parent's own reseeding of this state.
  std::uint64_t sm = s_[0] ^ std::rotl(s_[1], 13) ^ std::rotl(s_[2], 29) ^
                     std::rotl(s_[3], 43);
  sm ^= (index + 1) * 0x9E3779B97F4A7C15ULL;
  Rng child = *this;  // A copy, not Rng(0): no seeding pass to discard.
  for (auto& word : child.s_) word = SplitMix64(&sm);
  child.have_cached_gaussian_ = false;
  child.cached_gaussian_ = 0.0;
  return child;
}

}  // namespace rs::stats
