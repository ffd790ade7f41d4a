/// \file rng.hpp
/// \brief Deterministic, seedable pseudo-random generator (xoshiro256++).
///
/// All stochastic components of the library take an explicit Rng so that
/// every experiment is reproducible bit-for-bit across runs and platforms
/// (std::mt19937 distributions are not guaranteed identical across
/// standard library implementations).
#pragma once

#include <bit>
#include <cstdint>

namespace rs::stats {

/// xoshiro256++ generator seeded via SplitMix64. Satisfies
/// UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64-bit output. The step and the two uniforms below are
  /// defined here so the samplers in other units (ziggurat, Gamma, the
  /// planners' substream fills) inline them instead of calling per draw.
  result_type operator()() { return NextUint64(); }
  result_type NextUint64() {
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1) — never exactly 0 (safe for log()).
  double NextOpenDouble() {
    // (x + 0.5) / 2^53 lies strictly inside (0, 1).
    return (static_cast<double>(NextUint64() >> 11) + 0.5) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n).
  std::uint64_t NextBounded(std::uint64_t n);

  /// Standard normal via Box–Muller (caches the second deviate).
  double NextGaussian();

  /// Derives an independent child generator (for parallel streams).
  /// Consumes one draw from this generator.
  Rng Split();

  /// \brief Counter-based substream derivation: the `index`-th child stream
  ///        of this generator's *current state*.
  ///
  /// Pure — never advances this generator — and deterministic: two
  /// generators in the same state derive bitwise-identical children for the
  /// same index, and distinct indices give decorrelated streams (the state
  /// is folded with golden-ratio-spaced counters through SplitMix64). This
  /// is the primitive behind the planners' fixed work blocking: block b of
  /// a round always draws from SubstreamAt(b), so the same bytes come out
  /// no matter how many threads evaluate the blocks or in what order, and a
  /// serial evaluation reproduces the parallel one bit-for-bit.
  Rng SubstreamAt(std::uint64_t index) const;

  /// \brief Complete generator position, exportable for durable snapshots.
  ///
  /// The four xoshiro256++ state words plus the Box–Muller second-deviate
  /// cache are the *entire* observable state: SubstreamAt() is a pure
  /// function of `s`, so the substream cursor needs no separate field — a
  /// restored generator derives bitwise-identical substreams.
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    bool have_cached_gaussian = false;
    double cached_gaussian = 0.0;
  };

  /// Exports the current position (pure; never advances the generator).
  State SaveState() const {
    State state;
    for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
    state.have_cached_gaussian = have_cached_gaussian_;
    state.cached_gaussian = cached_gaussian_;
    return state;
  }

  /// Overwrites this generator's position; the continuation is bit-for-bit
  /// identical to the generator SaveState() was called on. Accepts any
  /// state, including the all-zero degenerate one (callers restoring from
  /// untrusted snapshots are protected by the codec's CRC, not here).
  void RestoreState(const State& state) {
    for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
    have_cached_gaussian_ = state.have_cached_gaussian;
    cached_gaussian_ = state.cached_gaussian;
  }

 private:
  std::uint64_t s_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace rs::stats
