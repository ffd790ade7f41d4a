/// \file kappa.hpp
/// \brief The look-ahead threshold κ of Algorithm 4 (Eq. 8):
///        κ = max{ i >= 1 : α-quantile of (γ_i / λ̄ − τ_i) < 0 }, with
///        γ_i ~ Gamma(i, 1). Planning always stays at least κ+1 arrivals
///        ahead so every query's instance can be ready in time.
#pragma once

#include <cstddef>

#include "rs/common/status.hpp"
#include "rs/common/thread_pool.hpp"
#include "rs/stats/distributions.hpp"
#include "rs/stats/rng.hpp"

namespace rs::core {

/// \brief Exact κ for deterministic pending time τ: the condition becomes
///        GammaQuantile(i, 1, α) < λ̄·τ.
///
/// \param alpha       miss budget α in (0, 1).
/// \param lambda_bar  intensity upper bound λ̄ (per second, > 0).
/// \param tau         deterministic pending time (s, >= 0).
/// \param max_kappa   safety cap for the scan.
Result<std::size_t> ComputeKappaDeterministicTau(double alpha,
                                                 double lambda_bar, double tau,
                                                 std::size_t max_kappa = 100000);

/// Distinct α values the κ quantile memo holds per thread.
inline constexpr std::size_t kKappaMemoAlphas = 4;
/// Largest index i whose GammaQuantile(i, 1, α) the κ memo holds.
inline constexpr std::size_t kKappaMemoMaxIndex = 4096;

/// \brief Exact κ by binary search on the Gamma quantile (O(log max_kappa)
///        quantile evaluations), recomputed at every planning round with the
///        local intensity, as Section VII-A1 prescribes.
///
/// GammaQuantile(i, 1, α) depends only on (i, α), so each thread memoizes it:
/// up to kKappaMemoAlphas α values (least recently used evicted), each for
/// indices 1..kKappaMemoMaxIndex; larger indices are computed every time. A
/// warm call reads each of its O(log κ) probes from the table instead of
/// running a Newton solve. The bisection visits the same indices and
/// compares the same doubles as an uncached one, so the memo never changes
/// a result, and no result depends on which thread computed it.
Result<std::size_t> ComputeKappaBinarySearch(double alpha, double lambda_bar,
                                             double tau,
                                             std::size_t max_kappa = 1000000);

/// \brief Monte Carlo κ for a general pending-time distribution.
///
/// Maintains R coupled paths of γ_i (incremental Exp(1) sums) and per-i
/// fresh τ draws; scans i upward until the empirical α-quantile of
/// γ_i/λ̄ − τ_i turns non-negative.
///
/// The paths are partitioned into fixed-size chunks, each advanced by its
/// own RNG substream seeded deterministically from `rng`. Chunk boundaries
/// and seeds depend only on num_samples — never on `pool` — so the result
/// is byte-identical whether the chunks run serially (pool null / inline)
/// or across any number of worker threads.
Result<std::size_t> ComputeKappaMonteCarlo(
    stats::Rng* rng, double alpha, double lambda_bar,
    const stats::DurationDistribution& pending, std::size_t num_samples = 2000,
    std::size_t max_kappa = 100000, common::ThreadPool* pool = nullptr);

}  // namespace rs::core
