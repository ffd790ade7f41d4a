#include "rs/core/kappa.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "rs/stats/empirical.hpp"
#include "rs/stats/special_functions.hpp"

namespace rs::core {

Result<std::size_t> ComputeKappaDeterministicTau(double alpha,
                                                 double lambda_bar, double tau,
                                                 std::size_t max_kappa) {
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    return Status::Invalid("ComputeKappa: alpha must lie in (0, 1)");
  }
  if (!(lambda_bar > 0.0)) {
    return Status::Invalid("ComputeKappa: lambda_bar must be > 0");
  }
  if (tau < 0.0) return Status::Invalid("ComputeKappa: tau must be >= 0");
  const double threshold = lambda_bar * tau;
  std::size_t kappa = 0;
  for (std::size_t i = 1; i <= max_kappa; ++i) {
    RS_ASSIGN_OR_RETURN(const double q,
                        stats::GammaQuantile(static_cast<double>(i), 1.0, alpha));
    if (q < threshold) {
      kappa = i;
    } else {
      break;  // The quantile is increasing in i: no later i can qualify.
    }
  }
  return kappa;
}

namespace {

/// This thread's memo of GammaQuantile(i, 1, α), one ladder per α. Slot 0
/// holds the most recently used α; a new α replaces the least recently used
/// one. `q[i]` is the quantile at index i, NaN while unfilled. Per thread,
/// so pooled planners share no state and take no lock, and the footprint
/// scales with threads, never with tenants.
class GammaQuantileMemo {
 public:
  /// The ladder for `alpha`, emptied if `alpha` was not held.
  std::vector<double>& Ladder(double alpha) {
    auto slot = std::find_if(slots_.begin(), slots_.end(),
                             [&](const Slot& s) { return s.alpha == alpha; });
    if (slot == slots_.end()) {
      slot = slots_.end() - 1;
      slot->alpha = alpha;
      slot->q.clear();
    }
    std::rotate(slots_.begin(), slot, slot + 1);
    return slots_.front().q;
  }

 private:
  struct Slot {
    double alpha = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> q;
  };
  std::array<Slot, kKappaMemoAlphas> slots_;
};

/// GammaQuantile(i, 1, α) through `ladder`: computed on the first visit to
/// an index up to kKappaMemoMaxIndex, read back after that.
Result<double> LadderQuantile(std::vector<double>* ladder, double alpha,
                              std::size_t i) {
  if (i > kKappaMemoMaxIndex) {
    return stats::GammaQuantile(static_cast<double>(i), 1.0, alpha);
  }
  if (i >= ladder->size()) {
    ladder->resize(std::min(std::bit_ceil(i + 1), kKappaMemoMaxIndex + 1),
                   std::numeric_limits<double>::quiet_NaN());
  }
  double& q = (*ladder)[i];
  if (std::isnan(q)) {
    RS_ASSIGN_OR_RETURN(
        q, stats::GammaQuantile(static_cast<double>(i), 1.0, alpha));
  }
  return q;
}

}  // namespace

Result<std::size_t> ComputeKappaBinarySearch(double alpha, double lambda_bar,
                                             double tau,
                                             std::size_t max_kappa) {
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    return Status::Invalid("ComputeKappa: alpha must lie in (0, 1)");
  }
  if (!(lambda_bar > 0.0)) {
    return Status::Invalid("ComputeKappa: lambda_bar must be > 0");
  }
  if (tau < 0.0) return Status::Invalid("ComputeKappa: tau must be >= 0");
  const double threshold = lambda_bar * tau;
  thread_local GammaQuantileMemo memo;
  std::vector<double>& ladder = memo.Ladder(alpha);
  auto below = [&](std::size_t i) -> Result<bool> {
    RS_ASSIGN_OR_RETURN(const double q, LadderQuantile(&ladder, alpha, i));
    return q < threshold;
  };
  if (max_kappa == 0) return static_cast<std::size_t>(0);
  RS_ASSIGN_OR_RETURN(const bool first_below, below(1));
  if (!first_below) return static_cast<std::size_t>(0);
  // Invariant: quantile(lo) < threshold, and hi is max_kappa + 1 or
  // threshold <= quantile(hi) (monotone in i); index max_kappa + 1 counts
  // as "not below" without being probed.
  std::size_t lo = 1, hi = 2;
  for (;;) {
    if (hi > max_kappa) {
      hi = max_kappa + 1;
      break;
    }
    RS_ASSIGN_OR_RETURN(const bool b, below(hi));
    if (!b) break;
    lo = hi;
    hi *= 2;
  }
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    RS_ASSIGN_OR_RETURN(const bool b, below(mid));
    if (b) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

namespace {

/// Sample-paths per RNG substream in ComputeKappaMonteCarlo. Fixed — the
/// substream layout (and therefore the result) must not depend on how many
/// workers execute the chunks.
constexpr std::size_t kKappaChunk = 256;

/// Max i-steps advanced per fork/join round: amortizes the pool barrier
/// across many quantile checks. Blocks ramp geometrically from 1 so a small
/// κ stops after ~κ steps of sampling instead of a full block; the ramp is
/// fixed (never pool-dependent) and block boundaries do not affect the
/// per-chunk draw order, so results stay byte-identical.
constexpr std::size_t kKappaBlock = 64;

}  // namespace

Result<std::size_t> ComputeKappaMonteCarlo(
    stats::Rng* rng, double alpha, double lambda_bar,
    const stats::DurationDistribution& pending, std::size_t num_samples,
    std::size_t max_kappa, common::ThreadPool* pool) {
  if (rng == nullptr) return Status::Invalid("ComputeKappa: null rng");
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    return Status::Invalid("ComputeKappa: alpha must lie in (0, 1)");
  }
  if (!(lambda_bar > 0.0)) {
    return Status::Invalid("ComputeKappa: lambda_bar must be > 0");
  }
  if (num_samples == 0) {
    return Status::Invalid("ComputeKappa: num_samples must be >= 1");
  }
  // One independent substream per fixed chunk of paths, derived serially
  // from the caller's generator: every pool size draws identical numbers.
  const std::size_t chunks = (num_samples + kKappaChunk - 1) / kKappaChunk;
  std::vector<stats::Rng> chunk_rngs;
  chunk_rngs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) chunk_rngs.push_back(rng->Split());

  std::vector<double> gamma(num_samples, 0.0);
  // stat[step * num_samples + r]: the per-i statistic for a whole block.
  std::vector<double> stat(kKappaBlock * num_samples);
  std::vector<double> scratch(num_samples);
  std::size_t kappa = 0;
  std::size_t ramp = 1;
  for (std::size_t block_start = 1; block_start <= max_kappa;
       block_start += ramp, ramp = std::min(ramp * 4, kKappaBlock)) {
    const std::size_t block_len = std::min(ramp, max_kappa - block_start + 1);
    common::ParallelForChunks(
        pool, num_samples, kKappaChunk,
        [&](std::size_t c, std::size_t begin, std::size_t end) {
          stats::Rng& crng = chunk_rngs[c];
          for (std::size_t step = 0; step < block_len; ++step) {
            double* row = stat.data() + step * num_samples;
            for (std::size_t r = begin; r < end; ++r) {
              gamma[r] += stats::SampleExponentialZiggurat(&crng, 1.0);
              row[r] = gamma[r] / lambda_bar - pending.Sample(&crng);
            }
          }
        });
    for (std::size_t step = 0; step < block_len; ++step) {
      std::copy(stat.begin() + static_cast<std::ptrdiff_t>(step * num_samples),
                stat.begin() +
                    static_cast<std::ptrdiff_t>((step + 1) * num_samples),
                scratch.begin());
      RS_ASSIGN_OR_RETURN(const double q,
                          stats::QuantileInPlace(&scratch, alpha));
      if (q < 0.0) {
        kappa = block_start + step;
      } else {
        return kappa;
      }
    }
  }
  return kappa;
}

}  // namespace rs::core
