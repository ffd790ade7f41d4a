#include "rs/core/sequential_scaler.hpp"

#include <algorithm>
#include <cmath>

#include "rs/common/logging.hpp"
#include "rs/core/kappa.hpp"

namespace rs::core {

namespace {

/// Path-block granularity of the counter-based draw substreams: block b of
/// a query's R Monte Carlo paths always draws from its own substream, so
/// every drawn byte depends only on (query index, R). This constant fixes
/// the draw layout that every committed action sequence, golden file and
/// generated regression was produced under: it must never change.
constexpr std::size_t kPlanRngBlock = 128;

/// Resize + shrink-to-fit hysteresis: buffers shrink only once they retain
/// more than twice the live size, so alternating sizes don't thrash
/// reallocation but a tenant whose R drops stops pinning peak memory.
template <typename T>
void FitVector(std::vector<T>* v, std::size_t n) {
  v->resize(n);
  if (v->capacity() > 2 * std::max<std::size_t>(n, 1)) v->shrink_to_fit();
}

/// Exact (v_lo, v_hi) order statistics at ranks lo <= hi of values[0..n) by
/// selection. When the interpolation sits low in the distribution it is
/// cheaper to select at hi and max-scan the small left partition than to
/// select at lo and min-scan the large right one; pick the cheaper side.
void SelectOrderStatPair(double* values, std::size_t n, std::size_t lo,
                         std::size_t hi, double* v_lo, double* v_hi) {
  if (hi == lo) {
    std::nth_element(values, values + lo, values + n);
    *v_lo = values[lo];
    *v_hi = *v_lo;
    return;
  }
  if (hi <= n - 1 - lo) {
    std::nth_element(values, values + hi, values + n);
    *v_hi = values[hi];
    *v_lo = *std::max_element(values, values + hi);
  } else {
    std::nth_element(values, values + lo, values + n);
    *v_lo = values[lo];
    *v_hi = *std::min_element(values + lo + 1, values + n);
  }
}

/// \brief HP decision for deterministic τ without materializing ξ.
///
/// The map target → slack = max(0, Λ⁻¹(target) − now) − τ is non-decreasing,
/// so the two order statistics the type-7 quantile interpolates can be
/// selected directly on the cumulative targets and inverted individually:
/// two inversions instead of R, with exactly the doubles the reference path
/// computes. The previous round's quantile for the same query index is kept
/// in hp_cuts as a warm pivot: one branchless counting pass confirms the
/// pivot bounds at least hi+1 elements, and the exact selection then runs on
/// only that ~αR-sized prefilter. `ws->targets` is consumed (reordered);
/// ws->hp_cuts must be pre-sized past k_index.
Result<Decision> SolveHpDeterministicTau(
    const workload::PiecewiseConstantIntensity& forecast, PlanWorkspace* ws,
    double now, double tau, double alpha, std::size_t r_count,
    std::size_t k_index, double base) {
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    return Status::Invalid("SolveHpConstrained: alpha must lie in (0, 1)");
  }
  std::vector<double>& targets = ws->targets;
  std::vector<double>& hp_cuts = ws->hp_cuts;
  // The scalar path fails the whole round when any target lies beyond a
  // zero-rate tail; probe the largest target so this path fails identically
  // instead of silently answering from the two selected statistics.
  if (forecast.rates().back() <= 0.0) {
    const double max_target = *std::max_element(targets.begin(), targets.end());
    RS_RETURN_NOT_OK(forecast.InverseCumulative(max_target).status());
  }
  const double pos = alpha * static_cast<double>(r_count - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, r_count - 1);
  const double frac = pos - static_cast<double>(lo);

  double t_lo = 0.0, t_hi = 0.0;
  bool selected = false;
  RS_DCHECK(k_index < hp_cuts.size());
  if (hp_cuts[k_index] > 0.0) {
    // γ's α-quantile at this query index moves only by sampling noise
    // between rounds; a small safety margin above last round's cut bounds
    // the quantile pair with near-certainty (miss → exact fallback below).
    const double margin =
        std::max(1.0, 0.2 * std::sqrt(static_cast<double>(k_index + 1)));
    const double pivot = base + hp_cuts[k_index] + margin;
    const double* t = targets.data();
    std::size_t count = 0;
    for (std::size_t r = 0; r < r_count; ++r) {
      count += t[r] < pivot ? 1 : 0;
    }
    if (count > hi) {
      // The count elements below the pivot are exactly the count smallest:
      // ranks lo and hi live inside the prefilter.
      ws->gather.resize(r_count);
      double* g = ws->gather.data();
      std::size_t idx = 0;
      for (std::size_t r = 0; r < r_count; ++r) {
        if (t[r] < pivot) g[idx++] = t[r];
      }
      SelectOrderStatPair(g, count, lo, hi, &t_lo, &t_hi);
      selected = true;
    }
  }
  if (!selected) {
    SelectOrderStatPair(targets.data(), r_count, lo, hi, &t_lo, &t_hi);
  }
  hp_cuts[k_index] = t_hi - base;

  RS_ASSIGN_OR_RETURN(const double inv_lo, forecast.InverseCumulative(t_lo));
  const double slack_lo = std::max(0.0, inv_lo - now) - tau;
  double slack_hi = slack_lo;
  if (hi != lo) {
    RS_ASSIGN_OR_RETURN(const double inv_hi, forecast.InverseCumulative(t_hi));
    slack_hi = std::max(0.0, inv_hi - now) - tau;
  }
  const double x_star = slack_lo * (1.0 - frac) + slack_hi * frac;
  Decision d;
  d.feasible = x_star >= 0.0;
  d.creation_time = std::max(x_star, 0.0);
  return d;
}

bool DeterministicTau(const RoundParams& p) {
  return p.pending->kind() ==
         stats::DurationDistribution::Kind::kDeterministic;
}

/// Fills gamma with the cumulative exposure of the `skip` queries already
/// covered this round: Gamma(skip, 1) per path, block b drawing from
/// draw_base.SubstreamAt(0).SubstreamAt(b); zeros when nothing is covered.
void DrawWarmup(const RoundParams& p, const stats::Rng& draw_base,
                double* gamma) {
  if (p.skip == 0) {
    std::fill(gamma, gamma + p.r_count, 0.0);
    return;
  }
  for (std::size_t begin = 0, block = 0; begin < p.r_count;
       begin += kPlanRngBlock, ++block) {
    stats::Rng warmup = draw_base.SubstreamAt(0).SubstreamAt(block);
    stats::SampleGammaFill(&warmup, static_cast<double>(p.skip), 1.0,
                           gamma + begin,
                           std::min(kPlanRngBlock, p.r_count - begin));
  }
}

/// \brief Draw phase of one query: advances `gamma` to γ_j by query j's
///        Exp(1) increments (drawn into the `increments` scratch) and, for
///        stochastic τ, writes its pending samples into `tau`.
///
/// Block b of round-relative query j draws its increments from
/// draw_base.SubstreamAt(1 + 2j).SubstreamAt(b) and its τ samples from
/// draw_base.SubstreamAt(2 + 2j).SubstreamAt(b), so the drawn bytes depend
/// only on (j, r_count), never on what was drawn or solved before.
void DrawQuery(const RoundParams& p, const stats::Rng& draw_base,
               std::size_t j, double* gamma, double* increments, double* tau) {
  const std::size_t r_count = p.r_count;
  for (std::size_t begin = 0, block = 0; begin < r_count;
       begin += kPlanRngBlock, ++block) {
    const std::size_t len = std::min(kPlanRngBlock, r_count - begin);
    stats::Rng exp_rng = draw_base.SubstreamAt(1 + 2 * j).SubstreamAt(block);
    stats::SampleExponentialZigguratFill(&exp_rng, 1.0, increments + begin,
                                         len);
    if (tau != nullptr) {
      stats::Rng tau_rng = draw_base.SubstreamAt(2 + 2 * j).SubstreamAt(block);
      for (std::size_t r = begin; r < begin + len; ++r) {
        tau[r] = p.pending->Sample(&tau_rng);
      }
    }
  }
  for (std::size_t r = 0; r < r_count; ++r) gamma[r] += increments[r];
}

Result<Decision> SolveVariant(DecisionKernel* kernel, const RoundParams& p) {
  switch (p.variant) {
    case ScalerVariant::kHittingProbability:
      return kernel->SolveHp(p.alpha);
    case ScalerVariant::kResponseTime:
      return kernel->SolveRt(p.rt_excess);
    case ScalerVariant::kCost:
      return kernel->SolveCost(p.idle_budget);
  }
  return Status::Invalid("RobustScalerPolicy: unknown variant");
}

/// Optimized-kernel solve of one query's decision from ws->gamma (and, for
/// stochastic τ, the τ samples already drawn into ws->samples.tau).
Result<Decision> SolveOptimized(const RoundParams& p, PlanWorkspace* ws,
                                std::size_t abs_k, double base) {
  const std::size_t r_count = p.r_count;
  const bool deterministic_tau = DeterministicTau(p);
  double* targets = ws->targets.data();
  const double* gamma = ws->gamma.data();
  for (std::size_t r = 0; r < r_count; ++r) targets[r] = base + gamma[r];
  McSamples& samples = ws->samples;

  if (deterministic_tau &&
      p.variant == ScalerVariant::kHittingProbability) {
    return SolveHpDeterministicTau(*p.forecast, ws, p.now, p.pending->Mean(),
                                   p.alpha, r_count, abs_k, base);
  }
  if (deterministic_tau) {
    // RT/cost with constant τ: the pairing of ξ with τ is irrelevant, so
    // sort the targets in place and invert them in one ascending sweep —
    // ξ lands pre-sorted and the kernel needs no sort of its own.
    common::RadixSortAscending(targets, r_count, &ws->radix);
    samples.xi.resize(r_count);
    samples.tau.resize(r_count);
    RS_RETURN_NOT_OK(p.forecast->InverseCumulativeAscending(
        targets, r_count, samples.xi.data()));
    for (std::size_t r = 0; r < r_count; ++r) {
      samples.xi[r] = std::max(0.0, samples.xi[r] - p.now);
    }
    std::fill(samples.tau.begin(), samples.tau.end(), p.pending->Mean());
    ws->kernel.BindAscendingXi(samples);
    return SolveVariant(&ws->kernel, p);
  }
  RS_RETURN_NOT_OK(p.forecast->InverseCumulativeBatch(
      ws->targets, &samples.xi, &ws->order));
  for (std::size_t r = 0; r < r_count; ++r) {
    samples.xi[r] = std::max(0.0, samples.xi[r] - p.now);
  }
  ws->kernel.Bind(samples);
  return SolveVariant(&ws->kernel, p);
}

/// Reference solve of one query's decision: scalar Result-wrapped
/// inversions and the free-function solvers, on the same drawn bytes
/// (stochastic τ samples already drawn into samples->tau).
Result<Decision> SolveReference(const RoundParams& p, const double* gamma,
                                McSamples* samples, double base) {
  for (std::size_t r = 0; r < p.r_count; ++r) {
    RS_ASSIGN_OR_RETURN(const double inv,
                        p.forecast->InverseCumulative(base + gamma[r]));
    samples->xi[r] = std::max(0.0, inv - p.now);
  }
  if (DeterministicTau(p)) {
    std::fill(samples->tau.begin(), samples->tau.end(), p.pending->Mean());
  }
  switch (p.variant) {
    case ScalerVariant::kHittingProbability:
      return SolveHpConstrained(*samples, p.alpha);
    case ScalerVariant::kResponseTime:
      return SolveRtConstrained(*samples, p.rt_excess);
    case ScalerVariant::kCost:
      return SolveCostConstrained(*samples, p.idle_budget);
  }
  return Status::Invalid("RobustScalerPolicy: unknown variant");
}

/// Appends a successful decision to `action`; returns false when the round
/// ends here (a failed decision, or an unbounded one when requested).
bool EmitDecision(const RoundParams& p, std::size_t j,
                  const Result<Decision>& decision,
                  sim::ScalingAction* action) {
  if (!decision.ok()) {
    RS_LOG(Warning) << p.who << ": decision for upcoming query "
                    << p.skip + j + 1
                    << " failed: " << decision.status().ToString();
    return false;
  }
  if (p.stop_on_unbounded && decision->unbounded) return false;
  action->creation_times.push_back(p.emit_origin + decision->creation_time);
  return true;
}

}  // namespace

sim::ScalingAction RunMonteCarloRound(const RoundParams& p,
                                      stats::Rng* master, PlanWorkspace* ws) {
  sim::ScalingAction action;
  if (p.count == 0) return action;
  const std::size_t r_count = p.r_count;
  ws->EnsureSize(r_count);
  const double base = ws->CumulativeAt(*p.forecast, p.now);
  const bool stochastic_tau = !DeterministicTau(p);
  if (!stochastic_tau && p.variant == ScalerVariant::kHittingProbability &&
      ws->hp_cuts.size() < p.skip + p.count) {
    ws->hp_cuts.resize(p.skip + p.count, 0.0);
  }

  // The round's entire draw schedule keys off this snapshot; the master
  // stream pays one draw per round as the substream epoch.
  const stats::Rng draw_base = *master;
  master->NextUint64();

  double* tau = nullptr;
  if (stochastic_tau) {
    ws->samples.tau.resize(r_count);
    tau = ws->samples.tau.data();
  }
  DrawWarmup(p, draw_base, ws->gamma.data());
  for (std::size_t j = 0; j < p.count; ++j) {
    DrawQuery(p, draw_base, j, ws->gamma.data(), ws->targets.data(), tau);
    if (!EmitDecision(p, j, SolveOptimized(p, ws, p.skip + j, base),
                      &action)) {
      return action;
    }
  }
  return action;
}

sim::ScalingAction RunReferenceRound(const RoundParams& p,
                                     stats::Rng* master) {
  sim::ScalingAction action;
  if (p.count == 0) return action;
  const std::size_t r_count = p.r_count;
  const double base = p.forecast->Cumulative(p.now);
  const stats::Rng draw_base = *master;
  master->NextUint64();

  std::vector<double> gamma(r_count);
  std::vector<double> increments(r_count);
  McSamples samples;
  samples.xi.resize(r_count);
  samples.tau.resize(r_count);
  double* tau = DeterministicTau(p) ? nullptr : samples.tau.data();
  DrawWarmup(p, draw_base, gamma.data());
  for (std::size_t j = 0; j < p.count; ++j) {
    DrawQuery(p, draw_base, j, gamma.data(), increments.data(), tau);
    if (!EmitDecision(p, j, SolveReference(p, gamma.data(), &samples, base),
                      &action)) {
      return action;
    }
  }
  return action;
}

void PlanWorkspace::EnsureSize(std::size_t r) {
  FitVector(&gamma, r);
  // Solve scratch sized for a larger R is dropped wholesale (rebuilt
  // lazily at the new size).
  if (targets.capacity() > 2 * std::max<std::size_t>(r, 1)) {
    order = {};
    gather = {};
    radix = {};
    samples = {};
    kernel = {};
  }
  FitVector(&targets, r);
}

std::size_t PlanWorkspace::RetainedBytes() const {
  return (gamma.capacity() + targets.capacity() + gather.capacity() +
          samples.xi.capacity() + samples.tau.capacity() +
          hp_cuts.capacity()) *
             sizeof(double) +
         order.capacity() * sizeof(std::uint32_t) + radix.RetainedBytes() +
         kernel.WorkspaceBytes();
}

double PlanWorkspace::CumulativeAt(
    const workload::PiecewiseConstantIntensity& forecast, double now) {
  if (!cache_valid_ || now != cached_now_) {
    cached_base_ = forecast.Cumulative(now);
    cached_now_ = now;
    cache_valid_ = true;
  }
  return cached_base_;
}

RobustScalerPolicy::RobustScalerPolicy(
    workload::PiecewiseConstantIntensity forecast,
    stats::DurationDistribution pending, SequentialScalerOptions options)
    : forecast_(std::move(forecast)),
      pending_(pending),
      options_(options),
      rng_(options.seed) {
  RS_CHECK(options_.mc_samples >= 1) << "mc_samples must be >= 1";
  RS_CHECK(options_.planning_interval > 0.0) << "planning interval must be > 0";
}

const char* RobustScalerPolicy::name() const {
  switch (options_.variant) {
    case ScalerVariant::kHittingProbability:
      return "RobustScaler-HP";
    case ScalerVariant::kResponseTime:
      return "RobustScaler-RT";
    case ScalerVariant::kCost:
      return "RobustScaler-cost";
  }
  return "RobustScaler";
}

sim::ScalingAction RobustScalerPolicy::Initialize(const sim::SimContext& ctx) {
  return RunMonteCarloRound(PlanningRound(ctx), &rng_, &workspace_);
}

sim::ScalingAction RobustScalerPolicy::OnPlanningTick(
    const sim::SimContext& ctx) {
  return RunMonteCarloRound(PlanningRound(ctx), &rng_, &workspace_);
}

std::size_t RobustScalerPolicy::CommitDepth(double now) const {
  // `now` is already on the forecast-local clock (PlanningRound converts).
  // Section VII-A1: κ is time-dependent, computed from the local intensity.
  // λ̄ = max forecast rate over [now, now + window] so an imminent spike is
  // provisioned for.
  double lambda_bar = forecast_.Rate(now);
  const double step = std::max(forecast_.dt(), 1.0);
  for (double t = now; t <= now + options_.local_intensity_window; t += step) {
    lambda_bar = std::max(lambda_bar, forecast_.Rate(t));
  }
  lambda_bar = std::max(lambda_bar, 1e-9);

  const double alpha = options_.variant == ScalerVariant::kHittingProbability
                           ? options_.alpha
                           : options_.kappa_alpha;
  // κ depends on λ̄ through the smooth threshold λ̄·τ; it is defined at λ̄
  // quantized to 2% steps, so λ̄ drifting within a forecast bin does not
  // move it.
  const double quantized =
      std::exp(std::round(std::log(lambda_bar) * 50.0) / 50.0);
  std::size_t kappa = 0;
  auto result = ComputeKappaBinarySearch(alpha, quantized, pending_.Mean(),
                                         options_.max_creations_per_round);
  if (result.ok()) {
    kappa = result.ValueOrDie();
  } else {
    RS_LOG(Warning) << "RobustScalerPolicy: kappa failed: "
                    << result.status().ToString();
  }
  // m: expected arrivals within one planning interval, at least one.
  const auto m = static_cast<std::size_t>(
      std::ceil(lambda_bar * options_.planning_interval));
  return std::min(kappa + std::max<std::size_t>(m, 1),
                  options_.max_creations_per_round);
}

RoundParams RobustScalerPolicy::PlanningRound(
    const sim::SimContext& ctx) const {
  // Forecast queries run on the forecast-local clock; scheduled creation
  // times stay on the simulation clock (the offset cancels in x_rel).
  const double now = ctx.now - options_.forecast_origin;
  const std::size_t outstanding = ctx.Outstanding();

  // Decisions are committed once per upcoming-query index (the essence of
  // Algorithm 4): the first `outstanding` upcoming queries already have
  // instances scheduled or alive, so this round plans indices
  // outstanding+1 … depth, where depth = κ(now) + m keeps the scheme the
  // provably-sufficient κ+1 arrivals ahead. The cumulative exposure of the
  // already-covered queries is drawn as Gamma(outstanding, 1); each later
  // query advances every Monte Carlo path by an Exp(1) increment and maps
  // to arrival time via time rescaling ξ = Λ⁻¹(Λ(now) + γ) − now.
  const std::size_t depth = CommitDepth(now);

  RoundParams params;
  params.forecast = &forecast_;
  params.pending = &pending_;
  params.variant = options_.variant;
  params.alpha = options_.alpha;
  params.rt_excess = options_.rt_excess;
  params.idle_budget = options_.idle_budget;
  params.now = now;
  params.emit_origin = ctx.now;
  params.r_count = options_.mc_samples;
  params.skip = outstanding;
  params.count = outstanding < depth ? depth - outstanding : 0;
  params.stop_on_unbounded = true;
  params.who = name();
  return params;
}

HpCountScaler::HpCountScaler(workload::PiecewiseConstantIntensity forecast,
                             stats::DurationDistribution pending,
                             HpCountScalerOptions options)
    : forecast_(std::move(forecast)),
      pending_(pending),
      options_(options),
      rng_(options.seed) {
  RS_CHECK(options_.m >= 1) << "m must be >= 1";
  RS_CHECK(options_.mc_samples >= 1) << "mc_samples must be >= 1";
}

sim::ScalingAction HpCountScaler::Initialize(const sim::SimContext& ctx) {
  double lambda_bar = options_.lambda_bar;
  if (!(lambda_bar > 0.0)) lambda_bar = forecast_.MaxRate();
  auto kappa = ComputeKappaMonteCarlo(&rng_, options_.alpha, lambda_bar,
                                      pending_, options_.mc_samples);
  if (!kappa.ok()) {
    RS_LOG(Warning) << "HpCountScaler: kappa failed: "
                    << kappa.status().ToString();
    kappa_ = 0;
  } else {
    kappa_ = kappa.ValueOrDie();
  }
  // Line 4 of Algorithm 4: initial plan covers queries 1 … κ+m.
  return PlanAhead(ctx.now, 1, kappa_ + options_.m);
}

sim::ScalingAction HpCountScaler::OnQueryArrival(const sim::SimContext& ctx,
                                                 bool cold_start) {
  (void)cold_start;
  ++arrivals_since_plan_;
  if (arrivals_since_plan_ < options_.m) return {};
  arrivals_since_plan_ = 0;
  // Line 6: plan for the (κ+1)-th … (κ+m)-th upcoming queries.
  return PlanAhead(ctx.now, kappa_ + 1, options_.m);
}

sim::ScalingAction HpCountScaler::PlanAhead(double now, std::size_t first_j,
                                            std::size_t count) {
  RoundParams params;
  params.forecast = &forecast_;
  params.pending = &pending_;
  params.variant = ScalerVariant::kHittingProbability;
  params.alpha = options_.alpha;
  params.now = now;
  params.emit_origin = now;
  params.r_count = options_.mc_samples;
  params.skip = first_j - 1;
  params.count = count;
  params.stop_on_unbounded = false;
  params.who = name();
  return RunMonteCarloRound(params, &rng_, &workspace_);
}

}  // namespace rs::core
