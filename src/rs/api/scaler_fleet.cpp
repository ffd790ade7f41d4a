#include "rs/api/scaler_fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <mutex>
#include <ostream>
#include <sstream>

#include "rs/api/serving_tap.hpp"
#include "rs/fault/fault.hpp"
#include "rs/persist/atomic_file.hpp"
#include "rs/persist/fields.hpp"

namespace rs::api {

namespace {

/// Layout version of the FLET record (the TENT record has no version of its
/// own: its fields are a name, a versioned SCLR record, and optional
/// versioned FRSH / HLTH sections). v2 added the freshness policy +
/// per-tenant freshness state; v3 added the per-tenant HLTH health section.
/// v1/v2 files load as freshness-disabled / default-health fleets.
constexpr std::uint32_t kFleetLayerVersion = 3;
/// Payload layout inside kTagFreshness (per-tenant loop state).
constexpr std::uint32_t kFreshnessVersion = 1;
/// Payload layout inside kTagFreshnessPolicy. v2 stores the ADMM stopping
/// rule's ε_abs/ε_rel in the two tolerance slots. A v1 payload held raw
/// residual-norm bounds there that no refit ever met (every fit ran to the
/// iteration cap); they have no meaning under the scaled rule, so a v1
/// policy loads with the current default ε_abs/ε_rel.
constexpr std::uint32_t kPolicyVersion = 2;
/// Payload layout inside kTagHealth (per-tenant degradation state).
constexpr std::uint32_t kHealthVersion = 1;
/// Largest FreshnessPolicy::retrain_workers EnableFreshness accepts, so a
/// hand-built policy section cannot make LoadFleet spawn 2^40 threads.
constexpr std::size_t kMaxRetrainWorkers = 256;

/// SplitMix64 step — the per-tenant backoff-jitter stream. Self-contained so
/// the jitter sequence is pinned by this file, not by a library's
/// distribution implementation.
std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double NextUnit(std::uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

/// Seeds one tenant's jitter stream from the policy seed and the tenant
/// name (FNV-1a, not std::hash: the stream must not depend on the standard
/// library build, or replay across toolchains would drift).
std::uint64_t JitterSeed(std::uint64_t seed, const std::string& name) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ull;
  }
  std::uint64_t state = seed ^ h;
  return SplitMix64(&state);
}

Status UnknownTenant(const char* op, const std::string& tenant) {
  std::ostringstream msg;
  msg << "ScalerFleet::" << op << ": unknown tenant \"" << tenant << '"';
  return Status::Invalid(msg.str());
}

/// Builds the drift detector a tenant serves against: the trained model's
/// forecast rates on the forecast grid anchored at serving time `base`,
/// with the bins already elapsed by `now` skipped (origin lands on the
/// first bin boundary at or after `now`), so the gap between the fit
/// window's end and the swap boundary is never misread as silence.
Result<ts::DriftDetector> MakeDetectorFor(const ts::DriftDetectorOptions& opts,
                                          const core::TrainedPipeline& trained,
                                          double base, double now) {
  const auto& forecast = trained.forecast;
  const double dt = forecast.dt();
  const auto& rates = forecast.rates();
  std::size_t skip = 0;
  if (now > base) {
    skip = static_cast<std::size_t>(std::ceil((now - base) / dt - 1e-9));
  }
  std::vector<double> expected;
  if (skip < rates.size()) {
    expected.assign(rates.begin() + static_cast<std::ptrdiff_t>(skip),
                    rates.end());
  } else {
    // The forecast ran out before serving caught up; hold its last level.
    expected.assign(1, rates.back());
  }
  const double origin = base + static_cast<double>(skip) * dt;
  return ts::DriftDetector::Make(opts, std::move(expected), dt,
                                 trained.period.period, origin);
}

/// Every check a FreshnessPolicy must pass before EnableFreshness changes
/// anything. The detector knobs go through DriftDetector::Make on a
/// placeholder forecast: every trained forecast is a valid intensity, so
/// attaching a tenant under a validated policy cannot fail, and rebinding
/// restored loop state installs only knobs a fresh attach would accept.
Status ValidatePolicy(const FreshnessPolicy& policy) {
  if (!(policy.pipeline.dt > 0.0)) {
    return Status::Invalid("ScalerFleet::EnableFreshness: pipeline.dt <= 0");
  }
  if (!std::isfinite(policy.min_retrain_interval) ||
      policy.min_retrain_interval < 0.0) {
    return Status::Invalid(
        "ScalerFleet::EnableFreshness: min_retrain_interval must be finite "
        "and >= 0");
  }
  if (policy.retrain_workers > kMaxRetrainWorkers) {
    return Status::Invalid(
        "ScalerFleet::EnableFreshness: retrain_workers " +
        std::to_string(policy.retrain_workers) + " exceeds the cap of " +
        std::to_string(kMaxRetrainWorkers));
  }
  auto detector = ts::DriftDetector::Make(policy.detector, {1.0}, 1.0, 0, 0.0);
  if (!detector.ok()) {
    return Status::Invalid("ScalerFleet::EnableFreshness: " +
                           detector.status().message());
  }
  return Status::OK();
}

/// The FPOL record: exactly the pipeline knobs the background refit
/// consumes, the detector knobs and the retrain cadence.
template <class Io, class Rec>
Status PolicyFields(Io& io, Rec& policy) {
  auto& pipeline = policy.pipeline;
  auto& detector = policy.detector;
  io.Section("freshness policy", persist::kTagFreshnessPolicy, [&] {
    const std::uint32_t version =
        io.Version("fleet snapshot freshness-policy", kPolicyVersion);
    io("dt", pipeline.dt);
    io("beta1", pipeline.beta1);
    io("beta2", pipeline.beta2);
    io("forecast_horizon", pipeline.forecast_horizon);
    io("admm.rho", pipeline.admm.rho);
    io("admm.max_iterations", pipeline.admm.max_iterations);
    if (version >= 2) {
      io("admm.abs_tolerance", pipeline.admm.abs_tolerance);
      io("admm.rel_tolerance", pipeline.admm.rel_tolerance);
    } else {
      // v1's raw residual-norm bounds: read and dropped, so the policy
      // keeps the default ε_abs/ε_rel.
      double raw_bound = 0.0;
      io("admm.v1_abs_bound", raw_bound);
      io("admm.v1_rel_bound", raw_bound);
    }
    io("admm.r_clamp", pipeline.admm.r_clamp);
    io("periodicity.aggregate_factor", pipeline.periodicity.aggregate_factor);
    io("detector.warmup_bins", detector.warmup_bins);
    io("detector.min_rate", detector.min_rate);
    io("detector.delta", detector.delta);
    io("detector.threshold", detector.threshold);
    io("detector.min_profile_correlation", detector.min_profile_correlation);
    io("detector.profile_cusum_threshold", detector.profile_cusum_threshold);
    io("detector.check_periodicity", detector.check_periodicity);
    io("min_retrain_interval", policy.min_retrain_interval);
    io("retrain_workers", policy.retrain_workers);
  });
  return io.status();
}

/// What the FLET record holds ahead of its TENT records.
struct FleetHead {
  bool freshness = false;
  FreshnessPolicy policy;
  std::uint64_t tenants = 0;
};

/// The FLET record's head: the layout version, the freshness policy when
/// the loop is on (v2+), and the number of TENT records that follow.
template <class Io, class Rec>
Status FleetHeadFields(Io& io, Rec& head) {
  const std::uint32_t version =
      io.Version("fleet snapshot record", kFleetLayerVersion);
  if (version >= 2) io("freshness", head.freshness);
  if (head.freshness) PolicyFields(io, head.policy);
  io("tenants", head.tenants);
  return io.status();
}

/// The FRSH record's scalars (per-tenant loop state); the DRFT and TSES
/// records follow them in the same section.
template <class Io, class Base, class Fresh>
Status FreshnessFields(Io& io, Base& base, Fresh& fresh) {
  io.Version("tenant snapshot freshness", kFreshnessVersion);
  io("model_origin", base);
  io("shift", fresh.shift);
  io("last_attempt", fresh.last_attempt);
  io("drift_counted", fresh.drift_counted);
  io("drift_events", fresh.counters.drift_events);
  io("retrains_completed", fresh.counters.retrains_completed);
  io("retrain_failures", fresh.counters.retrain_failures);
  io("swaps_applied", fresh.counters.swaps_applied);
  io("last_swap_time", fresh.counters.last_swap_time);
  return io.status();
}

/// The head of the TENT record: the tenant's name. The tenant's SCLR
/// record, then its optional FRSH and HLTH records, follow it.
template <class Io, class Name>
Status TenantHeadFields(Io& io, Name& name) {
  io("name", name);
  return io.status();
}

/// The HLTH record.
template <class Io, class Rec>
Status HealthFields(Io& io, Rec& h) {
  io.Section("health", persist::kTagHealth, [&] {
    io.Version("tenant snapshot health", kHealthVersion);
    io("state", h.health, TenantHealth::kQuarantined);
    io("consecutive_plan_failures", h.consecutive_plan_failures);
    io("plan_failures", h.plan_failures);
    io("fallbacks_served", h.fallbacks_served);
    io("rejected_observations", h.rejected_observations);
    io("breaker_opens", h.breaker_opens);
    io("probes", h.probes);
    io("deadline_overruns", h.deadline_overruns);
    io("consecutive_retrain_failures", h.consecutive_retrain_failures);
    io("open_count", h.open_count);
    io("freshness_errors", h.freshness_errors);
    io("retry_at", h.retry_at);
    io("retrain_retry_at", h.retrain_retry_at);
    io("jitter_rng", h.jitter_rng);
  });
  return io.status();
}

/// One tenant's degradation record: the public TenantHealthInfo, which
/// Health() and Snapshot() hand out by slicing, plus the breaker's private
/// state. Mutated only on the caller thread (BreakerGate before the
/// fan-out, NotePlanOutcome after the join) except for deadline_overruns,
/// which the owning worker bumps — per-tenant safe.
struct HealthState : TenantHealthInfo {
  /// Consecutive breaker opens without an intervening success (drives the
  /// exponential backoff).
  std::uint64_t open_count = 0;
  /// Per-tenant SplitMix64 stream for backoff jitter (seeded from
  /// RobustnessPolicy::jitter_seed mixed with the tenant name).
  std::uint64_t jitter_rng = 0;
  /// A half-open probe is in flight this boundary: its outcome decides
  /// recovery vs. re-open.
  bool probe_inflight = false;
};

}  // namespace

const char* TenantHealthToString(TenantHealth health) {
  switch (health) {
    case TenantHealth::kHealthy:
      return "healthy";
    case TenantHealth::kDegraded:
      return "degraded";
    case TenantHealth::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

/// Output slot of one background retrain. The pool task owns its own
/// point-in-time session copy, does nothing but the fit, and publishes the
/// result here under `mu`; all scaler construction and serving carry happen
/// on the caller thread at the swap boundary (the injected decision clock
/// is never touched from the pool).
struct ScalerFleet::RetrainJob {
  std::mutex mu;
  bool done = false;
  Status status;
  std::optional<core::TrainedPipeline> trained;
  /// Fleet serving time of the refit window's end — the replacement's
  /// forecast origin, so the new serving base after the swap.
  double base = 0.0;
};

/// One tenant's freshness loop: exists exactly while the loop is attached
/// (AttachFreshness builds it; a restored tenant brings it from its FRSH
/// section).
struct ScalerFleet::FreshState {
  ts::DriftDetector detector;
  train::TrainingSession session;
  /// Session (trace) time = fleet serving time + shift. Fixed at attach:
  /// fleet time Tenant::base maps to the session window's end.
  double shift = 0.0;
  double last_attempt = -std::numeric_limits<double>::infinity();
  bool drift_counted = false;  ///< Current latch already in drift_events.
  /// The lifetime counters Freshness() reports (drift_events,
  /// retrains_completed, retrain_failures, swaps_applied, last_swap_time);
  /// its other fields are derived on read.
  TenantFreshness counters;
  std::shared_ptr<RetrainJob> job;  ///< In-flight retrain, if any.
};

struct ScalerFleet::Tenant {
  std::string name;
  Scaler scaler;
  /// Fleet serving time of the live model's forecast origin. The scaler is
  /// driven at `fleet_time - base`; creation times come back rebased by
  /// `+ base`. 0 until the first background swap.
  double base = 0.0;
  /// Deferred ReplaceModelAtNextPlan (a pointer: the slot is almost always
  /// empty, and a Scaler is large).
  std::unique_ptr<Scaler> pending_manual;
  std::unique_ptr<FreshState> fresh;     ///< Null while the loop is detached.
  HealthState health;

  Tenant(std::string n, Scaler s) : name(std::move(n)), scaler(std::move(s)) {}
  /// The tenant's position on the fleet serving clock.
  double now() const { return scaler.Snapshot().now + base; }
};

ScalerFleet::ScalerFleet(std::size_t worker_threads)
    : pool_(std::make_unique<common::ThreadPool>(worker_threads)) {}

ScalerFleet::ScalerFleet(ScalerFleet&&) noexcept = default;
ScalerFleet& ScalerFleet::operator=(ScalerFleet&&) noexcept = default;
ScalerFleet::~ScalerFleet() = default;

std::size_t ScalerFleet::FindIndex(const std::string& tenant) const {
  const auto it = index_.find(tenant);
  return it == index_.end() ? tenants_.size() : it->second;
}

Status ScalerFleet::Register(std::string tenant, Scaler scaler) {
  return RegisterTenant(
      std::make_unique<Tenant>(std::move(tenant), std::move(scaler)));
}

Status ScalerFleet::RegisterTenant(std::unique_ptr<Tenant> tenant) {
  if (tenant->name.empty()) {
    return Status::Invalid("ScalerFleet::Register: tenant name is empty");
  }
  if (FindIndex(tenant->name) != tenants_.size()) {
    std::ostringstream msg;
    msg << "ScalerFleet::Register: tenant \"" << tenant->name
        << "\" already registered (Retire or ReplaceModel it instead)";
    return Status::Invalid(msg.str());
  }
  tenants_.push_back(std::move(tenant));
  index_[tenants_.back()->name] = tenants_.size() - 1;
  Tenant* entry = tenants_.back().get();
  if (entry->health.jitter_rng == 0) {
    // Fresh tenant: seed its backoff-jitter stream. A restored tenant
    // brought a persisted stream position (never 0 after SplitMix64) and
    // keeps it, so replay across save/load stays deterministic.
    entry->health.jitter_rng = JitterSeed(robustness_.jitter_seed, entry->name);
  }
  if (policy_.has_value()) {
    Status bound = BindFreshness(entry);
    if (!bound.ok()) {
      index_.erase(entry->name);
      tenants_.pop_back();
      return bound;
    }
  }
  if (tap_ != nullptr) tap_->OnRegister(entry->name, entry->scaler);
  return Status::OK();
}

Status ScalerFleet::Retire(const std::string& tenant) {
  const std::size_t i = FindIndex(tenant);
  if (i == tenants_.size()) return UnknownTenant("Retire", tenant);
  // An in-flight retrain job keeps itself alive through the task's own
  // shared_ptr; dropping the tenant just discards the eventual result.
  tenants_.erase(tenants_.begin() + static_cast<std::ptrdiff_t>(i));
  // Every later tenant shifted down one slot; lifecycle is rare, arrival
  // routing is not, so pay the O(T) reindex here.
  index_.erase(tenant);
  for (auto& [name, index] : index_) {
    if (index > i) --index;
  }
  if (tap_ != nullptr) tap_->OnRetire(tenant);
  return Status::OK();
}

Status ScalerFleet::ReplaceModel(const std::string& tenant, Scaler scaler) {
  const std::size_t i = FindIndex(tenant);
  if (i == tenants_.size()) return UnknownTenant("ReplaceModel", tenant);
  RS_RETURN_NOT_OK(InstallReplacement(i, std::move(scaler), /*new_base=*/0.0,
                                      tenants_[i]->now(),
                                      /*reset_session=*/true));
  if (tap_ != nullptr) {
    // Post-install, post-carry: exactly the state a re-drive swaps in.
    tap_->OnReplaceModel(tenant, tenants_[i]->scaler, /*at_next_plan=*/false);
  }
  return Status::OK();
}

Status ScalerFleet::ReplaceModelAtNextPlan(const std::string& tenant,
                                           Scaler scaler) {
  const std::size_t i = FindIndex(tenant);
  if (i == tenants_.size()) {
    return UnknownTenant("ReplaceModelAtNextPlan", tenant);
  }
  Tenant& entry = *tenants_[i];
  entry.pending_manual = std::make_unique<Scaler>(std::move(scaler));
  if (tap_ != nullptr) {
    tap_->OnReplaceModel(tenant, *entry.pending_manual, /*at_next_plan=*/true);
  }
  return Status::OK();
}

// -- Model freshness ----------------------------------------------------------

Status ScalerFleet::EnableFreshness(const FreshnessPolicy& policy) {
  if (tap_ != nullptr) {
    return Status::Invalid(
        "ScalerFleet::EnableFreshness: a serving tap is attached; background "
        "retrains finish at wall-time-dependent moments that no recorded "
        "event stream could re-drive deterministically (DetachTap first)");
  }
  RS_RETURN_NOT_OK(ValidatePolicy(policy));
  policy_ = policy;
  // Refits run on the retrain pool's threads (or inline at the enqueue
  // point); a caller-supplied training pool must not leak into them.
  policy_->pipeline.training_pool = nullptr;
  policy_->pipeline.periodicity.pool = nullptr;
  policy_->pipeline.admm.pool = nullptr;
  // Recreating the pool joins any old one first; results of old-policy
  // jobs stay published in their RetrainJob slots and still swap in.
  retrain_pool_ = std::make_unique<common::ThreadPool>(policy.retrain_workers);
  for (auto& entry : tenants_) RS_RETURN_NOT_OK(BindFreshness(entry.get()));
  return Status::OK();
}

Status ScalerFleet::BindFreshness(Tenant* tenant) {
  if (tenant->fresh == nullptr) return AttachFreshness(tenant, tenant->now());
  tenant->fresh->session.set_options(policy_->pipeline);
  tenant->fresh->detector.set_options(policy_->detector);
  return Status::OK();
}

Status ScalerFleet::AttachFreshness(Tenant* tenant, double now) {
  RS_ASSIGN_OR_RETURN(auto detector,
                      MakeDetectorFor(policy_->detector,
                                      tenant->scaler.trained(), tenant->base,
                                      now));
  if (tenant->fresh == nullptr) tenant->fresh = std::make_unique<FreshState>();
  FreshState& fresh = *tenant->fresh;
  fresh.detector = std::move(detector);
  fresh.session = train::TrainingSession::FromTrained(tenant->scaler.trained(),
                                                      policy_->pipeline);
  // Fleet time `base` corresponds to the end of the trained window.
  fresh.shift = fresh.session.window_end() - tenant->base;
  return Status::OK();
}

Result<TenantFreshness> ScalerFleet::Freshness(
    const std::string& tenant) const {
  const std::size_t i = FindIndex(tenant);
  if (i == tenants_.size()) return UnknownTenant("Freshness", tenant);
  const FreshState* fresh = tenants_[i]->fresh.get();
  if (fresh == nullptr) return TenantFreshness{};
  TenantFreshness out = fresh->counters;
  out.enabled = policy_.has_value();
  out.drift = fresh->detector.kind();
  out.drift_time = fresh->detector.fired_time();
  out.retrain_inflight = fresh->job != nullptr;
  if (fresh->detector.fired() && !fresh->drift_counted) {
    // The pre-plan pass has not folded the current latch in yet.
    out.drift_events += 1;
  }
  out.model_origin = tenants_[i]->base;
  out.window_end = fresh->session.window_end() - fresh->shift;
  return out;
}

Status ScalerFleet::RequestRetrain(const std::string& tenant) {
  const std::size_t i = FindIndex(tenant);
  if (i == tenants_.size()) return UnknownTenant("RequestRetrain", tenant);
  if (!policy_.has_value()) {
    return Status::Invalid(
        "ScalerFleet::RequestRetrain: freshness is not enabled (call "
        "EnableFreshness first)");
  }
  Tenant& entry = *tenants_[i];
  RS_RETURN_NOT_OK(BindFreshness(&entry));
  FreshState& fresh = *entry.fresh;
  const double now = entry.now();
  RS_RETURN_NOT_OK(fresh.session.ExtendTo(now + fresh.shift));
  MaybeEnqueueRetrain(i, now, /*forced=*/true);
  return Status::OK();
}

void ScalerFleet::FreshnessPrePlan(std::size_t i, double now) {
  // Order matters: a finished result swaps in first (the boundary is the
  // earliest tear-free point), then the detector closes the bins up to the
  // boundary so silence counts as evidence, then drift may enqueue.
  MaybeApplySwap(i, now);
  FreshState* fresh = tenants_[i]->fresh.get();
  if (fresh == nullptr || !policy_.has_value()) return;
  fresh->detector.AdvanceTo(now);
  if (!fresh->session.ExtendTo(now + fresh->shift).ok()) {
    ++tenants_[i]->health.freshness_errors;
  }
  MaybeEnqueueRetrain(i, now, /*forced=*/false);
}

void ScalerFleet::MaybeApplySwap(std::size_t i, double now) {
  Tenant& tenant = *tenants_[i];
  HealthState& health = tenant.health;
  // A failed retrain never evicts the last-good model: the tenant keeps
  // serving whatever it has, the failure is counted, and the next attempt
  // waits out a capped exponential backoff (off by default — base 0 keeps
  // the pre-existing retry-at-next-boundary behavior). Only an attached
  // loop can fail a swap, so `fresh` is set whenever this runs.
  const auto note_retrain_failure = [&](const Status& st) {
    ++tenant.fresh->counters.retrain_failures;
    ++health.consecutive_retrain_failures;
    health.last_error = st;
    if (robustness_.retrain_backoff_base > 0.0) {
      const int doublings = static_cast<int>(std::min<std::uint64_t>(
          health.consecutive_retrain_failures - 1, 1024));
      health.retrain_retry_at =
          now + std::min(robustness_.retrain_backoff_max,
                         robustness_.retrain_backoff_base *
                             std::ldexp(1.0, doublings));
    }
  };
  if (tenant.pending_manual != nullptr) {
    // A deferred manual replacement outranks a background result (the
    // caller decided; the stale background fit is dropped with the job).
    Scaler replacement = std::move(*tenant.pending_manual);
    tenant.pending_manual.reset();
    if (tenant.fresh != nullptr) tenant.fresh->job.reset();
    Status st = InstallReplacement(i, std::move(replacement), /*new_base=*/0.0,
                                   now, /*reset_session=*/true);
    if (!st.ok()) note_retrain_failure(st);
    return;
  }
  if (tenant.fresh == nullptr || tenant.fresh->job == nullptr) return;
  FreshState& fresh = *tenant.fresh;
  core::TrainedPipeline trained;
  double base = 0.0;
  Status job_status = Status::OK();
  {
    std::lock_guard<std::mutex> lock(fresh.job->mu);
    if (!fresh.job->done) return;  // Still fitting; keep serving the old model.
    job_status = fresh.job->status;
    if (job_status.ok()) {
      trained = std::move(*fresh.job->trained);
      base = fresh.job->base;
    }
  }
  // Reset only after the guard released: dropping the last reference inside
  // the lock scope would destroy the mutex while it is still held.
  fresh.job.reset();
  if (!job_status.ok()) {
    note_retrain_failure(job_status);
    return;
  }
  // The live session adopts the fit's iterate so the *next* refit warm-starts
  // from it, while keeping the arrivals accumulated since the job's copy.
  fresh.session.AdoptFit(trained);
  Scaler& retiring = tenant.scaler;
  auto built = Scaler::FromTrainedPipeline(
      std::move(trained), retiring.spec_, retiring.build_context_);
  if (!built.ok()) {
    note_retrain_failure(built.status());
    return;
  }
  Scaler replacement = std::move(built).ValueOrDie();
  // Background swaps keep the tenant's full serving configuration (the
  // replacement is unstarted, so ConfigureServing accepts it; the injected
  // decision clock rides along inside the options).
  Status configured = replacement.ConfigureServing(retiring.serving_options());
  if (!configured.ok()) {
    note_retrain_failure(configured);
    return;
  }
  Status installed = InstallReplacement(i, std::move(replacement), base, now,
                                        /*reset_session=*/false);
  if (!installed.ok()) {
    note_retrain_failure(installed);
    return;
  }
  ++fresh.counters.retrains_completed;
  health.consecutive_retrain_failures = 0;
  health.retrain_retry_at = -std::numeric_limits<double>::infinity();
}

void ScalerFleet::MaybeEnqueueRetrain(std::size_t i, double now, bool forced) {
  FreshState& fresh = *tenants_[i]->fresh;
  if (fresh.detector.fired() && !fresh.drift_counted) {
    ++fresh.counters.drift_events;
    fresh.drift_counted = true;
  }
  if (fresh.job != nullptr) return;  // One in-flight job per tenant.
  if (!forced) {
    if (!fresh.detector.fired()) return;
    if (now - fresh.last_attempt < policy_->min_retrain_interval) return;
    // Failed-retrain backoff (RobustnessPolicy::retrain_backoff_base):
    // drift stays latched, so the attempt re-enqueues once this expires.
    if (now < tenants_[i]->health.retrain_retry_at) return;
  }
  fresh.last_attempt = now;
  // The job fits a point-in-time copy truncated to complete bins, so the
  // live session keeps accumulating while the fit runs.
  train::TrainingSession copy = fresh.session;
  if (!copy.ExtendTo(now + fresh.shift).ok()) return;
  copy.TruncateToCompleteBins(now + fresh.shift);
  if (copy.bins() < 3) return;  // Too little window to fit; try again later.
  auto job = std::make_shared<RetrainJob>();
  job->base = copy.window_end() - fresh.shift;
  fresh.job = job;
  retrain_pool_->Submit([job, name = tenants_[i]->name,
                         session = std::move(copy)]() mutable {
    // Everything — injected faults, throws, a fit that "succeeds" with a
    // poisoned forecast — must land in job->status with job->done set: a
    // job stuck not-done would block this tenant's retrains forever.
    Status result;
    std::optional<core::TrainedPipeline> trained;
    try {
      result = [&]() -> Status {
        RS_FAULT_POINT_SCOPED("train.refit", name);
        RS_ASSIGN_OR_RETURN(core::TrainedPipeline fitted, session.Refit());
        for (const double rate : fitted.forecast.rates()) {
          if (!(std::isfinite(rate) && rate >= 0.0)) {
            return Status::NotConverged(
                "refit produced a non-finite or negative forecast rate; "
                "keeping the last-good model");
          }
        }
        trained = std::move(fitted);
        return Status::OK();
      }();
    } catch (const std::exception& e) {
      result = Status::RuntimeError(std::string("retrain threw: ") + e.what());
    } catch (...) {
      result = Status::RuntimeError("retrain threw (non-std)");
    }
    std::lock_guard<std::mutex> lock(job->mu);
    if (result.ok()) {
      job->trained = std::move(trained);
    } else {
      job->status = std::move(result);
    }
    job->done = true;
  });
}

Status ScalerFleet::InstallReplacement(std::size_t i, Scaler replacement,
                                       double new_base, double now,
                                       bool reset_session) {
  Tenant& tenant = *tenants_[i];
  CarryServingConfig(tenant.scaler, &replacement);
  tenant.scaler = std::move(replacement);
  tenant.base = new_base;
  if (tenant.fresh == nullptr) return Status::OK();
  FreshState& fresh = *tenant.fresh;
  fresh.counters.swaps_applied += 1;
  fresh.counters.last_swap_time = now;
  fresh.drift_counted = false;
  if (!policy_.has_value()) return Status::OK();
  if (reset_session) {
    // Manual swap: the incoming model's own training window seeds the loop.
    return AttachFreshness(&tenant, now);
  }
  // Background swap: keep the accumulated session (it already adopted the
  // fit); only the detector restarts, against the new model's forecast.
  RS_ASSIGN_OR_RETURN(
      fresh.detector, MakeDetectorFor(policy_->detector,
                                      tenant.scaler.trained(), new_base, now));
  return Status::OK();
}

void ScalerFleet::CarryServingConfig(const Scaler& retiring,
                                     Scaler* replacement) {
  // A ConfigureHistoryRetention widening survives the swap (never narrows
  // a wider replacement setting).
  replacement->retention_override_ =
      std::max(replacement->retention_override_, retiring.retention_override());
  // Decision-clock position: deterministic clocks export one; carrying it
  // keeps charged decision time monotone across the swap. Steady clocks
  // export nothing (wall time resumes naturally), and a replacement whose
  // clock refuses the import just starts fresh — both are fine to ignore.
  double time = 0.0;
  std::uint64_t readings = 0;
  if (retiring.serving_clock()->ExportPosition(&time, &readings)) {
    Status imported = replacement->serving_clock()->ImportPosition(time,
                                                                   readings);
    (void)imported;
  }
}

// -- Graceful degradation -----------------------------------------------------

void ScalerFleet::ConfigureRobustness(const RobustnessPolicy& policy) {
  robustness_ = policy;
  // Re-seed every tenant's jitter stream so the policy change pins a fresh,
  // reproducible backoff schedule.
  for (auto& entry : tenants_) {
    entry->health.jitter_rng = JitterSeed(policy.jitter_seed, entry->name);
  }
}

Result<TenantHealthInfo> ScalerFleet::Health(const std::string& tenant) const {
  const std::size_t i = FindIndex(tenant);
  if (i == tenants_.size()) return UnknownTenant("Health", tenant);
  return static_cast<const TenantHealthInfo&>(tenants_[i]->health);
}

bool ScalerFleet::BreakerGate(std::size_t i, double now, TenantPlan* plan) {
  Tenant& tenant = *tenants_[i];
  HealthState& health = tenant.health;
  plan->tenant = tenant.name;
  if (health.health != TenantHealth::kQuarantined) return false;
  if (now >= health.retry_at) {
    // Backoff expired: half-open probe. Let the real plan run; its outcome
    // (in NotePlanOutcome) decides recovery vs. re-open.
    ++health.probes;
    health.probe_inflight = true;
    return false;
  }
  // Quarantined: the scaler is not touched at all — its mirror clock holds,
  // and the deterministic catch-up happens at whichever boundary probes it
  // back in. The boundary itself is served (fallback, last-good plan).
  plan->degraded = true;
  ++health.fallbacks_served;
  return true;
}

void ScalerFleet::PlanTenant(std::size_t i, double now, TenantPlan* plan) {
  Tenant& tenant = *tenants_[i];
  const double base = tenant.base;
  const bool timed = std::isfinite(robustness_.plan_deadline);
  const auto started = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
  try {
#if !defined(RS_NO_FAULT_INJECTION)
    // Before the scaler is touched: an injected boundary failure must leave
    // the mirror clock where it was, so the eventual recovery replays the
    // same catch-up under every worker count.
    Status injected = rs::fault::Hit("fleet.plan", tenant.name);
    if (!injected.ok()) {
      plan->status = std::move(injected);
      return;
    }
#endif
    auto planned = tenant.scaler.Plan(now - base);
    if (!planned.ok()) {
      plan->status = planned.status();
      return;
    }
    plan->action = std::move(planned).ValueOrDie();
    if (base != 0.0) {
      for (double& t : plan->action.creation_times) t += base;
    }
  } catch (const std::exception& e) {
    plan->action = {};
    plan->status =
        Status::RuntimeError(std::string("plan boundary threw: ") + e.what());
    return;
  } catch (...) {
    plan->action = {};
    plan->status = Status::RuntimeError("plan boundary threw (non-std)");
    return;
  }
  if (timed) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    if (elapsed > robustness_.plan_deadline) {
      // Too late to act on: discard the computed action and let the
      // outcome pass serve fallback. Worker-side counter bump is safe —
      // exactly one worker owns tenant i this batch.
      std::ostringstream msg;
      msg << "plan boundary overran its deadline (" << elapsed << " s > "
          << robustness_.plan_deadline << " s)";
      plan->action = {};
      plan->status = Status::RuntimeError(msg.str());
      ++tenant.health.deadline_overruns;
    }
  }
}

void ScalerFleet::NotePlanOutcome(std::size_t i, double now, TenantPlan* plan) {
  Tenant& tenant = *tenants_[i];
  HealthState& health = tenant.health;
  if (plan->degraded) return;  // Breaker-gated: bookkept in BreakerGate.
  if (plan->status.ok()) {
    health.consecutive_plan_failures = 0;
    if (health.probe_inflight) {
      // The half-open probe succeeded: full recovery.
      health.probe_inflight = false;
      health.open_count = 0;
      health.retry_at = -std::numeric_limits<double>::infinity();
    }
    health.health = TenantHealth::kHealthy;
    return;
  }
  if (plan->status.code() == StatusCode::kInvalidArgument) {
    // Caller bug (regressive/non-finite clock): propagate the error, never
    // feed the breaker — with faults off this is the only failure mode, so
    // the machinery stays byte-invisible. An Invalid probe neither recovers
    // nor re-opens; the next boundary probes again.
    health.probe_inflight = false;
    health.last_error = plan->status;
    return;
  }
  // Real failure: count it, serve fallback (the last-good plan stays in
  // effect; this boundary hands back an empty action with OK status).
  health.last_error = plan->status;
  ++health.plan_failures;
  ++health.consecutive_plan_failures;
  ++health.fallbacks_served;
  plan->status = Status::OK();
  plan->action = {};
  plan->degraded = true;
  const bool tripped =
      health.probe_inflight ||
      health.consecutive_plan_failures >=
          static_cast<std::uint64_t>(robustness_.breaker_threshold);
  health.probe_inflight = false;
  if (!tripped) {
    health.health = TenantHealth::kDegraded;
    return;
  }
  // Trip (or re-trip) the breaker: quarantine under jittered exponential
  // backoff. The jitter draw comes from the tenant's own deterministic
  // stream, so the schedule replays exactly — but tenants that failed
  // together still spread their probes over distinct boundaries.
  health.health = TenantHealth::kQuarantined;
  ++health.breaker_opens;
  ++health.open_count;
  const int doublings = static_cast<int>(
      std::min<std::uint64_t>(health.open_count - 1, 1024));
  const double backoff = std::min(robustness_.backoff_max,
                                  robustness_.backoff_base *
                                      std::ldexp(1.0, doublings));
  const double jitter =
      robustness_.backoff_jitter * NextUnit(&health.jitter_rng);
  health.retry_at = now + backoff * (1.0 + jitter);
  health.consecutive_plan_failures = 0;  // The breaker absorbed the streak.
}

// -- Serving tap --------------------------------------------------------------

Status ScalerFleet::AttachTap(ServingTap* tap) {
  if (tap == nullptr) {
    return Status::Invalid(
        "ScalerFleet::AttachTap: tap is null (use DetachTap to detach)");
  }
  if (tap_ != nullptr && tap_ != tap) {
    return Status::Invalid(
        "ScalerFleet::AttachTap: another tap is already attached (one tap at "
        "a time; DetachTap it first)");
  }
  if (policy_.has_value()) {
    return Status::Invalid(
        "ScalerFleet::AttachTap: the freshness loop is enabled; its "
        "background retrains land at wall-time-dependent moments that no "
        "recorded event stream could re-drive deterministically (use manual "
        "ReplaceModel swaps under a tap instead)");
  }
  tap_ = tap;
  return Status::OK();
}

void ScalerFleet::DetachTap() { tap_ = nullptr; }

TapClockMark ScalerFleet::TapMark(const Scaler& scaler) {
  TapClockMark mark;
  mark.has_position =
      scaler.serving_clock()->ExportPosition(&mark.time, &mark.readings);
  return mark;
}

// -- Serving ------------------------------------------------------------------

std::vector<std::string> ScalerFleet::Tenants() const {
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& entry : tenants_) names.push_back(entry->name);
  return names;
}

Scaler* ScalerFleet::Find(const std::string& tenant) {
  const std::size_t i = FindIndex(tenant);
  return i == tenants_.size() ? nullptr : &tenants_[i]->scaler;
}

const Scaler* ScalerFleet::Find(const std::string& tenant) const {
  return const_cast<ScalerFleet*>(this)->Find(tenant);
}

Status ScalerFleet::ConfigureServingAll(const sim::EngineOptions& options) {
  for (auto& entry : tenants_) {
    Status st = entry->scaler.ConfigureServing(options);
    if (!st.ok()) {
      std::ostringstream msg;
      msg << "ScalerFleet::ConfigureServingAll: tenant \"" << entry->name
          << "\": " << st.message();
      return Status(st.code(), msg.str());
    }
  }
  return Status::OK();
}

Result<Scaler::ObserveOutcome> ScalerFleet::Observe(const std::string& tenant,
                                                    double arrival_time) {
  const std::size_t i = FindIndex(tenant);
  if (i == tenants_.size()) return UnknownTenant("Observe", tenant);
  Tenant& entry = *tenants_[i];
#if !defined(RS_NO_FAULT_INJECTION)
  {
    // Direct Hit() so the rejection is counted like any malformed input.
    Status injected = rs::fault::Hit("fleet.observe", entry.name);
    if (!injected.ok()) {
      ++entry.health.rejected_observations;
      entry.health.last_error = injected;
      return injected;
    }
  }
#endif
  auto outcome = entry.scaler.Observe(arrival_time - entry.base);
  if (!outcome.ok()) {
    // Malformed arrival (NaN, ±inf, regressive time): the scaler rejected
    // it before its mirror was touched — count and refuse. One bad input
    // never poisons the tenant's serving state.
    ++entry.health.rejected_observations;
    entry.health.last_error = outcome.status();
    return outcome;
  }
  if (FreshState* fresh = entry.fresh.get();
      fresh != nullptr && policy_.has_value()) {
    // The same arrival feeds the drift statistics and the retrain window.
    fresh->detector.Observe(arrival_time);
    if (!fresh->session.AppendArrival(arrival_time + fresh->shift).ok()) {
      // The serving path must not fail on retrain bookkeeping; count it so
      // the operator sees a freshness loop quietly losing arrivals.
      ++entry.health.freshness_errors;
    }
  }
  if (tap_ != nullptr) {
    tap_->OnObserve(tenant, arrival_time, outcome.ValueOrDie());
  }
  return outcome;
}

Result<sim::ScalingAction> ScalerFleet::Plan(const std::string& tenant,
                                             double now) {
  const std::size_t i = FindIndex(tenant);
  if (i == tenants_.size()) return UnknownTenant("Plan", tenant);
  FreshnessPrePlan(i, now);
  // Same three-step boundary as one PlanAll slot: gate, plan, bookkeep.
  TenantPlan plan;
  if (!BreakerGate(i, now, &plan)) {
    PlanTenant(i, now, &plan);
    NotePlanOutcome(i, now, &plan);
  }
  if (!plan.status.ok()) return plan.status;
  if (tap_ != nullptr) {
    tap_->OnPlan(tenant, now, plan.action, TapMark(tenants_[i]->scaler));
  }
  return std::move(plan.action);
}

std::vector<ScalerFleet::TenantPlan> ScalerFleet::PlanAll(double now) {
  // The freshness pre-pass (swap / drift bookkeeping / enqueue) runs on the
  // caller thread in registration order — deterministic regardless of the
  // worker count — before any planning fans out.
  for (std::size_t i = 0; i < tenants_.size(); ++i) FreshnessPrePlan(i, now);
  // Slot-per-tenant output: workers scatter into their own index, the
  // ParallelFor join publishes the writes, and the returned order is the
  // registration order no matter which worker finished first.
  //
  // The degradation machinery brackets the fan-out on the caller thread:
  // breaker gates (which read/write health state and draw jitter) run
  // before, outcome bookkeeping after the join, both in registration order
  // — so the health state machine is deterministic under any worker count.
  std::vector<TenantPlan> plans(tenants_.size());
  std::vector<std::uint8_t> gated(tenants_.size(), 0);
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    gated[i] = BreakerGate(i, now, &plans[i]) ? 1 : 0;
  }
  common::ParallelFor(pool_.get(), tenants_.size(), [&](std::size_t i) {
    if (gated[i] == 0) PlanTenant(i, now, &plans[i]);
  });
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (gated[i] == 0) NotePlanOutcome(i, now, &plans[i]);
  }
  if (tap_ != nullptr) {
    // After the join, on the caller thread: clocks are quiescent and the
    // batch result is final, so the tap sees exactly what the caller gets.
    std::vector<TapClockMark> clocks(tenants_.size());
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      clocks[i] = TapMark(tenants_[i]->scaler);
    }
    tap_->OnPlanAll(now, plans, clocks);
  }
  return plans;
}

FleetSnapshot ScalerFleet::Snapshot() const {
  FleetSnapshot fleet;
  fleet.tenants = tenants_.size();
  fleet.per_tenant.reserve(tenants_.size());
  for (const auto& entry : tenants_) {
    ServingSnapshot snap = entry->scaler.Snapshot();
    fleet.tenants_started += snap.started ? 1 : 0;
    fleet.queries_observed += snap.queries_observed;
    fleet.instances_alive += snap.instances_alive;
    fleet.instances_ready += snap.instances_ready;
    fleet.scheduled_creations += snap.scheduled_creations;
    fleet.cold_starts += snap.cold_starts;
    fleet.creations_requested += snap.creations_requested;
    fleet.deletions_requested += snap.deletions_requested;
    fleet.planning_rounds += snap.planning_rounds;
    fleet.arrivals_retained += snap.arrivals_retained;
    fleet.actions_retained += snap.actions_retained;
    fleet.planning_workspace_bytes += snap.planning_workspace_bytes;
    fleet.per_tenant.emplace_back(entry->name, std::move(snap));
    const HealthState& health = entry->health;
    switch (health.health) {
      case TenantHealth::kHealthy:
        ++fleet.tenants_healthy;
        break;
      case TenantHealth::kDegraded:
        ++fleet.tenants_degraded;
        break;
      case TenantHealth::kQuarantined:
        ++fleet.tenants_quarantined;
        break;
    }
    fleet.rejected_observations += health.rejected_observations;
    fleet.plan_failures += health.plan_failures;
    fleet.fallbacks_served += health.fallbacks_served;
    fleet.breaker_opens += health.breaker_opens;
    fleet.per_tenant_health.emplace_back(entry->name, health);
  }
  return fleet;
}

// -- Durability & migration -------------------------------------------------

Status ScalerFleet::WriteTenantRecord(persist::Writer* writer,
                                      std::size_t index) const {
  const Tenant& tenant = *tenants_[index];
  writer->BeginSection(persist::kTagTenant);
  persist::Encoder io(writer);
  TenantHeadFields(io, tenant.name);
  RS_RETURN_NOT_OK(tenant.scaler.SaveStateSection(writer));
  if (tenant.fresh != nullptr) {
    // In-flight jobs and pending manual replacements are deliberately not
    // persisted: a latched drift survives, so a restored fleet simply
    // re-enqueues the retrain at its first plan boundary.
    writer->BeginSection(persist::kTagFreshness);
    FreshnessFields(io, tenant.base, *tenant.fresh);
    tenant.fresh->detector.Serialize(writer);
    tenant.fresh->session.Serialize(writer);
    writer->EndSection();
  }
  // Health rides along so a restored fleet resumes its degradation state
  // machine mid-backoff instead of amnesically re-probing everything.
  // probe_inflight and last_error are transient within one boundary /
  // diagnostic-only and are deliberately not persisted; RobustnessPolicy
  // is runtime configuration (like worker_threads) and is re-applied by
  // the operator after LoadFleet.
  HealthFields(io, tenant.health);
  writer->EndSection();
  return Status::OK();
}

Result<std::unique_ptr<ScalerFleet::Tenant>> ScalerFleet::ReadTenantRecord(
    persist::Reader* reader,
    const std::function<sim::DecisionClock*(const std::string&)>& clock_for,
    const FreshnessPolicy* policy) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagTenant));
  persist::Decoder io(reader);
  std::string name;
  RS_RETURN_NOT_OK(TenantHeadFields(io, name));
  if (name.empty()) {
    return Status::Invalid(
        "tenant snapshot carries an empty tenant name; the file is corrupt");
  }
  ScalerRestoreOptions restore;
  if (clock_for) restore.decision_clock = clock_for(name);
  RS_ASSIGN_OR_RETURN(Scaler scaler,
                      ScalerBuilder::RestoreStateSection(reader, restore));
  auto tenant = std::make_unique<Tenant>(std::move(name), std::move(scaler));
  // FRSH (fleet layer v2+) and HLTH (v3+) are optional, in this order.
  if (reader->AtSection(persist::kTagFreshness)) {
    RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagFreshness));
    auto fresh = std::make_unique<FreshState>();
    RS_RETURN_NOT_OK(FreshnessFields(io, tenant->base, *fresh));
    const ts::DriftDetectorOptions detector_options =
        policy != nullptr ? policy->detector : ts::DriftDetectorOptions{};
    RS_ASSIGN_OR_RETURN(fresh->detector, ts::DriftDetector::Deserialize(
                                             reader, detector_options));
    const core::PipelineOptions pipeline_options =
        policy != nullptr ? policy->pipeline : core::PipelineOptions{};
    RS_ASSIGN_OR_RETURN(
        fresh->session,
        train::TrainingSession::Deserialize(reader, pipeline_options));
    RS_RETURN_NOT_OK(reader->ExitSection());
    tenant->fresh = std::move(fresh);
  }
  if (reader->AtSection(persist::kTagHealth)) {
    RS_RETURN_NOT_OK(HealthFields(io, tenant->health));
  }
  RS_RETURN_NOT_OK(reader->ExitSection());
  return tenant;
}

Status ScalerFleet::DescribeTenantRecord(persist::Printer* printer) {
  printer->Section("tenant", persist::kTagTenant, [printer] {
    std::string name;
    TenantHeadFields(*printer, name);
    printer->Latch(Scaler::DescribeState(printer));
    persist::Reader* reader = printer->reader();
    if (printer->ok() && reader->AtSection(persist::kTagFreshness)) {
      double base = 0.0;
      FreshState fresh;
      printer->Section("freshness state", persist::kTagFreshness, [&] {
        FreshnessFields(*printer, base, fresh);
        printer->Latch(ts::DriftDetector::Describe(printer));
        printer->Latch(train::TrainingSession::Describe(printer));
      });
    }
    if (printer->ok() && reader->AtSection(persist::kTagHealth)) {
      HealthState health;
      HealthFields(*printer, health);
    }
  });
  return printer->status();
}

Status ScalerFleet::SnapshotTenant(const std::string& tenant,
                                   std::ostream& out) const {
  const std::size_t i = FindIndex(tenant);
  if (i == tenants_.size()) return UnknownTenant("SnapshotTenant", tenant);
  persist::Writer writer;
  RS_RETURN_NOT_OK(WriteTenantRecord(&writer, i));
  return writer.Finish(out);
}

Status ScalerFleet::RestoreTenant(std::istream& in,
                                  const TenantRestoreOptions& options) {
  RS_ASSIGN_OR_RETURN(persist::Reader reader, persist::Reader::FromStream(in));
  auto clock_for = [&options](const std::string&) {
    return options.decision_clock;
  };
  RS_ASSIGN_OR_RETURN(auto tenant,
                      ReadTenantRecord(&reader, clock_for,
                                       policy_.has_value() ? &*policy_
                                                           : nullptr));
  if (!options.rename.empty()) tenant->name = options.rename;
  // RegisterTenant rejects duplicate names before any state changes.
  return RegisterTenant(std::move(tenant));
}

Status ScalerFleet::SaveFleetSection(persist::Writer* writer) const {
  FleetHead head;
  head.freshness = policy_.has_value();
  if (head.freshness) head.policy = *policy_;
  head.tenants = tenants_.size();
  writer->BeginSection(persist::kTagFleet);
  persist::Encoder io(writer);
  FleetHeadFields(io, head);
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    RS_RETURN_NOT_OK(WriteTenantRecord(writer, i));
  }
  writer->EndSection();
  return Status::OK();
}

Status ScalerFleet::SaveFleet(std::ostream& out) const {
  persist::Writer writer;
  RS_RETURN_NOT_OK(SaveFleetSection(&writer));
  return writer.Finish(out);
}

Status ScalerFleet::SaveFleetToFile(const std::string& path) const {
  // Encode fully in memory first (Writer buffers anyway), then hand the
  // bytes to the atomic temp-write + rename: a crash or failure at any
  // point leaves the previous snapshot at `path` loadable.
  std::ostringstream buffer(std::ios::binary);
  RS_RETURN_NOT_OK(SaveFleet(buffer));
  return persist::AtomicWriteFile(path, buffer.str());
}

Result<ScalerFleet> ScalerFleet::LoadFleetSection(
    persist::Reader* reader, const FleetRestoreOptions& options) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagFleet));
  FleetHead head;
  persist::Decoder io(reader);
  RS_RETURN_NOT_OK(FleetHeadFields(io, head));
  ScalerFleet fleet(options.worker_threads);
  // Enable before registering, so every restored tenant's loop state binds
  // to the policy as it lands.
  if (head.freshness) RS_RETURN_NOT_OK(fleet.EnableFreshness(head.policy));
  for (std::uint64_t i = 0; i < head.tenants; ++i) {
    RS_ASSIGN_OR_RETURN(
        auto tenant,
        ReadTenantRecord(reader, options.decision_clock_for,
                         fleet.policy_.has_value() ? &*fleet.policy_
                                                   : nullptr));
    RS_RETURN_NOT_OK(fleet.RegisterTenant(std::move(tenant)));
  }
  RS_RETURN_NOT_OK(reader->ExitSection());
  return fleet;
}

Status ScalerFleet::DescribeFleetSection(persist::Printer* printer) {
  printer->Section("fleet", persist::kTagFleet, [printer] {
    FleetHead head;
    FleetHeadFields(*printer, head);
    for (std::uint64_t i = 0; i < head.tenants && printer->ok(); ++i) {
      printer->Latch(DescribeTenantRecord(printer));
    }
  });
  return printer->status();
}

Result<ScalerFleet> ScalerFleet::LoadFleet(std::istream& in,
                                           const FleetRestoreOptions& options) {
  RS_ASSIGN_OR_RETURN(persist::Reader reader, persist::Reader::FromStream(in));
  return LoadFleetSection(&reader, options);
}

Result<ScalerFleet> ScalerFleet::LoadFleetFromFile(
    const std::string& path, const FleetRestoreOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("ScalerFleet::LoadFleetFromFile: cannot open " +
                           path);
  }
  return LoadFleet(in, options);
}

Status ScalerFleet::MigrateTenant(const std::string& tenant,
                                  ScalerFleet* target,
                                  const TenantRestoreOptions& options) {
  if (target == nullptr || target == this) {
    return Status::Invalid(
        "ScalerFleet::MigrateTenant: target must be a different live fleet");
  }
  const std::size_t i = FindIndex(tenant);
  if (i == tenants_.size()) return UnknownTenant("MigrateTenant", tenant);
  // Snapshot → restore → retire. Any restore failure (bad clock, name
  // collision in the target) surfaces before the source drops the tenant,
  // so a failed migration leaves both fleets exactly as they were.
  std::stringstream buffer;
  RS_RETURN_NOT_OK(SnapshotTenant(tenant, buffer));
  RS_RETURN_NOT_OK(target->RestoreTenant(buffer, options));
  return Retire(tenant);
}

}  // namespace rs::api
