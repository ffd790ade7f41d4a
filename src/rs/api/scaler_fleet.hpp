/// \file scaler_fleet.hpp
/// \brief Multi-tenant serving front end: one process hosting many named
///        per-service Scalers behind a shared Observe/Plan interface.
///
///   rs::api::ScalerFleet fleet(/*worker_threads=*/4);
///   fleet.Register("search", std::move(*search_scaler));
///   fleet.Register("checkout", std::move(*checkout_scaler));
///   fleet.Observe("search", arrival_time);
///   for (const auto& plan : fleet.PlanAll(now)) {
///     // plan.tenant, plan.status, plan.action — registration order.
///   }
///
/// Planning batches across tenants on a small internal worker pool; tenant
/// state is partitioned (each tenant is touched by exactly one worker per
/// batch, joined before PlanAll returns), so the fleet gives a hard parity
/// guarantee: for any trace interleaving and any thread count, each
/// tenant's action sequence is byte-identical to the one an independent,
/// sequentially-driven Scaler produces (asserted for random interleavings
/// under 1/2/8 workers in tests/property_test.cpp, race-checked by the
/// TSan CI job).
///
/// Thread model: the fleet parallelizes *internally*. Its public methods
/// must be called from one caller thread at a time (like Scaler itself) —
/// a production server front end serializes per-process fleet access and
/// lets PlanAll fan the heavy per-tenant planning out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rs/api/scaler.hpp"
#include "rs/common/status.hpp"
#include "rs/common/thread_pool.hpp"
#include "rs/simulator/engine.hpp"
#include "rs/timeseries/drift.hpp"
#include "rs/train/training_session.hpp"

namespace rs::api {

class ServingTap;
struct TapClockMark;

/// Degradation state of one tenant (see docs/ARCHITECTURE.md, "Graceful
/// degradation"): HEALTHY serves normally; DEGRADED has recent plan
/// failures and is serving last-good fallback at failed boundaries;
/// QUARANTINED has a tripped circuit breaker — the tenant's scaler is not
/// planned at all until a backoff-timed half-open probe succeeds.
enum class TenantHealth : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kQuarantined = 2,
};

/// "healthy" / "degraded" / "quarantined" (for logs and the inspector).
const char* TenantHealthToString(TenantHealth health);

/// \brief Per-tenant degradation policy (ScalerFleet::ConfigureRobustness).
///
/// The defaults are faults-off no-ops: with no injected faults the only
/// plan failure mode is a caller bug (regressive clock → kInvalidArgument),
/// which propagates as an error and never feeds the breaker, so a fleet
/// that never fails behaves — byte for byte — as if this machinery did not
/// exist.
struct RobustnessPolicy {
  /// Consecutive non-Invalid plan failures that trip the breaker
  /// (HEALTHY/DEGRADED → QUARANTINED).
  std::size_t breaker_threshold = 3;
  /// Quarantine backoff: the k-th consecutive open waits
  /// min(backoff_max, backoff_base * 2^(k-1)) serving seconds, stretched
  /// by a deterministic per-tenant jitter in [0, backoff_jitter] so a
  /// correlated failure does not un-quarantine the whole fleet at one
  /// boundary (thundering-herd probes).
  double backoff_base = 60.0;
  double backoff_max = 3600.0;
  double backoff_jitter = 0.1;
  /// Seed of the per-tenant jitter streams (mixed with the tenant name, so
  /// replay across worker counts and fleet rebuilds is deterministic).
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
  /// Wall-clock budget for one tenant's share of a plan boundary; an
  /// overrun discards the (late) action and serves fallback instead. This
  /// is the one knob that is *not* deterministic — it reads the machine
  /// clock — so it defaults to off (infinity) and parity tests leave it
  /// there.
  double plan_deadline = std::numeric_limits<double>::infinity();
  /// Backoff between failed background retrains of one tenant, in serving
  /// seconds: min(retrain_backoff_max, retrain_backoff_base * 2^(k-1))
  /// after the k-th consecutive failure. 0 retries at the next eligible
  /// boundary (the pre-existing behavior).
  double retrain_backoff_base = 0.0;
  double retrain_backoff_max = 3600.0;
};

/// Public view of one tenant's degradation state (ScalerFleet::Health).
struct TenantHealthInfo {
  TenantHealth health = TenantHealth::kHealthy;
  std::uint64_t consecutive_plan_failures = 0;
  std::uint64_t plan_failures = 0;       ///< Lifetime failed plan boundaries.
  std::uint64_t fallbacks_served = 0;    ///< Boundaries served by fallback.
  std::uint64_t rejected_observations = 0;  ///< Bad Observe inputs refused.
  std::uint64_t breaker_opens = 0;       ///< Lifetime breaker trips.
  std::uint64_t probes = 0;              ///< Half-open probes attempted.
  std::uint64_t deadline_overruns = 0;   ///< Plans discarded for lateness.
  std::uint64_t consecutive_retrain_failures = 0;
  std::uint64_t freshness_errors = 0;    ///< Session bookkeeping failures.
  /// Serving time the quarantine backoff expires (-inf when not
  /// quarantined).
  double retry_at = -std::numeric_limits<double>::infinity();
  /// Serving time the retrain backoff expires (-inf when none pending).
  double retrain_retry_at = -std::numeric_limits<double>::infinity();
  Status last_error;  ///< Most recent plan/observe/retrain failure.
};

/// Aggregated view of every tenant's serving state. The sums follow
/// ServingSnapshot's retained-vs-total split: `queries_observed` /
/// `planning_rounds` count lifetime totals while `arrivals_retained` /
/// `actions_retained` count what is actually held in memory, so the fleet
/// exposes one number for "how much serving state would a snapshot/restore
/// have to persist" (the ROADMAP distributed-state item keys on this).
struct FleetSnapshot {
  std::size_t tenants = 0;
  std::size_t tenants_started = 0;  ///< Tenants with serving traffic so far.

  // -- Lifetime totals, summed across tenants -------------------------------
  std::size_t queries_observed = 0;
  std::size_t instances_alive = 0;
  std::size_t instances_ready = 0;
  std::size_t scheduled_creations = 0;
  std::size_t cold_starts = 0;
  std::size_t creations_requested = 0;
  std::size_t deletions_requested = 0;
  std::size_t planning_rounds = 0;

  // -- Retained state (memory actually held), summed across tenants ---------
  std::size_t arrivals_retained = 0;
  std::size_t actions_retained = 0;
  /// Planning-workspace bytes retained across tenants (Monte Carlo buffers,
  /// decision kernels). Workspaces shrink-to-fit when a tenant's R drops,
  /// so retiring or downsizing large tenants releases this memory.
  std::size_t planning_workspace_bytes = 0;

  // -- Degradation health, aggregated across tenants ------------------------
  std::size_t tenants_healthy = 0;
  std::size_t tenants_degraded = 0;
  std::size_t tenants_quarantined = 0;
  std::uint64_t rejected_observations = 0;
  std::uint64_t plan_failures = 0;
  std::uint64_t fallbacks_served = 0;
  std::uint64_t breaker_opens = 0;

  /// Per-tenant snapshots in registration order.
  std::vector<std::pair<std::string, ServingSnapshot>> per_tenant;
  /// Per-tenant health in the same (registration) order as `per_tenant`.
  std::vector<std::pair<std::string, TenantHealthInfo>> per_tenant_health;
};

/// Per-tenant restore knobs (ScalerFleet::RestoreTenant / MigrateTenant).
struct TenantRestoreOptions {
  /// Register the restored tenant under this name instead of the one in
  /// the snapshot (empty keeps the snapshot's name). Lets a migration land
  /// next to an existing tenant without a collision.
  std::string rename;
  /// Replacement decision clock for a tenant whose snapshot was taken with
  /// an injected DecisionClock (required then; see
  /// ScalerRestoreOptions::decision_clock).
  sim::DecisionClock* decision_clock = nullptr;
};

/// Fleet-wide restore knobs (ScalerFleet::LoadFleet).
struct FleetRestoreOptions {
  /// Worker-pool size for the restored fleet (same meaning as the
  /// ScalerFleet constructor argument).
  std::size_t worker_threads = 0;
  /// Optional per-tenant decision-clock factory, consulted for tenants
  /// whose snapshot carried an injected clock. Returning nullptr for such a
  /// tenant fails that tenant's restore.
  std::function<sim::DecisionClock*(const std::string& tenant)>
      decision_clock_for;
};

/// \brief How a fleet keeps tenants' models fresh (ScalerFleet::
///        EnableFreshness): drift detection on the served arrival stream,
///        warm-start background retraining, tear-free hot swap.
struct FreshnessPolicy {
  /// Pipeline configuration of background refits (β weights, ADMM knobs,
  /// forecast horizon of the replacement model; `dt` is the bin width of a
  /// tenant whose trained pipeline carries no counts — tenants trained in
  /// this process refit at their trained bin width).
  core::PipelineOptions pipeline;
  /// Drift-detector knobs, shared across tenants. Per-tenant geometry —
  /// bin width, expected rates, detected period — comes from each tenant's
  /// trained model, not from here.
  ts::DriftDetectorOptions detector;
  /// Rate limit: at least this much serving time between retrain attempts
  /// of one tenant (0 = every planning boundary may enqueue).
  double min_retrain_interval = 0.0;
  /// Threads of the dedicated retrain pool — NOT the planning pool, so
  /// retrains never contend with Plan(t). 0 fits inline at the enqueue
  /// point: fully deterministic, which is what the parity tests pin. At
  /// most 256; EnableFreshness (and so LoadFleet) rejects more.
  std::size_t retrain_workers = 0;
};

/// Per-tenant freshness status (ScalerFleet::Freshness). Times are fleet
/// serving times.
struct TenantFreshness {
  bool enabled = false;
  ts::DriftKind drift = ts::DriftKind::kNone;  ///< Currently latched drift.
  double drift_time = 0.0;   ///< When the current drift latched.
  bool retrain_inflight = false;
  std::size_t drift_events = 0;  ///< Lifetime drift latches.
  std::size_t retrains_completed = 0;
  std::size_t retrain_failures = 0;
  std::size_t swaps_applied = 0;
  double last_swap_time = 0.0;  ///< Plan boundary of the last model swap.
  /// Serving time the live model's forecast starts at (0 until the first
  /// background swap; grows to the end of each refit window after).
  double model_origin = 0.0;
  /// End of the training window accumulated for the next refit.
  double window_end = 0.0;
};

/// \brief Owns N named Scaler instances and serves them behind one front
///        end, batching planning across tenants on a worker pool.
///
/// Tenants are the only grain of planning parallelism: PlanAll fans them
/// out over the pool, and each tenant's strategy plans its Monte Carlo
/// rounds serially on whichever thread runs it. A fleet therefore uses at
/// most min(tenants, workers + 1) threads per boundary, and every per-tenant
/// byte — actions and retained planning memory alike — is independent of
/// the worker count.
class ScalerFleet {
 public:
  /// `worker_threads` sizes the internal planning pool; 0 plans inline on
  /// the calling thread (the deterministic baseline — higher counts must
  /// produce byte-identical actions, they only change wall time).
  explicit ScalerFleet(std::size_t worker_threads = 0);

  ScalerFleet(ScalerFleet&&) noexcept;
  ScalerFleet& operator=(ScalerFleet&&) noexcept;
  ~ScalerFleet();

  // -- Tenant lifecycle -----------------------------------------------------
  //
  // Lifecycle operations never disturb other tenants: registration order
  // (the deterministic PlanAll output order) is preserved for everyone
  // else, and no other tenant's serving state is touched.

  /// Adds a tenant under a unique non-empty name. The scaler should be
  /// freshly built (its serving state starts with the first Observe/Plan).
  Status Register(std::string tenant, Scaler scaler);

  /// Removes a tenant and its serving state.
  Status Retire(const std::string& tenant);

  /// Swaps in a newly trained scaler for an existing tenant (model
  /// refresh), keeping the tenant's name and registration position. The
  /// replacement starts serving from a fresh mirror, but the retiring
  /// tenant's serving configuration is carried over: a
  /// ConfigureHistoryRetention widening and the decision-clock position
  /// (when the replacement's clock accepts one) survive the swap instead of
  /// silently resetting.
  Status ReplaceModel(const std::string& tenant, Scaler scaler);

  /// Like ReplaceModel, but the swap is deferred to the tenant's next plan
  /// boundary (its next Plan/PlanAll call): the in-flight plan is never
  /// torn. Before the boundary the tenant's actions are byte-identical to
  /// an unswapped control; from the boundary on they are byte-identical to
  /// a fresh-model control. A second call before the boundary replaces the
  /// still-pending scaler.
  Status ReplaceModelAtNextPlan(const std::string& tenant, Scaler scaler);

  std::size_t size() const { return tenants_.size(); }

  /// Tenant names in registration order.
  std::vector<std::string> Tenants() const;

  /// Direct access to a tenant's Scaler (nullptr if unknown) for
  /// per-tenant configuration — ConfigureServing, history retention,
  /// ActionLog inspection. Do not drive Observe/Plan through this pointer
  /// while also serving through the fleet.
  Scaler* Find(const std::string& tenant);
  const Scaler* Find(const std::string& tenant) const;

  /// Applies one serving-time engine configuration to every tenant
  /// (per-tenant ConfigureServing via Find() overrides individually).
  /// First error aborts the sweep and is returned.
  Status ConfigureServingAll(const sim::EngineOptions& options);

  // -- Model freshness ------------------------------------------------------
  //
  // With a FreshnessPolicy enabled, every tenant gets a streaming
  // DriftDetector fed from its Observe stream and a warm-start
  // TrainingSession accumulating the same arrivals. When the detector
  // latches, a retrain job is enqueued on the dedicated retrain pool
  // (ordinary pool task, fully off the planning path); the finished model
  // is swapped in at the tenant's next plan boundary with the full
  // ReplaceModel carry (retention widening, decision-clock position,
  // serving configuration). Swap semantics are tear-free by construction:
  // the swap happens only between plans, never inside one, so each
  // tenant's action stream is byte-identical to an unswapped control up to
  // the boundary and to a fresh-model control after it — under any fleet
  // worker count (tests/freshness_test.cpp pins this).
  //
  // After a swap the tenant's plans are served by the refit model, whose
  // forecast starts at the end of the refit window. The fleet rebases
  // times internally: callers keep passing the same monotone serving
  // clock to Observe/Plan, and returned creation times stay on that clock.

  /// Enables the freshness loop for all current and future tenants.
  /// Call again to replace the policy (in-flight retrain results of the
  /// old policy are still swapped in). The whole policy is validated
  /// first: an Invalid return leaves the fleet exactly as it was.
  Status EnableFreshness(const FreshnessPolicy& policy);

  bool freshness_enabled() const { return policy_.has_value(); }

  /// One tenant's freshness status. A tenant without loop state (freshness
  /// never enabled for it) reports all defaults, whatever manual swaps it
  /// took; loop state restored into a fleet without freshness reports its
  /// counters with `enabled` false.
  Result<TenantFreshness> Freshness(const std::string& tenant) const;

  /// Enqueues a retrain for `tenant` now, drift or not (subject to one
  /// in-flight job per tenant; not rate-limited). The result swaps in at
  /// the tenant's next plan boundary like any drift-triggered retrain.
  Status RequestRetrain(const std::string& tenant);

  // -- Serving tap (rs::trace capture hook) ----------------------------------

  /// \brief Attaches an observer that sees every successful serving-facing
  ///        operation from here on (see ServingTap for the callback
  ///        contract). One tap at a time; must outlive its attachment.
  ///
  /// Mutually exclusive with the freshness loop: background retrains land
  /// at wall-time-dependent moments no event stream could re-drive, so a
  /// tap on a freshness-enabled fleet (or EnableFreshness under a tap)
  /// fails with Invalid. Attaching does not replay the past — a recorder
  /// that wants already-registered tenants snapshots them itself
  /// (rs::trace::Recorder::Attach does).
  Status AttachTap(ServingTap* tap);

  /// Detaches the current tap (no-op when none is attached).
  void DetachTap();

  ServingTap* tap() const { return tap_; }

  // -- Graceful degradation -------------------------------------------------
  //
  // Every tenant carries a health state machine (HEALTHY → DEGRADED →
  // QUARANTINED → probed back to HEALTHY). A plan boundary that fails with
  // anything but kInvalidArgument — an injected fault, a thrown exception,
  // a deadline overrun — is served by *fallback*: the tenant's last-good
  // plan stays in effect (the boundary returns OK with an empty action and
  // `degraded = true`), the failure is counted, and after
  // `breaker_threshold` consecutive failures the breaker opens: the
  // tenant's scaler is skipped entirely until a jittered exponential
  // backoff expires and a half-open probe plan succeeds. Invalid inputs
  // (regressive clocks, non-finite times) are caller bugs and still
  // propagate as errors — they never trip the breaker, which keeps
  // faults-off fleets byte-identical to a fleet without this machinery.
  // All breaker bookkeeping runs on the caller thread in registration
  // order, so the state machine is deterministic under any worker count.

  /// Replaces the degradation policy (re-seeds the per-tenant jitter
  /// streams from `policy.jitter_seed`). Not persisted by SaveFleet —
  /// like worker_threads, it is runtime configuration the operator
  /// re-applies after LoadFleet.
  void ConfigureRobustness(const RobustnessPolicy& policy);

  const RobustnessPolicy& robustness() const { return robustness_; }

  /// One tenant's degradation state and counters.
  Result<TenantHealthInfo> Health(const std::string& tenant) const;

  // -- Serving --------------------------------------------------------------

  /// Reports one arrival for `tenant` (its own serving clock; clocks are
  /// per-tenant and independent). Malformed arrivals — NaN, ±inf,
  /// regressive times — are rejected with kInvalidArgument *before* the
  /// serving mirror is touched (counted in Health().rejected_observations);
  /// one bad input can never poison a tenant's planning state.
  Result<Scaler::ObserveOutcome> Observe(const std::string& tenant,
                                         double arrival_time);

  /// Advances one tenant's planning to `now` and drains its actions.
  /// Subject to the same degradation machinery as PlanAll: a failed
  /// boundary returns OK with an empty action (fallback; see Health()).
  Result<sim::ScalingAction> Plan(const std::string& tenant, double now);

  /// One tenant's share of a PlanAll batch.
  struct TenantPlan {
    std::string tenant;
    Status status;              ///< Per-tenant; one failure stops no one else.
    sim::ScalingAction action;  ///< Empty unless status.ok().
    /// True when this boundary was served by fallback (the underlying plan
    /// failed or the breaker is open; the last-good plan stays in effect).
    bool degraded = false;
  };

  /// Advances every tenant's planning to `now` across the worker pool and
  /// returns the drained actions in registration order (deterministic
  /// regardless of worker scheduling). Each tenant fails or succeeds
  /// independently — a tenant whose serving clock is already past `now`
  /// reports its own Invalid status while the rest of the fleet planning
  /// proceeds.
  std::vector<TenantPlan> PlanAll(double now);

  /// Aggregated serving state across all tenants.
  FleetSnapshot Snapshot() const;

  // -- Durability & migration (rs::persist) ---------------------------------
  //
  // A tenant snapshot is one self-contained rs::persist container (magic,
  // versioned sections, CRC32 trailer) holding the tenant's name plus its
  // Scaler's full durable state — see Scaler::SaveState for the continuation
  // guarantee. A fleet snapshot is the same records for every tenant, in
  // registration order.

  /// Writes one tenant's durable state (name + Scaler record) to `out`.
  Status SnapshotTenant(const std::string& tenant, std::ostream& out) const;

  /// Reads one tenant snapshot from `in` and registers it (at the end of
  /// the registration order, like any new Register). On any error the
  /// fleet is unchanged.
  Status RestoreTenant(std::istream& in,
                       const TenantRestoreOptions& options = {});

  /// Writes every tenant's durable state, in registration order.
  Status SaveFleet(std::ostream& out) const;

  /// SaveFleet to a file, crash-safely: the snapshot is encoded in memory,
  /// written to `path + ".tmp"`, and renamed over `path`
  /// (persist::AtomicWriteFile, with retry) — a failure leaves the
  /// previous snapshot at `path` intact, never a torn file.
  Status SaveFleetToFile(const std::string& path) const;

  /// Rebuilds a whole fleet from a SaveFleet stream; tenants come back in
  /// their original registration order.
  static Result<ScalerFleet> LoadFleet(std::istream& in,
                                       const FleetRestoreOptions& options = {});

  /// LoadFleet from a file written by SaveFleetToFile (or any SaveFleet
  /// bytes on disk).
  static Result<ScalerFleet> LoadFleetFromFile(
      const std::string& path, const FleetRestoreOptions& options = {});

  /// Section-level codec, for embedding the fleet record in larger
  /// containers (the rs::wal checkpoint ties one to a journal LSN).
  /// SaveFleetSection writes the FLET section into an open writer;
  /// LoadFleetSection decodes one from an open reader positioned at it.
  Status SaveFleetSection(persist::Writer* writer) const;
  static Result<ScalerFleet> LoadFleetSection(
      persist::Reader* reader, const FleetRestoreOptions& options = {});

  /// Print a FLET section (SaveFleet) or a TENT section (SnapshotTenant)
  /// field by field (the rs_snapshot inspector).
  static Status DescribeFleetSection(persist::Printer* printer);
  static Status DescribeTenantRecord(persist::Printer* printer);

  /// \brief Moves one tenant to another live fleet: snapshot → restore into
  ///        `target` → retire here. The tenant's action sequence continues
  ///        byte-identically across the cut (same guarantee as
  ///        Scaler::SaveState). Succeeds or leaves *both* fleets unchanged —
  ///        the source keeps the tenant whenever the restore into `target`
  ///        fails (e.g. a name collision without `options.rename`).
  Status MigrateTenant(const std::string& tenant, ScalerFleet* target,
                       const TenantRestoreOptions& options = {});

 private:
  // The per-tenant records live in scaler_fleet.cpp: Tenant (name, scaler,
  // serving-clock base, a deferred manual replacement), its health record
  // (TenantHealthInfo plus the breaker's private state), and FreshState,
  // which exists exactly while the tenant's freshness loop is attached.
  struct Tenant;
  struct FreshState;
  /// Output slot of one background retrain (shared with the pool task).
  struct RetrainJob;

  /// Index into tenants_, or tenants_.size() if unknown.
  std::size_t FindIndex(const std::string& tenant) const;

  /// Appends a fully-formed tenant (Register and the restore paths share
  /// this): validates the name, indexes it, and binds its freshness loop
  /// to the policy.
  Status RegisterTenant(std::unique_ptr<Tenant> tenant);

  /// Binds `tenant`'s freshness loop to policy_: loop state the tenant
  /// already has (restored, or attached under an earlier policy) keeps its
  /// statistics and takes the policy's knobs; otherwise AttachFreshness
  /// builds it at the tenant's current serving time.
  Status BindFreshness(Tenant* tenant);

  /// (Re)builds `tenant`'s freshness loop state from its current trained
  /// model, with the detector resuming at the first forecast bin boundary
  /// at or after serving time `now`. Preserves the loop's counters.
  Status AttachFreshness(Tenant* tenant, double now);

  /// The caller-thread pre-plan pass for tenant `i` at boundary `now`:
  /// apply a finished swap, advance the detector through the silent gap,
  /// and enqueue a retrain if drift latched (in that order).
  void FreshnessPrePlan(std::size_t i, double now);
  void MaybeApplySwap(std::size_t i, double now);
  void MaybeEnqueueRetrain(std::size_t i, double now, bool forced);

  // The plan-boundary degradation machinery, split so PlanAll stays
  // deterministic: BreakerGate runs on the caller thread *before* the
  // fan-out (returns true when quarantine says skip planning — `plan` is
  // then already the fallback answer), PlanTenant is the worker-side body
  // (fault point, the actual scaler plan, exception → Status, deadline),
  // and NotePlanOutcome runs on the caller thread *after* the join, in
  // registration order, doing all breaker/counter bookkeeping and turning
  // failures into fallback answers.
  bool BreakerGate(std::size_t i, double now, TenantPlan* plan);
  void PlanTenant(std::size_t i, double now, TenantPlan* plan);
  void NotePlanOutcome(std::size_t i, double now, TenantPlan* plan);

  /// Installs `replacement` for tenant `i` with the ReplaceModel carry and
  /// rebases the tenant's serving clock to `new_base`; `now` stamps the
  /// swap counters. `reset_session` restarts the freshness loop from the
  /// replacement's own trained pipeline (manual swaps) instead of keeping
  /// the accumulated session (background swaps, which already adopted the
  /// fit).
  Status InstallReplacement(std::size_t i, Scaler replacement,
                            double new_base, double now, bool reset_session);

  /// The ReplaceModel carry: retention widening + decision-clock position
  /// from the retiring scaler onto its replacement.
  static void CarryServingConfig(const Scaler& retiring, Scaler* replacement);

  /// The tenant's decision-clock position for tap callbacks (steady clocks
  /// have none; deterministic clocks export time + reading count).
  static TapClockMark TapMark(const Scaler& scaler);

  /// Writes one TENT record (name + Scaler state + freshness state) into
  /// an open writer.
  Status WriteTenantRecord(persist::Writer* writer, std::size_t index) const;

  /// Reads one TENT record. `clock_for` maps the snapshot's tenant name to
  /// the replacement decision clock (may yield nullptr — then a snapshot
  /// that needs one fails cleanly inside the Scaler restore). A trailing
  /// freshness section, when present, is decoded against `policy` (null
  /// falls back to default detector/session knobs — the statistic state
  /// itself is policy-independent).
  static Result<std::unique_ptr<Tenant>> ReadTenantRecord(
      persist::Reader* reader,
      const std::function<sim::DecisionClock*(const std::string&)>& clock_for,
      const FreshnessPolicy* policy);

  /// Registration order; unique_ptr keeps tenant addresses stable across
  /// vector reshuffles, so worker tasks and Find() pointers stay valid.
  std::vector<std::unique_ptr<Tenant>> tenants_;
  /// Name → tenants_ index: Observe() routes every arrival through this,
  /// so lookup must not scale with fleet size.
  std::unordered_map<std::string, std::size_t> index_;
  std::unique_ptr<common::ThreadPool> pool_;
  RobustnessPolicy robustness_;
  std::optional<FreshnessPolicy> policy_;
  /// Dedicated retrain pool (policy_.retrain_workers threads); planning
  /// never waits on it.
  std::unique_ptr<common::ThreadPool> retrain_pool_;
  /// Attached serving observer (AttachTap), or null. Not owned.
  ServingTap* tap_ = nullptr;
};

}  // namespace rs::api
