/// \file engine.hpp
/// \brief The scaling-per-query dynamics (Algorithm 1) as one stepwise
///        event loop: queries consume instances FIFO, wait for pending
///        ones, or trigger reactive cold starts that cancel the earliest
///        still-scheduled creation. sim::Simulate drives it over a trace;
///        api::Scaler drives it one Observe()/Plan() at a time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "rs/common/status.hpp"
#include "rs/simulator/autoscaler.hpp"
#include "rs/simulator/decision_clock.hpp"
#include "rs/simulator/metrics.hpp"
#include "rs/stats/distributions.hpp"
#include "rs/stats/rng.hpp"
#include "rs/workload/trace.hpp"

namespace rs::sim {

/// Engine configuration.
struct EngineOptions {
  /// Instance pending/startup time distribution τ_i (paper experiments:
  /// deterministic 13 s).
  stats::DurationDistribution pending =
      stats::DurationDistribution::Deterministic(13.0);

  /// Seed for pending-time draws and any strategy-independent randomness.
  std::uint64_t seed = 20220414;

  /// When true, the wall-clock time the strategy spends inside
  /// OnPlanningTick is charged to the simulation: the returned creations
  /// cannot take effect earlier than now + elapsed wall time. Models the
  /// paper's "real environment" (Table IV) where decision computation
  /// delays scaling actions.
  bool charge_decision_wall_time = false;

  /// Clock used to measure decision wall time when
  /// charge_decision_wall_time is set; not owned. Must outlive every use
  /// of these options: the Simulate() run, or — when passed to
  /// api::Scaler::ConfigureServing — the entire serving session, including
  /// sessions restarted via ResetServing(). nullptr selects a real
  /// SteadyDecisionClock. Inject a FakeDecisionClock to make the charged
  /// latencies deterministic (tests, parity checks).
  DecisionClock* decision_clock = nullptr;

  /// Fixed extra latency added to every instance creation (cluster API
  /// round-trip in the real environment; 0 in the idealized one).
  double creation_latency = 0.0;

  /// Pending times are multiplied by Uniform(1 - jitter, 1 + jitter);
  /// 0 reproduces the idealized environment exactly.
  double pending_jitter = 0.0;

  /// Unconsumed instances at trace end are charged until the horizon.
  bool charge_idle_until_horizon = true;
};

/// \brief Validates one EngineOptions the way the registry validates
///        strategy parameters: out-of-range physical knobs fail with an
///        actionable message instead of silently producing nonsense.
///
/// Shared by Simulate() and api::Scaler::ConfigureServing so the replay and
/// serving paths reject exactly the same configurations.
Status ValidateEngineOptions(const EngineOptions& options);

/// An unconsumed instance.
struct LiveInstance {
  double ready_time = 0.0;
  /// Whatever the observer's OnCreated returned (Simulate: the index into
  /// SimulationResult::instances). The loop never reads it.
  std::size_t id = 0;
};

/// A future creation. `seq` is its emission number: creations at equal
/// times execute, and are cancelled, oldest emission first.
struct ScheduledCreation {
  double time = 0.0;
  std::uint64_t seq = 0;
  bool operator>(const ScheduledCreation& other) const {
    return time != other.time ? time > other.time : seq > other.seq;
  }
};

/// What one arrival did (Algorithm 1 lines 3-7).
struct ArrivalOutcome {
  /// The instance that serves the query (already removed from the live
  /// set): a hit when its ready_time is at or before the arrival.
  LiveInstance instance;
  /// No instance was live: `instance` was created reactively at arrival.
  bool cold_start = false;
  /// Emission number of the scheduled creation the cold start cancelled.
  std::optional<std::uint64_t> cancelled_seq;
};

/// \brief The hooks an EventLoop driver may override; the defaults do
///        nothing.
///
/// The loop's operations are templates on the observer type, so the hooks
/// bind statically (no virtual dispatch, no std::function): a driver
/// derives from this struct and hides the hooks it needs.
struct LoopObserver {
  /// A strategy callback at event time `time` returned `action` (raw:
  /// creation times before clamping), after the loop applied it.
  void OnDecision(double /*time*/, ScalingAction&& /*action*/) {}
  /// A creation entered the schedule at `at` with emission number `seq`.
  void OnScheduled(double /*at*/, std::uint64_t /*seq*/) {}
  /// A creation executed at `time`; returns the new live instance's id.
  std::size_t OnCreated(double /*time*/, double /*ready_time*/) { return 0; }
  /// Scale-in removed `instance` at `time`.
  void OnDeleted(const LiveInstance& /*instance*/, double /*time*/) {}
};

/// \brief Algorithm 1's state and its three operations: Start (Initialize
///        at t = 0), AdvanceTo(t) and Arrive(x).
///
/// Event order at equal timestamps: planning ticks, then scheduled
/// creations, then arrivals. So an instance created at exactly ξ_i counts
/// as pending for that query (Algorithm 1's x_i <= ξ_i < x_i + τ_i
/// branch), and a tick's decisions see the state before that instant's
/// creations and arrivals. Scale-in drops the newest unconsumed instances
/// first (they have absorbed the least sunk cost); deletions beyond the
/// live set are ignored.
///
/// The state is plain data so that api::Scaler's snapshot codec can save
/// and restore it field by field.
class EventLoop {
 public:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  /// `strategy` must outlive the loop; `options` must pass
  /// ValidateEngineOptions.
  EventLoop(Autoscaler* strategy, const EngineOptions& options);
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Calls the strategy's Initialize at t = 0 and arms the planning grid.
  template <typename Observer>
  void Start(Observer& observer) {
    started = true;
    const double tick = strategy_->planning_interval();
    next_tick = tick > 0.0 ? 0.0 : kNever;
    Apply(strategy_->Initialize(Context(0.0)), 0.0, 0.0, observer);
  }

  /// Processes every planning tick and scheduled creation at or before `t`
  /// (the window is closed on the right), then sets `now` to `t`.
  template <typename Observer>
  void AdvanceTo(double t, Observer& observer) {
    const double tick = strategy_->planning_interval();
    for (;;) {
      const double next_creation =
          schedule.empty() ? kNever : schedule.top().time;
      const double next_event = std::min(next_tick, next_creation);
      if (next_event > t || next_event == kNever) break;
      if (next_tick <= next_creation) {
        // Planning tick. In Table IV's real-environment mode the
        // decision's wall time, bracketed by two clock readings, pushes its
        // creations to now + elapsed; otherwise the clock is never read.
        const double at = next_tick;
        const bool charge = options.charge_decision_wall_time;
        const double start = charge ? clock->Now() : 0.0;
        ScalingAction action = strategy_->OnPlanningTick(Context(at));
        double effective = at;
        if (charge) {
          const double elapsed = clock->Now() - start;
          effective = at + (elapsed > 0.0 ? elapsed : 0.0);
        }
        Apply(std::move(action), at, effective, observer);
        next_tick = at + tick;
      } else {
        schedule.pop();
        Create(next_creation, observer);
      }
    }
    now = t;
  }

  /// Serves a query arriving at `x` (call AdvanceTo(x) first), then hands
  /// the arrival to the strategy.
  template <typename Observer>
  ArrivalOutcome Arrive(double x, Observer& observer) {
    now = x;
    ArrivalOutcome out;
    if (live.empty()) {
      // Cold start (Algorithm 1 line 7): create reactively and cancel the
      // earliest still-scheduled creation — it was intended for this query.
      Create(x, observer);
      out.cold_start = true;
      if (!schedule.empty()) {
        out.cancelled_seq = schedule.top().seq;
        schedule.pop();
      }
    }
    out.instance = live.front();
    live.pop_front();
    arrivals.push_back(x);
    ++total_arrivals;
    Apply(strategy_->OnQueryArrival(Context(x), out.cold_start), x, x,
          observer);
    return out;
  }

  /// The context a strategy callback at `at` sees.
  SimContext Context(double at) const;

  // -- State ----------------------------------------------------------------

  EngineOptions options;
  /// Pending-time draws.
  stats::Rng rng;
  /// Decision-time source when charging; the options' clock or a private
  /// SteadyDecisionClock.
  DecisionClock* clock;
  /// Future creations, earliest first.
  std::priority_queue<ScheduledCreation, std::vector<ScheduledCreation>,
                      std::greater<>>
      schedule;
  /// Unconsumed instances, in creation order.
  std::deque<LiveInstance> live;
  /// Arrival times (ascending). A driver may drop a stale prefix;
  /// `total_arrivals` still counts every arrival.
  std::vector<double> arrivals;
  std::size_t total_arrivals = 0;
  /// Time of the last AdvanceTo/Arrive.
  double now = 0.0;
  double next_tick = kNever;
  bool started = false;
  /// Emission number of the next scheduled creation.
  std::uint64_t next_seq = 0;

 private:
  template <typename Observer>
  void Apply(ScalingAction action, double time, double effective,
             Observer& observer) {
    for (const double t : action.creation_times) {
      const double at = std::max(t, effective);
      schedule.push({at, next_seq});
      observer.OnScheduled(at, next_seq);
      ++next_seq;
    }
    for (std::size_t k = 0; k < action.deletions && !live.empty(); ++k) {
      observer.OnDeleted(live.back(), effective);
      live.pop_back();
    }
    observer.OnDecision(time, std::move(action));
  }

  /// Executes a creation at `t`: the instance becomes ready at
  /// t + creation_latency + jittered pending time.
  template <typename Observer>
  void Create(double t, Observer& observer) {
    const double ready = ReadyTime(t);
    live.push_back({ready, observer.OnCreated(t, ready)});
  }

  double ReadyTime(double t);

  Autoscaler* strategy_;
  SteadyDecisionClock own_clock_;
};

/// \brief Replays `trace` under `strategy` and returns the full per-query /
///        per-instance record.
///
/// Drives one EventLoop: advance to each arrival, serve it, then advance to
/// the horizon. The horizon is closed on the right: events at exactly
/// `trace.horizon()` are still processed, just as Scaler::Plan(t)
/// processes a tick at exactly `t`.
Result<SimulationResult> Simulate(const workload::Trace& trace,
                                  Autoscaler* strategy,
                                  const EngineOptions& options = {});

}  // namespace rs::sim
