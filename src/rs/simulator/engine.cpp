#include "rs/simulator/engine.hpp"

#include <cmath>
#include <sstream>

namespace rs::sim {

namespace {

/// Simulate's observer: one InstanceOutcome per executed creation, closed
/// on scale-in.
struct InstanceRecorder : LoopObserver {
  std::vector<InstanceOutcome>* instances;

  std::size_t OnCreated(double time, double ready_time) {
    InstanceOutcome rec;
    rec.creation_time = time;
    rec.ready_time = ready_time;
    rec.end_time = ready_time;  // Updated on consumption / wind-down.
    instances->push_back(rec);
    return instances->size() - 1;
  }

  void OnDeleted(const LiveInstance& instance, double time) {
    auto& rec = (*instances)[instance.id];
    rec.end_time = time;
    rec.lifecycle_cost = std::max(0.0, time - rec.creation_time);
  }
};

}  // namespace

EventLoop::EventLoop(Autoscaler* strategy, const EngineOptions& options)
    : options(options),
      rng(options.seed),
      clock(options.decision_clock != nullptr ? options.decision_clock
                                              : &own_clock_),
      strategy_(strategy) {}

SimContext EventLoop::Context(double at) const {
  SimContext ctx;
  ctx.now = at;
  ctx.queries_arrived = total_arrivals;
  ctx.instances_alive = live.size();
  std::size_t ready = 0;
  for (const auto& instance : live) {
    if (instance.ready_time <= at) ++ready;
  }
  ctx.instances_ready = ready;
  ctx.scheduled_creations = schedule.size();
  ctx.arrival_history = &arrivals;
  return ctx;
}

double EventLoop::ReadyTime(double t) {
  double pending = options.pending.Sample(&rng);
  if (options.pending_jitter > 0.0) {
    pending *= 1.0 + options.pending_jitter * (2.0 * rng.NextDouble() - 1.0);
    pending = std::max(0.0, pending);
  }
  return t + options.creation_latency + pending;
}

Status ValidateEngineOptions(const EngineOptions& options) {
  if (!(options.creation_latency >= 0.0) ||
      !std::isfinite(options.creation_latency)) {
    std::ostringstream msg;
    msg << "EngineOptions: creation_latency must be finite and >= 0 s, got "
        << options.creation_latency;
    return Status::Invalid(msg.str());
  }
  if (!(options.pending_jitter >= 0.0) || !(options.pending_jitter <= 1.0)) {
    std::ostringstream msg;
    msg << "EngineOptions: pending_jitter must be in [0, 1], got "
        << options.pending_jitter;
    return Status::Invalid(msg.str());
  }
  return Status::OK();
}

Result<SimulationResult> Simulate(const workload::Trace& trace,
                                  Autoscaler* strategy,
                                  const EngineOptions& options) {
  if (strategy == nullptr) return Status::Invalid("Simulate: null strategy");
  if (trace.horizon() <= 0.0) {
    return Status::Invalid("Simulate: trace horizon must be positive");
  }
  RS_RETURN_NOT_OK(ValidateEngineOptions(options));

  SimulationResult result;
  result.horizon = trace.horizon();
  InstanceRecorder recorder;
  recorder.instances = &result.instances;
  EventLoop loop(strategy, options);
  loop.Start(recorder);
  for (const auto& query : trace.queries()) {
    const double xi = query.arrival_time;
    if (xi > result.horizon) break;
    loop.AdvanceTo(xi, recorder);
    const ArrivalOutcome arrival = loop.Arrive(xi, recorder);

    QueryOutcome out;
    out.arrival_time = xi;
    out.processing_time = query.processing_time;
    out.cold_start = arrival.cold_start;
    // Hit: processing starts immediately (Algorithm 1 line 3). Otherwise
    // the query waits until the instance finishes startup (line 5).
    out.hit = arrival.instance.ready_time <= xi;
    out.wait_time = out.hit ? 0.0 : arrival.instance.ready_time - xi;
    out.response_time = out.wait_time + out.processing_time;
    result.queries.push_back(out);

    // Lifecycle: creation -> processing completion (Section VI-A cost_i).
    auto& rec = result.instances[arrival.instance.id];
    rec.served_query = true;
    rec.end_time = xi + out.wait_time + out.processing_time;
    rec.lifecycle_cost = rec.end_time - rec.creation_time;
  }
  loop.AdvanceTo(result.horizon, recorder);

  // Wind down: charge idle instances to the horizon.
  if (options.charge_idle_until_horizon) {
    for (const auto& instance : loop.live) {
      auto& rec = result.instances[instance.id];
      rec.end_time = result.horizon;
      rec.lifecycle_cost = result.horizon - rec.creation_time;
    }
  }
  return result;
}

}  // namespace rs::sim
