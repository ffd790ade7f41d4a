/// \file serving_adapter.hpp
/// \brief Bridges between the batch simulator and the online Observe/Plan
///        serving interface:
///
///  * OnlineServingAdapter — a sim::Autoscaler that forwards Simulate's
///    events into a Scaler's Observe()/Plan(), so sim::Simulate exercises
///    the exact code path a production caller would drive.
///  * RecordingAutoscaler — wraps any strategy and records every action it
///    emits; used to assert replay/serving parity in tests/api_test.cpp.
#pragma once

#include <vector>

#include "rs/api/scaler.hpp"
#include "rs/common/status.hpp"
#include "rs/simulator/autoscaler.hpp"

namespace rs::api {

/// \brief Drives a Scaler's online serving interface from inside
///        sim::Simulate.
///
/// Two sim::EventLoop instances see the same events: Simulate's, which
/// executes the actions Plan() returns, and the Scaler's serving loop,
/// which Observe()/Plan() advance. With identical engine options the two
/// never diverge. A non-OK Status from the serving calls is latched in
/// status() and subsequent actions are empty.
class OnlineServingAdapter : public sim::Autoscaler {
 public:
  /// `scaler` must outlive the adapter and must not be driven elsewhere.
  explicit OnlineServingAdapter(Scaler* scaler) : scaler_(scaler) {}

  const char* name() const override { return "online-serving"; }
  double planning_interval() const override {
    return scaler_->strategy()->planning_interval();
  }
  double history_requirement() const override {
    return scaler_->strategy()->history_requirement();
  }

  sim::ScalingAction Initialize(const sim::SimContext& ctx) override;
  sim::ScalingAction OnPlanningTick(const sim::SimContext& ctx) override;
  sim::ScalingAction OnQueryArrival(const sim::SimContext& ctx,
                                    bool cold_start) override;

  /// First error encountered while forwarding, if any.
  const Status& status() const { return status_; }

 private:
  sim::ScalingAction Drain(Result<sim::ScalingAction> planned);

  Scaler* scaler_;
  Status status_;
};

/// \brief Pass-through wrapper that records every ScalingAction a strategy
///        returns, one entry per engine callback.
class RecordingAutoscaler : public sim::Autoscaler {
 public:
  explicit RecordingAutoscaler(sim::Autoscaler* inner) : inner_(inner) {}

  const char* name() const override { return inner_->name(); }
  double planning_interval() const override {
    return inner_->planning_interval();
  }
  double history_requirement() const override {
    return inner_->history_requirement();
  }

  sim::ScalingAction Initialize(const sim::SimContext& ctx) override;
  sim::ScalingAction OnPlanningTick(const sim::SimContext& ctx) override;
  sim::ScalingAction OnQueryArrival(const sim::SimContext& ctx,
                                    bool cold_start) override;

  /// Recorded actions in emission order.
  const std::vector<sim::ScalingAction>& actions() const { return actions_; }

 private:
  sim::Autoscaler* inner_;
  std::vector<sim::ScalingAction> actions_;
};

}  // namespace rs::api
