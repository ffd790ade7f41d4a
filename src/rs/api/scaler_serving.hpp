/// \file scaler_serving.hpp
/// \brief Scaler's serving mirror, private to rs_api: scaler.cpp serves
///        through it and scaler_persist.cpp snapshots and restores it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "rs/api/scaler.hpp"
#include "rs/simulator/engine.hpp"

namespace rs::api {

// ---------------------------------------------------------------------------
// Online serving state: the sim::EventLoop that sim::Simulate also drives,
// plus what serving adds on top of it. The loop observer hooks below keep
// the undrained Plan() buffer (with each creation's emission number, so a
// cold start can retract exactly the creation it cancelled), the parity log
// and the lifetime counters. Arrivals and the parity log live in windowed
// buffers that CompactServingState() trims once entries age past the
// strategy's declared history_requirement().
// ---------------------------------------------------------------------------
struct Scaler::Serving : sim::LoopObserver {
  Serving(sim::Autoscaler* strategy, const sim::EngineOptions& options)
      : loop(strategy, options) {}

  void OnDecision(double time, sim::ScalingAction&& action) {
    // The log records the raw action at the callback's event time (the
    // parity contract compares raw actions; charged decision time only
    // shifts execution).
    creations_requested += action.creation_times.size();
    deletions_requested += action.deletions;
    log_times.push_back(time);
    log.push_back(std::move(action));
    ++total_callbacks;
  }
  void OnScheduled(double at, std::uint64_t seq) {
    buffered.creation_times.push_back(at);
    buffered_seqs.push_back(seq);
  }
  void OnDeleted(const sim::LiveInstance& /*instance*/, double /*time*/) {
    // Only deletions the loop applied reach the caller: forwarding the
    // excess would make the caller's fleet delete instances the loop kept.
    ++buffered.deletions;
  }

  sim::EventLoop loop;
  std::size_t cold_starts = 0;
  std::size_t creations_requested = 0;
  std::size_t deletions_requested = 0;
  /// Creations with seq < drain_watermark have been handed to the caller
  /// by Plan().
  std::uint64_t drain_watermark = 0;
  /// Actions emitted since the last Plan() drain, plus the emission number
  /// of each not-yet-drained creation (parallel to buffered.creation_times).
  sim::ScalingAction buffered;
  std::vector<std::uint64_t> buffered_seqs;
  /// Windowed suffix of the parity log (one entry per strategy callback),
  /// with the callback time of each retained entry. `total_callbacks`
  /// counts every callback ever made.
  std::vector<sim::ScalingAction> log;
  std::vector<double> log_times;
  std::size_t total_callbacks = 0;
};

}  // namespace rs::api
