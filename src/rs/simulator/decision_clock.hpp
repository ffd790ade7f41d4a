/// \file decision_clock.hpp
/// \brief Injectable clock used to charge decision wall time (Table IV's
///        "real environment"). sim::EventLoop brackets every
///        OnPlanningTick with two readings, so a run that charges decision
///        time is deterministic under a FakeDecisionClock: a replay and a
///        serving session on identically-scripted clocks charge identical
///        latencies and schedule identical creation times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "rs/common/status.hpp"

namespace rs::sim {

/// \brief Source of monotonic wall time for decision-latency charging.
///
/// Consecutive readings bracket one strategy decision; the engine charges
/// `Now() - Now()` (after minus before) against the simulation clock. The
/// clock is only read when EngineOptions::charge_decision_wall_time is set,
/// so implementations may count calls (FakeDecisionClock does).
class DecisionClock {
 public:
  virtual ~DecisionClock() = default;

  /// Current monotonic time in seconds. Successive calls must not decrease.
  virtual double Now() = 0;

  /// \brief Exports the clock's logical position (current time + readings
  ///        taken) into a durable snapshot, if it has one.
  ///
  /// Returns false when the clock has no meaningful position to persist —
  /// the SteadyDecisionClock default, whose readings are genuine wall time
  /// that a restored process cannot (and must not) resume. Deterministic
  /// clocks override this so that snapshot/restore keeps charged decision
  /// latencies — and therefore the action sequence — bit-identical across
  /// the cut.
  virtual bool ExportPosition(double* time, std::uint64_t* readings) const {
    (void)time;
    (void)readings;
    return false;
  }

  /// Restores a position previously captured by ExportPosition(). The
  /// default refuses: restoring a scripted position onto a wall clock would
  /// silently break determinism, so only clocks that export a position
  /// accept one.
  virtual Status ImportPosition(double time, std::uint64_t readings) {
    (void)time;
    (void)readings;
    return Status::NotImplemented(
        "this DecisionClock has no restorable position (inject a "
        "deterministic clock, e.g. FakeDecisionClock, to restore a snapshot "
        "taken with one)");
  }
};

/// Real wall clock (std::chrono::steady_clock) — the production default.
class SteadyDecisionClock final : public DecisionClock {
 public:
  double Now() override;
};

/// \brief Deterministic clock for tests: every reading advances the
///        internal time by a fixed step.
///
/// A decision bracketed by two readings is therefore charged exactly
/// `step_seconds`, independent of the host machine — the property the
/// replay/serving parity tests rely on. Give each of the two compared runs
/// its own instance (they each read the clock independently).
class FakeDecisionClock final : public DecisionClock {
 public:
  explicit FakeDecisionClock(double step_seconds) : step_(step_seconds) {}

  double Now() override {
    time_ += step_;
    ++readings_;
    return time_;
  }

  /// Number of readings taken so far (tests assert the clock was consulted
  /// only when charging is enabled).
  std::size_t readings() const { return readings_; }

  bool ExportPosition(double* time, std::uint64_t* readings) const override {
    *time = time_;
    *readings = readings_;
    return true;
  }

  Status ImportPosition(double time, std::uint64_t readings) override {
    time_ = time;
    readings_ = static_cast<std::size_t>(readings);
    return Status::OK();
  }

 private:
  double step_;
  double time_ = 0.0;
  std::size_t readings_ = 0;
};

/// \brief The deterministic way to "share" a fake clock across the tenants
///        of a multi-tenant server: a bank of independent FakeDecisionClock
///        instances with one common step.
///
/// A single mutable FakeDecisionClock must not be read by concurrently
/// planning tenants — the scheduling interleaving would decide which
/// reading each tenant sees and determinism would be lost (and the
/// unsynchronized counter is a data race outright). The bank instead hands
/// each tenant its own identically-scripted clock at a stable address, so
/// an api::ScalerFleet charging decision wall time stays byte-identical to
/// N sequential Scalers no matter how its worker pool schedules tenants.
/// Clocks are addressed by index; pair them with tenants in registration
/// order (tests/property_test.cpp does exactly that on both sides of the
/// fleet-vs-sequential parity check).
class FakeDecisionClockBank {
 public:
  /// `size` clocks, each advancing `step_seconds` per reading.
  FakeDecisionClockBank(double step_seconds, std::size_t size);

  std::size_t size() const { return clocks_.size(); }

  /// The `index`-th clock (stable address for the bank's lifetime).
  FakeDecisionClock* clock(std::size_t index) { return &clocks_[index]; }

 private:
  std::deque<FakeDecisionClock> clocks_;
};

}  // namespace rs::sim
