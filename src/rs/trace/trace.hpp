/// \file trace.hpp
/// \brief Serving-session capture, deterministic replay, and failing-capture
///        shrinking — the rs::trace subsystem.
///
/// A *capture* is a durable record of a ScalerFleet serving session: every
/// tenant registration (with the scaler's full durable state), every Observe
/// arrival with its outcome, every Plan/PlanAll drain with the emitted
/// actions and the tenant's decision-clock position, and every model swap.
/// Captures reuse the rs::persist container (magic, versioned sections,
/// CRC32 trailer); docs/TRACE_FORMAT.md is the normative on-disk spec.
///
/// The pieces compose into a capture-then-regress pipeline (the idea is
/// borrowed from genthat's trace-based unit-test extraction for R):
///
///   EventTap  — the ServingTap that turns each serving call into one
///               event (shared with the rs::wal journal);
///   Recorder  — an EventTap that appends events as a live fleet serves;
///   Replay    — rebuilds a fleet from the capture's embedded snapshots and
///               re-drives the event stream, comparing every emitted action
///               byte-for-byte against the recorded one;
///   Shrink    — binary-searches the shortest failing prefix of a capture
///               that no longer replays byte-identically (a behavior
///               regression), so the committed artifact is minimal;
///   EmitRegressionTest — renders a capture into a self-contained GTest
///               file (tests/generated/) that replays it under fleet worker
///               counts {0,1,8} and fails on any divergence.
///
/// Determinism: everything the serving path does is deterministic given the
/// recorded inputs (that is the repo's parity contract), with one exception —
/// wall time. Sessions that charge decision wall time against a real
/// SteadyDecisionClock replay action-identically only if the charged
/// latencies were zero-ish; sessions that need exact charged-latency replay
/// must serve under an injected deterministic clock (sim::FakeDecisionClock),
/// whose position travels inside the embedded scaler snapshots and is
/// verified after every plan. The freshness loop's background retrains are
/// wall-time-scheduled and therefore cannot be captured (the fleet refuses
/// the combination); manual ReplaceModel swaps are captured with the
/// incoming model's full state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rs/api/scaler_fleet.hpp"
#include "rs/api/serving_tap.hpp"
#include "rs/common/status.hpp"
#include "rs/fault/fault.hpp"
#include "rs/simulator/autoscaler.hpp"
#include "rs/simulator/decision_clock.hpp"

namespace rs::persist {
class Writer;
class Reader;
class Printer;
}  // namespace rs::persist

namespace rs::trace {

/// Decision-clock position attached to plan events (see api::TapClockMark).
using ClockMark = api::TapClockMark;

/// Wire ids of the event records inside the TEVT section. The numeric
/// values are part of the on-disk format — never renumber, only append.
enum class EventKind : std::uint8_t {
  kRegister = 1,      ///< Tenant registered (embeds its Scaler snapshot).
  kRetire = 2,        ///< Tenant retired.
  kReplaceModel = 3,  ///< Model swap (embeds the incoming Scaler snapshot).
  kObserve = 4,       ///< One arrival + the outcome the caller saw.
  kPlan = 5,          ///< Single-tenant Plan drain.
  kPlanAll = 6,       ///< One PlanAll batch (all tenants).
};

const char* EventKindName(EventKind kind);

/// One tenant's share of a recorded PlanAll batch.
struct PlannedTenant {
  std::uint32_t id = 0;
  bool ok = true;            ///< Per-tenant Plan status (failures recorded).
  ClockMark clock;           ///< Clock position after the batch.
  sim::ScalingAction action; ///< Empty unless ok.
};

/// One recorded serving event. Which fields are meaningful depends on
/// `kind` (see EventKind); unused fields keep their defaults and are not
/// encoded. Tenants are interned: kRegister assigns the next id to its
/// name, later events carry only the id, and ids are never reused within a
/// capture (a retire + re-register yields a fresh id).
struct Event {
  EventKind kind = EventKind::kObserve;
  std::uint32_t id = 0;   ///< Tenant id (all kinds except kPlanAll).
  std::string name;       ///< kRegister: the tenant name being interned.
  std::string state;      ///< kRegister/kReplaceModel: Scaler::SaveState bytes.
  bool at_next_plan = false;  ///< kReplaceModel: deferred to the boundary?
  double time = 0.0;          ///< kObserve: arrival; kPlan/kPlanAll: now.
  bool cold_start = false;            ///< kObserve outcome.
  bool cancel_earliest = false;       ///< kObserve outcome.
  ClockMark clock;                    ///< kPlan: position after the plan.
  sim::ScalingAction action;          ///< kPlan: the drained action.
  std::vector<PlannedTenant> plans;   ///< kPlanAll: registration order.
};

/// \brief An in-memory capture: metadata + the ordered event stream.
///
/// Save() writes one rs::persist container whose single top-level section
/// is TRCE (trace layer version, TMET metadata, TEVT events); Load()
/// validates the container (magic, version handshake, CRC) before decoding
/// and fails with a descriptive Status on truncation, bit flips, or
/// future-versioned files — never UB (fuzzed in tests/trace_test.cpp under
/// ASan/UBSan, mirroring persist_test's clean-failure contract).
struct Capture {
  std::string producer;  ///< Writing library, e.g. "robustscaler rs::trace".
  std::string label;     ///< Free-form session label (Recorder constructor).
  std::vector<Event> events;

  Status Save(std::ostream& out) const;
  static Result<Capture> Load(std::istream& in);
  static Result<Capture> FromBytes(std::string bytes);

  /// The encoded container bytes (what Save() writes), for embedding.
  Result<std::string> ToBytes() const;

  /// The first `n` events (all of them when n >= events.size()), keeping
  /// the metadata — the shrinker's probe artifact.
  Capture Prefix(std::size_t n) const;

  /// Section-level codec, for embedding captures in larger containers.
  /// One field list (capture.cpp) drives the encoder, the decoder and
  /// DescribeSection.
  Status SaveSection(persist::Writer* writer) const;
  static Result<Capture> LoadSection(persist::Reader* reader);
  /// Prints a TRCE section field by field, every event included, and runs
  /// LoadSection's checks (the rs_snapshot inspector).
  static Status DescribeSection(persist::Printer* printer);
};

/// \brief Event-record codec, exposed for containers that embed individual
///        trace events outside a TEVT section (the rs::wal journal frames
///        one encoded event per journal record; docs/WAL_FORMAT.md).
///
/// The byte grammar is exactly the TEVT per-event encoding from
/// docs/TRACE_FORMAT.md — one wire format shared by capture and journal.
/// DecodeEvent applies the same validation as capture loading (unknown
/// kinds, empty register names, corrupt outcome bits) and never reads past
/// the reader's remaining bytes.
void EncodeEvent(persist::Writer* writer, const Event& event);
Status DecodeEvent(persist::Reader* reader, Event* event);

/// \brief The one mapping from api::ServingTap callbacks to trace events,
///        plus the tenant-id intern table that mapping needs.
///
/// Every serving callback becomes exactly one Event, handed to Emit() in
/// serving order; what a subclass does with it is its only job (Recorder
/// appends it to a Capture, wal::FleetJournal frames it into a segment).
/// Because both taps share this class, the recorder and the journal turn
/// the same serving call into the same event bytes.
///
/// Interning: kRegister assigns the next id, later events carry only the
/// id, a retire unbinds the name, and ids are never reused (a retire +
/// re-register yields a fresh id). The table survives Detach, so a
/// re-attached tap continues the same stream.
class EventTap : public api::ServingTap {
 public:
  /// Detaches from the attached fleet (no-op when already detached).
  void Detach();

  // -- ServingTap (one Emit per callback) -------------------------------------
  void OnRegister(const std::string& tenant, const api::Scaler& scaler) final;
  void OnRetire(const std::string& tenant) final;
  void OnReplaceModel(const std::string& tenant, const api::Scaler& incoming,
                      bool at_next_plan) final;
  void OnObserve(const std::string& tenant, double arrival_time,
                 const api::Scaler::ObserveOutcome& outcome) final;
  void OnPlan(const std::string& tenant, double now,
              const sim::ScalingAction& action, const ClockMark& clock) final;
  void OnPlanAll(double now,
                 const std::vector<api::ScalerFleet::TenantPlan>& plans,
                 const std::vector<ClockMark>& clocks) final;

 protected:
  /// Receives every event this tap builds, in serving order. It may move
  /// from the event; a kPlanAll event it leaves in place keeps its buffers
  /// for the next boundary.
  virtual void Emit(Event&& event) = 0;

  /// \brief Attaches as `fleet`'s tap (refused while another tap is
  ///        attached or the freshness loop is enabled), then emits a
  ///        kRegister with a full scaler snapshot for every fleet tenant
  ///        not interned yet, in registration order. `who` prefixes errors.
  Status AttachAndSnapshot(api::ScalerFleet* fleet, const char* who);

  /// Applies a kRegister / kRetire event to the intern table (other kinds
  /// are ignored): the live callbacks and a journal re-reading its own
  /// records build the table through this one rule.
  void Intern(const Event& event);

  api::ScalerFleet* fleet_ = nullptr;
  std::uint32_t next_id_ = 1;
  /// Live tenant name -> id (retired names are unbound).
  std::unordered_map<std::string, std::uint32_t> ids_;
  /// Every id ever issued -> its tenant name, retired ones included.
  std::unordered_map<std::uint32_t, std::string> names_;

 private:
  std::uint32_t InternId(const std::string& tenant) const;

  /// The kPlanAll event OnPlanAll fills in place at every boundary.
  Event plan_all_;
};

/// \brief ServingTap that records a live fleet's session into a Capture.
///
/// Usage:
///   trace::Recorder recorder("checkout incident 2026-08-09");
///   RS_RETURN_NOT_OK(recorder.Attach(&fleet));   // snapshots live tenants
///   ... serve normally (Observe / Plan / PlanAll / lifecycle) ...
///   recorder.Detach();
///   RS_RETURN_NOT_OK(recorder.capture().Save(out));
///
/// Attach() first emits a kRegister event (with a full Scaler snapshot) for
/// every already-registered tenant in registration order, so attaching to a
/// mid-session fleet still yields a self-contained capture: replay restores
/// those snapshots and continues byte-identically from the attach point.
/// Overhead is bounded per event — O(action size) for plan events, one
/// serialized scaler state per lifecycle event — and zero when detached;
/// bench_replay measures the tap-on/tap-off serving-throughput ratio and
/// gates it in CI.
///
/// Single caller thread, like the fleet itself. The recorder must outlive
/// its attachment (detach before destroying either side).
class Recorder final : public EventTap {
 public:
  explicit Recorder(std::string label = "");

  /// \brief Attaches to `fleet` (refused while another tap is attached or
  ///        the freshness loop is enabled) and snapshots every tenant the
  ///        capture has not interned yet.
  ///
  /// Tenants already in the capture are not registered again, so a
  /// Detach + Attach continues the same capture (the journal's rule too).
  /// Serving done while detached is not recorded: such a capture replays
  /// only if the fleet was not driven in the gap. TakeCapture() clears the
  /// table, so the next Attach starts a fresh self-contained capture.
  Status Attach(api::ScalerFleet* fleet);

  const Capture& capture() const { return capture_; }

  /// Moves the capture out (e.g. to Save it) and resets the recorder.
  Capture TakeCapture();

  std::size_t events() const { return capture_.events.size(); }

 private:
  void Emit(Event&& event) override;

  Capture capture_;
};

/// Knobs for Replay().
struct ReplayOptions {
  /// Worker-pool size of the re-driven fleet. The parity contract says any
  /// value replays byte-identically; tests sweep {0, 1, 8}.
  std::size_t worker_threads = 0;
  /// Decision clock supplied to each restored scaler snapshot that was
  /// taken under an injected clock (kRegister / kReplaceModel events).
  /// Called once per such event with the tenant name; must return a clock
  /// that accepts ImportPosition and is scripted like the original (e.g. a
  /// fresh sim::FakeDecisionClock with the session's step). Snapshots
  /// without an injected clock never consult this.
  std::function<sim::DecisionClock*(const std::string& tenant)>
      decision_clock_for;
  /// Replay only the first `max_events` events (0 = the whole capture).
  std::size_t max_events = 0;
  /// Replay into this existing live fleet instead of constructing a fresh
  /// one (crash recovery: the fleet was just restored from a checkpoint and
  /// the journal tail is re-driven on top). The fleet must not have a tap
  /// attached; `worker_threads` is ignored. Null: build a fresh fleet.
  api::ScalerFleet* into = nullptr;
  /// Seed tenant-id interning for events that reference tenants registered
  /// before the capture/journal-tail begins (recovery: the checkpoint's
  /// intern table). Ids in the stream resolve through this map first;
  /// kRegister events extend it as usual.
  std::unordered_map<std::uint32_t, std::string> tenant_names;
};

/// Replay outcome. `diverged` distinguishes a *behavioral* mismatch (the
/// re-driven fleet emitted different bytes than the capture — the signal a
/// regression test keys on) from hard errors (corrupt capture, missing
/// decision clock), which Replay() returns as a non-OK Status instead.
struct ReplayReport {
  std::size_t events_total = 0;
  std::size_t events_applied = 0;  ///< Events re-driven before stopping.
  bool diverged = false;
  std::size_t divergence_event = 0;  ///< Index into Capture::events.
  std::string detail;                ///< First divergence, human-readable.
};

/// \brief Re-drives a fresh fleet from `capture` and verifies byte-identical
///        action parity.
///
/// Registration/swap events restore the embedded scaler snapshots through
/// the public ScalerBuilder::RestoreState path; Observe/Plan/PlanAll events
/// re-issue the recorded calls and compare outcomes, actions (doubles as
/// IEEE-754 bit patterns, never an epsilon), and decision-clock positions
/// against the recording. Stops at the first divergence.
Result<ReplayReport> Replay(const Capture& capture,
                            const ReplayOptions& options = {});

/// Shrink() outcome: the shortest failing prefix and its replay report.
struct ShrinkResult {
  /// Events in the minimal failing prefix. The divergence is at the last
  /// event by construction (any shorter prefix replays cleanly).
  std::size_t minimal_events = 0;
  Capture capture;       ///< The shrunk capture (Prefix(minimal_events)).
  ReplayReport report;   ///< Replay of the shrunk capture (diverged).
};

/// \brief Reduces a failing capture to its minimal failing prefix.
///
/// Binary-searches prefix length over [1, events] using Replay() as the
/// oracle — valid because replay is deterministic, so divergence happens at
/// a fixed event index d and a prefix fails iff it includes event d.
/// Returns Invalid when the full capture replays cleanly (nothing to
/// shrink) and propagates hard replay errors unchanged.
Result<ShrinkResult> Shrink(const Capture& capture,
                            const ReplayOptions& options = {});

/// Knobs for EmitRegressionTest.
struct EmitOptions {
  /// Setup prelude: reconstruct this fault plan in the generated test and
  /// install it (a fresh fault::ScopedFaultInjection per replay, so hit
  /// counters restart each worker count) around every Replay() call.
  /// Required for captures recorded under fault injection — the recorded
  /// stream contains fallback boundaries that only reproduce when the
  /// replayed fleet fails at the same hits; replayed faults-off, such a
  /// capture diverges at the first injected fault by construction.
  std::optional<fault::FaultPlan> fault_plan;
};

/// \brief Renders `capture` into a self-contained C++ GTest regression test
///        (for tests/generated/): the capture bytes are embedded as a byte
///        array and replayed under fleet worker counts {0, 1, 8}, failing
///        with the divergence detail on any mismatch.
///
/// `test_name` must be a valid C++ identifier (it names the TEST case).
/// Captures whose embedded snapshots need an injected decision clock are
/// refused — a generated test has no way to know the original clock's
/// script; keep such captures as .rstrace artifacts driven by a custom
/// harness instead.
Status EmitRegressionTest(const Capture& capture, const std::string& test_name,
                          std::ostream& out, const EmitOptions& options = {});

}  // namespace rs::trace
