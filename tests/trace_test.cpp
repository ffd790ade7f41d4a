// Tests of the rs::trace subsystem (capture → replay → shrink → generated
// regression tests):
//  * codec round-trips through bytes and the Reader/Writer section API;
//  * the headline replay-parity guarantee: a recorded serving session over
//    all five registry strategies re-drives byte-identically under fleet
//    worker counts {0, 1, 8};
//  * mid-session attach yields a self-contained capture (snapshot-prefixed),
//    and a Detach + Attach continues it without registering tenants twice;
//  * lifecycle events (retire, re-register, immediate and plan-boundary
//    model swaps) replay cleanly;
//  * charged-decision sessions under an injected FakeDecisionClock replay
//    with clock-position verification, and refuse to replay without a
//    replacement clock — a descriptive error, never a wall-clock fallback;
//  * a tampered capture diverges, Shrink() reduces it to the minimal
//    failing prefix, and EmitRegressionTest renders a self-contained test;
//  * corruption robustness: every probed truncation and bit flip of a
//    capture file fails with a clean Status — this file runs under the
//    ASan/UBSan CI job, which is the real assertion (mirrors persist_test);
//  * the tap exclusion rules (one tap at a time, tap xor freshness loop).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rs/api/api.hpp"
#include "rs/core/pipeline.hpp"
#include "rs/persist/fields.hpp"
#include "rs/persist/persist.hpp"
#include "rs/simulator/decision_clock.hpp"
#include "rs/stats/rng.hpp"
#include "rs/trace/trace.hpp"

namespace rs::trace {
namespace {

// ---------------------------------------------------------------------------
// Fixtures: the same small sinusoidal workload the fleet tests train on, one
// tenant per registry strategy, a scripted serving session with lifecycle
// churn recorded through a Recorder.
// ---------------------------------------------------------------------------

constexpr double kDt = 30.0;

const char* const kAllStrategySpecs[] = {
    "backup_pool:pool_size=2",
    "adaptive_backup_pool:multiplier=1.5,update_interval=60,"
    "estimate_window=120",
    "robust_hp:target=0.9",
    "robust_rt:target=1.0",
    "robust_cost:target=2.0",
};

struct Workload {
  workload::Trace train;
  workload::Trace test;
};

Workload MakeTraceWorkload(std::uint64_t seed) {
  const double period_s = 600.0;
  const double horizon = 8.0 * period_s;
  std::vector<double> rates;
  for (double t = 0.5 * kDt; t < horizon; t += kDt) {
    const double phase = std::fmod(t, period_s) / period_s;
    rates.push_back(0.3 + 0.2 * std::sin(2.0 * M_PI * phase));
  }
  auto intensity = *workload::PiecewiseConstantIntensity::Make(rates, kDt);
  stats::Rng rng(seed);
  auto trace = *workload::MakeTraceFromIntensity(
      &rng, intensity, stats::DurationDistribution::Exponential(15.0));
  Workload w;
  auto [train, test] = trace.SplitAt(horizon - 2.0 * period_s);
  w.train = std::move(train);
  w.test = std::move(test);
  return w;
}

api::Scaler BuildTenantScaler(const Workload& w, const char* spec_string) {
  auto spec = api::ParseStrategySpec(spec_string);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  auto scaler = api::ScalerBuilder()
                    .WithTrace(w.train)
                    .WithBinWidth(kDt)
                    .WithForecastHorizon(w.test.horizon())
                    .WithStrategy(*spec)
                    .WithPlanningInterval(2.0)
                    .WithMcSamples(40)
                    .Build();
  EXPECT_TRUE(scaler.ok()) << scaler.status().ToString();
  return std::move(scaler).ValueOrDie();
}

/// Records a serving session over all five strategies: interleaved arrivals,
/// single-tenant Plan drains, PlanAll batches, and (optionally) lifecycle
/// churn — a retire + re-register, an immediate swap, and a plan-boundary
/// swap. Returns the capture.
Capture RecordDemoSession(bool with_lifecycle) {
  const Workload w = MakeTraceWorkload(91);
  api::ScalerFleet fleet(2);
  Recorder recorder("trace_test demo session");
  EXPECT_TRUE(recorder.Attach(&fleet).ok());

  std::vector<std::string> names;
  for (const char* spec : kAllStrategySpecs) {
    const std::string name = "svc-" + std::to_string(names.size());
    EXPECT_TRUE(fleet.Register(name, BuildTenantScaler(w, spec)).ok());
    names.push_back(name);
  }

  double next_batch = 50.0;
  bool churned = false;
  for (const auto& q : w.test.queries()) {
    if (q.arrival_time > 300.0) break;
    while (q.arrival_time >= next_batch) {
      for (const auto& plan : fleet.PlanAll(next_batch)) {
        EXPECT_TRUE(plan.status.ok())
            << plan.tenant << ": " << plan.status.ToString();
      }
      if (with_lifecycle && !churned && next_batch >= 150.0) {
        churned = true;
        EXPECT_TRUE(fleet.Retire(names[0]).ok());
        EXPECT_TRUE(
            fleet.Register(names[0], BuildTenantScaler(w, kAllStrategySpecs[0]))
                .ok());
        EXPECT_TRUE(
            fleet
                .ReplaceModel(names[1], BuildTenantScaler(
                                            w, "backup_pool:pool_size=1"))
                .ok());
        EXPECT_TRUE(fleet
                        .ReplaceModelAtNextPlan(
                            names[2],
                            BuildTenantScaler(w, kAllStrategySpecs[2]))
                        .ok());
      }
      next_batch += 50.0;
    }
    for (const auto& name : names) {
      auto outcome = fleet.Observe(name, q.arrival_time);
      EXPECT_TRUE(outcome.ok()) << name << ": " << outcome.status().ToString();
    }
  }
  // A couple of single-tenant drains so kPlan events appear too.
  EXPECT_TRUE(fleet.Plan(names[3], next_batch).ok());
  EXPECT_TRUE(fleet.Plan(names[4], next_batch).ok());
  for (const auto& plan : fleet.PlanAll(next_batch + 10.0)) {
    EXPECT_TRUE(plan.status.ok())
        << plan.tenant << ": " << plan.status.ToString();
  }

  recorder.Detach();
  return recorder.TakeCapture();
}

/// The plain session is recorded once and shared (recording trains five
/// scalers; the replays are what each test actually exercises).
const Capture& DemoCapture() {
  static const Capture capture = RecordDemoSession(/*with_lifecycle=*/false);
  return capture;
}

void ExpectEventsEqual(const Event& a, const Event& b, std::size_t index) {
  EXPECT_EQ(a.kind, b.kind) << "event " << index;
  EXPECT_EQ(a.id, b.id) << "event " << index;
  EXPECT_EQ(a.name, b.name) << "event " << index;
  EXPECT_EQ(a.state, b.state) << "event " << index;
  EXPECT_EQ(a.at_next_plan, b.at_next_plan) << "event " << index;
  EXPECT_EQ(a.time, b.time) << "event " << index;
  EXPECT_EQ(a.cold_start, b.cold_start) << "event " << index;
  EXPECT_EQ(a.cancel_earliest, b.cancel_earliest) << "event " << index;
  EXPECT_EQ(a.clock.has_position, b.clock.has_position) << "event " << index;
  EXPECT_EQ(a.clock.time, b.clock.time) << "event " << index;
  EXPECT_EQ(a.clock.readings, b.clock.readings) << "event " << index;
  EXPECT_EQ(a.action.creation_times, b.action.creation_times)
      << "event " << index;
  EXPECT_EQ(a.action.deletions, b.action.deletions) << "event " << index;
  ASSERT_EQ(a.plans.size(), b.plans.size()) << "event " << index;
  for (std::size_t j = 0; j < a.plans.size(); ++j) {
    EXPECT_EQ(a.plans[j].id, b.plans[j].id) << "event " << index;
    EXPECT_EQ(a.plans[j].ok, b.plans[j].ok) << "event " << index;
    EXPECT_EQ(a.plans[j].clock.has_position, b.plans[j].clock.has_position)
        << "event " << index;
    EXPECT_EQ(a.plans[j].action.creation_times,
              b.plans[j].action.creation_times)
        << "event " << index;
    EXPECT_EQ(a.plans[j].action.deletions, b.plans[j].action.deletions)
        << "event " << index;
  }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(TraceCodecTest, RoundTripsThroughBytes) {
  const Capture& original = DemoCapture();
  ASSERT_GT(original.events.size(), 10u);

  auto bytes = original.ToBytes();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto decoded = Capture::FromBytes(bytes.ValueOrDie());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  EXPECT_EQ(decoded->producer, original.producer);
  EXPECT_EQ(decoded->label, original.label);
  ASSERT_EQ(decoded->events.size(), original.events.size());
  for (std::size_t i = 0; i < original.events.size(); ++i) {
    ExpectEventsEqual(original.events[i], decoded->events[i], i);
  }

  // Stream form decodes to the same thing.
  std::stringstream stream;
  ASSERT_TRUE(original.Save(stream).ok());
  auto from_stream = Capture::Load(stream);
  ASSERT_TRUE(from_stream.ok()) << from_stream.status().ToString();
  EXPECT_EQ(from_stream->events.size(), original.events.size());
}

TEST(TraceCodecTest, CaptureHoldsEveryEventKindItRecorded) {
  const Capture lifecycle = RecordDemoSession(/*with_lifecycle=*/true);
  std::size_t seen[7] = {0, 0, 0, 0, 0, 0, 0};
  for (const Event& event : lifecycle.events) {
    seen[static_cast<std::size_t>(event.kind)]++;
  }
  EXPECT_GE(seen[1], 6u) << "registers (5 initial + 1 re-register)";
  EXPECT_EQ(seen[2], 1u) << "retires";
  EXPECT_EQ(seen[3], 2u) << "model swaps";
  EXPECT_GT(seen[4], 100u) << "observes";
  EXPECT_EQ(seen[5], 2u) << "the two single-tenant drains at the tail";
  EXPECT_GE(seen[6], 5u) << "plan-all batches";

  // Replaying the lifecycle session is covered below; here just confirm the
  // re-registered tenant got a fresh id (ids are never reused).
  std::vector<std::uint32_t> register_ids;
  for (const Event& event : lifecycle.events) {
    if (event.kind == EventKind::kRegister) register_ids.push_back(event.id);
  }
  std::vector<std::uint32_t> sorted = register_ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
      << "a tenant id was reused within one capture";
}

/// The field-by-field encoder: every event through a fresh Writer's
/// per-field appends, PlanAll included, in a container laid out as
/// Capture::Save lays it out (docs/TRACE_FORMAT.md).
std::string FieldByFieldCaptureBytes(const Capture& capture) {
  persist::Writer writer;
  writer.BeginSection(persist::kTagTraceCapture);
  writer.WriteU32(1);
  writer.BeginSection(persist::kTagTraceMeta);
  writer.WriteString(capture.producer);
  writer.WriteString(capture.label);
  writer.EndSection();
  writer.BeginSection(persist::kTagTraceEvents);
  writer.WriteU64(capture.events.size());
  for (const Event& event : capture.events) {
    if (event.kind != EventKind::kPlanAll) {
      EncodeEvent(&writer, event);
      continue;
    }
    writer.WriteU8(static_cast<std::uint8_t>(event.kind));
    writer.WriteDouble(event.time);
    writer.WriteU64(event.plans.size());
    for (const PlannedTenant& plan : event.plans) {
      writer.WriteU32(plan.id);
      writer.WriteBool(plan.ok);
      writer.WriteBool(plan.clock.has_position);
      writer.WriteDouble(plan.clock.time);
      writer.WriteU64(plan.clock.readings);
      if (!plan.ok) continue;
      writer.WriteDoubleVector(plan.action.creation_times);
      writer.WriteU64(plan.action.deletions);
    }
  }
  writer.EndSection();
  writer.EndSection();
  return std::string(writer.Finish());
}

TEST(TraceCodecTest, RecordedPlanAllBoundariesKeepTheirOwnActions) {
  const Workload w = MakeTraceWorkload(97);
  api::ScalerFleet fleet(0);
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  for (const std::string& name : names) {
    ASSERT_TRUE(
        fleet.Register(name, BuildTenantScaler(w, kAllStrategySpecs[0])).ok());
  }
  Recorder recorder("plan-all boundaries");
  ASSERT_TRUE(recorder.Attach(&fleet).ok());
  const std::size_t registers = recorder.events();
  ASSERT_EQ(registers, names.size());

  // Boundary b: tenant b fails, the others plan 0-5 creations each, every
  // value distinct across boundaries, so a slot shared between recorded
  // events would show as another boundary's action.
  constexpr std::size_t kBoundaries = 4;
  std::vector<std::vector<api::ScalerFleet::TenantPlan>> sent(kBoundaries);
  std::vector<std::vector<ClockMark>> clocks(kBoundaries);
  for (std::size_t b = 0; b < kBoundaries; ++b) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      api::ScalerFleet::TenantPlan plan;
      plan.tenant = names[i];
      if (i == b % names.size()) {
        plan.status = Status::Invalid("planned past the serving clock");
      } else {
        for (std::size_t k = 0; k < (b + 2 * i) % 6; ++k) {
          plan.action.creation_times.push_back(100.0 * b + 10.0 * i + k);
        }
        plan.action.deletions = b + i;
      }
      sent[b].push_back(std::move(plan));
      ClockMark clock;
      clock.has_position = (b + i) % 2 == 0;
      clock.time = 0.5 * b + 0.25 * i;
      clock.readings = 7 * b + i;
      clocks[b].push_back(clock);
    }
    recorder.OnPlanAll(2.0 * (b + 1), sent[b], clocks[b]);
  }
  recorder.Detach();
  const Capture capture = recorder.TakeCapture();
  ASSERT_EQ(capture.events.size(), registers + kBoundaries);

  for (std::size_t b = 0; b < kBoundaries; ++b) {
    const Event& event = capture.events[registers + b];
    ASSERT_EQ(event.kind, EventKind::kPlanAll);
    EXPECT_EQ(event.time, 2.0 * (b + 1));
    ASSERT_EQ(event.plans.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      const PlannedTenant& plan = event.plans[i];
      const bool ok = sent[b][i].status.ok();
      EXPECT_EQ(plan.id, capture.events[i].id) << "boundary " << b;
      EXPECT_EQ(plan.ok, ok) << "boundary " << b << ", tenant " << i;
      EXPECT_EQ(plan.clock.has_position, clocks[b][i].has_position);
      EXPECT_EQ(plan.clock.time, clocks[b][i].time);
      EXPECT_EQ(plan.clock.readings, clocks[b][i].readings);
      // A failed tenant records an empty action, whatever its slot held.
      EXPECT_EQ(plan.action.creation_times,
                ok ? sent[b][i].action.creation_times : std::vector<double>{})
          << "boundary " << b << ", tenant " << i;
      EXPECT_EQ(plan.action.deletions, ok ? sent[b][i].action.deletions : 0u)
          << "boundary " << b << ", tenant " << i;
    }
  }

  auto bytes = capture.ToBytes();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_TRUE(bytes.ValueOrDie() == FieldByFieldCaptureBytes(capture))
      << "the capture's PlanAll encoding differs from the field-by-field "
         "one";
}

TEST(TraceCodecTest, OneRunPlanAllEncodeStoresExactlyTheBytesItCounted) {
  // EncodeEvent sizes a PlanAll record with one pass of the event field
  // list, reserves that many bytes and stores the record into them with a
  // second pass. A count above the stores leaves zero bytes at the end; a
  // count below them stores past the reservation (ASan) and loses the
  // record's tail. Either shows against the field-by-field oracle.
  stats::Rng rng(20261019);
  for (std::size_t round = 0; round < 40; ++round) {
    Event event;
    event.kind = EventKind::kPlanAll;
    event.time = 60.0 * static_cast<double>(round) + rng.NextDouble();
    event.plans.resize(rng.NextBounded(301));
    for (PlannedTenant& plan : event.plans) {
      plan.id = static_cast<std::uint32_t>(rng.NextBounded(1000) + 1);
      plan.ok = rng.NextBounded(4) != 0;
      plan.clock.has_position = rng.NextBounded(2) == 1;
      plan.clock.time = rng.NextDouble();
      plan.clock.readings = rng.NextUint64();
      if (!plan.ok) continue;
      plan.action.creation_times.resize(rng.NextBounded(41));
      for (double& t : plan.action.creation_times) t = rng.NextGaussian();
      plan.action.deletions = rng.NextBounded(5);
    }

    persist::Writer writer;
    writer.ResetBare();
    EncodeEvent(&writer, event);
    const std::string run(writer.bytes());

    Capture capture;
    capture.events.push_back(event);
    const std::string oracle = FieldByFieldCaptureBytes(capture);
    ASSERT_GE(oracle.size(), run.size() + 4) << "round " << round;
    EXPECT_TRUE(oracle.compare(oracle.size() - 4 - run.size(), run.size(),
                               run) == 0)
        << "round " << round << ": the one-run encode of "
        << event.plans.size() << " tenants differs from the field-by-field "
        << "bytes";

    persist::Reader reader = persist::Reader::OverBytes(run);
    Event decoded;
    ASSERT_TRUE(DecodeEvent(&reader, &decoded).ok()) << "round " << round;
    EXPECT_EQ(reader.remaining(), 0u) << "round " << round;
    ExpectEventsEqual(event, decoded, round);
  }
}

TEST(TraceCodecTest, CommittedCapturesPrintToTheLastByte) {
  // rs_snapshot's printer runs the capture's field list: it must walk each
  // committed capture to its last byte and print every event.
  for (const char* name : {"example.rstrace", "example_tiny.rstrace"}) {
    const std::string path =
        (std::filesystem::path(__FILE__).parent_path() / "data" / name)
            .string();
    std::ifstream file(path, std::ios::binary);
    ASSERT_TRUE(file) << path;
    const std::string bytes((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
    auto capture = Capture::FromBytes(bytes);
    ASSERT_TRUE(capture.ok()) << capture.status().ToString();

    auto reader = persist::Reader::FromBytes(bytes);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    std::ostringstream printed;
    persist::Printer printer(&*reader, &printed);
    ASSERT_TRUE(Capture::DescribeSection(&printer).ok())
        << name << ": " << printer.status().ToString();
    EXPECT_EQ(reader->remaining(), 0u) << name;
    const std::string text = printed.str();
    std::size_t events = 0;
    for (auto at = text.find("event kind = "); at != std::string::npos;
         at = text.find("event kind = ", at + 1)) {
      ++events;
    }
    EXPECT_EQ(events, capture->events.size()) << name;
  }
}

// ---------------------------------------------------------------------------
// Replay parity
// ---------------------------------------------------------------------------

TEST(TraceReplayTest, AllStrategiesReplayByteIdenticallyAcrossWorkerCounts) {
  // The headline guarantee: the recorded session (five registry strategies,
  // interleaved arrivals, mixed Plan/PlanAll) re-drives byte-identically
  // whatever the replay fleet's worker count — and the capture survives a
  // byte round-trip first, so what is verified is the on-disk artifact.
  auto bytes = DemoCapture().ToBytes();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto capture = Capture::FromBytes(bytes.ValueOrDie());
  ASSERT_TRUE(capture.ok()) << capture.status().ToString();

  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{8}}) {
    ReplayOptions options;
    options.worker_threads = workers;
    auto report = Replay(capture.ValueOrDie(), options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report->diverged)
        << "workers=" << workers << ": " << report->detail;
    EXPECT_EQ(report->events_applied, capture->events.size())
        << "workers=" << workers;
  }
}

TEST(TraceReplayTest, LifecycleChurnReplaysCleanly) {
  const Capture capture = RecordDemoSession(/*with_lifecycle=*/true);
  for (const std::size_t workers : {std::size_t{0}, std::size_t{8}}) {
    ReplayOptions options;
    options.worker_threads = workers;
    auto report = Replay(capture, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report->diverged)
        << "workers=" << workers << ": " << report->detail;
  }
}

TEST(TraceReplayTest, MidSessionAttachYieldsSelfContainedCapture) {
  const Workload w = MakeTraceWorkload(92);
  api::ScalerFleet fleet(0);
  ASSERT_TRUE(
      fleet.Register("early", BuildTenantScaler(w, "robust_hp:target=0.9"))
          .ok());
  ASSERT_TRUE(
      fleet.Register("later", BuildTenantScaler(w, "backup_pool:pool_size=2"))
          .ok());

  // Serve un-recorded traffic first: the capture must not need it.
  for (const auto& q : w.test.queries()) {
    if (q.arrival_time > 120.0) break;
    ASSERT_TRUE(fleet.Observe("early", q.arrival_time).ok());
    ASSERT_TRUE(fleet.Observe("later", q.arrival_time).ok());
  }
  (void)fleet.PlanAll(120.0);

  Recorder recorder("mid-session attach");
  ASSERT_TRUE(recorder.Attach(&fleet).ok());
  for (const auto& q : w.test.queries()) {
    if (q.arrival_time <= 120.0) continue;
    if (q.arrival_time > 240.0) break;
    ASSERT_TRUE(fleet.Observe("early", q.arrival_time).ok());
    ASSERT_TRUE(fleet.Observe("later", q.arrival_time).ok());
  }
  for (const auto& plan : fleet.PlanAll(240.0)) {
    ASSERT_TRUE(plan.status.ok()) << plan.status.ToString();
  }
  recorder.Detach();
  const Capture capture = recorder.TakeCapture();

  // Attach snapshots the live tenants first, in registration order.
  ASSERT_GE(capture.events.size(), 3u);
  EXPECT_EQ(capture.events[0].kind, EventKind::kRegister);
  EXPECT_EQ(capture.events[0].name, "early");
  EXPECT_FALSE(capture.events[0].state.empty());
  EXPECT_EQ(capture.events[1].kind, EventKind::kRegister);
  EXPECT_EQ(capture.events[1].name, "later");

  auto report = Replay(capture);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->diverged) << report->detail;
}

TEST(TraceReplayTest, ReattachContinuesTheSameCapture) {
  // Detach + Attach must not register the live tenants a second time: the
  // recorder keeps its intern table across the gap, so the capture stays
  // one replayable stream.
  const Workload w = MakeTraceWorkload(93);
  const auto& queries = w.test.queries();
  ASSERT_GE(queries.size(), 2u);
  api::ScalerFleet fleet(0);
  ASSERT_TRUE(
      fleet.Register("a", BuildTenantScaler(w, "robust_hp:target=0.9")).ok());

  Recorder recorder("re-attach");
  ASSERT_TRUE(recorder.Attach(&fleet).ok());
  ASSERT_TRUE(fleet.Observe("a", queries[0].arrival_time).ok());
  recorder.Detach();
  ASSERT_TRUE(recorder.Attach(&fleet).ok());
  ASSERT_TRUE(fleet.Observe("a", queries[1].arrival_time).ok());
  for (const auto& plan : fleet.PlanAll(queries[1].arrival_time + 1.0)) {
    ASSERT_TRUE(plan.status.ok()) << plan.status.ToString();
  }
  recorder.Detach();
  const Capture capture = recorder.TakeCapture();

  ASSERT_EQ(capture.events.size(), 4u);
  EXPECT_EQ(capture.events[0].kind, EventKind::kRegister);
  EXPECT_EQ(capture.events[1].kind, EventKind::kObserve);
  EXPECT_EQ(capture.events[2].kind, EventKind::kObserve);
  EXPECT_EQ(capture.events[2].id, capture.events[0].id);
  EXPECT_EQ(capture.events[3].kind, EventKind::kPlanAll);
  auto report = Replay(capture);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->diverged) << report->detail;

  // TakeCapture clears the table: the next Attach starts a fresh,
  // self-contained capture.
  ASSERT_TRUE(recorder.Attach(&fleet).ok());
  recorder.Detach();
  const Capture fresh = recorder.TakeCapture();
  ASSERT_EQ(fresh.events.size(), 1u);
  EXPECT_EQ(fresh.events[0].kind, EventKind::kRegister);
  EXPECT_EQ(fresh.events[0].id, 1u);
  EXPECT_EQ(fresh.events[0].name, "a");
}

TEST(TraceReplayTest, InjectedClockSessionsVerifyClockPositions) {
  // A charged-decision session under an injected FakeDecisionClock: the
  // clock position travels inside the embedded snapshot, advances on every
  // plan, and replay verifies it bit-for-bit after each drain.
  const Workload w = MakeTraceWorkload(93);
  sim::FakeDecisionClock live_clock(0.001);
  api::Scaler scaler = BuildTenantScaler(w, "robust_hp:target=0.9");
  sim::EngineOptions engine;
  engine.pending = stats::DurationDistribution::Deterministic(13.0);
  engine.charge_decision_wall_time = true;
  engine.decision_clock = &live_clock;
  ASSERT_TRUE(scaler.ConfigureServing(engine).ok());

  api::ScalerFleet fleet(0);
  Recorder recorder("charged-decision session");
  ASSERT_TRUE(recorder.Attach(&fleet).ok());
  ASSERT_TRUE(fleet.Register("svc", std::move(scaler)).ok());
  double next_plan = 40.0;
  for (const auto& q : w.test.queries()) {
    if (q.arrival_time > 200.0) break;
    while (q.arrival_time >= next_plan) {
      ASSERT_TRUE(fleet.Plan("svc", next_plan).ok());
      next_plan += 40.0;
    }
    ASSERT_TRUE(fleet.Observe("svc", q.arrival_time).ok());
  }
  ASSERT_TRUE(fleet.Plan("svc", next_plan).ok());
  recorder.Detach();
  const Capture capture = recorder.TakeCapture();

  // The recorded plan events carry real clock positions.
  bool saw_position = false;
  for (const Event& event : capture.events) {
    if (event.kind == EventKind::kPlan && event.clock.has_position) {
      saw_position = true;
    }
  }
  EXPECT_TRUE(saw_position);

  // Without a replacement clock: a descriptive hard error, not a silent
  // wall-clock fallback (and not a "divergence" — the capture is fine).
  auto missing = Replay(capture);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("DecisionClock"),
            std::string::npos)
      << missing.status().ToString();

  // With replacement clocks scripted like the original: byte parity,
  // including the per-plan clock positions.
  std::deque<sim::FakeDecisionClock> replay_clocks;
  ReplayOptions options;
  options.decision_clock_for = [&replay_clocks](const std::string&) {
    replay_clocks.emplace_back(0.001);
    return &replay_clocks.back();
  };
  auto report = Replay(capture, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->diverged) << report->detail;

  // A replacement clock with a different script must be caught by the
  // clock-position check, not silently accepted.
  std::deque<sim::FakeDecisionClock> wrong_clocks;
  ReplayOptions wrong;
  wrong.decision_clock_for = [&wrong_clocks](const std::string&) {
    wrong_clocks.emplace_back(0.002);
    return &wrong_clocks.back();
  };
  auto mismatched = Replay(capture, wrong);
  ASSERT_TRUE(mismatched.ok()) << mismatched.status().ToString();
  EXPECT_TRUE(mismatched->diverged);
  EXPECT_NE(mismatched->detail.find("clock"), std::string::npos)
      << mismatched->detail;
}

// ---------------------------------------------------------------------------
// Shrinking + generated regression tests
// ---------------------------------------------------------------------------

/// Flips one recorded creation time in the last plan-carrying event — the
/// stand-in for "the current build emits different bytes than the capture".
Capture TamperLastAction(Capture capture, std::size_t* tampered_index) {
  for (std::size_t i = capture.events.size(); i-- > 0;) {
    Event& event = capture.events[i];
    if (event.kind == EventKind::kPlan &&
        !event.action.creation_times.empty()) {
      event.action.creation_times[0] += 0.5;
      *tampered_index = i;
      return capture;
    }
    if (event.kind == EventKind::kPlanAll) {
      for (PlannedTenant& plan : event.plans) {
        if (plan.ok && !plan.action.creation_times.empty()) {
          plan.action.creation_times[0] += 0.5;
          *tampered_index = i;
          return capture;
        }
      }
    }
  }
  ADD_FAILURE() << "demo capture carries no creations to tamper with";
  *tampered_index = 0;
  return capture;
}

TEST(TraceShrinkTest, TamperedCaptureDivergesAndShrinksToMinimalPrefix) {
  std::size_t tampered = 0;
  const Capture bad = TamperLastAction(DemoCapture(), &tampered);
  ASSERT_GT(tampered, 0u);

  auto report = Replay(bad);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->diverged);
  EXPECT_EQ(report->divergence_event, tampered);
  EXPECT_NE(report->detail.find("recorded"), std::string::npos)
      << report->detail;

  auto shrunk = Shrink(bad);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
  EXPECT_EQ(shrunk->minimal_events, tampered + 1)
      << "the minimal failing prefix ends at the tampered event";
  EXPECT_EQ(shrunk->capture.events.size(), shrunk->minimal_events);
  EXPECT_TRUE(shrunk->report.diverged);

  // One shorter and the prefix replays cleanly — minimality, verified.
  auto shorter = Replay(bad.Prefix(shrunk->minimal_events - 1));
  ASSERT_TRUE(shorter.ok()) << shorter.status().ToString();
  EXPECT_FALSE(shorter->diverged) << shorter->detail;
}

TEST(TraceShrinkTest, CleanCaptureRefusesToShrink) {
  auto shrunk = Shrink(DemoCapture());
  ASSERT_FALSE(shrunk.ok());
  EXPECT_NE(shrunk.status().message().find("nothing to shrink"),
            std::string::npos)
      << shrunk.status().ToString();
}

TEST(TraceShrinkTest, EmitRegressionTestRendersSelfContainedSource) {
  std::size_t tampered = 0;
  const Capture bad = TamperLastAction(DemoCapture(), &tampered);
  auto shrunk = Shrink(bad);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();

  std::ostringstream source;
  ASSERT_TRUE(
      EmitRegressionTest(shrunk->capture, "ShrunkDemoSession", source).ok());
  const std::string text = source.str();
  EXPECT_NE(text.find("TEST(GeneratedTraceRegression, ShrunkDemoSession)"),
            std::string::npos);
  EXPECT_NE(text.find("kCaptureBytes"), std::string::npos);
  EXPECT_NE(text.find("rs/trace/trace.hpp"), std::string::npos);
  EXPECT_NE(text.find("GENERATED"), std::string::npos);
  // Worker sweep {0, 1, 8} is part of the emitted contract.
  EXPECT_NE(text.find("std::size_t{8}"), std::string::npos);

  // The embedded bytes decode back to the shrunk capture.
  const std::string needle = "kCaptureBytes[] = {";
  const std::size_t start = text.find(needle);
  ASSERT_NE(start, std::string::npos);
  const std::size_t end = text.find("};", start);
  ASSERT_NE(end, std::string::npos);
  std::string bytes;
  for (std::size_t i = start + needle.size(); i < end;) {
    const std::size_t hex = text.find("0x", i);
    if (hex == std::string::npos || hex >= end) break;
    bytes.push_back(static_cast<char>(
        std::stoul(text.substr(hex + 2, 2), nullptr, 16)));
    i = hex + 4;
  }
  auto decoded = Capture::FromBytes(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->events.size(), shrunk->capture.events.size());

  // Identifier discipline.
  std::ostringstream sink;
  EXPECT_FALSE(EmitRegressionTest(shrunk->capture, "9starts_with_digit", sink)
                   .ok());
  EXPECT_FALSE(EmitRegressionTest(shrunk->capture, "has-dash", sink).ok());
  EXPECT_FALSE(EmitRegressionTest(shrunk->capture, "", sink).ok());
}

TEST(TraceShrinkTest, EmitRegressionTestRefusesClockBoundCaptures) {
  // Build a minimal capture whose snapshot was taken under an injected
  // clock: a generated test cannot know the clock's script, so emission is
  // refused with the replayer's descriptive error.
  const Workload w = MakeTraceWorkload(94);
  sim::FakeDecisionClock clock(0.001);
  api::Scaler scaler = BuildTenantScaler(w, "backup_pool:pool_size=1");
  sim::EngineOptions engine;
  engine.charge_decision_wall_time = true;
  engine.decision_clock = &clock;
  ASSERT_TRUE(scaler.ConfigureServing(engine).ok());

  api::ScalerFleet fleet(0);
  Recorder recorder;
  ASSERT_TRUE(recorder.Attach(&fleet).ok());
  ASSERT_TRUE(fleet.Register("svc", std::move(scaler)).ok());
  ASSERT_TRUE(fleet.Observe("svc", 1.0).ok());
  ASSERT_TRUE(fleet.Plan("svc", 5.0).ok());
  recorder.Detach();

  std::ostringstream sink;
  auto refused =
      EmitRegressionTest(recorder.capture(), "NeedsInjectedClock", sink);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("DecisionClock"), std::string::npos)
      << refused.ToString();
}

// ---------------------------------------------------------------------------
// Corruption robustness (runs under the ASan/UBSan CI job)
// ---------------------------------------------------------------------------

TEST(TraceCorruptionTest, TruncationsAndBitFlipsFailCleanly) {
  auto encoded = DemoCapture().ToBytes();
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  const std::string& bytes = encoded.ValueOrDie();
  ASSERT_GT(bytes.size(), 64u);

  // Every truncation boundary near the ends plus a stride through the
  // middle: decode must fail with a Status (CRC/bounds), never crash.
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < 32 && i < bytes.size(); ++i) cuts.push_back(i);
  for (std::size_t i = 1; i <= 32 && i < bytes.size(); ++i) {
    cuts.push_back(bytes.size() - i);
  }
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 64);
  for (std::size_t i = 32; i + 32 < bytes.size(); i += stride) {
    cuts.push_back(i);
  }
  for (const std::size_t cut : cuts) {
    auto truncated = Capture::FromBytes(bytes.substr(0, cut));
    EXPECT_FALSE(truncated.ok()) << "truncation at " << cut << " decoded";
  }

  // Single bit flips anywhere must be caught — the container CRC detects
  // all of them by construction. Probe a stride plus both file ends.
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < 16; ++i) offsets.push_back(i);
  for (std::size_t i = 1; i <= 16; ++i) offsets.push_back(bytes.size() - i);
  for (std::size_t i = 16; i + 16 < bytes.size(); i += stride) {
    offsets.push_back(i);
  }
  for (const std::size_t offset : offsets) {
    std::string flipped = bytes;
    flipped[offset] = static_cast<char>(
        flipped[offset] ^ static_cast<char>(1u << (offset % 8)));
    auto corrupt = Capture::FromBytes(std::move(flipped));
    EXPECT_FALSE(corrupt.ok()) << "bit flip at " << offset << " decoded";
  }
}

TEST(TraceCorruptionTest, PostCrcTamperingIsRejectedByStructureChecks) {
  // Corruption that *recomputes* the CRC (a hostile or buggy writer rather
  // than bit rot) must still fail the structural validation: bogus event
  // kinds, impossible counts, empty tenant names.
  const Capture& demo = DemoCapture();

  Capture bogus_kind = demo;
  bogus_kind.events.resize(2);
  // A real observe first so the section is big enough to pass the
  // count-vs-size plausibility guard; the reader must then stop at the
  // unknown kind byte.
  bogus_kind.events[0] = Event{};
  bogus_kind.events[0].kind = EventKind::kObserve;
  bogus_kind.events[0].id = 1;
  bogus_kind.events[0].time = 1.0;
  bogus_kind.events[1] = Event{};
  bogus_kind.events[1].kind = static_cast<EventKind>(200);
  auto encoded = bogus_kind.ToBytes();
  // The writer encodes unknown kinds as-is (the switch falls through); the
  // reader is the side that must reject them.
  ASSERT_TRUE(encoded.ok());
  auto decoded = Capture::FromBytes(encoded.ValueOrDie());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("event kind"), std::string::npos)
      << decoded.status().ToString();

  Capture empty_name = demo;
  empty_name.events.resize(1);
  empty_name.events[0] = Event{};
  empty_name.events[0].kind = EventKind::kRegister;
  empty_name.events[0].id = 1;
  empty_name.events[0].name = "";
  empty_name.events[0].state = "x";
  auto encoded_name = empty_name.ToBytes();
  ASSERT_TRUE(encoded_name.ok());
  auto decoded_name = Capture::FromBytes(encoded_name.ValueOrDie());
  ASSERT_FALSE(decoded_name.ok());
  EXPECT_NE(decoded_name.status().message().find("empty name"),
            std::string::npos)
      << decoded_name.status().ToString();
}

/// `bytes` (a capture container) with one byte inserted at `at`, the u64
/// section lengths at `length_fields` grown by one to cover it, and the
/// CRC trailer recomputed: a well-framed file with a stray byte.
std::string InsertStrayByte(std::string bytes, std::size_t at,
                            const std::vector<std::size_t>& length_fields) {
  for (const std::size_t field : length_fields) {
    persist::StoreLe(bytes.data() + field,
                     persist::LoadLe(bytes.data() + field, 8) + 1, 8);
  }
  bytes.insert(at, 1, '\x5a');
  const std::size_t body = bytes.size() - 4;
  persist::StoreLe(bytes.data() + body, persist::Crc32(bytes.data(), body), 4);
  return bytes;
}

TEST(TraceCorruptionTest, StrayBytesAfterTheEventsAreRejected) {
  // docs/TRACE_FORMAT.md sections 3 and 3.2: TEVT and TRCE have no growth
  // point, so a byte after the last event (in TEVT, in TRCE after TEVT or
  // after TRCE) is corrupt; TMET is the growth point, so a byte after its
  // known fields is skipped.
  const auto data = std::filesystem::path(__FILE__).parent_path() / "data";
  std::ifstream file(data / "example_tiny.rstrace", std::ios::binary);
  ASSERT_TRUE(file) << data;
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  auto committed = Capture::FromBytes(bytes);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();

  // Container header (magic, version), then TRCE: tag, u64 length, the
  // u32 layer version, TMET and TEVT, each a tag and a u64 length.
  const auto tag_at = [&bytes](std::size_t at) {
    return static_cast<std::uint32_t>(persist::LoadLe(bytes.data() + at, 4));
  };
  const std::size_t trce = 8;
  const std::size_t tmet = trce + 12 + 4;
  const std::size_t tevt =
      tmet + 12 + persist::LoadLe(bytes.data() + tmet + 4, 8);
  const std::size_t tevt_end =
      tevt + 12 + persist::LoadLe(bytes.data() + tevt + 4, 8);
  ASSERT_EQ(tag_at(trce), persist::kTagTraceCapture);
  ASSERT_EQ(tag_at(tmet), persist::kTagTraceMeta);
  ASSERT_EQ(tag_at(tevt), persist::kTagTraceEvents);
  ASSERT_EQ(tevt_end, bytes.size() - 4) << "TEVT must close TRCE";

  const std::string in_tevt =
      InsertStrayByte(bytes, tevt_end, {trce + 4, tevt + 4});
  const std::string in_trce = InsertStrayByte(bytes, tevt_end, {trce + 4});
  const std::string after_trce = InsertStrayByte(bytes, tevt_end, {});
  EXPECT_FALSE(Capture::FromBytes(after_trce).ok())
      << "a stray byte after TRCE loaded";
  for (const std::string* stray : {&in_tevt, &in_trce}) {
    const char* where = stray == &in_tevt ? "TEVT" : "TRCE";
    auto loaded = Capture::FromBytes(*stray);
    ASSERT_FALSE(loaded.ok()) << "a stray byte in " << where << " loaded";
    EXPECT_NE(loaded.status().message().find("1 stray byte"),
              std::string::npos)
        << loaded.status().ToString();
    auto reader = persist::Reader::FromBytes(*stray);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    std::ostringstream printed;
    persist::Printer printer(&*reader, &printed);
    EXPECT_FALSE(Capture::DescribeSection(&printer).ok())
        << "the printer walked past a stray byte in " << where;
  }

  auto grown_meta =
      Capture::FromBytes(InsertStrayByte(bytes, tevt, {trce + 4, tmet + 4}));
  ASSERT_TRUE(grown_meta.ok()) << grown_meta.status().ToString();
  EXPECT_EQ(grown_meta->events.size(), committed->events.size());
}

// ---------------------------------------------------------------------------
// Tap exclusion rules
// ---------------------------------------------------------------------------

TEST(TraceTapTest, OneTapAtATimeAndNeverWithFreshness) {
  const Workload w = MakeTraceWorkload(95);
  {
    api::ScalerFleet fleet(0);
    EXPECT_FALSE(fleet.AttachTap(nullptr).ok());

    Recorder first("first");
    ASSERT_TRUE(first.Attach(&fleet).ok());
    EXPECT_FALSE(first.Attach(&fleet).ok()) << "double attach";

    Recorder second("second");
    auto refused = second.Attach(&fleet);
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.message().find("another tap"), std::string::npos)
        << refused.ToString();

    // Tap attached → the freshness loop is refused (its background retrains
    // finish at wall-time-dependent moments; the capture could not replay).
    api::FreshnessPolicy policy;
    policy.pipeline.dt = kDt;
    policy.pipeline.forecast_horizon = w.test.horizon();
    auto freshness = fleet.EnableFreshness(policy);
    ASSERT_FALSE(freshness.ok());
    EXPECT_NE(freshness.message().find("tap"), std::string::npos)
        << freshness.ToString();

    first.Detach();
    ASSERT_TRUE(fleet.EnableFreshness(policy).ok());

    // Freshness enabled → a tap is refused, symmetrically.
    Recorder third("third");
    auto blocked = third.Attach(&fleet);
    ASSERT_FALSE(blocked.ok());
    EXPECT_NE(blocked.message().find("freshness"), std::string::npos)
        << blocked.ToString();
  }

  // Recorder::Attach(null) is its own descriptive error.
  Recorder loose;
  EXPECT_FALSE(loose.Attach(nullptr).ok());
}

}  // namespace
}  // namespace rs::trace
