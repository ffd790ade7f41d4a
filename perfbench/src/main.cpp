// End-to-end serving benchmark for rs::api::ScalerFleet.
//
// One caller thread drives a seeded workload through the public fleet API
// in a closed loop (the fleet's contract is a single synchronous caller, so
// serving time is compressed and nothing is paced): every arrival is one
// Observe, and PlanAll is polled once per planning interval. A run repeats
// whole passes -- set-up, serving, restart -- while another fits in
// --seconds, checks every pass's outputs, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a separately traced pass
// (--trace 1). The last stdout line is one JSON object; a failed check
// prints no result and exits 1. See perfbench/README.md.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "percentile.hpp"
#include "rs/api/api.hpp"
#include "rs/api/serving_tap.hpp"
#include "rs/common/stopwatch.hpp"
#include "rs/wal/wal.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rs::Stopwatch;
namespace api = rs::api;
namespace wal = rs::wal;

/// Passes per run: at least five set-ups feed the setup_s median and every
/// per-call minimum, and a cap bounds the run of a very fast build.
constexpr std::size_t kMinPasses = 5;
constexpr std::size_t kMaxPasses = 256;
/// Restarts timed per pass; restart_s is the fastest of all of them.
constexpr std::size_t kRestartsPerPass = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad --seed " + value);
      have[1] = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        Usage("bad --seconds " + value);
      }
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      args.trace = value == "1";
      have[3] = true;
    } else {
      Usage("unknown argument " + flag);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    Usage("all four arguments are required");
  }
  return args;
}

/// Heap bytes in use (small-chunk arenas + mmapped chunks).
double HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Rate(std::size_t num, std::size_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

// -- Output hashing -----------------------------------------------------------

/// FNV-1a over everything the caller sees of one tenant: Observe outcomes
/// and plan actions, in order. Equal hashes across passes, traced vs
/// untraced and pooled vs serial runs are the benchmark's output check.
struct StreamHash {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  void Mix(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
  void Observe(const api::Scaler::ObserveOutcome& o) {
    Mix(static_cast<std::uint64_t>(o.cold_start) * 2 +
        static_cast<std::uint64_t>(o.cancel_earliest_scheduled));
  }
  void Action(double now, const rs::sim::ScalingAction& a) {
    Mix(now);
    Mix(static_cast<std::uint64_t>(a.deletions));
    Mix(static_cast<std::uint64_t>(a.creation_times.size()));
    for (double t : a.creation_times) Mix(t);
  }
};

// -- Journal timing tap -------------------------------------------------------

/// Forwards every serving callback to the journal, timing each forward as a
/// "wal.append" span. Attached in the journal's tap slot after
/// EnableJournal; Checkpoint keeps working because the journal keeps its
/// fleet pointer.
class TimedJournalTap final : public api::ServingTap {
 public:
  TimedJournalTap(wal::FleetJournal* journal, SpanRecorder* spans)
      : journal_(journal), spans_(spans) {}

  void OnRegister(const std::string& tenant,
                  const api::Scaler& scaler) override {
    Scope s(spans_, "wal.append", 0);
    journal_->OnRegister(tenant, scaler);
  }
  void OnRetire(const std::string& tenant) override {
    Scope s(spans_, "wal.append", 0);
    journal_->OnRetire(tenant);
  }
  void OnReplaceModel(const std::string& tenant, const api::Scaler& incoming,
                      bool at_next_plan) override {
    Scope s(spans_, "wal.append", 0);
    journal_->OnReplaceModel(tenant, incoming, at_next_plan);
  }
  void OnObserve(const std::string& tenant, double arrival_time,
                 const api::Scaler::ObserveOutcome& outcome) override {
    Scope s(spans_, "wal.append", 0);
    journal_->OnObserve(tenant, arrival_time, outcome);
  }
  void OnPlan(const std::string& tenant, double now,
              const rs::sim::ScalingAction& action,
              const api::TapClockMark& clock) override {
    Scope s(spans_, "wal.append", 0);
    journal_->OnPlan(tenant, now, action, clock);
  }
  void OnPlanAll(double now,
                 const std::vector<api::ScalerFleet::TenantPlan>& plans,
                 const std::vector<api::TapClockMark>& clocks) override {
    Scope s(spans_, "wal.append", 0);
    journal_->OnPlanAll(now, plans, clocks);
  }

 private:
  wal::FleetJournal* journal_;
  SpanRecorder* spans_;
};

// -- One pass ----------------------------------------------------------------

enum class Mode {
  kServe,   ///< Serial fleet, PlanAll once per Δ.
  kPooled,  ///< Same, on a fleet pool of nproc-1 workers (the caller
            ///< participates). Traced runs only: pooled boundary tails
            ///< moved 1-7 ms run to run, too unsteady for a bound.
  kSplit,   ///< Serial fleet, no journal, per-tenant Plan in registration
            ///< order (byte-identical to PlanAll by the fleet parity
            ///< contract); spans attribute plan time to each strategy.
};

std::size_t PoolWorkers() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 1 ? cores - 1 : 0;
}

/// Span name of one tenant's Plan in split mode, by strategy.
const char* PlanSpanName(const std::string& strategy) {
  static const std::pair<const char*, const char*> kNames[] = {
      {"robust_hp", "core.robust_hp.plan"},
      {"robust_rt", "core.robust_rt.plan"},
      {"robust_cost", "core.robust_cost.plan"},
      {"backup_pool", "baselines.backup_pool.plan"},
  };
  const std::string name = strategy.substr(0, strategy.find(':'));
  for (const auto& [prefix, span] : kNames) {
    if (name == prefix) return span;
  }
  return "other.plan";
}

/// Freshness counters summed over the fleet.
struct FreshTotals {
  std::size_t latches = 0, retrains = 0, swaps = 0, failures = 0;
};

std::vector<api::TenantFreshness> ReadFreshness(
    const api::ScalerFleet& fleet, const std::vector<std::string>& names) {
  std::vector<api::TenantFreshness> out(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto f = fleet.Freshness(names[i]);
    if (f.ok()) out[i] = *f;
  }
  return out;
}

FreshTotals Sum(const std::vector<api::TenantFreshness>& fresh) {
  FreshTotals totals;
  for (const auto& f : fresh) {
    totals.latches += f.drift_events;
    totals.retrains += f.retrains_completed;
    totals.swaps += f.swaps_applied;
    totals.failures += f.retrain_failures;
  }
  return totals;
}

/// Retrains run inline where they are enqueued, so a tenant that leaves a
/// boundary with a job in flight that it did not enter with (or whose old
/// job was swapped in at the same boundary) ran a fit inside it.
bool FitRan(const std::vector<api::TenantFreshness>& before,
            const std::vector<api::TenantFreshness>& after) {
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (after[i].retrain_inflight &&
        (!before[i].retrain_inflight ||
         after[i].retrains_completed > before[i].retrains_completed)) {
      return true;
    }
  }
  return false;
}

/// Extra measurements only the traced pass takes.
struct TraceExtras {
  std::vector<double> swap_boundary_s, retrain_boundary_s, quiet_boundary_s;
  std::uint64_t wal_records = 0, wal_fsyncs = 0;
  double wal_bytes_per_event = 0.0;
  std::size_t replayed_events = 0;
  double snapshot_mb = 0.0;
};

struct PassResult {
  std::string error;  ///< First failed check; empty when every check held.
  double setup_s = 0.0;
  double serve_s = 0.0;
  std::vector<float> observe_ns;   ///< Per arrival; untraced passes only.
  std::vector<double> boundary_s;  ///< Per boundary.
  /// Serving wall split at each boundary's end: interval k runs from the
  /// end of boundary k-1 to the end of boundary k; the last one is the
  /// tail after the last boundary. They sum to serve_s.
  std::vector<double> interval_s;
  std::vector<double> restart_s;
  double heap_mb = 0.0;
  std::size_t arrivals = 0;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::uint64_t> hashes;  ///< Per tenant, registration order.
  api::FleetSnapshot snapshot;
  FreshTotals fresh;
};

api::FreshnessPolicy MakeFreshnessPolicy(const Workload& w) {
  api::FreshnessPolicy policy;
  policy.pipeline.dt = w.bin_width;
  policy.pipeline.forecast_horizon = w.serve_s;
  policy.min_retrain_interval = w.min_retrain_interval;
  policy.retrain_workers = 0;  // Inline retrains: deterministic.
  return policy;
}

wal::JournalPolicy MakeJournalPolicy(const Workload& w) {
  wal::JournalPolicy policy;
  policy.fsync = wal::FsyncPolicy::kEveryN;
  policy.fsync_every_n = w.fsync_every_n;
  return policy;
}

std::string SaveBytes(const api::ScalerFleet& fleet, std::string* error) {
  std::ostringstream out(std::ios::binary);
  const rs::Status st = fleet.SaveFleet(out);
  if (!st.ok()) *error = "SaveFleet: " + st.ToString();
  return std::move(out).str();
}

PassResult RunPass(const Workload& w, Mode mode, const std::string& work_dir,
                   SpanRecorder* spans, TraceExtras* extras) {
  PassResult r;
  const bool split = mode == Mode::kSplit;
  const bool journaled = w.journal && !split;
  const std::size_t n = w.tenant_names.size();
  r.hashes.assign(n, 0);
  std::vector<StreamHash> hash(n);
  if (spans == nullptr) r.observe_ns.reserve(w.arrivals.size());
  r.boundary_s.reserve(
      static_cast<std::size_t>(w.serve_s / w.plan_interval) + 2);
  r.interval_s.reserve(r.boundary_s.capacity() + 1);
  const std::string journal_dir = work_dir + "/journal";
  std::filesystem::remove_all(journal_dir);

  // ---- Set-up: train, restore + register, enable freshness / journal. ----
  const double heap_before = HeapBytes();
  Stopwatch watch;
  std::vector<std::optional<api::Scaler>> built(w.models.size());
  for (std::size_t m = 0; m < w.models.size(); ++m) {
    auto spec = api::ParseStrategySpec(w.models[m].strategy);
    if (!spec.ok()) {
      r.error = "strategy spec: " + spec.status().ToString();
      return r;
    }
    Scope s(spans, "train.fit", m);
    auto scaler = api::ScalerBuilder()
                      .WithTrace(w.models[m].train)
                      .WithBinWidth(w.bin_width)
                      .WithForecastHorizon(w.serve_s)
                      .WithStrategy(*spec)
                      .WithPlanningInterval(w.plan_interval)
                      .WithMcSamples(w.mc_samples)
                      .Build();
    if (!scaler.ok()) {
      r.error = "ScalerBuilder::Build: " + scaler.status().ToString();
      return r;
    }
    built[m].emplace(std::move(scaler).ValueOrDie());
  }
  std::vector<std::string> buffers;
  if (w.clone_models) {
    for (const auto& scaler : built) {
      std::ostringstream out(std::ios::binary);
      if (!scaler->SaveState(out).ok()) {
        r.error = "Scaler::SaveState failed";
        return r;
      }
      buffers.push_back(std::move(out).str());
    }
  }
  api::ScalerFleet fleet(mode == Mode::kPooled ? PoolWorkers() : 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::optional<api::Scaler> scaler;
    if (w.clone_models) {
      Scope s(spans, "persist.restore", i);
      std::istringstream in(buffers[w.tenant_model[i]], std::ios::binary);
      auto restored = api::ScalerBuilder::RestoreState(in);
      if (!restored.ok()) {
        r.error = "RestoreState: " + restored.status().ToString();
        return r;
      }
      scaler.emplace(std::move(restored).ValueOrDie());
    } else {
      scaler.emplace(std::move(*built[w.tenant_model[i]]));
    }
    Scope s(spans, "api.register", i);
    const rs::Status st = fleet.Register(w.tenant_names[i], std::move(*scaler));
    if (!st.ok()) {
      r.error = "Register: " + st.ToString();
      return r;
    }
  }
  if (w.freshness) {
    Scope s(spans, "api.enable_freshness", 0);
    const rs::Status st = fleet.EnableFreshness(MakeFreshnessPolicy(w));
    if (!st.ok()) {
      r.error = "EnableFreshness: " + st.ToString();
      return r;
    }
  }
  std::optional<wal::FleetJournal> journal;
  std::optional<TimedJournalTap> timed_tap;
  if (journaled) {
    journal.emplace();
    rs::Status st;
    {
      Scope s(spans, "wal.open", 0);
      st = journal->Open(journal_dir, MakeJournalPolicy(w));
    }
    if (st.ok()) {
      Scope s(spans, "wal.enable_journal", 0);
      st = wal::EnableJournal(&fleet, &*journal);
    }
    if (!st.ok()) {
      r.error = "journal set-up: " + st.ToString();
      return r;
    }
    if (spans != nullptr) {
      timed_tap.emplace(&*journal, spans);
      fleet.DetachTap();
      st = fleet.AttachTap(&*timed_tap);
      if (!st.ok()) {
        r.error = "AttachTap: " + st.ToString();
        return r;
      }
    }
  }
  r.setup_s = watch.ElapsedSeconds();

  // ---- Serving: closed loop, one caller thread. ----
  std::vector<const char*> plan_span(n);
  for (std::size_t i = 0; i < n; ++i) {
    plan_span[i] = PlanSpanName(w.models[w.tenant_model[i]].strategy);
  }
  std::size_t boundary = 0;
  std::int64_t interval_start = 0;
  const auto run_boundary = [&](double now) {
    const bool poll = extras != nullptr && w.freshness;
    std::vector<api::TenantFreshness> before;
    if (poll) before = ReadFreshness(fleet, w.tenant_names);
    const std::int64_t t0 = NowNs();
    if (split) {
      Scope s(spans, "api.boundary", boundary);
      for (std::size_t i = 0; i < n; ++i) {
        Scope p(spans, plan_span[i], boundary);
        auto action = fleet.Plan(w.tenant_names[i], now);
        ++r.attempted;
        if (!action.ok()) {
          ++r.failed;
          continue;
        }
        hash[i].Action(now, *action);
      }
    } else {
      std::vector<api::ScalerFleet::TenantPlan> plans;
      {
        Scope s(spans, "api.plan_all", boundary);
        plans = fleet.PlanAll(now);
      }
      for (std::size_t i = 0; i < plans.size(); ++i) {
        ++r.attempted;
        if (!plans[i].status.ok() || plans[i].degraded) {
          ++r.failed;
          continue;
        }
        hash[i].Action(now, plans[i].action);
      }
      if (journaled && (boundary + 1) % w.checkpoint_every == 0) {
        Scope s(spans, "wal.checkpoint", boundary);
        ++r.attempted;
        if (!journal->Checkpoint().ok()) ++r.failed;
      }
    }
    const std::int64_t t1 = NowNs();
    const double elapsed = 1e-9 * static_cast<double>(t1 - t0);
    r.boundary_s.push_back(elapsed);
    r.interval_s.push_back(1e-9 * static_cast<double>(t1 - interval_start));
    interval_start = t1;
    if (poll) {
      const auto after = ReadFreshness(fleet, w.tenant_names);
      const FreshTotals was = Sum(before), is = Sum(after);
      if (FitRan(before, after)) {
        extras->retrain_boundary_s.push_back(elapsed);
      } else if (is.swaps > was.swaps) {
        extras->swap_boundary_s.push_back(elapsed);
      } else if (is.latches == was.latches) {
        extras->quiet_boundary_s.push_back(elapsed);
      }
    }
    ++boundary;
  };

  const char* observe_span = split ? "api.observe.split" : "api.observe";
  watch.Reset();
  interval_start = NowNs();
  double next_plan = w.plan_interval;
  for (std::size_t k = 0; k < w.arrivals.size(); ++k) {
    const Arrival& a = w.arrivals[k];
    while (next_plan <= a.t) {
      run_boundary(next_plan);
      next_plan += w.plan_interval;
    }
    ++r.attempted;
    const std::int64_t t0 = NowNs();
    auto outcome = [&] {
      Scope s(spans, observe_span, k);
      return fleet.Observe(w.tenant_names[a.tenant], a.t);
    }();
    if (spans == nullptr) {
      r.observe_ns.push_back(static_cast<float>(NowNs() - t0));
    }
    if (!outcome.ok()) {
      ++r.failed;
    } else {
      hash[a.tenant].Observe(*outcome);
    }
  }
  while (next_plan <= w.serve_s) {
    run_boundary(next_plan);
    next_plan += w.plan_interval;
  }
  r.interval_s.push_back(1e-9 * static_cast<double>(NowNs() - interval_start));
  r.serve_s = watch.ElapsedSeconds();
  r.arrivals = w.arrivals.size();
  r.heap_mb = (HeapBytes() - heap_before) / 1e6;
  for (std::size_t i = 0; i < n; ++i) r.hashes[i] = hash[i].h;
  r.snapshot = fleet.Snapshot();
  if (w.freshness) r.fresh = Sum(ReadFreshness(fleet, w.tenant_names));
  if (split) return r;

  // ---- Restart: bring the end-of-run fleet back so it can serve. ----
  std::string live = SaveBytes(fleet, &r.error);
  if (!r.error.empty()) return r;
  if (journaled) {
    if (extras != nullptr) {
      extras->wal_records = journal->last_lsn();
      extras->wal_fsyncs = journal->fsyncs();
      std::uint64_t bytes = 0, records = 0;
      for (const auto& entry :
           std::filesystem::directory_iterator(journal_dir)) {
        if (entry.path().extension() != ".rswal") continue;
        auto seg = wal::InspectSegmentFile(entry.path().string());
        if (!seg.ok()) continue;
        bytes += seg->bytes;
        records += seg->records;
      }
      extras->wal_bytes_per_event = Ratio(static_cast<double>(bytes),
                                          static_cast<double>(records));
    }
    journal->Detach();
    timed_tap.reset();
    journal.reset();  // Closes the active segment: the "process" is gone.
    for (std::size_t k = 0; k < kRestartsPerPass; ++k) {
      wal::FleetJournal recovering;
      wal::RecoveryReport report;
      watch.Reset();
      rs::Status st;
      std::optional<api::ScalerFleet> recovered;
      {
        Scope s(spans, "wal.recover", k);
        st = recovering.Open(journal_dir, MakeJournalPolicy(w));
        if (st.ok()) {
          auto result = recovering.Recover({}, &report);
          if (result.ok()) {
            recovered.emplace(std::move(result).ValueOrDie());
          } else {
            st = result.status();
          }
        }
      }
      r.restart_s.push_back(watch.ElapsedSeconds());
      if (!st.ok()) {
        r.error = "journal recovery: " + st.ToString();
        return r;
      }
      if (k == 0) {
        if (report.events_replayed != recovering.tail().size()) {
          r.error = "recovery replayed " +
                    std::to_string(report.events_replayed) +
                    " events but the journal tail holds " +
                    std::to_string(recovering.tail().size());
          return r;
        }
        if (SaveBytes(*recovered, &r.error) != live) {
          if (r.error.empty()) {
            r.error = "recovered fleet's SaveFleet bytes differ from the "
                      "live fleet's";
          }
          return r;
        }
        if (extras != nullptr) extras->replayed_events = report.events_replayed;
      }
    }
    std::filesystem::remove_all(journal_dir);
  } else {
    if (extras != nullptr) {
      Scope s(spans, "persist.snapshot", 0);
      live = SaveBytes(fleet, &r.error);
      extras->snapshot_mb = static_cast<double>(live.size()) / 1e6;
    }
    for (std::size_t k = 0; k < kRestartsPerPass; ++k) {
      std::istringstream in(live, std::ios::binary);
      watch.Reset();
      rs::Status st;
      std::optional<api::ScalerFleet> loaded;
      {
        Scope s(spans, "persist.load", k);
        auto result = api::ScalerFleet::LoadFleet(in);
        if (result.ok()) {
          loaded.emplace(std::move(result).ValueOrDie());
          if (w.freshness) {
            st = loaded->EnableFreshness(MakeFreshnessPolicy(w));
          }
        } else {
          st = result.status();
        }
      }
      r.restart_s.push_back(watch.ElapsedSeconds());
      if (!st.ok()) {
        r.error = "LoadFleet: " + st.ToString();
        return r;
      }
      if (k == 0 && SaveBytes(*loaded, &r.error) != live) {
        if (r.error.empty()) {
          r.error = "reloaded fleet's SaveFleet bytes differ from the saved "
                    "fleet's";
        }
        return r;
      }
    }
  }
  return r;
}

// -- Reporting ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The result line. Only runs whose checks all held print one, so
/// `correct` is always true.
std::string FormatJson(std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"correct\": true, \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Reads a percentile and enforces the sample-count rule: fewer than
/// kMinBeyond samples beyond it fails the run.
bool Tail(const char* name, const std::vector<double>& sorted, double q,
          double scale, const char* unit, std::vector<Metric>* metrics) {
  const Percentile p = ReadPercentile(sorted, q);
  std::printf("  %-22s %14.4f %-6s n=%zu beyond=%zu (needs n>=%zu)\n", name,
              p.value * scale, unit, p.samples, p.beyond, MinSamplesFor(q));
  if (!p.supported) {
    std::fprintf(stderr, "perfbench: %s has %zu samples beyond it; needs %zu\n",
                 name, p.beyond, kMinBeyond);
    return false;
  }
  metrics->push_back({name, p.value * scale, unit});
  return true;
}

std::string CompareHashes(const std::vector<std::uint64_t>& a,
                          const PassResult& b, const Workload& w,
                          const char* what) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b.hashes[i]) {
      return std::string(what) + ": tenant " + w.tenant_names[i] +
             " action stream differs";
    }
  }
  return "";
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  return 1;
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir {
  std::string path;
  explicit WorkDir(std::string p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
};

/// Folds one pass's per-item timings into the per-item minimum over passes.
/// Every pass serves the same inputs through the same deterministic code
/// (the stream hashes check it), so item k does the same work in every
/// pass; its fastest repeat is its cost with the least interference from
/// the rest of the machine. Returns false when the item counts differ.
template <typename T>
bool FoldMin(const std::vector<T>& pass, std::vector<T>* best) {
  if (best->empty()) {
    *best = pass;
    return true;
  }
  if (best->size() != pass.size()) return false;
  for (std::size_t i = 0; i < pass.size(); ++i) {
    (*best)[i] = std::min((*best)[i], pass[i]);
  }
  return true;
}

int RunEndToEnd(const Workload& w, const Args& args, const WorkDir& dir) {
  std::vector<std::uint64_t> first_hashes;
  api::FleetSnapshot snap;
  std::vector<double> setup, restart, heap, boundary_s, interval_s;
  std::vector<float> observe_ns;
  std::size_t passes = 0, boundaries = 0, attempted = 0, failed = 0;
  Stopwatch run_watch;
  double pass_s = 0.0;  // The last pass's duration: stop once one more
                        // pass would run past --seconds.
  while (passes < kMaxPasses &&
         (passes < kMinPasses ||
          run_watch.ElapsedSeconds() + pass_s < args.seconds)) {
    const double pass_start = run_watch.ElapsedSeconds();
    PassResult p = RunPass(w, Mode::kServe, dir.path, nullptr, nullptr);
    if (!p.error.empty()) return Fail(p.error);
    pass_s = run_watch.ElapsedSeconds() - pass_start;
    ++passes;
    std::printf("  pass %2zu: setup %.4f s, serve %.4f s (%.0f arrivals/s), "
                "restart %.5f s\n",
                passes, p.setup_s, p.serve_s,
                static_cast<double>(p.arrivals) / p.serve_s,
                Median(p.restart_s));
    if (passes == 1) {
      first_hashes = p.hashes;
      snap = p.snapshot;
      boundaries = p.boundary_s.size();
    }
    const std::string diff =
        CompareHashes(first_hashes, p, w, "repeat pass");
    if (!diff.empty()) return Fail(diff);
    if (w.freshness && p.fresh.failures != 0) {
      return Fail(std::to_string(p.fresh.failures) + " retrain failures");
    }
    if (!FoldMin(p.observe_ns, &observe_ns) ||
        !FoldMin(p.boundary_s, &boundary_s) ||
        !FoldMin(p.interval_s, &interval_s)) {
      return Fail("repeat pass timed a different number of calls");
    }
    setup.push_back(p.setup_s);
    heap.push_back(p.heap_mb);
    restart.insert(restart.end(), p.restart_s.begin(), p.restart_s.end());
    attempted += p.attempted;
    failed += p.failed;
  }
  const double measured_s = run_watch.ElapsedSeconds();

  double serve_s = 0.0;
  for (double s : interval_s) serve_s += s;
  std::vector<double> observe_s;
  observe_s.reserve(observe_ns.size());
  for (float ns : observe_ns) observe_s.push_back(1e-9 * ns);
  std::sort(observe_s.begin(), observe_s.end());
  std::sort(boundary_s.begin(), boundary_s.end());

  std::printf("workload %s seed %llu: %zu passes in %.2f s, %zu tenants, "
              "%zu arrivals and %zu boundaries per pass\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              passes, measured_s, w.tenant_names.size(), w.arrivals.size(),
              boundaries);
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(setup), "s"});
  m.push_back({"restart_s", *std::min_element(restart.begin(), restart.end()),
               "s"});
  m.push_back({"throughput_arrivals_per_s",
               static_cast<double>(w.arrivals.size()) / serve_s, "1/s"});
  bool ok = true;
  ok &= Tail("observe_p50_us", observe_s, 0.50, 1e6, "us", &m);
  ok &= Tail("observe_p99_us", observe_s, 0.99, 1e6, "us", &m);
  ok &= Tail("observe_p999_us", observe_s, 0.999, 1e6, "us", &m);
  ok &= Tail("boundary_p50_ms", boundary_s, 0.50, 1e3, "ms", &m);
  ok &= Tail("boundary_p99_ms", boundary_s, 0.99, 1e3, "ms", &m);
  if (!ok) return Fail("too few samples for a reported percentile");
  m.push_back({"hit_rate",
               1.0 - Rate(snap.cold_starts, snap.queries_observed), "ratio"});
  m.push_back({"creations_per_query",
               Rate(snap.creations_requested, snap.queries_observed),
               "ratio"});
  m.push_back({"serving_heap_mb", Median(heap), "MB"});
  const double error_rate = Rate(failed, attempted);
  m.push_back({"ok_rate", 1.0 - error_rate, "ratio"});
  PrintMetrics(m);
  std::printf("  error_rate %.6g (%zu of %zu operations failed)\n", error_rate,
              failed, attempted);
  std::printf("%s\n", FormatJson(attempted, failed, m).c_str());
  return 0;
}

/// Quantile `q` of one span's durations times `scale`; 0 when the
/// workload never made that call.
double SpanP(const std::map<std::string, SpanStats>& stats, const char* name,
             double q, double scale) {
  const auto it = stats.find(name);
  if (it == stats.end()) return 0.0;
  std::vector<double> d = it->second.durations_s;
  std::sort(d.begin(), d.end());
  return ReadPercentile(d, q).value * scale;
}

SpanStats Get(const std::map<std::string, SpanStats>& stats,
              const std::string& name) {
  const auto it = stats.find(name);
  return it == stats.end() ? SpanStats{} : it->second;
}

int RunTraced(const Workload& w, const Args& args, const WorkDir& dir) {
  // Untraced/traced pass pairs, then one split and one pooled pass, within
  // --seconds: the layer metrics come from the first traced pass,
  // trace_overhead is the median of the pairs' serving-wall ratios. The
  // last two passes take about as long as one pair, so pairs stop once
  // one more pair would not fit.
  Stopwatch run_watch;
  const PassResult untraced =
      RunPass(w, Mode::kServe, dir.path, nullptr, nullptr);
  if (!untraced.error.empty()) return Fail(untraced.error);
  SpanRecorder spans;
  TraceExtras extras;
  const PassResult traced =
      RunPass(w, Mode::kServe, dir.path, &spans, &extras);
  if (!traced.error.empty()) return Fail(traced.error);
  std::string diff = CompareHashes(untraced.hashes, traced, w, "traced vs untraced");
  if (!diff.empty()) return Fail(diff);
  std::vector<double> overhead = {traced.serve_s / untraced.serve_s};
  const double pair_s = run_watch.ElapsedSeconds();
  while (overhead.size() < kMaxPasses &&
         run_watch.ElapsedSeconds() + 2.0 * pair_s < args.seconds) {
    const PassResult u = RunPass(w, Mode::kServe, dir.path, nullptr, nullptr);
    if (!u.error.empty()) return Fail(u.error);
    SpanRecorder more_spans;
    TraceExtras more_extras;
    const PassResult t =
        RunPass(w, Mode::kServe, dir.path, &more_spans, &more_extras);
    if (!t.error.empty()) return Fail(t.error);
    diff = CompareHashes(untraced.hashes, t, w, "traced vs untraced");
    if (diff.empty()) diff = CompareHashes(untraced.hashes, u, w, "repeat pass");
    if (!diff.empty()) return Fail(diff);
    overhead.push_back(t.serve_s / u.serve_s);
  }

  SpanRecorder split_spans;
  const PassResult split =
      RunPass(w, Mode::kSplit, dir.path, &split_spans, nullptr);
  if (!split.error.empty()) return Fail(split.error);
  diff = CompareHashes(untraced.hashes, split, w, "per-tenant Plan vs PlanAll");
  if (!diff.empty()) return Fail(diff);
  const PassResult pooled =
      RunPass(w, Mode::kPooled, dir.path, nullptr, nullptr);
  if (!pooled.error.empty()) return Fail(pooled.error);
  diff = CompareHashes(untraced.hashes, pooled, w, "pooled vs serial");
  if (!diff.empty()) return Fail(diff);
  if (w.freshness && traced.fresh.failures + split.fresh.failures +
                             pooled.fresh.failures != 0) {
    return Fail("retrain failures in the traced run");
  }

  const auto stats = Aggregate(spans.spans());
  const auto split_stats = Aggregate(split_spans.spans());
  const SpanStats observe = Get(stats, "api.observe");
  const SpanStats plan_all = Get(stats, "api.plan_all");
  const SpanStats fit = Get(stats, "train.fit");
  const api::FleetSnapshot& snap = traced.snapshot;

  std::vector<Metric> m;
  const auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  const auto count = [&add](std::string name, std::size_t n) {
    add(std::move(name), static_cast<double>(n), "count");
  };
  count("api.observe.calls", observe.calls);
  add("api.observe.busy_s", observe.busy_s, "s");
  add("api.observe.self_s", observe.self_s, "s");
  add("api.observe.share", observe.busy_s / traced.serve_s, "ratio");
  count("api.plan_all.calls", plan_all.calls);
  add("api.plan_all.busy_s", plan_all.busy_s, "s");
  add("api.plan_all.self_s", plan_all.self_s, "s");
  add("api.plan_all.share", plan_all.busy_s / traced.serve_s, "ratio");
  count("api.tenant_plans", plan_all.calls * w.tenant_names.size());
  count("api.planning_rounds", snap.planning_rounds);
  for (const std::string layer :
       {"core.robust_hp", "core.robust_rt", "core.robust_cost",
        "baselines.backup_pool"}) {
    const std::string span = layer + ".plan";
    add(layer + ".plan_us_p50", SpanP(split_stats, span.c_str(), 0.5, 1e6),
        "us");
    add(layer + ".busy_s", Get(split_stats, span).busy_s, "s");
  }
  double serial_plan_all_s = 0.0, pooled_plan_all_s = 0.0;
  for (double b : untraced.boundary_s) serial_plan_all_s += b;
  for (double b : pooled.boundary_s) pooled_plan_all_s += b;
  add("common.pool_speedup", Ratio(serial_plan_all_s, pooled_plan_all_s),
      "ratio");
  add("train.fit_s", fit.busy_s, "s");
  count("train.fits", fit.calls);
  add("persist.restore_ms", 1e3 * Get(stats, "persist.restore").busy_s, "ms");
  add("persist.snapshot_ms", 1e3 * Get(stats, "persist.snapshot").busy_s,
      "ms");
  add("persist.snapshot_mb", extras.snapshot_mb, "MB");
  add("persist.load_ms", SpanP(stats, "persist.load", 0.5, 1e3), "ms");
  add("wal.append_us_p50", SpanP(stats, "wal.append", 0.5, 1e6), "us");
  add("wal.append_us_p99", SpanP(stats, "wal.append", 0.99, 1e6), "us");
  add("wal.append.busy_s", Get(stats, "wal.append").busy_s, "s");
  count("wal.records", extras.wal_records);
  count("wal.fsyncs", extras.wal_fsyncs);
  add("wal.bytes_per_event", extras.wal_bytes_per_event, "B");
  add("wal.checkpoint_ms_p50", SpanP(stats, "wal.checkpoint", 0.5, 1e3), "ms");
  count("wal.checkpoints", Get(stats, "wal.checkpoint").calls);
  add("wal.recover_s", SpanP(stats, "wal.recover", 0.5, 1.0), "s");
  count("wal.replayed_events", extras.replayed_events);
  count("fresh.drift_latches", traced.fresh.latches);
  count("fresh.retrains", traced.fresh.retrains);
  count("fresh.swaps", traced.fresh.swaps);
  count("fresh.retrain_failures", traced.fresh.failures);
  add("fresh.swap_boundary_ms_p50", 1e3 * Median(extras.swap_boundary_s),
      "ms");
  add("fresh.retrain_boundary_ms_p50",
      1e3 * Median(extras.retrain_boundary_s), "ms");
  add("fresh.quiet_boundary_ms_p50", 1e3 * Median(extras.quiet_boundary_s),
      "ms");
  count("api.arrivals_retained", snap.arrivals_retained);
  count("api.actions_retained", snap.actions_retained);
  add("api.planning_workspace_mb",
      static_cast<double>(snap.planning_workspace_bytes) / 1e6, "MB");
  count("api.fallbacks", snap.fallbacks_served);
  count("api.rejected_observations", snap.rejected_observations);
  add("api.error_rate", Rate(traced.failed, traced.attempted), "ratio");
  add("trace_overhead", Median(overhead), "ratio");

  std::printf("workload %s seed %llu traced: %zu spans (%zu in the split "
              "pass); serving wall %.3f s untraced, %.3f s traced; %zu "
              "untraced/traced pairs\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              spans.spans().size(), split_spans.spans().size(),
              untraced.serve_s, traced.serve_s, overhead.size());
  std::printf("  %-34s %10s %12s %12s\n", "span", "calls", "busy_s", "self_s");
  for (const auto* table : {&stats, &split_stats}) {
    for (const auto& [name, s] : *table) {
      std::printf("  %-34s %10zu %12.6f %12.6f\n", name.c_str(), s.calls,
                  s.busy_s, s.self_s);
    }
  }
  PrintMetrics(m);
  std::printf("%s\n", FormatJson(traced.attempted, traced.failed, m).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  Workload w;
  Stopwatch gen;
  if (!MakeWorkload(args.workload, args.seed, &w)) {
    std::string names;
    for (const auto& name : WorkloadNames()) names += " " + name;
    Usage("unknown workload " + args.workload + "; known:" + names);
  }
  std::printf("generated %s inputs in %.2f s (not timed)\n", w.name.c_str(),
              gen.ElapsedSeconds());
  const WorkDir dir(".bench_build/work-" + std::to_string(::getpid()));
  return args.trace ? RunTraced(w, args, dir) : RunEndToEnd(w, args, dir);
}
