// Micro-benchmarks (google-benchmark) for the primitives whose complexity
// the paper analyzes: banded Cholesky (O(T·L²)), one ADMM iteration,
// sort-and-search decisions (O(R log R)), κ computation, FFT, and the
// arrival-path sampler. Also covers the Section VII-B2 claim that one
// decision update takes < 5 ms at trace-level QPS, and the hot-path
// kernels behind bench_plan_hot_path: restructured rs::linalg vector ops,
// ziggurat exponential sampling, batched inverse-cumulative resolution,
// radix vs comparison sorting, and the allocation-free DecisionKernel.
// The journal's serving-path cost: the CRC-32 kernels and one PlanAll
// record (event fill, encode, frame CRC, append); and its restart cost, one
// trace event's decode.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "rs/api/api.hpp"
#include "rs/common/radix_sort.hpp"
#include "rs/core/admm.hpp"
#include "rs/core/arrival_predictor.hpp"
#include "rs/core/decision.hpp"
#include "rs/core/kappa.hpp"
#include "rs/linalg/banded_cholesky.hpp"
#include "rs/linalg/difference_ops.hpp"
#include "rs/linalg/vector_ops.hpp"
#include "rs/persist/persist.hpp"
#include "rs/stats/distributions.hpp"
#include "rs/stats/rng.hpp"
#include "rs/timeseries/fft.hpp"
#include "rs/trace/trace.hpp"
#include "rs/wal/wal.hpp"
#include "rs/workload/intensity.hpp"

namespace {

using rs::linalg::Vec;

void BM_BandedCholesky(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto bw = static_cast<std::size_t>(state.range(1));
  rs::linalg::SymmetricBandedMatrix a(t, bw);
  Vec w(t, 2.0);
  a.AddDiagonal(w);
  rs::linalg::AddGramD2(1.0, &a);
  rs::linalg::AddGramDL(1.0, bw, &a);
  Vec b(t, 1.0), x;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rs::linalg::BandedCholesky::FactorAndSolve(a, b, &x));
  }
  state.SetComplexityN(static_cast<long long>(t * bw * bw));
}
BENCHMARK(BM_BandedCholesky)
    ->Args({1024, 16})
    ->Args({4096, 64})
    ->Args({8192, 144})
    ->Unit(benchmark::kMillisecond);

void BM_AdmmFit(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto period = static_cast<std::size_t>(state.range(1));
  rs::stats::Rng rng(1);
  std::vector<double> counts(t);
  for (auto& c : counts) {
    c = static_cast<double>(rs::stats::SamplePoisson(&rng, 30.0));
  }
  rs::core::NhppConfig config;
  config.dt = 60.0;
  config.beta1 = 10.0;
  config.beta2 = 50.0;
  config.period = period;
  rs::core::AdmmOptions options;
  options.max_iterations = 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs::core::FitNhpp(counts, config, options));
  }
  state.SetLabel("30 ADMM iterations");
}
BENCHMARK(BM_AdmmFit)
    ->Args({1440, 144})    // 1 day of 1-min bins, daily period at 10-min agg.
    ->Args({4032, 1008})   // 4 weeks of 10-min bins, weekly period.
    ->Unit(benchmark::kMillisecond);

void BM_SortAndSearchRt(benchmark::State& state) {
  const auto r = static_cast<std::size_t>(state.range(0));
  rs::stats::Rng rng(2);
  rs::core::McSamples samples;
  samples.xi.resize(r);
  samples.tau.assign(r, 13.0);
  for (auto& v : samples.xi) v = rs::stats::SampleExponential(&rng, 0.05);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs::core::SolveRtConstrained(samples, 1.0));
  }
  state.SetComplexityN(static_cast<long long>(r));
}
BENCHMARK(BM_SortAndSearchRt)->Range(128, 65536)->Complexity();

void BM_HpQuantileDecision(benchmark::State& state) {
  const auto r = static_cast<std::size_t>(state.range(0));
  rs::stats::Rng rng(3);
  rs::core::McSamples samples;
  samples.xi.resize(r);
  samples.tau.assign(r, 13.0);
  for (auto& v : samples.xi) v = rs::stats::SampleExponential(&rng, 0.05);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs::core::SolveHpConstrained(samples, 0.1));
  }
}
BENCHMARK(BM_HpQuantileDecision)->Arg(1000)->Arg(10000);

// Warm path: after the first iteration every quantile comes from this
// thread's κ memo.
void BM_KappaBinarySearch(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rs::core::ComputeKappaBinarySearch(0.1, lambda, 13.0));
  }
}
BENCHMARK(BM_KappaBinarySearch)->Arg(1)->Arg(100)->Arg(10000);

// Cold path: a fresh α every iteration, so every quantile the bisection
// visits misses the memo and runs a Newton solve.
void BM_KappaBinarySearchCold(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  double alpha = 0.1;
  for (auto _ : state) {
    alpha = std::nextafter(alpha, 1.0);
    benchmark::DoNotOptimize(
        rs::core::ComputeKappaBinarySearch(alpha, lambda, 13.0));
  }
}
BENCHMARK(BM_KappaBinarySearchCold)->Arg(1)->Arg(100)->Arg(10000);

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rs::stats::Rng rng(4);
  std::vector<rs::ts::Complex> data(n);
  for (auto& c : data) c = rs::ts::Complex(rng.NextDouble(), 0.0);
  for (auto _ : state) {
    auto copy = data;
    benchmark::DoNotOptimize(rs::ts::Fft(&copy, false));
  }
}
BENCHMARK(BM_Fft)->Arg(4096)->Arg(4095)->Arg(10080);

void BM_ArrivalPathSampling(benchmark::State& state) {
  const auto paths = static_cast<std::size_t>(state.range(0));
  const auto queries = static_cast<std::size_t>(state.range(1));
  auto intensity = *rs::workload::PiecewiseConstantIntensity::Make(
      std::vector<double>(1440, 1.0), 60.0);
  auto pending = rs::stats::DurationDistribution::Deterministic(13.0);
  rs::stats::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs::core::PredictUpcomingQueries(
        intensity, 0.0, queries, paths, pending, &rng));
  }
}
BENCHMARK(BM_ArrivalPathSampling)
    ->Args({300, 10})
    ->Args({1000, 10})
    ->Args({1000, 100})
    ->Unit(benchmark::kMicrosecond);

// --- Hot-path kernels (this PR's before/after record) -----------------------

void BM_LinalgDot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rs::stats::Rng rng(6);
  Vec x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.NextDouble();
    y[i] = rng.NextDouble();
  }
  for (auto _ : state) benchmark::DoNotOptimize(rs::linalg::Dot(x, y));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 16);
}
BENCHMARK(BM_LinalgDot)->Arg(1024)->Arg(16384);

void BM_LinalgAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rs::stats::Rng rng(7);
  Vec x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.NextDouble();
    y[i] = rng.NextDouble();
  }
  for (auto _ : state) {
    rs::linalg::Axpy(0.5, x, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 24);
}
BENCHMARK(BM_LinalgAxpy)->Arg(1024)->Arg(16384);

void BM_ExponentialSampling(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool ziggurat = state.range(1) != 0;
  rs::stats::Rng rng(8);
  std::vector<double> out(n);
  for (auto _ : state) {
    if (ziggurat) {
      rs::stats::SampleExponentialZigguratFill(&rng, 1.0, out.data(), n);
    } else {
      rs::stats::SampleExponentialFill(&rng, 1.0, out.data(), n);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(ziggurat ? "ziggurat" : "inverse-cdf");
}
BENCHMARK(BM_ExponentialSampling)->Args({1000, 0})->Args({1000, 1});

void BM_InverseCumulative(benchmark::State& state) {
  const auto r = static_cast<std::size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  rs::stats::Rng rng(9);
  std::vector<double> rates(1440);
  for (auto& v : rates) v = 1.0 + rng.NextDouble();
  auto intensity =
      *rs::workload::PiecewiseConstantIntensity::Make(rates, 60.0);
  const double top = intensity.Cumulative(intensity.horizon());
  std::vector<double> targets(r), out(r);
  std::vector<std::uint32_t> order;
  for (auto& t : targets) t = top * rng.NextDouble();
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(
          intensity.InverseCumulativeBatch(targets, &out, &order));
    } else {
      for (std::size_t i = 0; i < r; ++i) {
        out[i] = intensity.InverseCumulative(targets[i]).ValueOrDie();
      }
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(r));
  state.SetLabel(batched ? "batch-sweep" : "scalar-search");
}
BENCHMARK(BM_InverseCumulative)->Args({1000, 0})->Args({1000, 1});

void BM_SortDoubles(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool radix = state.range(1) != 0;
  rs::stats::Rng rng(10);
  // Planning-target-shaped data: a shared offset plus Gamma-scale spread.
  // Iterations cycle through distinct arrays (about 1 MB in all), as the
  // planner sorts fresh targets per query: re-sorting one array would let
  // the branch predictor learn std::sort's comparisons.
  const std::size_t arrays = std::clamp<std::size_t>((1 << 17) / n, 1, 4096);
  std::vector<double> base(arrays * n), work(n);
  for (auto& v : base) v = 500.0 + 40.0 * rng.NextGaussian();
  rs::common::RadixSortScratch scratch;
  std::size_t next = 0;
  for (auto _ : state) {
    const double* input = base.data() + next * n;
    next = next + 1 == arrays ? 0 : next + 1;
    std::copy(input, input + n, work.begin());
    if (radix) {
      rs::common::RadixSortAscending(work.data(), n, &scratch);
    } else {
      std::sort(work.begin(), work.end());
    }
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(radix ? "RadixSortAscending" : "std::sort");
}
// Below 128 elements RadixSortAscending runs the comparison network, from
// 128 on the radix passes.
BENCHMARK(BM_SortDoubles)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({20, 0})
    ->Args({20, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({127, 0})
    ->Args({127, 1})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

void BM_DecisionKernelRt(benchmark::State& state) {
  const auto r = static_cast<std::size_t>(state.range(0));
  rs::stats::Rng rng(11);
  rs::core::McSamples samples;
  samples.xi.resize(r);
  samples.tau.assign(r, 13.0);
  for (auto& v : samples.xi) v = rs::stats::SampleExponential(&rng, 0.05);
  rs::core::DecisionKernel kernel;
  for (auto _ : state) {
    kernel.Bind(samples);
    benchmark::DoNotOptimize(kernel.SolveRt(1.0));
  }
}
BENCHMARK(BM_DecisionKernelRt)->Arg(1000)->Arg(10000);

// 30 B is an Observe record (table kernel), 6 KiB a 100-tenant PlanAll
// record and 1 MiB a snapshot (folded when the CPU has PCLMULQDQ).
void BM_Crc32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rs::stats::Rng rng(12);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.NextBounded(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs::persist::Crc32(bytes.data(), n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32)->Arg(30)->Arg(6 << 10)->Arg(1 << 20);

// One journaled PlanAll boundary of 100 tenants, 0-5 creation times each,
// under FsyncPolicy::kNone: the tap's event fill, the record encode, the
// frame CRC and the copy into the mapped segment, first-touch page faults
// included. The journal restarts in a fresh directory (untimed) every 256
// records of about 6 kB, before its 4 MiB segment would rotate.
void BM_JournalPlanAll(benchmark::State& state) {
  namespace api = rs::api;
  namespace wal = rs::wal;
  constexpr std::size_t kTenants = 100;
  constexpr int kRecordsPerJournal = 256;
  std::vector<double> rates(120, 0.5);
  auto intensity = *rs::workload::PiecewiseConstantIntensity::Make(rates, 30.0);
  rs::stats::Rng rng(13);
  auto trace = *rs::workload::MakeTraceFromIntensity(
      &rng, intensity, rs::stats::DurationDistribution::Exponential(15.0));
  auto scaler = api::ScalerBuilder()
                    .WithTrace(trace)
                    .WithBinWidth(30.0)
                    .WithForecastHorizon(7200.0)
                    .WithStrategy(*api::ParseStrategySpec("backup_pool"))
                    .WithPlanningInterval(10.0)
                    .Build();
  std::ostringstream saved;
  if (!scaler.ok() || !scaler->SaveState(saved).ok()) {
    state.SkipWithError("cannot build the tenant scaler");
    return;
  }
  api::ScalerFleet fleet(0);
  std::vector<api::ScalerFleet::TenantPlan> plans(kTenants);
  for (std::size_t i = 0; i < kTenants; ++i) {
    std::istringstream in(saved.str());
    auto restored = api::ScalerBuilder::RestoreState(in);
    plans[i].tenant = "fn-" + std::to_string(i);
    if (!restored.ok() ||
        !fleet.Register(plans[i].tenant, std::move(restored).ValueOrDie())
             .ok()) {
      state.SkipWithError("cannot register a tenant");
      return;
    }
    for (std::size_t k = 0; k < i % 6; ++k) {
      plans[i].action.creation_times.push_back(3600.0 + 7.0 * k + 0.1 * i);
    }
  }
  const std::vector<api::TapClockMark> clocks(kTenants);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("rs_bm_journal_planall_" + std::to_string(::getpid()));
  wal::JournalPolicy policy;
  policy.fsync = wal::FsyncPolicy::kNone;

  double now = 0.0;
  int records = kRecordsPerJournal;
  auto journal = std::make_unique<wal::FleetJournal>();
  for (auto _ : state) {
    if (records == kRecordsPerJournal) {
      state.PauseTiming();
      journal->Detach();
      journal = std::make_unique<wal::FleetJournal>();
      std::filesystem::remove_all(dir);
      if (!journal->Open(dir.string(), policy).ok() ||
          !wal::EnableJournal(&fleet, journal.get()).ok()) {
        state.SkipWithError("cannot open the journal");
        break;
      }
      records = 0;
      state.ResumeTiming();
    }
    journal->OnPlanAll(now += 10.0, plans, clocks);
    ++records;
  }
  journal->Detach();
  journal.reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_JournalPlanAll)->Unit(benchmark::kMicrosecond);

// Decodes one encoded trace event into a reused Event, the per-record step
// of journal recovery and capture loading: an Observe (argument 0) or a
// PlanAll of that many tenants, 0-5 creation times each.
void BM_DecodeEvent(benchmark::State& state) {
  namespace trace = rs::trace;
  const auto tenants = static_cast<std::size_t>(state.range(0));
  trace::Event event;
  if (tenants == 0) {
    event.kind = trace::EventKind::kObserve;
    event.id = 7;
    event.time = 3600.25;
    event.cold_start = true;
  } else {
    event.kind = trace::EventKind::kPlanAll;
    event.time = 3660.0;
    event.plans.resize(tenants);
    for (std::size_t i = 0; i < tenants; ++i) {
      event.plans[i].id = static_cast<std::uint32_t>(i + 1);
      for (std::size_t k = 0; k < i % 6; ++k) {
        event.plans[i].action.creation_times.push_back(3600.0 + 7.0 * k +
                                                       0.1 * i);
      }
    }
  }
  rs::persist::Writer writer;
  writer.ResetBare();
  trace::EncodeEvent(&writer, event);
  const std::string bytes(writer.bytes());
  trace::Event decoded;
  for (auto _ : state) {
    rs::persist::Reader reader = rs::persist::Reader::OverBytes(bytes);
    if (!trace::DecodeEvent(&reader, &decoded).ok()) {
      state.SkipWithError("cannot decode the event");
      break;
    }
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeEvent)->Arg(0)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
