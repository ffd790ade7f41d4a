/// \file serving_session.hpp
/// \brief The production-shaped serving session the in-tree serving benches
///        share: synthetic per-tenant workloads, their merged arrival
///        stream, archetype models cloned into a fleet, and the per-tenant
///        action-log parity check.
///
/// Two workload recipes live here:
///  * Azure-shaped rates (Shahrad et al., "Serverless in the Wild", USENIX
///    ATC 2020): a heavy-tailed lognormal base rate per tenant, a diurnal
///    sinusoid with per-tenant phase and 1-3 short burst windows, zero
///    through a quiet training window. bench_replay and bench_chaos serve
///    them (AzureArrivals).
///  * The 600 s sine: 30 s bins of qps * (1 + 0.6 sin(2 pi (phase +
///    k / 7.3))). It trains the archetype models (TrainArchetypes) and is
///    bench_fleet_scaling's and bench_freshness's workload.
/// Every draw is seeded by tenant or archetype index, so a session is the
/// same stream bit for bit on every run. A header, because CMake builds
/// every bench/*.cpp into its own executable.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rs/api/api.hpp"
#include "rs/common/logging.hpp"

namespace rs::bench {

/// Bin width of every synthesized rate curve and of the models trained on
/// them.
inline constexpr double kSessionBinS = 30.0;

/// One arrival in a merged serving stream.
struct Arrival {
  double t;
  std::size_t tenant;
};

/// Appends `trace`'s arrivals to `stream` as `tenant`'s.
inline void AddArrivals(std::size_t tenant, const workload::Trace& trace,
                        std::vector<Arrival>* stream) {
  for (const auto& q : trace.queries()) {
    stream->push_back({q.arrival_time, tenant});
  }
}

/// Orders a merged stream by (time, tenant), so equal arrival times keep
/// one order whatever the sort implementation.
inline void SortArrivals(std::vector<Arrival>* stream) {
  std::sort(stream->begin(), stream->end(),
            [](const Arrival& a, const Arrival& b) {
              return a.t != b.t ? a.t < b.t : a.tenant < b.tenant;
            });
}

/// An NHPP trace over `rates` (kSessionBinS bins) with Exponential(15 s)
/// pending times, drawn from a generator seeded with `seed`.
inline workload::Trace DrawTrace(const std::vector<double>& rates,
                                 std::uint64_t seed) {
  auto intensity =
      *workload::PiecewiseConstantIntensity::Make(rates, kSessionBinS);
  stats::Rng rng(seed);
  return *workload::MakeTraceFromIntensity(
      &rng, intensity, stats::DurationDistribution::Exponential(15.0));
}

/// The sine recipe's rate at time t: qps x (1 + 0.6 sin(2 pi (t mod period
/// / period + phase0))).
inline double SineRate(double t, double qps, double period, double phase0) {
  const double phase = std::fmod(t, period) / period;
  return qps * (1.0 + 0.6 * std::sin(2.0 * M_PI * (phase + phase0)));
}

/// SineRate over [0, horizon) at kSessionBinS bin midpoints.
inline std::vector<double> SineRates(double horizon, double qps, double period,
                                     double phase0) {
  std::vector<double> rates;
  for (double t = 0.5 * kSessionBinS; t < horizon; t += kSessionBinS) {
    rates.push_back(SineRate(t, qps, period, phase0));
  }
  return rates;
}

/// The sine recipe's phase shift of tenant or archetype `k`.
inline double SinePhase(std::size_t k) { return static_cast<double>(k) / 7.3; }

/// The quiet window of an Azure-shaped session, in which its archetypes
/// train; serving starts at this time.
inline constexpr double kAzureTrainS = 3600.0;

/// One tenant's rate bins over [0, kAzureTrainS + serve_s): zero through
/// the quiet window, then lognormal base rate x diurnal sinusoid of period
/// diurnal_s x burst windows (4-10x for 30-90 s). Seeded with 9000 + tenant.
inline std::vector<double> AzureRateBins(std::size_t tenant, double serve_s,
                                         double diurnal_s) {
  stats::Rng rng(9000 + tenant);
  // Heavy tail: lognormal(mu=0, sigma=1), median 1 QPS before the rescale
  // to the target arrival count. The clamp keeps a single draw from
  // swallowing the whole arrival budget.
  const double base = std::clamp(std::exp(rng.NextGaussian()), 0.05, 50.0);
  const double phase = rng.NextDouble();
  struct Burst {
    double start, len, mult;
  };
  std::vector<Burst> bursts(1 + rng.NextBounded(3));
  for (auto& b : bursts) {
    b.start = rng.NextDouble() * (serve_s - 120.0);
    b.len = 30.0 + 60.0 * rng.NextDouble();
    b.mult = 4.0 + 6.0 * rng.NextDouble();
  }
  const auto bins =
      static_cast<std::size_t>((kAzureTrainS + serve_s) / kSessionBinS);
  std::vector<double> rates(bins, 0.0);
  for (std::size_t bin = 0; bin < bins; ++bin) {
    const double s =
        (static_cast<double>(bin) + 0.5) * kSessionBinS - kAzureTrainS;
    if (s < 0.0) continue;
    const double wave = std::sin(2.0 * M_PI * (s / diurnal_s + phase));
    double r = base * (1.0 + 0.6 * wave);
    for (const auto& b : bursts) {
      if (s >= b.start && s < b.start + b.len) r *= b.mult;
    }
    rates[bin] = r;
  }
  return rates;
}

/// The merged arrival stream of `tenants` Azure-shaped tenants, rescaled so
/// the expected total is `target_arrivals` (the actual count is Poisson);
/// tenant i's arrivals are drawn with seed 777 + i.
inline std::vector<Arrival> AzureArrivals(std::size_t tenants,
                                          double target_arrivals,
                                          double serve_s, double diurnal_s) {
  std::vector<std::vector<double>> rates;
  double expected = 0.0;
  for (std::size_t i = 0; i < tenants; ++i) {
    rates.push_back(AzureRateBins(i, serve_s, diurnal_s));
    for (double r : rates.back()) expected += r * kSessionBinS;
  }
  const double scale = target_arrivals / expected;
  std::vector<Arrival> stream;
  for (std::size_t i = 0; i < tenants; ++i) {
    for (double& r : rates[i]) r *= scale;
    AddArrivals(i, DrawTrace(rates[i], 777 + i), &stream);
  }
  SortArrivals(&stream);
  return stream;
}

/// The archetype strategies; tenant i clones archetype i % count.
inline constexpr const char* kArchetypeSpecs[] = {
    "robust_hp:target=0.9",
    "robust_rt:target=1.0",
    "robust_cost:target=2.0",
    "backup_pool:pool_size=2",
};

/// How the archetype models are trained; every bench sets each field.
struct ArchetypeOptions {
  double train_s = 0.0;        ///< Training window length.
  double horizon = 0.0;        ///< Forecast horizon.
  double plan_interval = 0.0;  ///< Planning interval Δ.
  std::size_t mc_samples = 0;  ///< Monte Carlo samples per decision.
};

/// Trains `count` archetype models, archetype k on the 600 s sine with
/// phase SinePhase(k) drawn with seed 500 + k, and returns each one's
/// Scaler::SaveState buffer.
inline std::vector<std::string> TrainArchetypes(
    std::size_t count, const ArchetypeOptions& options) {
  std::vector<std::string> buffers;
  for (std::size_t k = 0; k < count; ++k) {
    const auto rates = SineRates(options.train_s, 1.0, 600.0, SinePhase(k));
    const char* archetype = kArchetypeSpecs[k % std::size(kArchetypeSpecs)];
    auto spec = api::ParseStrategySpec(archetype);
    RS_CHECK(spec.ok()) << spec.status().ToString();
    auto scaler = api::ScalerBuilder()
                      .WithTrace(DrawTrace(rates, 500 + k))
                      .WithBinWidth(kSessionBinS)
                      .WithForecastHorizon(options.horizon)
                      .WithStrategy(*spec)
                      .WithPlanningInterval(options.plan_interval)
                      .WithMcSamples(options.mc_samples)
                      .Build();
    RS_CHECK(scaler.ok()) << scaler.status().ToString();
    std::ostringstream out;
    RS_CHECK(scaler->SaveState(out).ok());
    buffers.push_back(std::move(out).str());
  }
  return buffers;
}

/// "fn-0" ... "fn-<count - 1>".
inline std::vector<std::string> TenantNames(std::size_t count) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < count; ++i) {
    names.push_back("fn-" + std::to_string(i));
  }
  return names;
}

/// Registers names[i] into `fleet`, restored from buffers[i % size].
/// `keep_action_log` lifts history retention, so CollectActionLogs sees
/// every action.
inline void RegisterClones(api::ScalerFleet* fleet,
                           const std::vector<std::string>& names,
                           const std::vector<std::string>& buffers,
                           bool keep_action_log = false) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::istringstream in(buffers[i % buffers.size()]);
    auto scaler = api::ScalerBuilder::RestoreState(in);
    RS_CHECK(scaler.ok()) << scaler.status().ToString();
    RS_CHECK(fleet->Register(names[i], std::move(scaler).ValueOrDie()).ok());
    if (keep_action_log) {
      RS_CHECK(fleet->Find(names[i])
                   ->ConfigureHistoryRetention(sim::kUnboundedHistory)
                   .ok());
    }
  }
}

/// Per-tenant action logs, in `names` order.
using ActionLogs = std::vector<std::vector<sim::ScalingAction>>;

inline ActionLogs CollectActionLogs(const api::ScalerFleet& fleet,
                                    const std::vector<std::string>& names) {
  ActionLogs logs;
  for (const auto& name : names) logs.push_back(fleet.Find(name)->ActionLog());
  return logs;
}

/// Aborts unless the two runs emitted byte-identical actions per tenant
/// (worker counts and taps change wall time, never actions). `what` names
/// the pair in the message.
inline void CheckActionLogParity(const ActionLogs& baseline,
                                 const ActionLogs& run,
                                 const std::string& what) {
  RS_CHECK(baseline.size() == run.size()) << what;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    const auto& a = baseline[i];
    const auto& b = run[i];
    RS_CHECK(a.size() == b.size())
        << what << ": tenant " << i << ": " << a.size() << " vs " << b.size()
        << " actions";
    for (std::size_t k = 0; k < a.size(); ++k) {
      RS_CHECK(a[k].deletions == b[k].deletions &&
               a[k].creation_times == b[k].creation_times)
          << what << ": tenant " << i << ", action " << k << " diverged";
    }
  }
}

}  // namespace rs::bench
