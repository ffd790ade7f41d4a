#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "rs/common/logging.hpp"
#include "rs/stats/distributions.hpp"
#include "rs/stats/rng.hpp"
#include "rs/stats/special_functions.hpp"
#include "rs/workload/intensity.hpp"
#include "rs/workload/synthetic.hpp"

namespace perfbench {
namespace {

using rs::stats::Rng;

constexpr double kBinS = 30.0;
/// Compressed "day" of the diurnal sinusoid; training covers six of them.
constexpr double kPeriodS = 600.0;
constexpr double kTrainS = 6.0 * kPeriodS;

/// Samples an NHPP trace from per-bin rates (kBinS bins from time 0).
rs::workload::Trace Sample(const std::vector<double>& rates, Rng* rng) {
  auto intensity = rs::workload::PiecewiseConstantIntensity::Make(rates, kBinS);
  RS_CHECK(intensity.ok()) << intensity.status().ToString();
  auto trace = rs::workload::MakeTraceFromIntensity(
      rng, *intensity, rs::stats::DurationDistribution::Exponential(15.0));
  RS_CHECK(trace.ok()) << trace.status().ToString();
  return std::move(trace).ValueOrDie();
}

std::size_t Bins(double seconds) {
  return static_cast<std::size_t>(std::ceil(seconds / kBinS));
}

double BinMid(std::size_t bin) {
  return (static_cast<double>(bin) + 0.5) * kBinS;
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBounded(i)]);
  }
}

void SortArrivals(Workload* w) {
  std::sort(w->arrivals.begin(), w->arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.t != b.t ? a.t < b.t : a.tenant < b.tenant;
            });
}

void AppendArrivals(const rs::workload::Trace& trace, std::uint32_t tenant,
                    Workload* w) {
  for (const auto& q : trace.queries()) {
    w->arrivals.push_back({q.arrival_time, tenant});
  }
}

struct AzureShape {
  std::size_t tenants;
  std::size_t classes;
  std::vector<std::string> strategies;  ///< Class k serves strategies[k % n].
  double serve_s;
  double target_arrivals;  ///< Expected arrivals over the serving window.
};

/// Evenly spaced quantiles (k + 0.5) / n of [lo, hi], ascending, or
/// shuffled when `rng` is given.
std::vector<double> Stratified(std::size_t n, double lo, double hi,
                               Rng* rng = nullptr) {
  std::vector<double> v(n);
  for (std::size_t k = 0; k < n; ++k) {
    v[k] = lo + (hi - lo) * (static_cast<double>(k) + 0.5) /
                    static_cast<double>(n);
  }
  if (rng != nullptr) Shuffle(&v, rng);
  return v;
}

/// Azure-Functions-shaped fleet: lognormal class rate levels on a
/// compressed diurnal sinusoid, tenants spread round-robin over the
/// classes with their own level multiplier and two bursts of 4-10x for
/// 30-90 s. Each class model trains on the class curve's own pre-serving
/// window (bursts excluded), so models fit the traffic they serve.
void MakeAzureShaped(const AzureShape& shape, Rng* rng, Workload* w) {
  struct Class {
    double level, phase, amp, mean_mult = 0.0;
    std::size_t members = 0;
  };
  struct Burst {
    double start, len, mult;
  };
  // Levels, phases, amplitudes, multipliers and burst sizes are stratified
  // (evenly spaced quantiles), so every seed serves the same mix of hot and
  // cold, steady and peaky tenants and the run's work and QoS do not swing
  // with the seed. Hotter classes swing more, so every seed has the same
  // per-class peaks (which size the planning workspaces); the seed moves
  // the phases, which tenants pair with which multiplier and burst, and
  // when the bursts come.
  const std::size_t nc = shape.classes;
  const std::vector<double> amps = Stratified(nc, 0.3, 0.7);
  const std::vector<double> phases = Stratified(nc, 0.0, 1.0, rng);
  const double phase_offset = rng->NextDouble();
  std::vector<Class> classes(nc);
  for (std::size_t k = 0; k < nc; ++k) {
    const double u = (static_cast<double>(k) + 0.5) / static_cast<double>(nc);
    classes[k].level = std::exp(0.8 * *rs::stats::NormalQuantile(u));
    classes[k].phase = phases[k] + phase_offset;
    classes[k].amp = amps[k];
  }
  const auto curve = [&](const Class& c, double t_abs) {
    return c.level *
           (1.0 + c.amp * std::sin(2.0 * M_PI * (t_abs / kPeriodS + c.phase)));
  };
  const std::vector<double> mult = Stratified(shape.tenants, 0.6, 1.4, rng);
  const std::vector<double> burst_len =
      Stratified(2 * shape.tenants, 30.0, 90.0, rng);
  const std::vector<double> burst_mult =
      Stratified(2 * shape.tenants, 4.0, 10.0, rng);
  std::vector<std::vector<Burst>> bursts(shape.tenants);
  for (std::size_t i = 0; i < shape.tenants; ++i) {
    Class& c = classes[i % nc];
    c.mean_mult += mult[i];
    ++c.members;
    for (std::size_t j = 2 * i; j < 2 * i + 2; ++j) {
      bursts[i].push_back({rng->NextDouble() * (shape.serve_s - 120.0),
                           burst_len[j], burst_mult[j]});
    }
  }
  for (auto& c : classes) c.mean_mult /= static_cast<double>(c.members);

  // Serving rate curves, then one global rescale so every seed serves the
  // same expected arrival count (the run's work does not depend on it).
  const std::size_t serve_bins = Bins(shape.serve_s);
  std::vector<std::vector<double>> rates(shape.tenants,
                                         std::vector<double>(serve_bins));
  double expected = 0.0;
  for (std::size_t i = 0; i < shape.tenants; ++i) {
    const Class& c = classes[i % shape.classes];
    for (std::size_t bin = 0; bin < serve_bins; ++bin) {
      const double s = BinMid(bin);
      double r = mult[i] * curve(c, kTrainS + s);
      for (const auto& b : bursts[i]) {
        if (s >= b.start && s < b.start + b.len) r *= b.mult;
      }
      rates[i][bin] = r;
      expected += r * kBinS;
    }
  }
  const double scale = shape.target_arrivals / expected;

  for (std::size_t k = 0; k < shape.classes; ++k) {
    const Class& c = classes[k];
    std::vector<double> train(Bins(kTrainS));
    for (std::size_t bin = 0; bin < train.size(); ++bin) {
      train[bin] = scale * c.mean_mult * curve(c, BinMid(bin));
    }
    w->models.push_back(
        {Sample(train, rng), shape.strategies[k % shape.strategies.size()]});
  }
  for (std::size_t i = 0; i < shape.tenants; ++i) {
    for (double& r : rates[i]) r *= scale;
    w->tenant_names.push_back("fn-" + std::to_string(i));
    w->tenant_model.push_back(i % shape.classes);
    AppendArrivals(Sample(rates[i], rng), static_cast<std::uint32_t>(i), w);
  }
  w->serve_s = shape.serve_s;
  SortArrivals(w);
}

const std::vector<std::string> kServeMix = {
    "robust_hp:target=0.9", "robust_rt:target=1.0", "robust_cost:target=2.0",
    "backup_pool:pool_size=2"};

/// drift-refresh: every tenant trains on its own stationary window; half
/// the tenants (every other level rank) change regime, alternately to 4x the level
/// or to a 3x shorter period, as in bench_freshness. Unlike there, the
/// shift times are spread evenly from 5% to 85% of serving, so refits
/// mostly land on separate boundaries instead of piling onto a few.
void MakeDrift(Rng* rng, Workload* w) {
  constexpr std::size_t kTenants = 64;
  constexpr std::size_t kShifted = kTenants / 2;
  w->clone_models = false;
  w->plan_interval = 3.0;
  w->mc_samples = 60;
  w->serve_s = 5.0 * kPeriodS;
  w->freshness = true;
  // At most one refit per tenant in a pass: ~32 refits over 1000
  // boundaries (3.2%). boundary_p99_ms averages the 5th-15th slowest
  // boundaries, which then lie among the single-refit boundaries: the
  // detector fires only as a 30 s bin closes, so a few refits still share
  // a boundary and take the top ranks.
  w->min_retrain_interval = w->serve_s;

  // Tenant order[r] gets the r-th of evenly spaced levels. Every other
  // level rank shifts, alternating level and period shifts, so every seed
  // shifts the same mix of levels; the shift times, evenly spaced, are
  // dealt out by the seed.
  std::vector<std::size_t> order(kTenants);
  for (std::size_t i = 0; i < kTenants; ++i) order[i] = i;
  Shuffle(&order, rng);
  const std::uint64_t parity = rng->NextBounded(2);
  const std::uint64_t flip = rng->NextBounded(2);
  const std::vector<double> shift_at =
      Stratified(kShifted, 0.05 * w->serve_s, 0.85 * w->serve_s, rng);
  std::vector<double> levels(kTenants);
  std::vector<int> kind(kTenants, 0);  // 0 none, 1 level, 2 period.
  std::vector<double> shift(kTenants, w->serve_s);
  for (std::size_t r = 0; r < kTenants; ++r) {
    const std::size_t i = order[r];
    levels[i] = 0.8 + 0.6 * (static_cast<double>(r) + 0.5) /
                          static_cast<double>(kTenants);
    if (r % 2 != parity) continue;
    kind[i] = (r / 2) % 2 == flip ? 1 : 2;
    shift[i] = shift_at[r / 2];
  }
  for (std::size_t i = 0; i < kTenants; ++i) {
    const double qps = levels[i];
    const double phase0 = rng->NextDouble();
    const auto sine = [&](double t, double level, double period) {
      return level *
             (1.0 + 0.6 * std::sin(2.0 * M_PI * (t / period + phase0)));
    };
    std::vector<double> train(Bins(kTrainS));
    for (std::size_t bin = 0; bin < train.size(); ++bin) {
      train[bin] = sine(BinMid(bin), qps, kPeriodS);
    }
    w->models.push_back({Sample(train, rng), "robust_hp:target=0.9"});
    std::vector<double> serve(Bins(w->serve_s));
    for (std::size_t bin = 0; bin < serve.size(); ++bin) {
      const double s = BinMid(bin);
      const double t = kTrainS + s;
      if (s < shift[i]) {
        serve[bin] = sine(t, qps, kPeriodS);
      } else if (kind[i] == 1) {
        serve[bin] = sine(t, 4.0 * qps, kPeriodS);
      } else {
        serve[bin] = sine(t, qps, kPeriodS / 3.0);
      }
    }
    w->tenant_names.push_back("tenant-" + std::to_string(i));
    w->tenant_model.push_back(i);
    AppendArrivals(Sample(serve, rng), static_cast<std::uint32_t>(i), w);
  }
  SortArrivals(w);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"azure-durable",
                                                 "drift-refresh"};
  return names;
}

bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  // Mix the workload name into the seed so two workloads run on one seed
  // still draw independent streams.
  std::uint64_t mixed = seed * 0x9e3779b97f4a7c15ull;
  for (char ch : name) {
    mixed = (mixed ^ static_cast<unsigned char>(ch)) * 0x100000001b3ull;
  }
  Rng rng(mixed);
  if (name == "azure-durable") {
    w.plan_interval = 10.0;
    w.mc_samples = 20;
    w.journal = true;
    MakeAzureShaped({.tenants = 100,
                     .classes = 8,
                     .strategies = kServeMix,
                     .serve_s = 10800.0,
                     .target_arrivals = 3e5},
                    &rng, &w);
  } else if (name == "drift-refresh") {
    MakeDrift(&rng, &w);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

}  // namespace perfbench
