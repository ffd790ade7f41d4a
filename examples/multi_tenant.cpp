// Multi-tenant serving: one process, many per-service models.
//
// 1. Train three per-service Scalers (different workload phases and
//    scaling targets) and register them in a ScalerFleet with a 2-thread
//    worker pool.
// 2. Serve the merged arrival stream: Observe() routes each arrival to its
//    tenant, PlanAll() fans the tenants out across the pool (each tenant
//    plans serially on one thread) and returns actions in registration
//    order.
// 3. Mid-run, retire one tenant and hot-swap another tenant's model —
//    neighbors are undisturbed.
//
// Build & run:  ./build/examples/example_multi_tenant
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "rs/api/api.hpp"
#include "rs/stats/rng.hpp"

using namespace rs;

namespace {

struct Service {
  std::string name;
  const char* strategy;
  workload::Trace train;
  workload::Trace test;
};

Service MakeService(std::string name, const char* strategy, double phase0,
                    std::uint64_t seed) {
  const double period_s = 1800.0, dt = 30.0;
  const double horizon = 10.0 * period_s;
  std::vector<double> rates;
  for (double t = 0.5 * dt; t < horizon; t += dt) {
    const double phase = std::fmod(t, period_s) / period_s;
    rates.push_back(0.4 + 0.3 * std::sin(2.0 * M_PI * (phase + phase0)));
  }
  auto intensity = *workload::PiecewiseConstantIntensity::Make(rates, dt);
  stats::Rng rng(seed);
  auto trace = *workload::MakeTraceFromIntensity(
      &rng, intensity, stats::DurationDistribution::Exponential(20.0));
  Service service{std::move(name), strategy, {}, {}};
  auto [train, test] = trace.SplitAt(horizon - 2.0 * period_s);
  service.train = std::move(train);
  service.test = std::move(test);
  return service;
}

api::Scaler BuildScaler(const Service& service) {
  auto spec = *api::ParseStrategySpec(service.strategy);
  auto scaler = api::ScalerBuilder()
                    .WithTrace(service.train)
                    .WithBinWidth(30.0)
                    .WithForecastHorizon(service.test.horizon())
                    .WithStrategy(spec)
                    .WithPlanningInterval(2.0)
                    .WithMcSamples(150)
                    .Build();
  if (!scaler.ok()) {
    std::fprintf(stderr, "training %s failed: %s\n", service.name.c_str(),
                 scaler.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(scaler).ValueOrDie();
}

void PrintFleet(const api::ScalerFleet& fleet) {
  const api::FleetSnapshot snap = fleet.Snapshot();
  std::printf("fleet: %zu tenants, %zu queries, %zu creations, "
              "%zu plan rounds | retained %zu/%zu arrivals\n",
              snap.tenants, snap.queries_observed, snap.creations_requested,
              snap.planning_rounds, snap.arrivals_retained,
              snap.queries_observed);
  for (const auto& [name, tenant] : snap.per_tenant) {
    std::printf("  %-10s %-28s now=%7.1fs queries=%5zu alive=%3zu "
                "cold=%3zu\n",
                name.c_str(), tenant.strategy.c_str(), tenant.now,
                tenant.queries_observed, tenant.instances_alive,
                tenant.cold_starts);
  }
}

}  // namespace

int main() {
  // --- 1. Three services, one process.
  std::vector<Service> services;
  services.push_back(
      MakeService("search", "robust_hp:target=0.9", 0.00, 11));
  services.push_back(
      MakeService("checkout", "robust_rt:target=2.0", 0.33, 12));
  services.push_back(
      MakeService("thumbs", "backup_pool:pool_size=2", 0.66, 13));

  api::ScalerFleet fleet(/*worker_threads=*/2);
  for (auto& service : services) {
    auto st = fleet.Register(service.name, BuildScaler(service));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("registered:");
  for (const auto& name : fleet.Tenants()) std::printf(" %s", name.c_str());
  std::printf("\n\n");

  // --- 2. Serve the merged stream; batch planning every 2 s of trace time.
  std::vector<std::pair<double, std::size_t>> arrivals;
  for (std::size_t i = 0; i < services.size(); ++i) {
    for (const auto& q : services[i].test.queries()) {
      arrivals.emplace_back(q.arrival_time, i);
    }
  }
  std::sort(arrivals.begin(), arrivals.end());
  const double horizon = services[0].test.horizon();
  const double half = horizon / 2.0;

  double next_plan = 2.0;
  std::size_t batch_creations = 0;
  bool swapped = false;
  for (const auto& [t, i] : arrivals) {
    while (next_plan <= t) {
      for (auto& plan : fleet.PlanAll(next_plan)) {
        if (plan.status.ok()) batch_creations += plan.action.creation_times.size();
      }
      next_plan += 2.0;
    }
    if (!swapped && t >= half) {
      // --- 3. Lifecycle, mid-run: drop one tenant, hot-swap a model.
      swapped = true;
      std::printf("at t=%.0fs, before lifecycle changes:\n", t);
      PrintFleet(fleet);
      (void)fleet.Retire("thumbs");
      (void)fleet.ReplaceModel("checkout", BuildScaler(services[1]));
      std::printf("\nretired \"thumbs\", replaced \"checkout\" model "
                  "(fresh serving state; \"search\" untouched):\n");
      PrintFleet(fleet);
      std::printf("\n");
    }
    if (fleet.Find(services[i].name) == nullptr) continue;  // Retired.
    auto outcome = fleet.Observe(services[i].name, t);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
      return 1;
    }
  }
  for (auto& plan : fleet.PlanAll(horizon)) {
    if (plan.status.ok()) batch_creations += plan.action.creation_times.size();
  }

  std::printf("served to t=%.0fs (%zu creations via PlanAll batches):\n",
              horizon, batch_creations);
  PrintFleet(fleet);
  return 0;
}
