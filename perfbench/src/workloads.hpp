/// \file workloads.hpp
/// \brief The benchmark workloads, generated from a seed before any
///        timing starts. The fleet never sees the seed: it receives only
///        the training traces, strategy specs and the arrival stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rs/workload/trace.hpp"

namespace perfbench {

/// One model trained at set-up (ScalerBuilder::Build).
struct ModelSpec {
  rs::workload::Trace train;
  std::string strategy;  ///< Registry spec, e.g. "robust_hp:target=0.9".
};

struct Arrival {
  double t;               ///< Serving clock (0 = end of training).
  std::uint32_t tenant;   ///< Index into Workload::tenant_names.
};

/// Everything one workload serves. Tenants either restore a clone of their
/// class model (`clone_models`) or each own one model trained for them.
struct Workload {
  std::string name;
  std::vector<ModelSpec> models;
  std::vector<std::string> tenant_names;
  std::vector<std::size_t> tenant_model;  ///< Model index per tenant.
  std::vector<Arrival> arrivals;          ///< Sorted by (t, tenant).
  bool clone_models = true;

  // Model and serving knobs shared by every tenant.
  double bin_width = 30.0;
  double plan_interval = 10.0;  ///< Δ; PlanAll is polled once per Δ.
  std::size_t mc_samples = 20;
  double serve_s = 0.0;         ///< Serving window; last boundary.

  // azure-durable: journal attached, checkpoint cadence in boundaries.
  // Both cadences keep disk waits out of the ranks the tail percentiles
  // average (the 150-450 slowest Observes, the 5-15 slowest of ~1080
  // boundaries): ~302 k records a pass make ~8 fsyncs with the segment
  // rotations, and 2 checkpoints. fsync and
  // checkpoint latency on a 4-vCPU VM moved 30-40% run to run; they still
  // count in throughput and the wal.* layer.
  bool journal = false;
  std::uint64_t fsync_every_n = 65536;
  std::size_t checkpoint_every = 500;

  // drift-refresh: freshness loop on.
  bool freshness = false;
  double min_retrain_interval = 0.0;
};

/// Names accepted by MakeWorkload, in documentation order.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` from `seed`; returns false for an unknown name.
bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* out);

}  // namespace perfbench
