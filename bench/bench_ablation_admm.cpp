// Ablation: ADMM hyper-parameter sensitivity — initial ρ (convergence
// speed), β1 (smoothness), β2 (periodicity strength) — measured as
// iterations to the scaled stopping rule, the penalty residual balancing
// ended at, and intensity-recovery MSE on a periodic ground truth. Backs
// the default choices baked into PipelineOptions.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "rs/core/admm.hpp"
#include "rs/stats/empirical.hpp"

namespace {

struct FitOutcome {
  std::size_t iterations;
  bool converged;
  double final_rho;
  double mse;
};

void PrintOutcome(double parameter, const FitOutcome& out) {
  std::printf("%8.2f %10zu %10s %10.3g %12.3e\n", parameter, out.iterations,
              out.converged ? "yes" : "no", out.final_rho, out.mse);
}

FitOutcome FitWith(const std::vector<double>& counts,
                   const std::vector<double>& truth, double dt, double rho,
                   double beta1, double beta2, std::size_t period) {
  rs::core::NhppConfig config;
  config.dt = dt;
  config.beta1 = beta1;
  config.beta2 = beta2;
  config.period = period;
  rs::core::AdmmOptions options;
  options.rho = rho;
  options.max_iterations = 400;
  rs::core::AdmmInfo info;
  auto model = rs::core::FitNhpp(counts, config, options, &info);
  RS_CHECK(model.ok()) << model.status().ToString();
  return {info.iterations, info.converged, info.rho,
          rs::stats::MeanSquaredError(model->Intensity(), truth)};
}

}  // namespace

int main() {
  using namespace rs::bench;
  PrintHeader("Ablation — ADMM hyper-parameters (rho, beta1, beta2)");

  // Periodic ground truth, one week of 10-min bins, daily period (144).
  const std::size_t period = 144, t = 7 * period;
  const double dt = 600.0;
  std::vector<double> truth(t);
  rs::stats::Rng rng(11);
  std::vector<double> counts(t);
  for (std::size_t i = 0; i < t; ++i) {
    const double phase = 2.0 * M_PI * static_cast<double>(i % period) /
                         static_cast<double>(period);
    truth[i] = 0.05 + 0.04 * std::sin(phase);
    counts[i] =
        static_cast<double>(rs::stats::SamplePoisson(&rng, truth[i] * dt));
  }

  const char* columns = "%8s %10s %10s %10s %12s\n";
  std::printf("\nrho sweep (beta1=10, beta2=50):\n");
  std::printf(columns, "rho0", "iters", "converged", "final_rho", "mse");
  for (double rho : {0.1, 0.5, 1.0, 5.0, 20.0}) {
    PrintOutcome(rho, FitWith(counts, truth, dt, rho, 10.0, 50.0, period));
  }

  std::printf("\nbeta1 sweep (rho0=1, beta2=50):\n");
  std::printf(columns, "beta1", "iters", "converged", "final_rho", "mse");
  for (double beta1 : {0.0, 1.0, 10.0, 100.0, 1000.0}) {
    PrintOutcome(beta1, FitWith(counts, truth, dt, 1.0, beta1, 50.0, period));
  }

  std::printf("\nbeta2 sweep (rho0=1, beta1=10):\n");
  std::printf(columns, "beta2", "iters", "converged", "final_rho", "mse");
  for (double beta2 : {0.0, 5.0, 50.0, 500.0, 5000.0}) {
    PrintOutcome(beta2, FitWith(counts, truth, dt, 1.0, 10.0, beta2,
                                beta2 > 0.0 ? period : 0));
  }

  std::printf("\nExpected: residual balancing makes the initial rho nearly\n"
              "irrelevant (each fit ends near the same final rho); moderate\n"
              "beta1 and beta2 minimize MSE (beta2=0 reproduces the Table III\n"
              "no-regularization penalty; huge values over-smooth and take\n"
              "longest to converge).\n");
  return 0;
}
