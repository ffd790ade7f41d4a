// Tests for the ADMM NHPP trainer (Algorithm 2): recovery of known
// intensities, loss decrease, periodicity-penalty benefits (Table III
// mechanism), and Cholesky-vs-PCG solver agreement.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "rs/core/admm.hpp"
#include "rs/linalg/difference_ops.hpp"
#include "rs/linalg/vector_ops.hpp"
#include "rs/stats/distributions.hpp"
#include "rs/stats/empirical.hpp"
#include "rs/stats/rng.hpp"

namespace rs::core {
namespace {

/// Poisson counts from a given per-second intensity sequence.
std::vector<double> PoissonCounts(const std::vector<double>& rates, double dt,
                                  std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> counts(rates.size());
  for (std::size_t t = 0; t < rates.size(); ++t) {
    counts[t] =
        static_cast<double>(stats::SamplePoisson(&rng, rates[t] * dt));
  }
  return counts;
}

TEST(AdmmTest, RecoversConstantIntensity) {
  const double rate = 2.0, dt = 60.0;
  auto counts = PoissonCounts(std::vector<double>(200, rate), dt, 1);
  NhppConfig config;
  config.dt = dt;
  config.beta1 = 30.0;  // Strong smoothing: the truth is constant.
  config.beta2 = 0.0;
  AdmmInfo info;
  auto model = FitNhpp(counts, config, {}, &info);
  ASSERT_TRUE(model.ok());
  const auto intensity = model->Intensity();
  double mean = 0.0;
  for (double lambda : intensity) {
    EXPECT_NEAR(lambda, rate, 0.35);  // Per-bin Poisson noise band.
    mean += lambda;
  }
  mean /= static_cast<double>(intensity.size());
  EXPECT_NEAR(mean, rate, 0.1);
}

TEST(AdmmTest, RecoversPiecewiseTrend) {
  // Intensity doubles halfway; the fit should follow both levels.
  std::vector<double> rates(300, 1.0);
  for (std::size_t t = 150; t < 300; ++t) rates[t] = 3.0;
  auto counts = PoissonCounts(rates, 60.0, 2);
  NhppConfig config;
  config.dt = 60.0;
  config.beta1 = 2.0;
  auto model = FitNhpp(counts, config);
  ASSERT_TRUE(model.ok());
  const auto intensity = model->Intensity();
  EXPECT_NEAR(intensity[50], 1.0, 0.3);
  EXPECT_NEAR(intensity[250], 3.0, 0.6);
}

TEST(AdmmTest, LossNotWorseThanInitialGuess) {
  std::vector<double> rates(150);
  for (std::size_t t = 0; t < rates.size(); ++t) {
    rates[t] = 1.5 + std::sin(static_cast<double>(t) / 10.0);
  }
  auto counts = PoissonCounts(rates, 30.0, 3);
  NhppConfig config;
  config.dt = 30.0;
  config.beta1 = 3.0;
  config.beta2 = 10.0;
  config.period = 63;  // 2*pi*10 ≈ 63.
  auto model = FitNhpp(counts, config);
  ASSERT_TRUE(model.ok());
  // Reference: the raw empirical-rate model (the ADMM starting point).
  std::vector<double> raw(counts.size());
  for (std::size_t t = 0; t < counts.size(); ++t) {
    raw[t] = std::log((counts[t] + 0.5) / config.dt);
  }
  NhppModel raw_model(config, raw);
  auto fitted_loss = model->Loss(counts);
  auto raw_loss = raw_model.Loss(counts);
  ASSERT_TRUE(fitted_loss.ok() && raw_loss.ok());
  EXPECT_LE(*fitted_loss, *raw_loss + 1e-6);
}

TEST(AdmmTest, ConvergesOnSmoothData) {
  auto counts = PoissonCounts(std::vector<double>(100, 5.0), 10.0, 4);
  NhppConfig config;
  config.dt = 10.0;
  config.beta1 = 1.0;
  const AdmmOptions options;  // Defaults: ε_abs = ε_rel = 1e-3, cap 200.
  AdmmInfo info;
  auto model = FitNhpp(counts, config, options, &info);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(info.converged);
  EXPECT_LT(info.iterations, options.max_iterations);

  // The scaled rule was met, against thresholds no looser than its
  // definition allows: ‖[y; z]‖ ≤ ‖D2r‖ + ‖y − D2r‖, so
  // ε_pri ≤ √p·ε_abs + ε_rel·(‖D2r‖ + r_pri).
  EXPECT_LE(info.primal_residual, info.primal_epsilon);
  EXPECT_LE(info.dual_residual, info.dual_epsilon);
  std::vector<double> d2r;
  linalg::ApplyD2(model->log_intensity(), &d2r);
  const double sqrt_p = std::sqrt(static_cast<double>(d2r.size()));
  EXPECT_LE(info.primal_epsilon,
            sqrt_p * options.abs_tolerance +
                options.rel_tolerance *
                    (std::sqrt(linalg::Dot(d2r, d2r)) + info.primal_residual) +
                1e-12);

  // And stopping there costs little objective: the loss is within 1e-5
  // (relative) of a 20 000-iteration reference fit run with zero
  // tolerances.
  AdmmOptions reference_options;
  reference_options.max_iterations = 20000;
  reference_options.abs_tolerance = 0.0;
  reference_options.rel_tolerance = 0.0;
  auto reference = FitNhpp(counts, config, reference_options);
  ASSERT_TRUE(reference.ok());
  const double loss = *model->Loss(counts);
  const double reference_loss = *reference->Loss(counts);
  EXPECT_LE(loss - reference_loss, 1e-5 * std::fabs(reference_loss))
      << "loss " << loss << " vs reference " << reference_loss;
}

TEST(AdmmTest, StopsAtTheLikelihoodLevelOnFlatSeries) {
  // A flat series keeps D2r = DLr = 0 from the first iterate on, so the
  // split residuals vanish at once; only the Newton step's model error
  // shows the level is not yet the likelihood optimum. Stopping must wait
  // for it.
  NhppConfig config;
  config.dt = 30.0;
  config.period = 20;
  AdmmInfo info;
  auto constant = FitNhpp(std::vector<double>(240, 7.0), config, {}, &info);
  ASSERT_TRUE(constant.ok());
  EXPECT_TRUE(info.converged);
  for (double lambda : constant->Intensity()) {
    EXPECT_NEAR(lambda, 7.0 / config.dt, 1e-4);  // The MLE level Q/Δt.
  }
  // All zero: the optimum is the clamp floor; the fit must head there, not
  // stop at the smoothed start 0.5/Δt.
  auto silent = FitNhpp(std::vector<double>(240, 0.0), config, {}, &info);
  ASSERT_TRUE(silent.ok());
  EXPECT_TRUE(info.converged);
  for (double lambda : silent->Intensity()) {
    EXPECT_LT(lambda, 1e-3 * 0.5 / config.dt);
  }
}

TEST(AdmmTest, PeriodicityPenaltyImprovesAccuracy) {
  // The Table III mechanism: periodic ground truth + penalty → lower MSE.
  const std::size_t period = 48, cycles = 8;
  std::vector<double> rates(period * cycles);
  for (std::size_t t = 0; t < rates.size(); ++t) {
    const double phase = 2.0 * M_PI * static_cast<double>(t % period) /
                         static_cast<double>(period);
    rates[t] = 1.0 + 0.8 * std::sin(phase);
  }
  auto counts = PoissonCounts(rates, 60.0, 5);

  NhppConfig with_reg;
  with_reg.dt = 60.0;
  with_reg.beta1 = 5.0;
  with_reg.beta2 = 100.0;
  with_reg.period = period;
  NhppConfig without_reg = with_reg;
  without_reg.beta2 = 0.0;
  without_reg.period = 0;

  auto model_with = FitNhpp(counts, with_reg);
  auto model_without = FitNhpp(counts, without_reg);
  ASSERT_TRUE(model_with.ok() && model_without.ok());
  const double mse_with =
      stats::MeanSquaredError(model_with->Intensity(), rates);
  const double mse_without =
      stats::MeanSquaredError(model_without->Intensity(), rates);
  EXPECT_LT(mse_with, mse_without);
}

TEST(AdmmTest, PcgSolverMatchesCholesky) {
  std::vector<double> rates(120);
  for (std::size_t t = 0; t < rates.size(); ++t) {
    rates[t] = 2.0 + std::cos(static_cast<double>(t) / 8.0);
  }
  auto counts = PoissonCounts(rates, 30.0, 6);
  NhppConfig config;
  config.dt = 30.0;
  config.beta1 = 4.0;
  config.beta2 = 20.0;
  config.period = 50;

  AdmmOptions chol_opts;
  chol_opts.solver = RSubproblemSolver::kBandedCholesky;
  AdmmOptions pcg_opts;
  pcg_opts.solver = RSubproblemSolver::kPcg;

  auto model_chol = FitNhpp(counts, config, chol_opts);
  auto model_pcg = FitNhpp(counts, config, pcg_opts);
  ASSERT_TRUE(model_chol.ok() && model_pcg.ok());
  const auto& r1 = model_chol->log_intensity();
  const auto& r2 = model_pcg->log_intensity();
  for (std::size_t t = 0; t < r1.size(); ++t) {
    EXPECT_NEAR(r1[t], r2[t], 1e-4) << "bin " << t;
  }
}

TEST(AdmmTest, HandlesZeroCountBins) {
  std::vector<double> counts(80, 0.0);
  counts[40] = 3.0;  // Single event bin in an otherwise silent series.
  NhppConfig config;
  config.dt = 60.0;
  config.beta1 = 2.0;
  auto model = FitNhpp(counts, config);
  ASSERT_TRUE(model.ok());
  for (double r : model->log_intensity()) {
    EXPECT_TRUE(std::isfinite(r));
  }
}

TEST(AdmmTest, RejectsInvalidInputs) {
  NhppConfig config;
  EXPECT_FALSE(FitNhpp({1.0, 2.0}, config).ok());  // Too short.
  config.dt = 0.0;
  EXPECT_FALSE(FitNhpp({1.0, 2.0, 3.0}, config).ok());
  config.dt = 60.0;
  config.beta1 = -1.0;
  EXPECT_FALSE(FitNhpp({1.0, 2.0, 3.0}, config).ok());
  config.beta1 = 1.0;
  EXPECT_FALSE(FitNhpp({1.0, -2.0, 3.0}, config).ok());  // Negative count.
  AdmmOptions options;
  options.rho = 0.0;
  EXPECT_FALSE(FitNhpp({1.0, 2.0, 3.0}, config, options).ok());
  options.rho = 1.0;
  options.rel_tolerance = -1.0;
  EXPECT_FALSE(FitNhpp({1.0, 2.0, 3.0}, config, options).ok());
  options.rel_tolerance = 1e-3;
  options.abs_tolerance = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(FitNhpp({1.0, 2.0, 3.0}, config, options).ok());
}

TEST(AdmmTest, PeriodLongerThanSeriesIsDisabled) {
  auto counts = PoissonCounts(std::vector<double>(50, 1.0), 60.0, 7);
  NhppConfig config;
  config.dt = 60.0;
  config.period = 100;  // > T: must be ignored, not crash.
  auto model = FitNhpp(counts, config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->config().period, 0u);
}

TEST(NhppModelTest, ToIntensityRoundTrips) {
  NhppConfig config;
  config.dt = 30.0;
  NhppModel model(config, {std::log(2.0), std::log(4.0)});
  auto intensity = model.ToIntensity();
  ASSERT_TRUE(intensity.ok());
  EXPECT_DOUBLE_EQ(intensity->Rate(10.0), 2.0);
  EXPECT_DOUBLE_EQ(intensity->Rate(40.0), 4.0);
  EXPECT_DOUBLE_EQ(intensity->dt(), 30.0);
}

TEST(NhppModelTest, LossRequiresMatchingSizes) {
  NhppConfig config;
  NhppModel model(config, {0.0, 0.0});
  EXPECT_FALSE(model.Loss({1.0}).ok());
}

}  // namespace
}  // namespace rs::core
