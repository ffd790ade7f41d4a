/// \file admm.hpp
/// \brief The specialized quadratically-approximated ADMM of Algorithm 2
///        that trains the regularized NHPP model (Eq. 1).
///
/// Splitting: y = D2 r (L1 block, soft-threshold prox), z = DL r (L2 block,
/// closed-form shrink). The r-subproblem replaces the exponential likelihood
/// term with its second-order Taylor expansion around r_k, reducing to the
/// sparse banded SPD system A_k r = B_k solved by banded Cholesky or,
/// matrix-free, by Jacobi-PCG.
#pragma once

#include <cstddef>

#include "rs/common/status.hpp"
#include "rs/common/thread_pool.hpp"
#include "rs/core/nhpp_model.hpp"

namespace rs::core {

/// Which linear solver handles the r-subproblem.
enum class RSubproblemSolver {
  kAuto,            ///< Cholesky for short periods, PCG for long ones.
  kBandedCholesky,  ///< Exact O(T·L²) factor per iteration.
  kPcg,             ///< Matrix-free, O(T) per matvec; wins for large L.
};

/// Periods above this bandwidth make the O(T·L²) band factor slower than
/// matrix-free PCG on typical series lengths; kAuto switches there
/// (quantified by bench_ablation_solver).
inline constexpr std::size_t kAutoSolverPeriodThreshold = 512;

/// ADMM hyper-parameters and stopping rules.
struct AdmmOptions {
  /// Initial augmented-Lagrangian penalty ρ. Residual balancing (Boyd et
  /// al. 2011, §3.4.1) rescales it by 2× whenever one relative residual
  /// outgrows the other 10-fold; AdmmInfo::rho reports where it ended.
  double rho = 1.0;
  std::size_t max_iterations = 200;
  /// Scaled stopping rule (Boyd et al. 2011, §3.3.1): stop when the primal
  /// residual ‖[y−D2r; z−DLr]‖₂ ≤ √p·ε_abs + ε_rel·max(‖[D2r; DLr]‖,
  /// ‖[y; z]‖) and the dual residual ≤ √T·ε_abs + ε_rel·‖D2ᵀν_y + DLᵀν_z‖,
  /// with p the number of split rows and T the series length. The dual
  /// residual is ρ‖Δ[y; z]‖₂ combined (root sum of squares) with the
  /// gradient error of the one-Newton-step r-update, which the split
  /// residuals cannot see along the intensity level.
  double abs_tolerance = 1e-3;  ///< ε_abs.
  double rel_tolerance = 1e-3;  ///< ε_rel.
  RSubproblemSolver solver = RSubproblemSolver::kAuto;
  /// Log-intensity is clamped to ±`r_clamp` to keep exp() finite.
  double r_clamp = 25.0;
  /// Optional worker pool for the element-wise iteration loops (Hessian
  /// weights, prox updates, residual reductions). Work is split into fixed
  /// chunks whose partial sums are combined in chunk order, so the fit is
  /// byte-identical for any pool size (null/inline included). The pool must
  /// outlive the FitNhpp call.
  common::ThreadPool* pool = nullptr;
  /// Optional initial iterate r₀ (log-intensity, aligned with `counts`): a
  /// warm start from a previous fit on a prefix of the same series. Bins
  /// beyond its length — and non-finite entries — fall back to the smoothed
  /// default start; everything is clamped to ±r_clamp either way. Only the
  /// primal iterate is seeded (the duals restart at zero), so the iterate
  /// alone saves almost nothing: pair it with the previous fit's final ρ as
  /// `rho`, as rs::train::TrainingSession does. Measured on sine workloads
  /// (four 20-bin cycles fitted, 5–20 bins appended, ten seeds), warm
  /// iterate + ρ took 380–436 iterations in total against 422–533 cold;
  /// the iterate alone took 416–533, within 1.5% of cold. Not owned; must
  /// outlive the call.
  const std::vector<double>* warm_start = nullptr;
};

/// Fit diagnostics.
struct AdmmInfo {
  std::size_t iterations = 0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  /// ε_pri and ε_dual of the scaled stopping rule at the last iteration.
  double primal_epsilon = 0.0;
  double dual_epsilon = 0.0;
  /// Final penalty ρ: the one the next iteration would use, i.e. after the
  /// last balancing step. A warm refit starts from it.
  double rho = 0.0;
  bool converged = false;
};

/// \brief Fits the NHPP log-intensity to a count series.
///
/// \param counts  Q_t — queries per Δt bin (length T >= 3).
/// \param config  Δt, β1, β2 and the detected period L (0 = no DL term).
/// \param options solver configuration.
/// \param info    optional convergence diagnostics.
Result<NhppModel> FitNhpp(const std::vector<double>& counts,
                          const NhppConfig& config,
                          const AdmmOptions& options = {},
                          AdmmInfo* info = nullptr);

}  // namespace rs::core
