#include "rs/core/admm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "rs/linalg/banded_cholesky.hpp"
#include "rs/linalg/difference_ops.hpp"
#include "rs/linalg/pcg.hpp"
#include "rs/linalg/vector_ops.hpp"
#include "rs/stats/empirical.hpp"

namespace rs::core {

namespace {

using linalg::Vec;

/// Fixed chunk width for the pool-parallel element-wise loops. Chunk
/// boundaries (and the chunk-order reduction below) depend only on the
/// series length, so any worker count produces bitwise-identical iterates.
constexpr std::size_t kAdmmChunk = 1024;

/// Residual balancing (Boyd et al. 2011, §3.4.1): when one relative
/// residual exceeds the other by more than kBalanceMu, ρ is multiplied or
/// divided by kBalanceTau.
constexpr double kBalanceMu = 10.0;
constexpr double kBalanceTau = 2.0;

void Clamp(Vec* r, double bound, common::ThreadPool* pool) {
  double* pr = r->data();
  common::ParallelForChunks(pool, r->size(), kAdmmChunk,
                            [pr, bound](std::size_t, std::size_t b,
                                        std::size_t e) {
                              for (std::size_t i = b; i < e; ++i) {
                                pr[i] = std::clamp(pr[i], -bound, bound);
                              }
                            });
}

/// Σ body(i) with per-chunk partials summed in chunk order (deterministic
/// for any pool size; the grouping differs from a single serial sweep, but
/// identically so on every run).
template <typename Body>
double ChunkedSum(common::ThreadPool* pool, std::size_t n, Vec* partials,
                  const Body& body) {
  const std::size_t chunks = n == 0 ? 0 : (n + kAdmmChunk - 1) / kAdmmChunk;
  partials->assign(chunks, 0.0);
  double* pp = partials->data();
  common::ParallelForChunks(pool, n, kAdmmChunk,
                            [pp, &body](std::size_t c, std::size_t b,
                                        std::size_t e) {
                              double acc = 0.0;
                              for (std::size_t i = b; i < e; ++i) {
                                acc += body(i);
                              }
                              pp[c] = acc;
                            });
  double total = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) total += pp[c];
  return total;
}

}  // namespace

Result<NhppModel> FitNhpp(const std::vector<double>& counts,
                          const NhppConfig& config, const AdmmOptions& options,
                          AdmmInfo* info) {
  const std::size_t t = counts.size();
  if (t < 3) return Status::Invalid("FitNhpp: need at least 3 bins");
  if (!(config.dt > 0.0)) return Status::Invalid("FitNhpp: dt must be > 0");
  if (config.beta1 < 0.0 || config.beta2 < 0.0) {
    return Status::Invalid("FitNhpp: beta1/beta2 must be >= 0");
  }
  if (!(options.rho > 0.0)) return Status::Invalid("FitNhpp: rho must be > 0");
  if (!(options.abs_tolerance >= 0.0) || !(options.rel_tolerance >= 0.0)) {
    return Status::Invalid("FitNhpp: abs/rel tolerances must be >= 0");
  }
  for (double q : counts) {
    if (!(q >= 0.0) || !std::isfinite(q)) {
      return Status::Invalid("FitNhpp: counts must be finite and >= 0");
    }
  }
  const bool use_period = config.period > 0 && config.period < t;
  const std::size_t period = use_period ? config.period : 0;
  double rho = options.rho;
  common::ThreadPool* pool = options.pool;
  RSubproblemSolver solver = options.solver;
  if (solver == RSubproblemSolver::kAuto) {
    solver = period > kAutoSolverPeriodThreshold ? RSubproblemSolver::kPcg
                                                 : RSubproblemSolver::kBandedCholesky;
  }

  // Initialization: r0 = log((Q + 0.5) / Δt), a standard smoothed start —
  // unless a warm start supplies the iterate of a previous fit on a prefix
  // of this series (appended bins keep the smoothed default).
  Vec r(t);
  const std::vector<double>* warm = options.warm_start;
  for (std::size_t i = 0; i < t; ++i) {
    if (warm != nullptr && i < warm->size() && std::isfinite((*warm)[i])) {
      r[i] = (*warm)[i];
    } else {
      r[i] = std::log((counts[i] + 0.5) / config.dt);
    }
  }
  Clamp(&r, options.r_clamp, pool);

  Vec y, z;
  linalg::ApplyD2(r, &y);
  if (use_period) {
    linalg::ApplyDL(r, period, &z);
  }
  Vec nu_y(y.size(), 0.0), nu_z(z.size(), 0.0);

  // The band matrix is only materialized for the Cholesky path; the PCG
  // path stays matrix-free (the whole point for long periods).
  const std::size_t bandwidth =
      solver == RSubproblemSolver::kBandedCholesky
          ? (use_period ? std::max<std::size_t>(2, period) : 2)
          : 0;
  linalg::SymmetricBandedMatrix a(t, bandwidth);
  linalg::Vec rhs(t), r_next(t), tmp(t), tmp2(t), partials;
  Vec w(t);  // Δt · exp(r_k): Hessian weights of the likelihood term.
  Vec w_next(t);
  AdmmInfo local_info;
  const double dt = config.dt;
  const double sqrt_p = std::sqrt(static_cast<double>(y.size() + z.size()));
  const double sqrt_t = std::sqrt(static_cast<double>(t));
  {
    const double* pr = r.data();
    double* pw = w.data();
    common::ParallelForChunks(
        pool, t, kAdmmChunk,
        [dt, pr, pw](std::size_t, std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) pw[i] = dt * std::exp(pr[i]);
        });
  }

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // ---- r-update: solve A_k r = B_k (Algorithm 2, line 2). ----
    // B_k = Q − Δt e^{r_k} + diag(w) r_k + D2ᵀ(ν_y + ρ y) + DLᵀ(ν_z + ρ z).
    {
      const double* pc = counts.data();
      const double* pr = r.data();
      const double* pw = w.data();
      double* prhs = rhs.data();
      common::ParallelForChunks(
          pool, t, kAdmmChunk,
          [pc, pr, pw, prhs](std::size_t, std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
              prhs[i] = pc[i] - pw[i] + pw[i] * pr[i];
            }
          });
    }
    {
      Vec packed(y.size());
      for (std::size_t i = 0; i < y.size(); ++i) {
        packed[i] = nu_y[i] + rho * y[i];
      }
      linalg::ApplyD2Transpose(packed, t, &tmp);
      for (std::size_t i = 0; i < t; ++i) rhs[i] += tmp[i];
    }
    if (use_period) {
      Vec packed(z.size());
      for (std::size_t i = 0; i < z.size(); ++i) {
        packed[i] = nu_z[i] + rho * z[i];
      }
      linalg::ApplyDLTranspose(packed, t, period, &tmp2);
      for (std::size_t i = 0; i < t; ++i) rhs[i] += tmp2[i];
    }

    if (solver == RSubproblemSolver::kBandedCholesky) {
      a.SetZero();
      a.AddDiagonal(w);
      linalg::AddGramD2(rho, &a);
      if (use_period) linalg::AddGramDL(rho, period, &a);
      RS_RETURN_NOT_OK(linalg::BandedCholesky::FactorAndSolve(a, rhs, &r_next));
    } else {
      auto op = linalg::MakeAdmmOperator(w, rho, use_period ? rho : 0.0, period);
      Vec diag = w;
      // Diagonal of ρ·D2ᵀD2: stencil contributions 1+4+1 = 6ρ interior.
      for (std::size_t i = 0; i + 2 < t; ++i) {
        diag[i] += rho;
        diag[i + 1] += 4.0 * rho;
        diag[i + 2] += rho;
      }
      if (use_period) {
        for (std::size_t i = 0; i + period < t; ++i) {
          diag[i] += rho;
          diag[i + period] += rho;
        }
      }
      r_next = r;  // Warm start from the previous iterate.
      linalg::PcgOptions pcg_opts;
      pcg_opts.max_iterations = 4 * t;
      RS_RETURN_NOT_OK(linalg::SolvePcg(op, diag, rhs, pcg_opts, &r_next));
    }
    Clamp(&r_next, options.r_clamp, pool);

    // ---- y-update (line 3): soft-threshold prox of β1‖·‖₁. ----
    Vec d2r;
    linalg::ApplyD2(r_next, &d2r);
    Vec y_next(d2r.size());
    {
      const double inv_rho_beta1 = config.beta1 / rho;
      const double* pd = d2r.data();
      const double* pn = nu_y.data();
      double* py = y_next.data();
      common::ParallelForChunks(
          pool, d2r.size(), kAdmmChunk,
          [rho, inv_rho_beta1, pd, pn, py](std::size_t, std::size_t b,
                                           std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
              py[i] = stats::SoftThreshold(pd[i] - pn[i] / rho, inv_rho_beta1);
            }
          });
    }

    // ---- z-update (line 4): closed-form ridge shrink. ----
    Vec dlr, z_next;
    if (use_period) {
      linalg::ApplyDL(r_next, period, &dlr);
      z_next.resize(dlr.size());
      const double shrink = config.beta2 + rho;
      const double* pd = dlr.data();
      const double* pn = nu_z.data();
      double* pz = z_next.data();
      common::ParallelForChunks(
          pool, dlr.size(), kAdmmChunk,
          [rho, shrink, pd, pn, pz](std::size_t, std::size_t b,
                                    std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
              pz[i] = (rho * pd[i] - pn[i]) / shrink;
            }
          });
    }

    // ---- dual updates (lines 5–6). ----
    double primal_sq =
        ChunkedSum(pool, y_next.size(), &partials,
                   [&y_next, &d2r, &nu_y, rho](std::size_t i) {
                     const double gap = y_next[i] - d2r[i];
                     nu_y[i] += rho * gap;
                     return gap * gap;
                   });
    if (use_period) {
      primal_sq +=
          ChunkedSum(pool, z_next.size(), &partials,
                     [&z_next, &dlr, &nu_z, rho](std::size_t i) {
                       const double gap = z_next[i] - dlr[i];
                       nu_z[i] += rho * gap;
                       return gap * gap;
                     });
    }

    // Dual residual: ρ‖(y_{k+1}−y_k, z_{k+1}−z_k)‖ (standard ADMM criterion).
    double dual_sq = ChunkedSum(pool, y_next.size(), &partials,
                                [&y_next, &y](std::size_t i) {
                                  const double dy = y_next[i] - y[i];
                                  return dy * dy;
                                });
    if (use_period) {
      dual_sq += ChunkedSum(pool, z_next.size(), &partials,
                            [&z_next, &z](std::size_t i) {
                              const double dz = z_next[i] - z[i];
                              return dz * dz;
                            });
    }

    // Scales of the stopping rule (Boyd et al. 2011, §3.3.1): ‖[D2r; DLr]‖,
    // ‖[y; z]‖ for the primal side, ‖D2ᵀν_y + DLᵀν_z‖ for the dual side.
    const auto sum_sq = [pool, &partials](const Vec& v) {
      return ChunkedSum(pool, v.size(), &partials,
                        [&v](std::size_t i) { return v[i] * v[i]; });
    };
    double dr_sq = sum_sq(d2r);
    double yz_sq = sum_sq(y_next);
    linalg::ApplyD2Transpose(nu_y, t, &tmp);
    if (use_period) {
      dr_sq += sum_sq(dlr);
      yz_sq += sum_sq(z_next);
      linalg::ApplyDLTranspose(nu_z, t, period, &tmp2);
      for (std::size_t i = 0; i < t; ++i) tmp[i] += tmp2[i];
    }
    const double dual_scale = std::sqrt(sum_sq(tmp));
    const double primal_scale = std::sqrt(std::max(dr_sq, yz_sq));

    // The r-update is one Newton step, so stationarity also fails by the
    // Taylor model's error ∇f(r_{k+1}) − ∇f(r_k) − diag(w_k)(r_{k+1} − r_k)
    // = w_{k+1} − w_k − w_k ⊙ Δr. The split residuals cannot see it along
    // the null space of [D2; DL] (the intensity level), so it joins the
    // dual residual. w_{k+1} is the next iteration's Hessian weight.
    const double model_sq = ChunkedSum(
        pool, t, &partials, [dt, &r, &r_next, &w, &w_next](std::size_t i) {
          w_next[i] = dt * std::exp(r_next[i]);
          const double gap = w_next[i] - w[i] - w[i] * (r_next[i] - r[i]);
          return gap * gap;
        });

    r = r_next;
    w.swap(w_next);
    y = std::move(y_next);
    if (use_period) z = std::move(z_next);

    local_info.iterations = iter + 1;
    local_info.primal_residual = std::sqrt(primal_sq);
    const double split_dual = rho * std::sqrt(dual_sq);
    local_info.dual_residual = std::sqrt(split_dual * split_dual + model_sq);
    local_info.primal_epsilon = sqrt_p * options.abs_tolerance +
                                options.rel_tolerance * primal_scale;
    local_info.dual_epsilon =
        sqrt_t * options.abs_tolerance + options.rel_tolerance * dual_scale;
    if (local_info.primal_residual <= local_info.primal_epsilon &&
        local_info.dual_residual <= local_info.dual_epsilon) {
      local_info.converged = true;
      break;
    }

    // Residual balancing on the split residuals relative to their scales
    // (ρ does not act on the Taylor-model term). ν is unscaled, so a new ρ
    // needs no dual rescale; the r-system is rebuilt every iteration anyway.
    constexpr double kTiny = std::numeric_limits<double>::min();
    const double rel_primal =
        local_info.primal_residual / std::max(primal_scale, kTiny);
    const double rel_dual = split_dual / std::max(dual_scale, kTiny);
    if (rel_primal > kBalanceMu * rel_dual) {
      rho *= kBalanceTau;
    } else if (rel_dual > kBalanceMu * rel_primal) {
      rho /= kBalanceTau;
    }
  }
  local_info.rho = rho;
  if (info != nullptr) *info = local_info;

  NhppConfig fitted_config = config;
  fitted_config.period = period;
  return NhppModel(fitted_config, std::move(r));
}

}  // namespace rs::core
