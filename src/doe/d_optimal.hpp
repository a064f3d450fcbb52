// D-optimal experimental design by Fedorov exchange (paper section II-B,
// following Unal et al. [11]).
//
// Given a candidate set of coded points and a model basis, select n runs
// maximising det(X' X) — the determinant of the information matrix — so a
// quadratic model can be fitted from far fewer simulations than a full
// factorial (10 instead of 27 in the paper's 3-variable case).
//
// The exchange algorithm starts from a random non-singular n-subset and
// repeatedly performs the single (selected-point, candidate) swap with the
// best determinant gain until no swap improves; several random restarts
// guard against local optima. Determinants are evaluated in log space via
// LU to stay robust when the information matrix is ill-scaled.
//
// Screened exact exchange. Each pass does one LU of the current M = X'X
// and scores every swap (selected run i -> candidate j) by Fedorov's
// closed form, log Delta = log((1 + d_j)(1 - d_i) + d_ij^2) with
// d_ij = x_i' M^-1 x_j (Fedorov, Theory of Optimal Experiments, 1972).
// Only swaps whose screened gain lies within k_screen_margin (1e-6) of the
// best screened gain — or of the 1e-10 acceptance threshold, when nothing
// screens above it — get the exact log det of their own LU; a NaN screen
// value is always checked. Only exact values decide, in the exhaustive
// loop order with strict '>', so the pass picks the first swap reaching
// the largest exact gain. Every skipped swap screens more than the margin
// below that swap, and screened and exact gains differ by rounding only,
// so the selection, log det and exchange count are bitwise those of the
// exhaustive exchange (tests/doe_test.cpp keeps it as the reference).
#pragma once

#include <functional>
#include <vector>

#include "numeric/matrix.hpp"
#include "numeric/rng.hpp"

namespace ehdse::doe {

/// Expansion of a coded point into model basis terms (e.g.
/// rsm::quadratic_basis). Must return vectors of a fixed length p.
using basis_fn = std::function<numeric::vec(const numeric::vec&)>;

struct d_optimal_options {
    std::size_t restarts = 8;        ///< independent random starts
    std::size_t max_passes = 100;    ///< exchange passes per start
    std::uint64_t seed = 0xd0e5eedULL;
};

struct d_optimal_result {
    std::vector<std::size_t> selected;  ///< indices into the candidate set
    double log_det = 0.0;               ///< log det(X'X) of the selection
    std::size_t exchanges = 0;          ///< accepted swaps across all starts
    std::size_t restarts_used = 0;
};

/// Select `n_runs` candidates maximising det(X'X).
/// Requires n_runs >= basis dimension p and candidates.size() >= n_runs.
d_optimal_result d_optimal_design(const std::vector<numeric::vec>& candidates,
                                  const basis_fn& basis, std::size_t n_runs,
                                  const d_optimal_options& options = {});

/// log det(X'X) for an explicit selection (utility for tests/benches;
/// -inf when singular).
double selection_log_det(const std::vector<numeric::vec>& candidates,
                         const basis_fn& basis,
                         const std::vector<std::size_t>& selected);

/// D-efficiency of design A relative to design B (both with p-term basis):
/// (det_A / det_B)^(1/p) adjusted for run counts, the standard comparison
/// metric printed by bench_doe_comparison.
double relative_d_efficiency(double log_det_a, std::size_t runs_a,
                             double log_det_b, std::size_t runs_b,
                             std::size_t term_count);

}  // namespace ehdse::doe
