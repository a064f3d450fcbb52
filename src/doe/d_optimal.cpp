#include "doe/d_optimal.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "numeric/decomp.hpp"

namespace ehdse::doe {

namespace {

/// How far (in log det) below the best screened gain a swap may lie and
/// still get an exact log det. Near the top of a pass, screened and exact
/// gains differ by rounding only (under 2e-12 across the reference test's
/// designs, 2e-14 on the paper's grid), so the margin is six orders wider
/// than the error it covers.
constexpr double k_screen_margin = 1e-6;

/// log det(X'X) from basis rows gathered by `selected`; -inf when singular.
double log_det_of(const numeric::matrix& basis_rows,
                  const std::vector<std::size_t>& selected) {
    numeric::matrix x;
    for (std::size_t idx : selected) x.append_row(basis_rows.row(idx));
    const numeric::lu_decomposition lu(x.gram());
    const auto [log_abs, sign] = lu.log_abs_determinant();
    // X'X is positive semi-definite: a negative-sign determinant can only
    // come from round-off on a singular matrix.
    return sign > 0 ? log_abs : -std::numeric_limits<double>::infinity();
}

/// Greedy regularised construction used when random starts keep landing on
/// singular subsets: add, one at a time, the candidate maximising the
/// ridge-regularised determinant.
std::vector<std::size_t> greedy_start(const numeric::matrix& basis_rows,
                                      std::size_t n_runs, numeric::rng& rng) {
    const std::size_t m = basis_rows.rows();
    const std::size_t p = basis_rows.cols();
    numeric::matrix info(p, p, 0.0);
    for (std::size_t i = 0; i < p; ++i) info.at_unchecked(i, i) = 1e-8;

    std::vector<std::size_t> selection;
    selection.reserve(n_runs);
    for (std::size_t step = 0; step < n_runs; ++step) {
        double best = -std::numeric_limits<double>::infinity();
        std::size_t best_j = rng.uniform_index(m);
        for (std::size_t j = 0; j < m; ++j) {
            numeric::matrix trial = info;
            const auto row = basis_rows.row(j);
            for (std::size_t a = 0; a < p; ++a)
                for (std::size_t b = 0; b < p; ++b)
                    trial.at_unchecked(a, b) += row[a] * row[b];
            const auto [log_abs, sign] = numeric::lu_decomposition(trial).log_abs_determinant();
            const double value = sign > 0 ? log_abs : best;
            if (value > best) {
                best = value;
                best_j = j;
            }
        }
        selection.push_back(best_j);
        const auto row = basis_rows.row(best_j);
        for (std::size_t a = 0; a < p; ++a)
            for (std::size_t b = 0; b < p; ++b)
                info.at_unchecked(a, b) += row[a] * row[b];
    }
    return selection;
}

/// Fedorov's screen of one exchange pass: for every (selected run i,
/// candidate j) swap, log of the determinant ratio
///   det(M - x_i x_i' + x_j x_j') / det(M) = (1 + d_j)(1 - d_i) + d_ij^2,
/// with M = X'X of the current selection, d_ij = x_i' M^-1 x_j and
/// d_j = d_jj, all from one LU of M.
struct swap_screen {
    numeric::matrix gain;  ///< runs x candidates; all NaN when M is singular
    /// Largest finite gain of a real swap (j not run i's own candidate).
    double best = -std::numeric_limits<double>::infinity();
};

swap_screen screen_swaps(const numeric::matrix& basis_rows,
                         const std::vector<std::size_t>& selected) {
    const std::size_t m = basis_rows.rows();
    swap_screen out{numeric::matrix(selected.size(), m,
                                    std::numeric_limits<double>::quiet_NaN())};
    numeric::matrix x;
    for (std::size_t idx : selected) x.append_row(basis_rows.row(idx));
    const numeric::lu_decomposition lu(x.gram());
    if (lu.singular()) return out;
    // Column j of w is M^-1 x_j.
    const numeric::matrix w = lu.solve(basis_rows.transposed());
    const auto d = [&](std::size_t a, std::size_t j) {
        double acc = 0.0;
        for (std::size_t c = 0; c < w.rows(); ++c)
            acc += basis_rows.at_unchecked(a, c) * w.at_unchecked(c, j);
        return acc;
    };
    std::vector<double> leverage(m);
    for (std::size_t j = 0; j < m; ++j) leverage[j] = d(j, j);
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const std::size_t s = selected[i];
        for (std::size_t j = 0; j < m; ++j) {
            const double d_ij = d(s, j);
            const double ratio = (1.0 + leverage[j]) * (1.0 - leverage[s]) + d_ij * d_ij;
            // A ratio of Gram determinants is never negative: a rounding-
            // negative one is a singular swap (-inf). NaN stays NaN.
            const double g = std::log(std::max(ratio, 0.0));
            out.gain.at_unchecked(i, j) = g;
            if (j != s && std::isfinite(g)) out.best = std::max(out.best, g);
        }
    }
    return out;
}

}  // namespace

d_optimal_result d_optimal_design(const std::vector<numeric::vec>& candidates,
                                  const basis_fn& basis, std::size_t n_runs,
                                  const d_optimal_options& options) {
    if (candidates.empty())
        throw std::invalid_argument("d_optimal_design: empty candidate set");
    if (n_runs > candidates.size())
        throw std::invalid_argument("d_optimal_design: more runs than candidates");

    numeric::matrix basis_rows;
    for (const auto& c : candidates) basis_rows.append_row(basis(c));
    const std::size_t p = basis_rows.cols();
    const std::size_t m = basis_rows.rows();
    if (n_runs < p)
        throw std::invalid_argument(
            "d_optimal_design: need at least " + std::to_string(p) +
            " runs to estimate a " + std::to_string(p) + "-term model");

    numeric::rng rng(options.seed);
    d_optimal_result best;
    best.log_det = -std::numeric_limits<double>::infinity();

    for (std::size_t restart = 0; restart < options.restarts; ++restart) {
        ++best.restarts_used;

        // Non-singular random start, with a greedy fallback.
        std::vector<std::size_t> selection;
        double current = -std::numeric_limits<double>::infinity();
        for (int attempt = 0; attempt < 100 && !std::isfinite(current); ++attempt) {
            const auto perm = rng.permutation(m);
            selection.assign(perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(n_runs));
            current = log_det_of(basis_rows, selection);
        }
        if (!std::isfinite(current)) {
            selection = greedy_start(basis_rows, n_runs, rng);
            current = log_det_of(basis_rows, selection);
            if (!std::isfinite(current)) continue;  // candidate set too poor
        }

        // Fedorov exchange: steepest-ascent swaps until no improvement.
        // The screen ranks every swap; only swaps within k_screen_margin
        // of the best screened gain (or of the acceptance threshold, when
        // nothing screens above it) get an exact log det, and only exact
        // values decide. A NaN screen value is never below the bar.
        for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
            const swap_screen screen = screen_swaps(basis_rows, selection);
            double best_gain = 1e-10;
            const double bar = std::max(screen.best, best_gain) - k_screen_margin;
            std::size_t best_i = 0, best_j = 0;
            for (std::size_t i = 0; i < n_runs; ++i) {
                const std::size_t old = selection[i];
                for (std::size_t j = 0; j < m; ++j) {
                    if (j == old || screen.gain.at_unchecked(i, j) < bar) continue;
                    selection[i] = j;
                    const double trial = log_det_of(basis_rows, selection);
                    if (trial - current > best_gain) {
                        best_gain = trial - current;
                        best_i = i;
                        best_j = j;
                    }
                }
                selection[i] = old;
            }
            if (best_gain <= 1e-10) break;
            selection[best_i] = best_j;
            current += best_gain;
            ++best.exchanges;
        }

        if (current > best.log_det) {
            best.log_det = current;
            best.selected = selection;
        }
    }

    if (!std::isfinite(best.log_det))
        throw std::domain_error(
            "d_optimal_design: no non-singular design found — candidate set "
            "cannot support the requested model");
    std::sort(best.selected.begin(), best.selected.end());
    return best;
}

double selection_log_det(const std::vector<numeric::vec>& candidates,
                         const basis_fn& basis,
                         const std::vector<std::size_t>& selected) {
    numeric::matrix basis_rows;
    for (const auto& c : candidates) basis_rows.append_row(basis(c));
    for (std::size_t idx : selected)
        if (idx >= candidates.size())
            throw std::out_of_range("selection_log_det: index outside candidate set");
    return log_det_of(basis_rows, selected);
}

double relative_d_efficiency(double log_det_a, std::size_t runs_a,
                             double log_det_b, std::size_t runs_b,
                             std::size_t term_count) {
    if (term_count == 0)
        throw std::invalid_argument("relative_d_efficiency: term_count must be > 0");
    const auto p = static_cast<double>(term_count);
    // Compare per-run information matrices M = X'X / n.
    const double log_ma = log_det_a - p * std::log(static_cast<double>(runs_a));
    const double log_mb = log_det_b - p * std::log(static_cast<double>(runs_b));
    return std::exp((log_ma - log_mb) / p);
}

}  // namespace ehdse::doe
