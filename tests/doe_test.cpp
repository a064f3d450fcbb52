// Designs of experiments: classical constructions and D-optimal selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "doe/d_optimal.hpp"
#include "doe/designs.hpp"
#include "numeric/decomp.hpp"
#include "numeric/rng.hpp"
#include "rsm/quadratic_model.hpp"

namespace ed = ehdse::doe;
namespace en = ehdse::numeric;

namespace {
en::vec quad_basis(const en::vec& x) { return ehdse::rsm::quadratic_basis(x); }

// The exhaustive Fedorov exchange: every swap of every pass gets an exact
// log det. Reference for the screened exchange in d_optimal.cpp, which
// must reproduce it bit for bit.
namespace reference {

double log_det_of(const en::matrix& basis_rows,
                  const std::vector<std::size_t>& selected) {
    en::matrix x;
    for (std::size_t idx : selected) x.append_row(basis_rows.row(idx));
    const en::lu_decomposition lu(x.gram());
    const auto [log_abs, sign] = lu.log_abs_determinant();
    return sign > 0 ? log_abs : -std::numeric_limits<double>::infinity();
}

std::vector<std::size_t> greedy_start(const en::matrix& basis_rows,
                                      std::size_t n_runs, en::rng& rng) {
    const std::size_t m = basis_rows.rows();
    const std::size_t p = basis_rows.cols();
    en::matrix info(p, p, 0.0);
    for (std::size_t i = 0; i < p; ++i) info.at_unchecked(i, i) = 1e-8;

    std::vector<std::size_t> selection;
    for (std::size_t step = 0; step < n_runs; ++step) {
        double best = -std::numeric_limits<double>::infinity();
        std::size_t best_j = rng.uniform_index(m);
        for (std::size_t j = 0; j < m; ++j) {
            en::matrix trial = info;
            const auto row = basis_rows.row(j);
            for (std::size_t a = 0; a < p; ++a)
                for (std::size_t b = 0; b < p; ++b)
                    trial.at_unchecked(a, b) += row[a] * row[b];
            const auto [log_abs, sign] = en::lu_decomposition(trial).log_abs_determinant();
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

/// Same contract as ed::d_optimal_design, minus argument checks; throws
/// std::domain_error when no start is non-singular.
ed::d_optimal_result exhaustive_d_optimal(const std::vector<en::vec>& candidates,
                                          std::size_t n_runs,
                                          const ed::d_optimal_options& options) {
    en::matrix basis_rows;
    for (const auto& c : candidates) basis_rows.append_row(quad_basis(c));
    const std::size_t m = basis_rows.rows();

    en::rng rng(options.seed);
    ed::d_optimal_result best;
    best.log_det = -std::numeric_limits<double>::infinity();
    for (std::size_t restart = 0; restart < options.restarts; ++restart) {
        ++best.restarts_used;
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
            if (!std::isfinite(current)) continue;
        }
        for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
            double best_gain = 1e-10;
            std::size_t best_i = 0, best_j = 0;
            for (std::size_t i = 0; i < n_runs; ++i) {
                const std::size_t old = selection[i];
                for (std::size_t j = 0; j < m; ++j) {
                    if (j == old) continue;
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
        throw std::domain_error("exhaustive_d_optimal: no non-singular design");
    std::sort(best.selected.begin(), best.selected.end());
    return best;
}

}  // namespace reference
}  // namespace

TEST(Designs, FullFactorialCountsAndLevels) {
    const auto pts = ed::full_factorial(3, 3);
    EXPECT_EQ(pts.size(), 27u);  // the paper's 3^3 candidate set
    std::set<double> levels;
    for (const auto& p : pts)
        for (double v : p) levels.insert(v);
    EXPECT_EQ(levels, (std::set<double>{-1.0, 0.0, 1.0}));

    // All points distinct.
    std::set<std::vector<double>> uniq(pts.begin(), pts.end());
    EXPECT_EQ(uniq.size(), 27u);
}

TEST(Designs, FullFactorialValidation) {
    EXPECT_THROW(ed::full_factorial(0, 3), std::invalid_argument);
    EXPECT_THROW(ed::full_factorial(3, 1), std::invalid_argument);
    EXPECT_THROW(ed::full_factorial(30, 3), std::invalid_argument);  // too large
}

TEST(Designs, FactorialCornersAreCubeVertices) {
    const auto pts = ed::factorial_corners(3);
    EXPECT_EQ(pts.size(), 8u);
    for (const auto& p : pts)
        for (double v : p) EXPECT_EQ(std::abs(v), 1.0);
}

TEST(Designs, CentralCompositeStructure) {
    const auto pts = ed::central_composite(3, 1.0, 2);
    // 8 corners + 6 axial + 2 centre.
    EXPECT_EQ(pts.size(), 16u);
    const auto axial_count = std::count_if(pts.begin(), pts.end(), [](const en::vec& p) {
        int nonzero = 0;
        for (double v : p)
            if (v != 0.0) ++nonzero;
        return nonzero == 1;
    });
    EXPECT_EQ(axial_count, 6);
    EXPECT_THROW(ed::central_composite(3, 0.0), std::invalid_argument);
}

TEST(Designs, BoxBehnkenStructure) {
    const auto pts = ed::box_behnken(3, 3);
    // 3 pairs * 4 sign combos + 3 centre = 15.
    EXPECT_EQ(pts.size(), 15u);
    for (std::size_t i = 0; i + 3 < pts.size(); ++i) {
        int nonzero = 0;
        for (double v : pts[i])
            if (v != 0.0) ++nonzero;
        EXPECT_EQ(nonzero, 2);  // edge midpoints
    }
    EXPECT_THROW(ed::box_behnken(2), std::invalid_argument);
}

TEST(DOptimal, PaperSelectionTenOfTwentySeven) {
    const auto candidates = ed::full_factorial(3, 3);
    const auto result = ed::d_optimal_design(candidates, quad_basis, 10);
    EXPECT_EQ(result.selected.size(), 10u);
    EXPECT_TRUE(std::isfinite(result.log_det));
    // Indices are valid and unique.
    std::set<std::size_t> uniq(result.selected.begin(), result.selected.end());
    EXPECT_EQ(uniq.size(), 10u);
    for (std::size_t idx : result.selected) EXPECT_LT(idx, 27u);
}

TEST(DOptimal, BeatsRandomSelections) {
    const auto candidates = ed::full_factorial(3, 3);
    const auto result = ed::d_optimal_design(candidates, quad_basis, 10);

    en::rng rng(21);
    int beaten = 0;
    constexpr int trials = 200;
    for (int t = 0; t < trials; ++t) {
        const auto perm = rng.permutation(candidates.size());
        const std::vector<std::size_t> sel(perm.begin(), perm.begin() + 10);
        const double ld = ed::selection_log_det(candidates, quad_basis, sel);
        if (result.log_det >= ld - 1e-9) ++beaten;
    }
    // The exchange optimum must dominate essentially every random subset.
    EXPECT_GE(beaten, trials - 1);
}

TEST(DOptimal, SelectionSupportsQuadraticFit) {
    const auto candidates = ed::full_factorial(3, 3);
    const auto result = ed::d_optimal_design(candidates, quad_basis, 10);
    std::vector<en::vec> pts;
    for (std::size_t idx : result.selected) pts.push_back(candidates[idx]);
    en::vec y(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
        y[i] = 1.0 + pts[i][0] - 2.0 * pts[i][2];
    EXPECT_NO_THROW(ehdse::rsm::fit_quadratic(pts, y));
}

TEST(DOptimal, DeterministicForFixedSeed) {
    const auto candidates = ed::full_factorial(3, 3);
    ed::d_optimal_options opt;
    opt.seed = 555;
    const auto a = ed::d_optimal_design(candidates, quad_basis, 10, opt);
    const auto b = ed::d_optimal_design(candidates, quad_basis, 10, opt);
    EXPECT_EQ(a.selected, b.selected);
    EXPECT_DOUBLE_EQ(a.log_det, b.log_det);
}

TEST(DOptimal, MoreRunsNeverHurtPerModelInformation) {
    const auto candidates = ed::full_factorial(2, 3);
    const auto small = ed::d_optimal_design(candidates, quad_basis, 6);
    const auto large = ed::d_optimal_design(candidates, quad_basis, 9);
    // Adding rows can only grow det(X'X).
    EXPECT_GE(large.log_det, small.log_det - 1e-9);
}

TEST(DOptimal, Validation) {
    const auto candidates = ed::full_factorial(2, 3);
    EXPECT_THROW(ed::d_optimal_design({}, quad_basis, 3), std::invalid_argument);
    EXPECT_THROW(ed::d_optimal_design(candidates, quad_basis, 100),
                 std::invalid_argument);
    EXPECT_THROW(ed::d_optimal_design(candidates, quad_basis, 5),
                 std::invalid_argument);  // below term count 6
    EXPECT_THROW(
        ed::selection_log_det(candidates, quad_basis, std::vector<std::size_t>{99}),
        std::out_of_range);
}

TEST(DOptimal, RelativeEfficiencyIdentities) {
    // A design compared with itself has efficiency 1.
    EXPECT_NEAR(ed::relative_d_efficiency(5.0, 10, 5.0, 10, 10), 1.0, 1e-12);
    // Doubling det at equal run counts: eff = 2^(1/p).
    EXPECT_NEAR(ed::relative_d_efficiency(std::log(2.0), 10, 0.0, 10, 10),
                std::pow(2.0, 0.1), 1e-12);
    EXPECT_THROW(ed::relative_d_efficiency(1.0, 10, 1.0, 10, 0),
                 std::invalid_argument);
}

TEST(DOptimal, FullFactorialSelectionMatchesItsOwnLogDet) {
    const auto candidates = ed::full_factorial(3, 3);
    std::vector<std::size_t> all(candidates.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    const double ld = ed::selection_log_det(candidates, quad_basis, all);
    EXPECT_TRUE(std::isfinite(ld));
    // 27 runs must carry more total information than the best 10-run subset.
    const auto best10 = ed::d_optimal_design(candidates, quad_basis, 10);
    EXPECT_GT(ld, best10.log_det);
}

TEST(DOptimal, DegenerateCandidateSetUsesGreedyFallback) {
    // A candidate set dominated by replicates of a single point: random
    // 6-subsets are nearly always singular for the 6-term quadratic, so the
    // exchange must fall back to greedy construction — and still succeed,
    // because exactly six linearly independent points exist.
    std::vector<en::vec> candidates(40, en::vec{0.5, 0.5});
    const std::vector<en::vec> support{{-1, -1}, {1, -1}, {-1, 1},
                                       {1, 1},   {0, -1}, {1, 0}};
    candidates.insert(candidates.end(), support.begin(), support.end());

    const auto result = ed::d_optimal_design(candidates, quad_basis, 6);
    EXPECT_TRUE(std::isfinite(result.log_det));
    // Every support point must be selected (they are the only full-rank set).
    std::set<std::size_t> sel(result.selected.begin(), result.selected.end());
    for (std::size_t i = 40; i < 46; ++i) EXPECT_TRUE(sel.count(i)) << i;
}

// The screened exchange scores swaps by Fedorov's closed form and takes an
// exact log det only near the best screened gain; it must choose exactly
// what the exhaustive exchange chooses. Grids exercise symmetric ties
// (many swaps with equal gain, first in loop order wins), continuous sets
// generic ones, and the replicate-heavy set the greedy fallback.
TEST(DOptimal, ScreenedExchangeMatchesExhaustiveExchange) {
    std::size_t cases = 0;
    const auto expect_match = [&](const std::vector<en::vec>& candidates,
                                  std::size_t n_runs,
                                  const ed::d_optimal_options& options,
                                  const std::string& label) {
        SCOPED_TRACE(label + " runs=" + std::to_string(n_runs) +
                     " seed=" + std::to_string(options.seed));
        ++cases;
        const auto expected =
            reference::exhaustive_d_optimal(candidates, n_runs, options);
        const auto actual = ed::d_optimal_design(candidates, quad_basis, n_runs, options);
        EXPECT_EQ(actual.selected, expected.selected);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.log_det),
                  std::bit_cast<std::uint64_t>(expected.log_det))
            << actual.log_det << " vs " << expected.log_det;
        EXPECT_EQ(actual.exchanges, expected.exchanges);
        EXPECT_EQ(actual.restarts_used, expected.restarts_used);
    };

    // The reference takes runs x candidates LUs per pass, so models with
    // p >= 15 terms (k >= 4) run one start and its first three passes.
    const auto options_for = [](std::size_t p, std::uint64_t seed) {
        ed::d_optimal_options options;
        options.seed = seed;
        options.restarts = p < 15 ? 2 : 1;
        if (p >= 15) options.max_passes = 3;
        return options;
    };

    // Full factorial grids: k = 2..4 factors, 3..4 levels, runs p..p+6.
    for (std::size_t k = 2; k <= 4; ++k) {
        const std::size_t p = (k + 1) * (k + 2) / 2;
        for (std::size_t levels = 3; levels <= 4; ++levels) {
            const auto grid = ed::full_factorial(k, levels);
            const std::size_t max_runs = std::min(p + 6, grid.size());
            for (std::size_t runs = p; runs <= max_runs; ++runs)
                for (std::uint64_t seed = 1; seed <= 8; ++seed)
                    expect_match(grid, runs,
                                 options_for(p, seed * 0x9e3779b97f4a7c15ULL + runs),
                                 "grid k=" + std::to_string(k) +
                                     " levels=" + std::to_string(levels));
        }
    }

    // Random continuous candidate sets: k = 2..5, 2p..3p candidates.
    en::rng draw(0xd0e);
    for (std::size_t k = 2; k <= 5; ++k) {
        const std::size_t p = (k + 1) * (k + 2) / 2;
        for (std::uint64_t seed = 1; seed <= 24; ++seed) {
            std::vector<en::vec> candidates(2 * p + draw.uniform_index(p + 1));
            for (auto& c : candidates) {
                c.resize(k);
                for (double& v : c) v = draw.uniform(-1.0, 1.0);
            }
            expect_match(candidates, p + draw.uniform_index(4), options_for(p, seed),
                         "continuous k=" + std::to_string(k));
        }
    }

    // Replicate-heavy set: random starts are singular, the greedy
    // construction seeds the exchange.
    std::vector<en::vec> degenerate(40, en::vec{0.5, 0.5});
    const std::vector<en::vec> support{{-1, -1}, {1, -1}, {-1, 1},
                                       {1, 1},   {0, -1}, {1, 0}};
    degenerate.insert(degenerate.end(), support.begin(), support.end());
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        ed::d_optimal_options options;
        options.seed = seed;
        expect_match(degenerate, 6, options, "degenerate");
    }

    EXPECT_EQ(cases, 416u);
}

TEST(DOptimal, ImpossibleModelThrows) {
    // All candidates identical: no design of any size supports the model.
    const std::vector<en::vec> candidates(20, en::vec{0.3, -0.3});
    EXPECT_THROW(ed::d_optimal_design(candidates, quad_basis, 6),
                 std::domain_error);
}

// Sweep: D-optimal selections of growing size are all fit-capable.
class DOptimalSizes : public ::testing::TestWithParam<int> {};

TEST_P(DOptimalSizes, SelectionNonSingular) {
    const auto candidates = ed::full_factorial(3, 3);
    const auto result = ed::d_optimal_design(
        candidates, quad_basis, static_cast<std::size_t>(GetParam()));
    EXPECT_TRUE(std::isfinite(result.log_det));
}

INSTANTIATE_TEST_SUITE_P(RunCounts, DOptimalSizes,
                         ::testing::Values(10, 12, 14, 18, 22, 27));
