// Quadratic RSM: basis layout, exact recovery of synthetic surfaces,
// gradient, diagnostics, and the paper's own eq. 9 as a round-trip case.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "doe/designs.hpp"
#include "numeric/rng.hpp"
#include "rsm/quadratic_model.hpp"

namespace er = ehdse::rsm;
namespace en = ehdse::numeric;

TEST(QuadraticBasis, TermCountFormula) {
    EXPECT_EQ(er::quadratic_term_count(1), 3u);
    EXPECT_EQ(er::quadratic_term_count(2), 6u);
    EXPECT_EQ(er::quadratic_term_count(3), 10u);  // the paper's case
    EXPECT_EQ(er::quadratic_term_count(4), 15u);
}

TEST(QuadraticBasis, LayoutForTwoVariables) {
    const en::vec b = er::quadratic_basis({2.0, 3.0});
    ASSERT_EQ(b.size(), 6u);
    EXPECT_DOUBLE_EQ(b[0], 1.0);   // intercept
    EXPECT_DOUBLE_EQ(b[1], 2.0);   // x1
    EXPECT_DOUBLE_EQ(b[2], 3.0);   // x2
    EXPECT_DOUBLE_EQ(b[3], 4.0);   // x1^2
    EXPECT_DOUBLE_EQ(b[4], 9.0);   // x2^2
    EXPECT_DOUBLE_EQ(b[5], 6.0);   // x1*x2
}

TEST(QuadraticBasis, TermNames) {
    EXPECT_EQ(er::quadratic_term_name(3, 0), "1");
    EXPECT_EQ(er::quadratic_term_name(3, 2), "x2");
    EXPECT_EQ(er::quadratic_term_name(3, 4), "x1^2");
    EXPECT_EQ(er::quadratic_term_name(3, 7), "x1*x2");
    EXPECT_EQ(er::quadratic_term_name(3, 9), "x2*x3");
    EXPECT_THROW(er::quadratic_term_name(3, 10), std::out_of_range);
}

TEST(QuadraticModel, AccessorsMatchLayout) {
    // k = 2: beta = [b0, b1, b2, b11, b22, b12]
    er::quadratic_model m(2, {10.0, 1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_DOUBLE_EQ(m.intercept(), 10.0);
    EXPECT_DOUBLE_EQ(m.linear(0), 1.0);
    EXPECT_DOUBLE_EQ(m.linear(1), 2.0);
    EXPECT_DOUBLE_EQ(m.quadratic(0), 3.0);
    EXPECT_DOUBLE_EQ(m.quadratic(1), 4.0);
    EXPECT_DOUBLE_EQ(m.interaction(0, 1), 5.0);
    EXPECT_DOUBLE_EQ(m.interaction(1, 0), 5.0);  // symmetric access
    EXPECT_THROW(m.interaction(0, 0), std::out_of_range);
    EXPECT_THROW(er::quadratic_model(2, {1.0, 2.0}), std::invalid_argument);
}

TEST(QuadraticModel, GradientMatchesFiniteDifference) {
    er::quadratic_model m(3, {4.0, 1.0, -2.0, 0.5, 3.0, -1.0, 2.0, 0.7, -0.3, 1.1});
    const en::vec x{0.3, -0.6, 0.9};
    const en::vec g = m.gradient(x);
    const double h = 1e-7;
    for (std::size_t i = 0; i < 3; ++i) {
        en::vec xp = x, xm = x;
        xp[i] += h;
        xm[i] -= h;
        const double fd = (m.predict(xp) - m.predict(xm)) / (2.0 * h);
        EXPECT_NEAR(g[i], fd, 1e-6);
    }
}

TEST(QuadraticModel, PredictEqualsDotOfBasis) {
    // predict() sums the basis terms without building the basis vector; it
    // must give numeric::dot(beta, quadratic_basis(x))'s bits, signed zeros
    // included, for random points and every point with coordinates ±0, ±1.
    en::rng rng(23);
    for (std::size_t k = 1; k <= 5; ++k) {
        const std::size_t p = er::quadratic_term_count(k);
        std::vector<en::vec> betas = {en::vec(p, 0.0), en::vec(p, -0.0)};
        for (int b = 0; b < 4; ++b) {
            en::vec beta(p);
            for (double& v : beta) v = rng.uniform(-500.0, 500.0);
            betas.push_back(beta);
        }
        std::vector<en::vec> points;
        const double corners[] = {0.0, -0.0, 1.0, -1.0};
        std::size_t combos = 1;
        for (std::size_t i = 0; i < k; ++i) combos *= 4;
        for (std::size_t c = 0; c < combos; ++c) {
            en::vec x(k);
            for (std::size_t i = 0, rest = c; i < k; ++i, rest /= 4)
                x[i] = corners[rest % 4];
            points.push_back(x);
        }
        for (int n = 0; n < 64; ++n) {
            en::vec x(k);
            for (double& v : x) v = rng.uniform(-1.0, 1.0);
            points.push_back(x);
        }
        for (const en::vec& beta : betas) {
            const er::quadratic_model m(k, beta);
            for (const en::vec& x : points)
                ASSERT_EQ(std::bit_cast<std::uint64_t>(m.predict(x)),
                          std::bit_cast<std::uint64_t>(
                              en::dot(beta, er::quadratic_basis(x))))
                    << "k = " << k;
        }
    }
}

TEST(FitQuadratic, ExactRecoveryOnFullFactorial) {
    // Synthesize y from a known quadratic; the fit must recover it exactly.
    const en::vec truth{484.02, -121.79, -16.77, -208.43, 120.98,
                        106.69, -69.75,  -34.23, -121.79, 32.54};  // paper eq. 9
    er::quadratic_model true_model(3, truth);

    const auto points = ehdse::doe::full_factorial(3, 3);
    en::vec y;
    for (const auto& p : points) y.push_back(true_model.predict(p));

    const auto fit = er::fit_quadratic(points, y);
    for (std::size_t t = 0; t < truth.size(); ++t)
        EXPECT_NEAR(fit.model.coefficients()[t], truth[t], 1e-8)
            << er::quadratic_term_name(3, t);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
    EXPECT_LT(fit.sse, 1e-12);
}

TEST(FitQuadratic, NoisyFitStillCloseAndDiagnosticsSane) {
    const en::vec truth{10.0, 2.0, -3.0, 1.0, 0.5, -0.7};
    er::quadratic_model true_model(2, truth);
    const auto points = ehdse::doe::full_factorial(2, 5);  // 25 runs
    en::rng rng(7);
    en::vec y;
    for (const auto& p : points)
        y.push_back(true_model.predict(p) + rng.normal(0.0, 0.05));

    const auto fit = er::fit_quadratic(points, y);
    for (std::size_t t = 0; t < truth.size(); ++t)
        EXPECT_NEAR(fit.model.coefficients()[t], truth[t], 0.15);
    EXPECT_GT(fit.r_squared, 0.99);
    EXPECT_LE(fit.adj_r_squared, fit.r_squared + 1e-12);
    EXPECT_TRUE(std::isfinite(fit.press_rmse));
    EXPECT_GT(fit.press_rmse, 0.0);
}

TEST(FitQuadratic, SaturatedDesignInterpolatesWithInfinitePress) {
    // n == p: exact interpolation, PRESS undefined (reported as +inf).
    // (A hand-picked 6-point subset: corners + two axial points — full rank
    // for the 6-term quadratic, unlike an arbitrary factorial slice.)
    const std::vector<en::vec> pts{{-1, -1}, {1, -1}, {-1, 1},
                                   {1, 1},   {0, -1}, {1, 0}};
    const en::vec y{1.0, 2.0, 0.5, -1.0, 3.0, 2.2};
    const auto fit = er::fit_quadratic(pts, y);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
    EXPECT_LT(fit.sse, 1e-18);
    EXPECT_TRUE(std::isinf(fit.press));
}

TEST(FitQuadratic, ErrorsOnBadInput) {
    const auto points = ehdse::doe::full_factorial(2, 3);
    en::vec y(points.size(), 1.0);
    y.pop_back();
    EXPECT_THROW(er::fit_quadratic(points, y), std::invalid_argument);

    // Too few runs for the term count.
    std::vector<en::vec> few(points.begin(), points.begin() + 4);
    EXPECT_THROW(er::fit_quadratic(few, en::vec(4, 1.0)), std::invalid_argument);

    // Degenerate design (all points identical) is rank-deficient.
    std::vector<en::vec> degen(6, en::vec{0.5, 0.5});
    EXPECT_THROW(er::fit_quadratic(degen, en::vec(6, 1.0)), std::domain_error);
}

TEST(FitQuadratic, ToStringMentionsEveryTerm) {
    const en::vec truth{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
    er::quadratic_model m(2, truth);
    const std::string s = m.to_string();
    for (const char* term : {"x1", "x2", "x1^2", "x2^2", "x1*x2"})
        EXPECT_NE(s.find(term), std::string::npos) << term;
}

// Exact-recovery property across dimensions.
class RecoveryAcrossDims : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryAcrossDims, FullFactorialRecoversRandomQuadratic) {
    const std::size_t k = static_cast<std::size_t>(GetParam());
    en::rng rng(1000 + k);
    en::vec truth(er::quadratic_term_count(k));
    for (double& b : truth) b = rng.uniform(-5.0, 5.0);
    er::quadratic_model true_model(k, truth);

    const auto points = ehdse::doe::full_factorial(k, 3);
    en::vec y;
    for (const auto& p : points) y.push_back(true_model.predict(p));

    const auto fit = er::fit_quadratic(points, y);
    for (std::size_t t = 0; t < truth.size(); ++t)
        EXPECT_NEAR(fit.model.coefficients()[t], truth[t], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Dims, RecoveryAcrossDims, ::testing::Values(1, 2, 3, 4));
