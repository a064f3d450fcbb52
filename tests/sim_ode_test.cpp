// Integrator accuracy against closed forms, across tolerance sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "sim/ode.hpp"

namespace es = ehdse::sim;

namespace {

/// dx/dt = -k x, solution x(t) = x0 exp(-k t).
struct exp_decay final : es::analog_system {
    explicit exp_decay(double rate) : k(rate) {}
    std::size_t state_size() const override { return 1; }
    void derivatives(double, std::span<const double> x,
                     std::span<double> dxdt) const override {
        dxdt[0] = -k * x[0];
    }
    double k;
};

/// Harmonic oscillator x'' = -w^2 x as a 2-state system.
struct oscillator final : es::analog_system {
    explicit oscillator(double omega) : w(omega) {}
    std::size_t state_size() const override { return 2; }
    void derivatives(double, std::span<const double> x,
                     std::span<double> dxdt) const override {
        dxdt[0] = x[1];
        dxdt[1] = -w * w * x[0];
    }
    double w;
};

}  // namespace

TEST(Rk45, ExponentialDecayWithinTolerance) {
    const exp_decay sys(1.0);
    es::ode_options opt;
    opt.abs_tol = 1e-10;
    opt.rel_tol = 1e-8;
    es::rk45_integrator integ(opt);
    std::vector<double> x{1.0};
    const auto status = integ.integrate(sys, 0.0, 5.0, x);
    EXPECT_TRUE(status.ok);
    EXPECT_NEAR(x[0], std::exp(-5.0), 1e-7);
}

TEST(Rk45, OscillatorEnergyConserved) {
    const double w = 2.0 * std::numbers::pi;
    const oscillator sys(w);
    es::ode_options opt;
    opt.abs_tol = 1e-11;
    opt.rel_tol = 1e-9;
    es::rk45_integrator integ(opt);
    std::vector<double> x{1.0, 0.0};
    ASSERT_TRUE(integ.integrate(sys, 0.0, 10.0, x).ok);
    const double energy = w * w * x[0] * x[0] + x[1] * x[1];
    EXPECT_NEAR(energy, w * w, w * w * 1e-6);
}

TEST(Rk45, ObserverSeesMonotoneTime) {
    const exp_decay sys(1.0);
    es::rk45_integrator integ;
    std::vector<double> x{1.0};
    double last_t = 0.0;
    std::size_t calls = 0;
    ASSERT_TRUE(integ
                    .integrate(sys, 0.0, 1.0, x,
                               [&](double t, std::span<const double>) {
                                   EXPECT_GT(t, last_t);
                                   last_t = t;
                                   ++calls;
                               })
                    .ok);
    EXPECT_GT(calls, 0u);
    EXPECT_DOUBLE_EQ(last_t, 1.0);
}

TEST(Rk45, SegmentedIntegrationMatchesSingleSegment) {
    const exp_decay sys(1.5);
    es::rk45_integrator a, b;
    std::vector<double> xa{2.0}, xb{2.0};
    ASSERT_TRUE(a.integrate(sys, 0.0, 2.0, xa).ok);
    // Same span in many small segments, as the event-driven kernel does.
    double t = 0.0;
    while (t < 2.0) {
        const double t_next = std::min(t + 0.05, 2.0);
        ASSERT_TRUE(b.integrate(sys, t, t_next, xb).ok);
        t = t_next;
    }
    EXPECT_NEAR(xa[0], xb[0], 1e-7);
}

TEST(Rk45, RejectsBackwardSpanAndBadState) {
    const exp_decay sys(1.0);
    es::rk45_integrator integ;
    std::vector<double> x{1.0};
    EXPECT_THROW(integ.integrate(sys, 1.0, 0.0, x), std::invalid_argument);
    std::vector<double> wrong{1.0, 2.0};
    EXPECT_THROW(integ.integrate(sys, 0.0, 1.0, wrong), std::invalid_argument);
}

TEST(Rk45, MaxDtHonoured) {
    const exp_decay sys(0.01);  // nearly constant: steps would grow huge
    es::ode_options opt;
    opt.max_dt = 0.125;
    es::rk45_integrator integ(opt);
    std::vector<double> x{1.0};
    const auto status = integ.integrate(sys, 0.0, 10.0, x);
    EXPECT_TRUE(status.ok);
    EXPECT_GE(status.steps_taken, static_cast<std::size_t>(10.0 / 0.125));
}

// ---------------------------------------------------------------------------
// Tolerance sweep: tighter tolerances must give monotonically better accuracy.

class Rk45ToleranceSweep : public ::testing::TestWithParam<double> {};

TEST_P(Rk45ToleranceSweep, DecayErrorBoundedByTolerance) {
    const double tol = GetParam();
    const exp_decay sys(1.0);
    es::ode_options opt;
    opt.abs_tol = tol;
    opt.rel_tol = tol;
    es::rk45_integrator integ(opt);
    std::vector<double> x{1.0};
    ASSERT_TRUE(integ.integrate(sys, 0.0, 3.0, x).ok);
    // Global error is bounded by a modest multiple of the per-step tolerance.
    EXPECT_NEAR(x[0], std::exp(-3.0), 1e4 * tol + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Tolerances, Rk45ToleranceSweep,
                         ::testing::Values(1e-4, 1e-6, 1e-8, 1e-10));
