// Integrator accuracy against closed forms, across tolerance sweeps, and
// the exponential step (sim/cash_karp.hpp) on a stiff relaxation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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

/// A stiff relaxation z' = lambda (z_eq - z) driving V' = kappa z, state
/// (V, z). It names z as its stiff element and reports the column
/// (kappa, -lambda), or -reported_rate in z's entry when set, or no
/// element at all without `column`.
struct relaxation final : es::analog_system {
    double lambda = 10.0;
    double z_eq = 1e-3;
    double kappa = 2.0;
    bool column = true;
    double reported_rate = std::numeric_limits<double>::quiet_NaN();
    bool report_rate = false;

    std::size_t state_size() const override { return 2; }
    void derivatives(double, std::span<const double> x,
                     std::span<double> dxdt) const override {
        dxdt[0] = kappa * x[1];
        dxdt[1] = lambda * (z_eq - x[1]);
    }
    std::size_t stiff_element() const override {
        return column ? 1 : es::no_stiff_element;
    }
    void stiff_column(std::span<double> a) const override {
        a[0] = kappa;
        a[1] = -(report_rate ? reported_rate : lambda);
    }

    /// The exact state after time h from (v0, z0).
    std::vector<double> exact(double v0, double z0, double h) const {
        const double decay = std::exp(-lambda * h);
        return {v0 + kappa * (z_eq * h + (z0 - z_eq) * (1.0 - decay) / lambda),
                z_eq + (z0 - z_eq) * decay};
    }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

TEST(Rk45, PlainStepsMatchPinnedBits) {
    // A system without a stiff column takes the plain Cash–Karp steps:
    // these hex values, step and rejection counts were pinned from the
    // build before the exponential form existed.
    {
        const exp_decay sys(1.0);
        es::ode_options opt;
        opt.abs_tol = 1e-10;
        opt.rel_tol = 1e-8;
        es::rk45_integrator integ(opt);
        std::vector<double> x{1.0};
        const es::ode_status st = integ.integrate(sys, 0.0, 5.0, x);
        EXPECT_EQ(bits(x[0]), bits(0x1.b993fd774251ap-8));
        EXPECT_EQ(st.steps_taken, 45u);
        EXPECT_EQ(st.steps_rejected, 0u);
        EXPECT_EQ(bits(st.last_dt), bits(0x1.21c3fb74dfe94p-3));
    }
    {
        const oscillator sys(2.0 * std::numbers::pi);
        es::ode_options opt;
        opt.abs_tol = 1e-11;
        opt.rel_tol = 1e-9;
        es::rk45_integrator integ(opt);
        std::vector<double> x{1.0, 0.0};
        const es::ode_status st = integ.integrate(sys, 0.0, 10.0, x);
        EXPECT_EQ(bits(x[0]), bits(0x1.0000002f4241fp+0));
        EXPECT_EQ(bits(x[1]), bits(-0x1.1724798p-29));
        EXPECT_EQ(st.steps_taken, 1026u);
        EXPECT_EQ(st.steps_rejected, 54u);
    }
}

TEST(Rk45, ExponentialStepLandsOnTheClosedFormAtLambdaH50) {
    // Near equilibrium (|z0 - z_eq| = 5e-4 z_eq, so no cap) one step of
    // lambda h = 50 integrates the relaxation and its pull on V exactly.
    relaxation sys;
    es::ode_options opt;
    opt.initial_dt = 5.0;
    opt.max_dt = 5.0;
    const double z0 = sys.z_eq * (1.0 + 5e-4);
    std::vector<double> x{2.0, z0};
    es::rk45_integrator integ(opt);
    const es::ode_status st = integ.integrate(sys, 0.0, 5.0, x);
    ASSERT_TRUE(st.ok);
    EXPECT_EQ(st.steps_taken, 1u);
    EXPECT_EQ(st.steps_rejected, 0u);
    const std::vector<double> want = sys.exact(2.0, z0, 5.0);
    EXPECT_NEAR(x[0], want[0], 4e-16 * want[0]);
    EXPECT_NEAR(x[1], want[1], 4e-16 * want[1]);

    // The plain step at the same lambda h, accepted whatever its error,
    // is far outside Cash–Karp's stability region and diverges.
    sys.column = false;
    opt.abs_tol = opt.rel_tol = 1e300;
    std::vector<double> y{2.0, z0};
    es::rk45_integrator plain(opt);
    ASSERT_EQ(plain.integrate(sys, 0.0, 5.0, y).steps_taken, 1u);
    EXPECT_GT(std::abs(y[1] - sys.z_eq), 1e3 * std::abs(z0 - sys.z_eq));
}

TEST(Rk45, FarFromEquilibriumCapsLambdaH) {
    // Twice the equilibrium: the first step stops at lambda h = 3, and
    // the run still lands on the closed form.
    relaxation sys;
    es::ode_options opt;
    opt.initial_dt = 5.0;
    opt.max_dt = 5.0;
    opt.abs_tol = 1e-14;
    opt.rel_tol = 1e-10;
    std::vector<double> x{2.0, 2.0 * sys.z_eq};
    std::vector<double> times;
    es::rk45_integrator integ(opt);
    ASSERT_TRUE(integ
                    .integrate(sys, 0.0, 5.0, x,
                               [&](double t, std::span<const double>) {
                                   times.push_back(t);
                               })
                    .ok);
    ASSERT_FALSE(times.empty());
    EXPECT_EQ(times.front(), 3.0 * (1.0 / sys.lambda));
    const std::vector<double> want = sys.exact(2.0, 2.0 * sys.z_eq, 5.0);
    EXPECT_NEAR(x[0], want[0], 1e-12);
    EXPECT_NEAR(x[1], want[1], 1e-14);
}

TEST(Rk45, NanOrNonPositiveRateTakesThePlainStep) {
    // A column whose rate is not finite and positive leaves every step
    // plain: the same bits and counts as the system without a column.
    relaxation plain_sys;
    plain_sys.lambda = 2.0;
    plain_sys.column = false;
    es::ode_options opt;
    std::vector<double> want{2.0, 3e-3};
    es::rk45_integrator reference(opt);
    const es::ode_status ref = reference.integrate(plain_sys, 0.0, 4.0, want);
    ASSERT_TRUE(ref.ok);
    for (const double rate : {std::numeric_limits<double>::quiet_NaN(), 0.0,
                              -1.0, std::numeric_limits<double>::infinity()}) {
        relaxation sys = plain_sys;
        sys.column = true;
        sys.report_rate = true;
        sys.reported_rate = rate;
        std::vector<double> x{2.0, 3e-3};
        es::rk45_integrator integ(opt);
        const es::ode_status st = integ.integrate(sys, 0.0, 4.0, x);
        EXPECT_EQ(bits(x[0]), bits(want[0])) << "rate " << rate;
        EXPECT_EQ(bits(x[1]), bits(want[1])) << "rate " << rate;
        EXPECT_EQ(st.steps_taken, ref.steps_taken) << "rate " << rate;
        EXPECT_EQ(st.steps_rejected, ref.steps_rejected) << "rate " << rate;
    }
}

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
