// SoA batch kernel units: masked per-lane RK45 stepping, per-lane event
// queues, watch ranges, failure containment, and lane independence. A
// per-lane exponential decay dx/dt = -k[l] x gives every test a closed
// form to check against; a per-lane stiff relaxation does the same for
// the exponential step (sim/cash_karp.hpp).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/batch_ode.hpp"
#include "sim/batch_simulator.hpp"

namespace {

using ehdse::sim::batch_analog_system;
using ehdse::sim::batch_rk45_integrator;
using ehdse::sim::batch_simulator;
using ehdse::sim::batch_state;
using ehdse::sim::lane_step;
using ehdse::sim::no_stiff_element;

/// B lanes of dx/dt = -k[lane] * x: exact solution x0 * exp(-k t).
class decay_batch final : public batch_analog_system {
public:
    explicit decay_batch(std::vector<double> k) : k_(std::move(k)) {}

    std::size_t state_size() const override { return 1; }
    std::size_t lanes() const override { return k_.size(); }
    void derivatives(std::span<const double> /*t*/, const batch_state& x,
                     batch_state& dxdt,
                     std::span<const std::uint8_t> /*active*/) const override {
        const double* xv = x.var(0);
        double* d = dxdt.var(0);
        for (std::size_t l = 0; l < k_.size(); ++l) d[l] = -k_[l] * xv[l];
    }

private:
    std::vector<double> k_;
};

/// One lane of a stiff relaxation z' = lambda (z_eq - z) driving
/// V' = kappa z, state (V, z). Its column reports `reported` as the rate
/// when that is set (not NaN), else lambda.
struct relaxation_lane {
    double lambda = 10.0;
    double z_eq = 1e-3;
    double kappa = 2.0;
    double reported = std::numeric_limits<double>::quiet_NaN();
    bool override_rate = false;
};

/// The relaxation as a batch, one relaxation_lane per lane; without
/// `column` it names no stiff element.
class relaxation_batch final : public batch_analog_system {
public:
    relaxation_batch(std::vector<relaxation_lane> lanes, bool column = true)
        : lanes_(std::move(lanes)), column_(column) {}

    std::size_t state_size() const override { return 2; }
    std::size_t lanes() const override { return lanes_.size(); }
    void derivatives(std::span<const double> /*t*/, const batch_state& x,
                     batch_state& dxdt,
                     std::span<const std::uint8_t> /*active*/) const override {
        for (std::size_t l = 0; l < lanes_.size(); ++l) {
            const relaxation_lane& p = lanes_[l];
            dxdt.var(0)[l] = p.kappa * x.var(1)[l];
            dxdt.var(1)[l] = p.lambda * (p.z_eq - x.var(1)[l]);
        }
    }
    std::size_t stiff_element() const override {
        return column_ ? 1 : no_stiff_element;
    }
    void stiff_column(batch_state& a) const override {
        for (std::size_t l = 0; l < lanes_.size(); ++l) {
            const relaxation_lane& p = lanes_[l];
            a.var(0)[l] = p.kappa;
            a.var(1)[l] = -(p.override_rate ? p.reported : p.lambda);
        }
    }

private:
    std::vector<relaxation_lane> lanes_;
    bool column_;
};

/// The same relaxation lane as a scalar system.
struct relaxation_system final : ehdse::sim::analog_system {
    explicit relaxation_system(relaxation_lane lane) : p(lane) {}
    std::size_t state_size() const override { return 2; }
    void derivatives(double, std::span<const double> x,
                     std::span<double> dxdt) const override {
        dxdt[0] = p.kappa * x[1];
        dxdt[1] = p.lambda * (p.z_eq - x[1]);
    }
    std::size_t stiff_element() const override { return 1; }
    void stiff_column(std::span<double> a) const override {
        a[0] = p.kappa;
        a[1] = -(p.override_rate ? p.reported : p.lambda);
    }
    relaxation_lane p;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Integrate every lane of `sys` from (v0, z0[l]) at t = 0 to target[l]
/// by step_once sweeps; returns the final states and (steps, rejected).
struct batch_run {
    std::vector<std::vector<double>> x;
    std::vector<std::pair<std::size_t, std::size_t>> counts;
};
batch_run run_lanes(const batch_analog_system& sys,
                    const std::vector<double>& z0,
                    const std::vector<double>& target,
                    ehdse::sim::ode_options opt = {}) {
    const std::size_t B = sys.lanes();
    batch_rk45_integrator integ(2, B, opt);
    batch_state x(2, B);
    for (std::size_t l = 0; l < B; ++l) x.set_lane(l, {{2.0, z0[l]}});
    std::vector<double> t(B, 0.0);
    std::vector<lane_step> outcome(B);
    while (integ.step_once(sys, t, target, x, outcome) > 0) {
    }
    batch_run out;
    for (std::size_t l = 0; l < B; ++l) {
        out.x.push_back(x.lane_state(l));
        out.counts.emplace_back(integ.steps_taken(l), integ.steps_rejected(l));
    }
    return out;
}

TEST(BatchState, LaneRoundTripAndRowLayout) {
    batch_state s(3, 4);
    EXPECT_EQ(s.vars(), 3u);
    EXPECT_EQ(s.lanes(), 4u);
    const std::vector<double> lane2 = {1.5, -2.0, 7.25};
    s.set_lane(2, lane2);
    EXPECT_EQ(s.lane_state(2), lane2);
    // Rows are lane-contiguous: var(v)[lane] is the storage contract the
    // vectorised inner loops rely on.
    EXPECT_DOUBLE_EQ(s.var(1)[2], -2.0);
    s.var(1)[2] = 9.0;
    EXPECT_DOUBLE_EQ(s.at(1, 2), 9.0);
    // Untouched lanes stay zero-initialised.
    EXPECT_DOUBLE_EQ(s.at(0, 0), 0.0);
}

TEST(BatchRk45, MatchesClosedFormPerLane) {
    const std::vector<double> k = {0.5, 1.0, 2.0, 4.0};
    decay_batch sys(k);
    batch_rk45_integrator integ(1, k.size());

    batch_state x(1, k.size());
    for (std::size_t l = 0; l < k.size(); ++l) x.set(0, l, 1.0);
    std::vector<double> t(k.size(), 0.0);
    const std::vector<double> target(k.size(), 1.0);
    std::vector<lane_step> outcome(k.size());

    while (integ.step_once(sys, t, target, x, outcome) > 0) {
    }
    for (std::size_t l = 0; l < k.size(); ++l) {
        EXPECT_DOUBLE_EQ(t[l], 1.0) << "lane " << l;
        EXPECT_NEAR(x.at(0, l), std::exp(-k[l]), 1e-6) << "lane " << l;
        EXPECT_GT(integ.steps_taken(l), 0u) << "lane " << l;
        EXPECT_GT(integ.last_dt(l), 0.0) << "lane " << l;
    }
}

TEST(BatchRk45, NoColumnTakesThePinnedPlainSteps) {
    // A batch without a stiff column takes the plain Cash–Karp steps:
    // these hex values and step counts were pinned from the build before
    // the exponential form existed.
    const std::vector<double> k = {0.5, 1.0, 2.0, 4.0};
    const double want[] = {0x1.368b2e2b61d67p-1, 0x1.78b55de51b67ep-2,
                           0x1.152aa27019b35p-3, 0x1.2c154a3a40ef2p-6};
    const std::size_t steps[] = {8, 9, 12, 18};
    decay_batch sys(k);
    batch_rk45_integrator integ(1, k.size());
    batch_state x(1, k.size());
    for (std::size_t l = 0; l < k.size(); ++l) x.set(0, l, 1.0);
    std::vector<double> t(k.size(), 0.0);
    const std::vector<double> target(k.size(), 1.0);
    std::vector<lane_step> outcome(k.size());
    while (integ.step_once(sys, t, target, x, outcome) > 0) {
    }
    for (std::size_t l = 0; l < k.size(); ++l) {
        EXPECT_EQ(bits(x.at(0, l)), bits(want[l])) << "lane " << l;
        EXPECT_EQ(integ.steps_taken(l), steps[l]) << "lane " << l;
        EXPECT_EQ(integ.steps_rejected(l), 0u) << "lane " << l;
    }
}

TEST(BatchRk45, ExponentialStepLandsOnTheClosedFormAtLambdaH50) {
    // Two lanes near equilibrium (no cap), each one sweep of lambda h =
    // 50: the relaxation and its pull on V are integrated exactly.
    const std::vector<relaxation_lane> lanes = {{10.0, 1e-3, 2.0},
                                                {20.0, 5e-4, -3.0}};
    relaxation_batch sys(lanes);
    ehdse::sim::ode_options opt;
    opt.initial_dt = 5.0;
    opt.max_dt = 5.0;
    batch_rk45_integrator integ(2, lanes.size(), opt);
    batch_state x(2, lanes.size());
    std::vector<double> t(lanes.size(), 0.0), target(lanes.size());
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        x.set_lane(l, {{2.0, lanes[l].z_eq * (1.0 + 5e-4)}});
        target[l] = 50.0 / lanes[l].lambda;
    }
    std::vector<lane_step> outcome(lanes.size());
    ASSERT_EQ(integ.step_once(sys, t, target, x, outcome), lanes.size());
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        const relaxation_lane& p = lanes[l];
        ASSERT_EQ(outcome[l], lane_step::advanced) << "lane " << l;
        const double h = target[l];
        const double d0 = p.z_eq * 5e-4;
        const double decay = std::exp(-p.lambda * h);
        const double v = 2.0 + p.kappa * (p.z_eq * h +
                                          d0 * (1.0 - decay) / p.lambda);
        const double z = p.z_eq + d0 * decay;
        EXPECT_NEAR(x.at(0, l), v, 4e-16 * std::abs(v)) << "lane " << l;
        EXPECT_NEAR(x.at(1, l), z, 4e-16 * z) << "lane " << l;
    }
}

TEST(BatchRk45, NanOrNonPositiveRateLaneTakesThePlainStep) {
    // Lanes whose reported rate is not finite and positive step exactly
    // as they would without a column; the exponential lane beside them
    // does not.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<relaxation_lane> lanes(5, relaxation_lane{2.0, 1e-3, 2.0});
    const double reported[] = {2.0, nan, 0.0, -1.0, inf};
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        lanes[l].override_rate = true;
        lanes[l].reported = reported[l];
    }
    const std::vector<double> z0(lanes.size(), 3e-3);
    const std::vector<double> target(lanes.size(), 4.0);
    const batch_run with = run_lanes(relaxation_batch(lanes), z0, target);
    const batch_run without =
        run_lanes(relaxation_batch(lanes, /*column=*/false), z0, target);
    for (std::size_t l = 1; l < lanes.size(); ++l) {
        EXPECT_EQ(bits(with.x[l][0]), bits(without.x[l][0])) << "lane " << l;
        EXPECT_EQ(bits(with.x[l][1]), bits(without.x[l][1])) << "lane " << l;
        EXPECT_EQ(with.counts[l], without.counts[l]) << "lane " << l;
    }
    EXPECT_NE(with.counts[0], without.counts[0]);
}

TEST(BatchRk45, ALaneStepDoesNotDependOnItsNeighbours) {
    // Near and far from equilibrium, different rates, a plain (NaN-rate)
    // lane and one already at its target: each lane run alone, inside the
    // batch and through the scalar integrator gives the same bits.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<relaxation_lane> lanes = {
        {10.0, 1e-3, 2.0}, {3.0, 2e-3, -1.0}, {40.0, 5e-4, 4.0},
        {5.0, 1e-3, 1.0},  {8.0, 1e-3, 2.0}};
    lanes[3].override_rate = true;
    lanes[3].reported = nan;
    const std::vector<double> z0 = {1.0005e-3, 6e-3, 1e-4, 2e-3, 3e-3};
    const std::vector<double> target = {5.0, 3.0, 2.5, 4.0, 0.0};
    ehdse::sim::ode_options opt;
    opt.max_dt = 5.0;
    const batch_run together =
        run_lanes(relaxation_batch(lanes), z0, target, opt);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        const batch_run alone = run_lanes(relaxation_batch({lanes[l]}),
                                          {z0[l]}, {target[l]}, opt);
        EXPECT_EQ(bits(together.x[l][0]), bits(alone.x[0][0])) << "lane " << l;
        EXPECT_EQ(bits(together.x[l][1]), bits(alone.x[0][1])) << "lane " << l;
        EXPECT_EQ(together.counts[l], alone.counts[0]) << "lane " << l;

        const relaxation_system scalar(lanes[l]);
        std::vector<double> x = {2.0, z0[l]};
        ehdse::sim::rk45_integrator integ(opt);
        const auto st = integ.integrate(scalar, 0.0, target[l], x);
        EXPECT_EQ(bits(together.x[l][0]), bits(x[0])) << "lane " << l;
        EXPECT_EQ(bits(together.x[l][1]), bits(x[1])) << "lane " << l;
        EXPECT_EQ(together.counts[l],
                  std::make_pair(st.steps_taken, st.steps_rejected))
            << "lane " << l;
    }
}

TEST(BatchRk45, MaskedSteppingLeavesArrivedLanesAlone) {
    const std::vector<double> k = {1.0, 1.0, 1.0};
    decay_batch sys(k);
    batch_rk45_integrator integ(1, k.size());

    batch_state x(1, k.size());
    for (std::size_t l = 0; l < k.size(); ++l) x.set(0, l, 1.0);
    // Lane 1 is already at its target; only lanes 0 and 2 may move.
    std::vector<double> t = {0.0, 0.5, 0.0};
    const std::vector<double> target = {1.0, 0.5, 1.0};
    std::vector<lane_step> outcome(k.size());

    const std::size_t attempted = integ.step_once(sys, t, target, x, outcome);
    EXPECT_EQ(attempted, 2u);
    EXPECT_EQ(outcome[1], lane_step::idle);
    EXPECT_DOUBLE_EQ(t[1], 0.5);
    EXPECT_DOUBLE_EQ(x.at(0, 1), 1.0);
    EXPECT_EQ(integ.steps_taken(1), 0u);

    while (integ.step_once(sys, t, target, x, outcome) > 0) {
    }
    EXPECT_NEAR(x.at(0, 0), std::exp(-1.0), 1e-6);
    EXPECT_NEAR(x.at(0, 2), std::exp(-1.0), 1e-6);
}

TEST(BatchSimulator, PerLaneEventQueuesFireAtExactTimes) {
    const std::vector<double> k = {1.0, 2.0};
    decay_batch sys(k);
    batch_simulator sim(sys, {1.0});

    // Each lane samples its own state at a lane-specific time; the kernel
    // contract is that integration stops exactly on the event time.
    std::vector<double> sampled(k.size(), -1.0);
    std::vector<double> sampled_at(k.size(), -1.0);
    for (std::size_t l = 0; l < k.size(); ++l) {
        const double when = 0.25 * static_cast<double>(l + 1);
        sim.lane(l).at(when, [&, l, when] {
            sampled[l] = sim.lane(l).state_at(0);
            sampled_at[l] = sim.lane(l).now();
            (void)when;
        });
    }
    EXPECT_TRUE(sim.run_until(1.0));
    for (std::size_t l = 0; l < k.size(); ++l) {
        const double when = 0.25 * static_cast<double>(l + 1);
        EXPECT_DOUBLE_EQ(sampled_at[l], when) << "lane " << l;
        EXPECT_NEAR(sampled[l], std::exp(-k[l] * when), 1e-6) << "lane " << l;
        EXPECT_EQ(sim.lane_events(l), 1u) << "lane " << l;
        EXPECT_DOUBLE_EQ(sim.now(l), 1.0) << "lane " << l;
        EXPECT_TRUE(sim.lane_ok(l)) << "lane " << l;
    }
}

TEST(BatchSimulator, EventsCanRescheduleAndPerturbTheirOwnLane) {
    decay_batch sys({1.0, 1.0});
    batch_simulator sim(sys, {1.0});

    // Lane 0: a self-rescheduling process that resets x to 1 every 0.2 s —
    // the batch equivalent of a digital controller kicking the analogue
    // state. Lane 1 decays undisturbed.
    int fires = 0;
    std::function<void()> kick = [&] {
        sim.lane(0).set_state(0, 1.0);
        ++fires;
        if (fires < 4) sim.lane(0).after(0.2, kick);
    };
    sim.lane(0).after(0.2, kick);

    EXPECT_TRUE(sim.run_until(1.0));
    EXPECT_EQ(fires, 4);
    EXPECT_EQ(sim.lane_events(0), 4u);
    EXPECT_EQ(sim.lane_events(1), 0u);
    // Lane 0 last reset at t=0.8, so it decayed only 0.2 s.
    EXPECT_NEAR(sim.state_at(0, 0), std::exp(-0.2), 1e-6);
    EXPECT_NEAR(sim.state_at(1, 0), std::exp(-1.0), 1e-6);
}

TEST(BatchSimulator, WatchRangeTracksPerLaneExtremes) {
    decay_batch sys({1.0, 1.0});
    batch_simulator sim(sys, {1.0});
    sim.watch_range(0);

    // Lane 1 gets kicked above its initial value mid-run; the watch must
    // see the kick (events refresh the watch too, not just ODE steps).
    sim.lane(1).at(0.5, [&] { sim.lane(1).set_state(0, 2.0); });

    EXPECT_TRUE(sim.run_until(1.0));
    EXPECT_NEAR(sim.watched_min(0), std::exp(-1.0), 1e-6);
    EXPECT_DOUBLE_EQ(sim.watched_max(0), 1.0);
    EXPECT_DOUBLE_EQ(sim.watched_max(1), 2.0);
    EXPECT_NEAR(sim.watched_min(1), std::exp(-0.5), 1e-6);
}

TEST(BatchSimulator, NonFiniteLaneFailsAloneOthersFinish) {
    decay_batch sys({1.0, 1.0, 1.0});
    batch_simulator sim(sys, {1.0});

    sim.lane(1).at(0.5, [&] {
        sim.lane(1).set_state(0, std::numeric_limits<double>::quiet_NaN());
    });

    EXPECT_FALSE(sim.run_until(1.0));
    EXPECT_TRUE(sim.lane_ok(0));
    EXPECT_FALSE(sim.lane_ok(1));
    EXPECT_TRUE(sim.lane_ok(2));
    EXPECT_FALSE(sim.lane_state_finite(1));
    // The failed lane stopped where it broke; the healthy lanes reached
    // t_end with the exact closed-form answer.
    EXPECT_DOUBLE_EQ(sim.now(1), 0.5);
    for (const std::size_t l : {std::size_t{0}, std::size_t{2}}) {
        EXPECT_DOUBLE_EQ(sim.now(l), 1.0);
        EXPECT_NEAR(sim.state_at(l, 0), std::exp(-1.0), 1e-6);
    }
}

TEST(BatchSimulator, LanesAreIndependentOfBatchComposition) {
    // The same lane run alone and inside a wider batch must be bitwise
    // identical — trajectory, step counts, event count.
    const double k_probe = 1.3;

    const auto run = [&](std::vector<double> rates, std::size_t probe) {
        decay_batch sys(std::move(rates));
        batch_simulator sim(sys, {1.0});
        sim.lane(probe).at(0.4, [&sim, probe] {
            sim.lane(probe).set_state(0, sim.lane(probe).state_at(0) + 0.5);
        });
        EXPECT_TRUE(sim.run_until(1.0));
        return std::tuple{sim.state_at(probe, 0), sim.lane_steps(probe),
                          sim.lane_events(probe)};
    };

    const auto alone = run({k_probe}, 0);
    const auto batched = run({0.3, k_probe, 2.7, 5.1}, 1);
    EXPECT_EQ(alone, batched);
}

}  // namespace
