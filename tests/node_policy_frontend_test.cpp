// Extension features: the proportional transmission policy and the MPPT
// front-end option.
#include <gtest/gtest.h>

#include <cmath>

#include "dse/system_evaluator.hpp"
#include "harvester/electromagnetic.hpp"
#include "node/sensor_node.hpp"
#include "sim/simulator.hpp"

namespace ed = ehdse::dse;
namespace enode = ehdse::node;
namespace es = ehdse::sim;

namespace {

class pinned_plant final : public ehdse::harvester::plant {
public:
    explicit pinned_plant(double v) : voltage_(v) {}
    double storage_voltage() const override { return voltage_; }
    void withdraw(double, const std::string&) override {}
    void set_sustained_draw(const std::string&, double) override {}
    int position() const override { return 0; }
    void set_position(int) override {}
    double vibration_frequency() const override { return 64.0; }
    double phase_lag() const override { return 1.5707963; }

private:
    double voltage_;
};

class null_system final : public es::analog_system {
public:
    std::size_t state_size() const override { return 1; }
    void derivatives(double, std::span<const double>,
                     std::span<double> d) const override {
        d[0] = 0.0;
    }
};

enode::node_params proportional_params() {
    enode::node_params p;
    p.policy = enode::tx_policy::proportional;
    p.fast_interval_s = 1.0;
    return p;
}

}  // namespace

TEST(ProportionalPolicy, IntervalEndpoints) {
    null_system sys;
    es::simulator sim(sys, {0.0});
    pinned_plant plant(2.9);
    enode::sensor_node node(sim, plant, proportional_params());
    // At/above full voltage: fast interval; at cut-off: slow interval.
    EXPECT_DOUBLE_EQ(node.interval_at(2.9), 1.0);
    EXPECT_DOUBLE_EQ(node.interval_at(3.2), 1.0);
    EXPECT_NEAR(node.interval_at(2.7), 60.0, 1e-9);
    EXPECT_TRUE(std::isinf(node.interval_at(2.69)));
}

TEST(ProportionalPolicy, IntervalMonotoneInVoltage) {
    null_system sys;
    es::simulator sim(sys, {0.0});
    pinned_plant plant(2.9);
    enode::sensor_node node(sim, plant, proportional_params());
    double last = 1e9;
    for (double v = 2.70; v <= 2.90001; v += 0.01) {
        const double i = node.interval_at(v);
        ASSERT_LE(i, last + 1e-12) << "v=" << v;
        last = i;
    }
    // Geometric midpoint: log interpolation puts sqrt(60*1) at v = 2.8.
    EXPECT_NEAR(node.interval_at(2.8), std::sqrt(60.0), 0.5);
}

TEST(ProportionalPolicy, BandedIntervalUnchanged) {
    null_system sys;
    es::simulator sim(sys, {0.0});
    pinned_plant plant(2.9);
    enode::sensor_node node(sim, plant, {});  // default banded
    EXPECT_DOUBLE_EQ(node.interval_at(2.85), 5.0);
    EXPECT_DOUBLE_EQ(node.interval_at(2.75), 60.0);
    EXPECT_TRUE(std::isinf(node.interval_at(2.6)));
}

TEST(ProportionalPolicy, SmoothsTheBandCliff) {
    null_system sys;
    es::simulator sim(sys, {0.0});
    pinned_plant plant(2.795);  // just under the 2.8 V band edge
    enode::node_params banded;
    enode::sensor_node nb(sim, plant, banded);
    enode::node_params prop = banded;
    prop.policy = enode::tx_policy::proportional;
    enode::sensor_node np(sim, plant, prop);
    // Banded: full slow interval. Proportional: far faster just below the
    // old cliff.
    EXPECT_DOUBLE_EQ(nb.interval_at(2.795), 60.0);
    EXPECT_LT(np.interval_at(2.795), 25.0);
}

TEST(Frontend, MpptValidation) {
    const ehdse::harvester::electromagnetic_harvester em;
    ehdse::harvester::vibration_source vib(0.1, 69.0);
    ed::envelope_system system(em, vib);
    EXPECT_THROW(system.set_frontend(ed::frontend_kind::mppt, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(system.set_frontend(ed::frontend_kind::mppt, 1.5),
                 std::invalid_argument);
    system.set_frontend(ed::frontend_kind::mppt, 0.8);
    EXPECT_EQ(system.frontend(), ed::frontend_kind::mppt);
}

TEST(Frontend, MpptHarvestsMoreThanBridge) {
    // The matched-load converter extracts more than the threshold-limited
    // bridge at the same excitation (that is its entire point).
    ed::scenario s;
    s.duration_s = 900.0;
    s.step_period_s = 400.0;
    s.step_count = 1;
    ed::system_evaluator ev(s);
    ed::evaluation_options bridge, mppt;
    mppt.frontend = ed::frontend_kind::mppt;
    mppt.frontend_efficiency = 0.75;
    const auto rb = ev.evaluate(ed::system_config::original(), bridge);
    const auto rm = ev.evaluate(ed::system_config::original(), mppt);
    EXPECT_GT(rm.harvested_energy_j, 1.2 * rb.harvested_energy_j);
    EXPECT_GE(rm.transmissions, rb.transmissions);
}

TEST(Frontend, MpptEfficiencyScalesHarvest) {
    ed::scenario s;
    s.duration_s = 600.0;
    s.step_count = 0;
    ed::system_evaluator ev(s);
    ed::evaluation_options hi, lo;
    hi.frontend = lo.frontend = ed::frontend_kind::mppt;
    hi.frontend_efficiency = 0.9;
    lo.frontend_efficiency = 0.45;
    const auto rh = ev.evaluate(ed::system_config::original(), hi);
    const auto rl = ev.evaluate(ed::system_config::original(), lo);
    EXPECT_NEAR(rl.harvested_energy_j / rh.harvested_energy_j, 0.5, 0.05);
}
