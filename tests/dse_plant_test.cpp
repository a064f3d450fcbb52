// Direct unit tests of the two plant implementations (envelope and
// transient systems): withdrawal accounting, sustained draws, position
// validation, measurement taps.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dse/envelope_system.hpp"
#include "dse/transient_system.hpp"
#include "harvester/electromagnetic.hpp"
#include "harvester/tuning_table.hpp"

namespace ed = ehdse::dse;
namespace eh = ehdse::harvester;
namespace es = ehdse::sim;

namespace {

struct env_rig {
    const eh::electromagnetic_harvester em;
    eh::vibration_source vib{0.060 * eh::k_gravity, 69.0};
    ed::envelope_system system{em, vib};
    es::simulator sim;

    env_rig()
        : sim(system, [this] {
              eh::tuning_table table(em);
              return system.initial_state(2.8, table.lookup(69.0));
          }()) {
        system.attach(sim);
    }
};

}  // namespace

TEST(EnvelopePlant, UnattachedThrows) {
    const eh::electromagnetic_harvester em;
    eh::vibration_source vib(0.1, 69.0);
    ed::envelope_system system(em, vib);
    EXPECT_THROW(system.storage_voltage(), std::logic_error);
    EXPECT_THROW(system.vibration_frequency(), std::logic_error);
}

TEST(EnvelopePlant, WithdrawalRemovesEnergyAndLedgers) {
    env_rig rig;
    const double v0 = rig.system.storage_voltage();
    rig.system.withdraw(10e-3, "test.account");
    const double v1 = rig.system.storage_voltage();
    EXPECT_LT(v1, v0);
    ehdse::power::supercapacitor cap;
    EXPECT_NEAR(cap.energy_at(v0) - cap.energy_at(v1), 10e-3, 1e-9);
    EXPECT_DOUBLE_EQ(rig.system.ledger().total("test.account"), 10e-3);
    EXPECT_THROW(rig.system.withdraw(-1.0, "x"), std::invalid_argument);
}

TEST(EnvelopePlant, SustainedDrawDischargesOverTime) {
    env_rig rig;
    // Detune far so essentially nothing is harvested.
    rig.system.set_position(255);
    rig.system.set_sustained_draw("burn", 5e-3);  // 5 mA
    ASSERT_TRUE(rig.sim.run_until(10.0));
    // dV ~ I t / C = 5e-3 * 10 / 0.55 ~ 0.09 V.
    EXPECT_NEAR(rig.system.storage_voltage(), 2.8 - 0.0909, 0.01);
    // Updating the same account replaces, not stacks.
    rig.system.set_sustained_draw("burn", 0.0);
    const double v_now = rig.system.storage_voltage();
    ASSERT_TRUE(rig.sim.run_until(20.0));
    EXPECT_NEAR(rig.system.storage_voltage(), v_now, 0.005);
}

TEST(EnvelopePlant, PositionAndMeasurementTaps) {
    env_rig rig;
    EXPECT_DOUBLE_EQ(rig.system.vibration_frequency(), 69.0);
    rig.system.set_position(100);
    EXPECT_EQ(rig.system.position(), 100);
    EXPECT_THROW(rig.system.set_position(-1), std::out_of_range);
    EXPECT_THROW(rig.system.set_position(256), std::out_of_range);

    // Tuned: phase lag ~ pi/2; resonance above drive: lag < pi/2.
    eh::tuning_table table(rig.em);
    rig.system.set_position(table.lookup(69.0));
    EXPECT_NEAR(rig.system.phase_lag(), std::numbers::pi / 2.0, 0.35);
    rig.system.set_position(255);
    EXPECT_LT(rig.system.phase_lag(), 0.3);
}

TEST(EnvelopePlant, InitialStateRejectsNegativeVoltage) {
    const eh::electromagnetic_harvester em;
    eh::vibration_source vib(0.1, 69.0);
    ed::envelope_system system(em, vib);
    EXPECT_THROW(system.initial_state(-1.0, 0), std::invalid_argument);
}

TEST(TransientPlant, MirrorsEnvelopeSemantics) {
    const eh::electromagnetic_harvester em;
    eh::vibration_source vib(0.060 * eh::k_gravity, 69.0);
    ed::transient_system system(em, vib);
    eh::tuning_table table(em);
    auto x0 = system.initial_state(2.8, table.lookup(69.0));
    es::ode_options ode;
    ode.max_dt = system.suggested_max_dt();
    ode.initial_dt = 1e-5;
    es::simulator sim(system, std::move(x0), ode);
    system.attach(sim);

    EXPECT_NEAR(system.storage_voltage(), 2.8, 1e-12);
    system.withdraw(5e-3, "probe");
    EXPECT_LT(system.storage_voltage(), 2.8);
    EXPECT_DOUBLE_EQ(system.ledger().total("probe"), 5e-3);
    EXPECT_DOUBLE_EQ(system.vibration_frequency(), 69.0);
    EXPECT_NEAR(system.phase_lag(), std::numbers::pi / 2.0, 0.35);
    EXPECT_THROW(system.withdraw(-1.0, "x"), std::invalid_argument);
    EXPECT_THROW(system.initial_state(-0.1, 0), std::invalid_argument);

    system.set_sustained_draw("load", 1e-3);
    ASSERT_TRUE(sim.run_until(0.5));
    EXPECT_LT(system.storage_voltage(), 2.8 - 5e-3 * 2.8 / 0.55 / 10.0);
}

TEST(TransientPlant, UnattachedThrows) {
    const eh::electromagnetic_harvester em;
    eh::vibration_source vib(0.1, 69.0);
    ed::transient_system system(em, vib);
    EXPECT_THROW(system.storage_voltage(), std::logic_error);
}
