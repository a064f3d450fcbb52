// Supercapacitor, load bank and energy ledger, and the storage models'
// dv_dt slope.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "power/battery.hpp"
#include "power/energy_ledger.hpp"
#include "power/load_bank.hpp"
#include "power/supercapacitor.hpp"

namespace ep = ehdse::power;

TEST(Supercap, EnergyQuadraticInVoltage) {
    ep::supercapacitor cap;
    EXPECT_NEAR(cap.energy_at(2.0), 0.5 * 0.55 * 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(cap.energy_at(0.0), 0.0);
    EXPECT_NEAR(cap.energy_between(2.8, 2.7), cap.energy_at(2.8) - cap.energy_at(2.7),
                1e-15);
}

TEST(Supercap, WithdrawalRoundTrip) {
    ep::supercapacitor cap;
    const double v0 = 2.8;
    const double joules = 0.01;
    const double v1 = cap.voltage_after_withdrawal(v0, joules);
    EXPECT_LT(v1, v0);
    EXPECT_NEAR(cap.energy_at(v0) - cap.energy_at(v1), joules, 1e-12);
}

TEST(Supercap, OverdrawFloorsAtZero) {
    ep::supercapacitor cap;
    EXPECT_DOUBLE_EQ(cap.voltage_after_withdrawal(0.1, 100.0), 0.0);
    EXPECT_THROW(cap.voltage_after_withdrawal(2.8, -1.0), std::invalid_argument);
}

TEST(Supercap, LeakageCurrentOhmic) {
    ep::supercapacitor cap;
    EXPECT_NEAR(cap.leakage_current(2.8),
                2.8 / cap.params().leakage_resistance_ohm, 1e-18);
}

TEST(Supercap, DvDtSignsAndRatingClamp) {
    ep::supercapacitor cap;
    EXPECT_GT(cap.dv_dt(2.8, 1e-3), 0.0);   // strong charge
    EXPECT_LT(cap.dv_dt(2.8, 0.0), 0.0);    // leakage discharges
    // At the rating, charging clamps to zero but discharge still allowed.
    const double vmax = cap.params().max_voltage_v;
    EXPECT_DOUBLE_EQ(cap.dv_dt(vmax, 1.0), 0.0);
    EXPECT_LT(cap.dv_dt(vmax, -1e-3), 0.0);
}

TEST(Supercap, RcDischargeMatchesExponential) {
    // Pure leakage discharge: V(t) = V0 exp(-t/RC). Forward-Euler with a
    // tiny step approximates it; validates dv_dt's sign/scale.
    ep::supercapacitor cap;
    const double rc = cap.params().leakage_resistance_ohm * cap.capacitance();
    double v = 2.8;
    const double dt = rc / 1e5;
    const double t_end = 0.2 * rc;
    for (double t = 0.0; t < t_end; t += dt) v += dt * cap.dv_dt(v, 0.0);
    EXPECT_NEAR(v, 2.8 * std::exp(-0.2), 2.8 * 1e-4);
}

TEST(Supercap, InvalidParamsThrow) {
    ep::supercapacitor_params p;
    p.capacitance_f = 0.0;
    EXPECT_THROW(ep::supercapacitor{p}, std::invalid_argument);
    p = {};
    p.leakage_resistance_ohm = -1.0;
    EXPECT_THROW(ep::supercapacitor{p}, std::invalid_argument);
}

TEST(LoadBank, RegistrationAndTotals) {
    ep::load_bank bank;
    const auto a = bank.add_load("node");
    const auto b = bank.add_load("mcu");
    EXPECT_EQ(bank.load_count(), 2u);
    EXPECT_EQ(bank.name_of(a), "node");

    bank.set_current(a, 1e-3);
    bank.set_resistance(b, 1000.0);
    EXPECT_NEAR(bank.total_current(2.0), 1e-3 + 2.0 / 1000.0, 1e-15);
    EXPECT_NEAR(bank.current_of(b, 2.0), 2e-3, 1e-15);

    bank.clear_resistance(b);
    EXPECT_NEAR(bank.total_current(2.0), 1e-3, 1e-15);
    bank.turn_off(a);
    EXPECT_DOUBLE_EQ(bank.total_current(2.0), 0.0);
}

TEST(LoadBank, Validation) {
    ep::load_bank bank;
    const auto id = bank.add_load("x");
    EXPECT_THROW(bank.set_current(id, -1.0), std::invalid_argument);
    EXPECT_THROW(bank.set_resistance(id, 0.0), std::invalid_argument);
    EXPECT_THROW(bank.set_current(99, 1.0), std::out_of_range);
    EXPECT_THROW(bank.name_of(99), std::out_of_range);
}

TEST(Ledger, AccumulatesPerAccount) {
    ep::energy_ledger ledger;
    ledger.record("a", 1.0);
    ledger.record("a", 2.0);
    ledger.record("b", 0.5);
    EXPECT_DOUBLE_EQ(ledger.total("a"), 3.0);
    EXPECT_DOUBLE_EQ(ledger.total("b"), 0.5);
    EXPECT_DOUBLE_EQ(ledger.total("missing"), 0.0);
    EXPECT_DOUBLE_EQ(ledger.grand_total(), 3.5);
    EXPECT_EQ(ledger.account_count(), 2u);
}

TEST(Ledger, NegativeEnergyRejected) {
    ep::energy_ledger ledger;
    EXPECT_THROW(ledger.record("a", -0.1), std::invalid_argument);
}

TEST(Ledger, ReportContainsAccountsAndTotal) {
    ep::energy_ledger ledger;
    ledger.record("node.transmission", 0.1);
    ledger.record("actuator.coarse", 0.3);
    std::ostringstream os;
    ledger.write_report(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("node.transmission"), std::string::npos);
    EXPECT_NE(text.find("actuator.coarse"), std::string::npos);
    EXPECT_NE(text.find("total"), std::string::npos);
}

TEST(Ledger, ClearEmpties) {
    ep::energy_ledger ledger;
    ledger.record("a", 1.0);
    ledger.clear();
    EXPECT_EQ(ledger.account_count(), 0u);
    EXPECT_DOUBLE_EQ(ledger.grand_total(), 0.0);
}

TEST(Storage, DvDtSlopeIsTheCurrentDerivativeOfDvDt) {
    // dv_dt_slope is d dv_dt / d i_net (the integrator's column entry for
    // the store): the central difference inside the operating range, 0
    // where a clamp holds dv_dt.
    const ep::supercapacitor cap;
    const ep::thin_film_battery bat;
    const auto check = [](const ep::storage_model& s, double v, double i) {
        const double di = 1e-9;
        const double fd = (s.dv_dt(v, i + di) - s.dv_dt(v, i - di)) / (2 * di);
        EXPECT_NEAR(s.dv_dt_slope(v, i), fd, 1e-6 * std::abs(fd) + 1e-12)
            << "v " << v << " i " << i;
    };
    for (const double v : {0.5, 2.8, 4.0}) check(cap, v, 1e-4);
    for (const double v : {2.8, 2.9, 3.0}) check(bat, v, 1e-4);
    EXPECT_DOUBLE_EQ(cap.dv_dt_slope(2.8, 1e-4), 1.0 / 0.55);
    EXPECT_EQ(cap.dv_dt_slope(cap.max_voltage(), 1e-3), 0.0);  // rating clamp
    EXPECT_EQ(cap.dv_dt_slope(0.0, -1e-3), 0.0);               // empty clamp
    EXPECT_EQ(bat.dv_dt_slope(2.9, 1.0), 0.0);         // acceptance ceiling
    EXPECT_EQ(bat.dv_dt_slope(3.05, 1e-4), 0.0);       // full
    EXPECT_EQ(bat.dv_dt_slope(2.70, -1e-4), 0.0);      // empty
}
