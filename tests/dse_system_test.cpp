// System-level evaluator: configuration plumbing, energy bookkeeping
// consistency, reproducibility, and traces.
#include <gtest/gtest.h>

#include <cmath>

#include "dse/system_evaluator.hpp"

namespace ed = ehdse::dse;

namespace {
/// Shorter scenario for unit-level checks (full hour runs live in the
/// integration test file).
ed::scenario short_scenario() {
    ed::scenario s;
    s.duration_s = 600.0;
    s.step_period_s = 250.0;
    s.step_count = 1;  // one 5 Hz step at t = 250 s
    return s;
}
}  // namespace

TEST(SystemConfig, VectorRoundTrip) {
    const ed::system_config c{2e6, 100.0, 1.5};
    const auto v = c.to_vector();
    const auto back = ed::system_config::from_vector(v);
    EXPECT_DOUBLE_EQ(back.mcu_clock_hz, 2e6);
    EXPECT_DOUBLE_EQ(back.watchdog_period_s, 100.0);
    EXPECT_DOUBLE_EQ(back.tx_interval_s, 1.5);
    EXPECT_THROW(ed::system_config::from_vector({1.0}), std::invalid_argument);
}

TEST(SystemConfig, PaperSpaceMatchesTableV) {
    const auto space = ed::paper_design_space();
    ASSERT_EQ(space.dimension(), 3u);
    EXPECT_DOUBLE_EQ(space.parameter(0).min, 125e3);
    EXPECT_DOUBLE_EQ(space.parameter(0).max, 8e6);
    EXPECT_DOUBLE_EQ(space.parameter(1).min, 60.0);
    EXPECT_DOUBLE_EQ(space.parameter(1).max, 600.0);
    EXPECT_DOUBLE_EQ(space.parameter(2).min, 0.005);
    EXPECT_DOUBLE_EQ(space.parameter(2).max, 10.0);
}

TEST(SystemConfig, OriginalDesignCodesNearOrigin) {
    const auto space = ed::paper_design_space();
    const auto coded = ed::config_to_coded(space, ed::system_config::original());
    // 4 MHz / 320 s / 5 s sit essentially at the centre of Table V's ranges.
    for (double x : coded) EXPECT_NEAR(x, 0.0, 0.04);
}

TEST(SystemConfig, CodedCornersDecodeToRangeEnds) {
    const auto space = ed::paper_design_space();
    const auto lo = ed::config_from_coded(space, {-1.0, -1.0, -1.0});
    EXPECT_NEAR(lo.mcu_clock_hz, 125e3, 1.0);
    EXPECT_NEAR(lo.watchdog_period_s, 60.0, 1e-9);
    EXPECT_NEAR(lo.tx_interval_s, 0.005, 1e-9);
    const auto hi = ed::config_from_coded(space, {1.0, 1.0, 1.0});
    EXPECT_NEAR(hi.mcu_clock_hz, 8e6, 1.0);
    EXPECT_NEAR(hi.tx_interval_s, 10.0, 1e-9);
}

TEST(Evaluator, ProducesTransmissionsAndCleanKernelRun) {
    ed::system_evaluator ev(short_scenario());
    const auto r = ev.evaluate(ed::system_config::original());
    EXPECT_TRUE(r.sim_ok);
    EXPECT_GT(r.transmissions, 0u);
    EXPECT_GT(r.events, r.transmissions);
    EXPECT_GT(r.ode_steps, 0u);
    EXPECT_EQ(ev.runs(), 1u);
}

TEST(Evaluator, EnergyBookkeepingConsistent) {
    ed::system_evaluator ev(short_scenario());
    const auto r = ev.evaluate(ed::system_config::original());
    // Stored-energy balance: E(V_end) - E(V_0) = harvested - withdrawn -
    // sustained - leakage. Leakage is the only unlogged term and is
    // bounded by V^2/R * T.
    ehdse::power::supercapacitor cap;
    const double dE = cap.energy_at(r.final_voltage_v) - cap.energy_at(2.80);
    const double leak_max =
        3.0 * 3.0 / cap.params().leakage_resistance_ohm * 600.0;
    const double balance =
        r.harvested_energy_j - r.withdrawn_energy_j - r.sustained_load_energy_j;
    EXPECT_LT(std::abs(dE - balance), leak_max);
    EXPECT_GT(std::abs(dE - balance), 0.0);  // leakage exists

    // Ledger covers the known discrete accounts.
    EXPECT_GT(r.ledger.total("node.transmission"), 0.0);
    EXPECT_GT(r.ledger.total("mcu.measure"), 0.0);
}

TEST(Evaluator, DeterministicForSameSeed) {
    ed::system_evaluator ev(short_scenario());
    const auto a = ev.evaluate(ed::system_config::original());
    const auto b = ev.evaluate(ed::system_config::original());
    EXPECT_EQ(a.transmissions, b.transmissions);
    EXPECT_DOUBLE_EQ(a.final_voltage_v, b.final_voltage_v);
    EXPECT_EQ(a.tuning.coarse_steps, b.tuning.coarse_steps);
}

TEST(Evaluator, SeedChangesMeasurementNoise) {
    ed::system_evaluator ev(short_scenario());
    ed::evaluation_options a, b;
    a.controller_seed = 1;
    b.controller_seed = 2;
    // At the lowest clock the measurement noise is largest, so different
    // noise streams visibly change the tuning behaviour.
    ed::system_config cfg{125e3, 60.0, 5.0};
    const auto ra = ev.evaluate(cfg, a);
    const auto rb = ev.evaluate(cfg, b);
    // Different noise streams: some tuning detail must differ.
    EXPECT_TRUE(ra.tuning.fine_steps != rb.tuning.fine_steps ||
                ra.tuning.coarse_steps != rb.tuning.coarse_steps ||
                ra.transmissions != rb.transmissions);
}

TEST(Evaluator, TracesRecordedOnRequest) {
    ed::system_evaluator ev(short_scenario());
    ed::evaluation_options opts;
    opts.record_traces = true;
    opts.trace_interval_s = 1.0;
    const auto r = ev.evaluate(ed::system_config::original(), opts);
    ASSERT_TRUE(r.voltage_trace.has_value());
    ASSERT_TRUE(r.position_trace.has_value());
    EXPECT_GT(r.voltage_trace->size(), 100u);
    EXPECT_NEAR(r.voltage_trace->sample(0.0), 2.80, 0.01);
    // Voltage stays within physical bounds throughout.
    EXPECT_GT(r.voltage_trace->min_value(), 0.0);
    EXPECT_LT(r.voltage_trace->max_value(), 5.0);
    // The tuning controller moved the magnet after the frequency step.
    EXPECT_GT(r.position_trace->max_value(), r.position_trace->values().front());
}

TEST(Evaluator, NoTracesByDefault) {
    ed::system_evaluator ev(short_scenario());
    const auto r = ev.evaluate(ed::system_config::original());
    EXPECT_FALSE(r.voltage_trace.has_value());
    EXPECT_FALSE(r.position_trace.has_value());
}

TEST(Evaluator, SmallerIntervalNeverFewerTransmissionsWhenEnergyRich) {
    // Over a short window starting from a full store, shrinking the
    // interval must not reduce the transmission count.
    ed::scenario s = short_scenario();
    s.duration_s = 120.0;
    s.v_initial = 2.95;
    ed::system_evaluator ev(s);
    ed::system_config c = ed::system_config::original();
    c.tx_interval_s = 10.0;
    const auto slow = ev.evaluate(c);
    c.tx_interval_s = 1.0;
    const auto fast = ev.evaluate(c);
    EXPECT_GT(fast.transmissions, slow.transmissions);
}

TEST(Evaluator, DisabledTuningHarvestsLessAfterFrequencyStep) {
    // The whole point of the tunable harvester: without retuning, the
    // frequency step strands the device off-resonance.
    ed::scenario s = short_scenario();
    ehdse::mcu::controller_params ctl;
    ctl.mode = ehdse::mcu::tuning_mode::disabled;
    ed::system_evaluator tuned(s);
    ed::system_evaluator fixed(s, {}, {}, {}, {}, ctl);
    const auto with = tuned.evaluate(ed::system_config::original());
    const auto without = fixed.evaluate(ed::system_config::original());
    EXPECT_LT(without.harvested_energy_j, 0.8 * with.harvested_energy_j);
}

TEST(Evaluator, TransientFidelityMatchesEnvelope) {
    // The same digital stack over the full nonlinear model must agree with
    // the envelope fast path on the discrete outcomes of a short scenario.
    ed::scenario s;
    s.duration_s = 240.0;
    s.step_period_s = 100.0;
    s.step_count = 1;
    ed::system_evaluator ev(s);
    ed::evaluation_options env_opts, tr_opts;
    tr_opts.model = ed::fidelity::transient;
    const auto env = ev.evaluate(ed::system_config::original(), env_opts);
    const auto tr = ev.evaluate(ed::system_config::original(), tr_opts);
    EXPECT_TRUE(tr.sim_ok);
    EXPECT_NEAR(static_cast<double>(tr.transmissions),
                static_cast<double>(env.transmissions), 2.0);
    EXPECT_NEAR(tr.harvested_energy_j, env.harvested_energy_j,
                0.05 * env.harvested_energy_j);
    EXPECT_NEAR(tr.final_voltage_v, env.final_voltage_v, 0.002);
    EXPECT_EQ(tr.tuning.coarse_tunings, env.tuning.coarse_tunings);
    // The transient kernel resolves every vibration cycle.
    EXPECT_GT(tr.ode_steps, 20u * env.ode_steps);
}

TEST(Evaluator, InvalidScenarioThrows) {
    ed::scenario s;
    s.duration_s = 0.0;
    EXPECT_THROW(ed::system_evaluator{s}, std::invalid_argument);
}
