// Paper-level integration tests: the full one-hour scenario of section V,
// checking the qualitative results the reproduction must preserve.
//
// These are the slowest tests in the suite (each case is a complete
// mixed-signal hour); they pin down the headline shapes:
//   * the optimised configurations roughly double the baseline (Table VI),
//   * the transmission interval x3 is the dominant effect (eq. 9 / Fig. 4),
//   * two-stage tuning beats fine-only and no tuning (section IV-C),
//   * the supercapacitor waveform stays in the operating band (Fig. 5).
#include <gtest/gtest.h>

#include <cmath>

#include "dse/rsm_flow.hpp"
#include "rsm/quadratic_model.hpp"

namespace ed = ehdse::dse;
namespace em = ehdse::mcu;

namespace {
const ed::evaluation_result& eval_original() {
    static const ed::evaluation_result r = [] {
        ed::system_evaluator ev;
        return ev.evaluate(ed::system_config::original());
    }();
    return r;
}
}  // namespace

TEST(PaperIntegration, OriginalDesignInPlausibleBand) {
    const auto& r = eval_original();
    EXPECT_TRUE(r.sim_ok);
    // Paper Table VI reports 405 for the original design; our calibrated
    // plant lands in the same few-hundred band, bounded by the 5 s
    // interval ceiling of 720.
    EXPECT_GT(r.transmissions, 250u);
    EXPECT_LE(r.transmissions, 721u);
}

TEST(PaperIntegration, OptimisedConfigurationRoughlyDoubles) {
    // The validated optimum of the RSM flow must improve on the original
    // by a factor comparable to the paper's 899/405 ~ 2.2.
    ed::system_evaluator ev;
    const auto flow = ed::run_rsm_flow(ev, {});
    for (const auto& oc : flow.outcomes) {
        const double gain = static_cast<double>(oc.validated.transmissions) /
                            static_cast<double>(flow.original_eval.transmissions);
        EXPECT_GT(gain, 1.5) << oc.name;
        EXPECT_LT(gain, 3.5) << oc.name;
    }
}

TEST(PaperIntegration, TransmissionIntervalIsDominantEffect) {
    // Fig. 4 / eq. 9: the x3 linear coefficient dwarfs x1's and x2's.
    ed::system_evaluator ev;
    const auto flow = ed::run_rsm_flow(ev, {});
    const ehdse::rsm::fit_result* fit = flow.fit.quadratic();
    ASSERT_NE(fit, nullptr);
    const auto& m = fit->model;
    EXPECT_GT(std::abs(m.linear(2)), std::abs(m.linear(0)));
    EXPECT_GT(std::abs(m.linear(2)), std::abs(m.linear(1)));
    // And the sign matches: smaller interval -> more transmissions.
    EXPECT_LT(m.linear(2), 0.0);
}

TEST(PaperIntegration, LongIntervalCapsTransmissions) {
    // x3 = 10 s gives at most 360 transmissions/h; the simulation must hit
    // that ceiling (minus the below-band stretches).
    ed::system_evaluator ev;
    ed::system_config c = ed::system_config::original();
    c.tx_interval_s = 10.0;
    const auto r = ev.evaluate(c);
    EXPECT_LE(r.transmissions, 361u);
    EXPECT_GT(r.transmissions, 180u);
}

TEST(PaperIntegration, TwoStageTuningBeatsAlternatives) {
    // Section IV-C: coarse+fine is the energy-efficient choice. Compare
    // one-hour runs under each controller mode at a small transmission
    // interval, where the transmission count tracks the energy budget
    // rather than the interval ceiling.
    auto run_mode = [](em::tuning_mode mode) {
        em::controller_params ctl;
        ctl.mode = mode;
        ed::system_evaluator ev({}, {}, {}, {}, {}, ctl);
        ed::system_config c = ed::system_config::original();
        c.tx_interval_s = 0.05;
        return ev.evaluate(c);
    };
    const auto two_stage = run_mode(em::tuning_mode::two_stage);
    const auto disabled = run_mode(em::tuning_mode::disabled);
    const auto fine_only = run_mode(em::tuning_mode::fine_only);

    // Retuning must pay for itself against a fixed harvester.
    EXPECT_GT(two_stage.transmissions, disabled.transmissions);
    EXPECT_GT(two_stage.harvested_energy_j, 1.5 * disabled.harvested_energy_j);
    // Fine-only cannot track 5 Hz jumps: it harvests less than two-stage.
    EXPECT_GT(two_stage.harvested_energy_j, fine_only.harvested_energy_j);
}

TEST(PaperIntegration, SupercapStaysInOperatingBand) {
    // Fig. 5: the waveform never collapses or overcharges during the hour.
    ed::system_evaluator ev;
    ed::evaluation_options opts;
    opts.record_traces = true;
    const auto r = ev.evaluate(ed::system_config::original(), opts);
    ASSERT_TRUE(r.voltage_trace.has_value());
    EXPECT_GT(r.voltage_trace->min_value(), 2.3);
    EXPECT_LT(r.voltage_trace->max_value(), 3.3);
}

TEST(PaperIntegration, ControllerRetunesAfterEachFrequencyStep) {
    const auto& r = eval_original();
    // Two frequency steps -> at least two coarse retunes, and the magnet
    // travelled a substantial fraction of the range.
    EXPECT_GE(r.tuning.coarse_tunings, 2u);
    EXPECT_GT(r.tuning.coarse_steps, 80u);
    // Watchdog fired roughly duration / period times.
    EXPECT_NEAR(static_cast<double>(r.tuning.wakeups), 3600.0 / 320.0, 2.0);
}

TEST(PaperIntegration, EnergyLedgerDominatedByActuatorAndNode) {
    const auto& r = eval_original();
    const double actuator =
        r.ledger.total("actuator.coarse") + r.ledger.total("actuator.fine");
    const double node = r.ledger.total("node.transmission");
    // These two accounts carry most of the discrete budget (Table IV
    // actuator costs are the largest single figures in the paper).
    EXPECT_GT(actuator + node, 0.8 * r.ledger.grand_total());
    EXPECT_GT(actuator, 0.0);
    EXPECT_GT(node, 0.0);
}

// Energy conservation must hold at EVERY design point, not just the
// baseline: stored-energy change = harvested - withdrawn - sustained -
// leakage (leakage being the only unlogged term, bounded analytically).
class EnergyConservationSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(EnergyConservationSweep, BalanceClosesWithinLeakageBound) {
    const auto [clock, wd, interval] = GetParam();
    ed::scenario s;
    s.duration_s = 1200.0;
    s.step_period_s = 500.0;
    ed::system_evaluator ev(s);
    const auto r = ev.evaluate(ed::system_config{clock, wd, interval});
    ASSERT_TRUE(r.sim_ok);

    ehdse::power::supercapacitor cap;
    const double dE = cap.energy_at(r.final_voltage_v) - cap.energy_at(2.80);
    const double balance =
        r.harvested_energy_j - r.withdrawn_energy_j - r.sustained_load_energy_j;
    const double leak_max = r.max_voltage_v * r.max_voltage_v /
                            cap.params().leakage_resistance_ohm * s.duration_s;
    const double leak_min = r.min_voltage_v * r.min_voltage_v /
                            cap.params().leakage_resistance_ohm * s.duration_s;
    // dE = balance - leakage, with leakage in [leak_min, leak_max].
    EXPECT_LE(dE, balance - leak_min + 1e-4);
    EXPECT_GE(dE, balance - leak_max - 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EnergyConservationSweep,
    ::testing::Values(std::make_tuple(125e3, 60.0, 0.005),
                      std::make_tuple(125e3, 600.0, 10.0),
                      std::make_tuple(8e6, 60.0, 10.0),
                      std::make_tuple(8e6, 600.0, 0.005),
                      std::make_tuple(4e6, 320.0, 5.0),
                      std::make_tuple(1e6, 150.0, 0.5)));

TEST(PaperIntegration, FasterWatchdogRespondsFasterToFrequencySteps) {
    ed::system_evaluator ev;
    ed::system_config slow = ed::system_config::original();
    slow.watchdog_period_s = 600.0;
    ed::system_config fast = ed::system_config::original();
    fast.watchdog_period_s = 60.0;
    const auto r_slow = ev.evaluate(slow);
    const auto r_fast = ev.evaluate(fast);
    // Faster wake-up shortens the detuned windows after each step, so the
    // fast config harvests at least as much energy.
    EXPECT_GE(r_fast.harvested_energy_j, r_slow.harvested_energy_j);
}
