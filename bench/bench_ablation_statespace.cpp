// Ref [9] ablation: the envelope (cycle-averaged, "linearised state-space")
// fast path against the full nonlinear transient model — accuracy of the
// predicted charging power and the wall-clock speed-up that makes hour-long
// design-space sweeps affordable.
//
// Each case's transient run and its envelope solve are timed as paired
// trials (bench::interleaved_trials): the speed-up column is the median of
// the per-trial ratios, with their interquartile range, and the wall
// columns are the medians of each side.
#include <cstdio>

#include "bench_json.hpp"
#include "harvester/envelope.hpp"
#include "harvester/transient_model.hpp"
#include "harvester/tuning_table.hpp"
#include "power/supercapacitor.hpp"
#include "sim/simulator.hpp"

int main() {
    using namespace ehdse;

    const harvester::microgenerator gen;
    const harvester::tuning_table table(gen);
    const power::supercapacitor cap;
    const power::load_bank no_loads;
    constexpr double accel = 0.060 * harvester::k_gravity;
    constexpr double window_s = 20.0;  // measured after a 4 s settling lead-in

    std::printf("=== Accelerated (envelope) vs full transient model ===\n");
    std::printf("(charging power into the store at V = 2.8 V, 60 mg excitation;\n"
                " wall = median of %d paired trials, speed-up = median per-trial "
                "ratio [IQR])\n\n",
                bench::k_trials);
    std::printf("%8s %6s | %12s %10s | %12s %10s | %8s %9s %7s\n", "f (Hz)",
                "pos", "transient P", "wall (ms)", "envelope P", "wall (ms)",
                "err %", "speed-up", "[IQR]");

    struct case_row {
        double f_hz;
        double detune_hz;  ///< position targets f - detune (0 = tuned)
    };
    const case_row cases[] = {{64.0, 0.0}, {69.0, 0.0}, {69.0, 0.5},
                              {69.0, 1.5}, {74.0, 0.0}, {80.0, 0.0}};
    for (const auto& [f, detune] : cases) {
        const int pos = table.lookup(f - detune);
        const harvester::vibration_source vib(accel, f);

        // Full transient run: the harvested power over the window.
        const auto transient = [&] {
            harvester::transient_model model(gen, vib, cap, no_loads);
            model.set_position(pos);
            sim::ode_options opt;
            opt.abs_tol = 1e-9;
            opt.rel_tol = 1e-6;
            opt.initial_dt = 1e-5;
            opt.max_dt = harvester::transient_model::suggested_max_dt(f);
            auto x = harvester::transient_model::initial_state(2.8);
            sim::simulator sim(model, x, opt);
            sim.run_until(4.0);
            const double e0 =
                sim.state_at(harvester::transient_model::ix_harvested);
            sim.run_until(4.0 + window_s);
            const double e1 =
                sim.state_at(harvester::transient_model::ix_harvested);
            return (e1 - e0) / window_s;
        };
        // Envelope solution: one solve of the operating point (the
        // hour-long simulator re-solves it per integrator stage).
        const auto envelope = [&] {
            return harvester::solve_envelope(gen, pos, f, accel, 2.8);
        };

        const double p_transient = transient();
        const harvester::envelope_point pt = envelope();
        const bench::paired_trials t = bench::interleaved_trials(
            [&] { (void)transient(); }, [&] { (void)envelope(); }, 1.0);

        const double err = pt.elec.p_store_w > 0.0 || p_transient > 0.0
                               ? 100.0 * (pt.elec.p_store_w - p_transient) /
                                     (p_transient > 0 ? p_transient : 1.0)
                               : 0.0;
        std::printf("%5.1f%+3.1f %5d | %9.2f uW %10.1f | %9.2f uW %10.4f | "
                    "%+7.1f %8.0fx %6.0f\n",
                    f, detune, pos, p_transient * 1e6,
                    1e3 / t.reference.median, pt.elec.p_store_w * 1e6,
                    1e3 / t.candidate.median, err, t.ratio.median,
                    t.ratio.iqr);
    }

    std::printf("\nThe envelope model tracks the transient ground truth within a\n"
                "few percent at and around resonance while being orders of\n"
                "magnitude faster — the property (paper ref [9]) that makes the\n"
                "10-run DOE over one-hour simulations practical.\n");
    return 0;
}
