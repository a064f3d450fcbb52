// Section IV-C ablation: two-subroutine tuning (coarse + fine) against
// coarse-only, fine-only and no tuning at all, over the full one-hour
// scenario. Run at a small transmission interval so the transmission count
// tracks the energy budget, plus the original 5 s interval for reference.
#include <cstdio>

#include "dse/system_evaluator.hpp"

int main() {
    using namespace ehdse;

    std::printf("=== Tuning-mode ablation (paper section IV-C) ===\n\n");

    struct mode_row {
        const char* name;
        mcu::tuning_mode mode;
    };
    const mode_row modes[] = {
        {"two-stage (paper)", mcu::tuning_mode::two_stage},
        {"coarse-only", mcu::tuning_mode::coarse_only},
        {"fine-only", mcu::tuning_mode::fine_only},
        {"disabled (fixed f_r)", mcu::tuning_mode::disabled},
    };

    for (double interval : {0.05, 5.0}) {
        std::printf("--- transmission interval %.2f s ---\n", interval);
        std::printf("%-22s %8s %12s %12s %10s %10s\n", "mode", "tx/h",
                    "harvested", "tuning cost", "act steps", "fine iters");
        for (const auto& m : modes) {
            mcu::controller_params ctl;
            ctl.mode = m.mode;
            dse::system_evaluator ev({}, {}, {}, {}, {}, ctl);
            dse::system_config cfg = dse::system_config::original();
            cfg.tx_interval_s = interval;
            const auto r = ev.evaluate(cfg);
            const double tuning_cost =
                r.ledger.total("actuator.coarse") + r.ledger.total("actuator.fine") +
                r.ledger.total("accelerometer") + r.ledger.total("mcu.measure") +
                r.ledger.total("mcu.fine") + r.ledger.total("mcu.wake_check");
            std::printf("%-22s %8llu %9.1f mJ %9.1f mJ %10llu %10llu\n", m.name,
                        static_cast<unsigned long long>(r.transmissions),
                        r.harvested_energy_j * 1e3, tuning_cost * 1e3,
                        static_cast<unsigned long long>(r.tuning.coarse_steps +
                                                        r.tuning.fine_steps),
                        static_cast<unsigned long long>(r.tuning.fine_iterations));
        }
        std::printf("\n");
    }

    std::printf("Expected shape (paper): the two-subroutine method harvests the\n"
                "most per joule spent on tuning; fine-only cannot track the 5 Hz\n"
                "steps (1-step walks with settle time), and no tuning strands the\n"
                "harvester off-resonance after the first frequency change.\n");
    return 0;
}
