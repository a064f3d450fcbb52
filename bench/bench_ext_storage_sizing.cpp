// Storage sizing study: the paper fixes the 0.55 F supercapacitor "as an
// example". How does the optimisation story change with the storage size
// and its initial charge? Small stores swing through the Table II bands
// quickly (policy-dominated behaviour); large ones buffer everything.
#include <cstdio>
#include <memory>

#include "dse/system_evaluator.hpp"
#include "power/battery.hpp"

int main() {
    using namespace ehdse;

    std::printf("=== Storage sizing: capacitance x configuration ===\n\n");
    std::printf("%10s | %18s | %18s | %14s\n", "C (F)", "original (5 s)",
                "greedy (5 ms)", "ratio");
    std::printf("%10s | %8s %9s | %8s %9s |\n", "", "tx/h", "V swing", "tx/h",
                "V swing");

    for (double c_f : {0.055, 0.22, 0.55, 1.1, 2.2}) {
        power::supercapacitor_params cap;
        cap.capacitance_f = c_f;
        dse::system_evaluator ev({}, {}, cap);

        dse::system_config original = dse::system_config::original();
        dse::system_config greedy = original;
        greedy.tx_interval_s = 0.005;

        const auto r_orig = ev.evaluate(original);
        const auto r_greedy = ev.evaluate(greedy);
        std::printf("%10.3f | %8llu %7.3f V | %8llu %7.3f V | %12.2fx\n", c_f,
                    static_cast<unsigned long long>(r_orig.transmissions),
                    r_orig.max_voltage_v - r_orig.min_voltage_v,
                    static_cast<unsigned long long>(r_greedy.transmissions),
                    r_greedy.max_voltage_v - r_greedy.min_voltage_v,
                    static_cast<double>(r_greedy.transmissions) /
                        static_cast<double>(r_orig.transmissions));
    }

    std::printf("\n=== Initial-charge sensitivity (0.55 F, greedy config) ===\n\n");
    std::printf("%12s %10s %12s %12s\n", "V initial", "tx/h", "harvested",
                "final V");
    for (double v0 : {2.60, 2.70, 2.75, 2.80, 2.90, 3.00}) {
        dse::scenario s;
        s.v_initial = v0;
        dse::system_evaluator ev(s);
        dse::system_config greedy = dse::system_config::original();
        greedy.tx_interval_s = 0.005;
        const auto r = ev.evaluate(greedy);
        std::printf("%10.2f V %10llu %9.1f mJ %10.3f V\n", v0,
                    static_cast<unsigned long long>(r.transmissions),
                    r.harvested_energy_j * 1e3, r.final_voltage_v);
    }

    std::printf("\n=== Supercapacitor vs thin-film battery (1 h, original config) ===\n\n");
    std::printf("%-26s %8s %10s %12s %12s\n", "storage", "tx/h", "V swing",
                "harvested", "final V");
    {
        dse::scenario s;
        s.v_initial = 2.95;  // inside the battery's usable window
        dse::system_evaluator ev(s);
        const auto sc = ev.evaluate(dse::system_config::original());
        std::printf("%-26s %8llu %8.3f V %9.1f mJ %10.3f V\n",
                    "supercapacitor 0.55 F",
                    static_cast<unsigned long long>(sc.transmissions),
                    sc.max_voltage_v - sc.min_voltage_v,
                    sc.harvested_energy_j * 1e3, sc.final_voltage_v);

        ev.set_storage(std::make_shared<power::thin_film_battery>());
        const auto bat = ev.evaluate(dse::system_config::original());
        std::printf("%-26s %8llu %8.3f V %9.1f mJ %10.3f V\n",
                    "thin-film battery 1 mAh",
                    static_cast<unsigned long long>(bat.transmissions),
                    bat.max_voltage_v - bat.min_voltage_v,
                    bat.harvested_energy_j * 1e3, bat.final_voltage_v);
    }

    std::printf("\nReading: the greedy design's advantage is robust across a 40x\n"
                "capacitance range; the initial charge mostly shifts how much of\n"
                "the pre-stored reserve the hour can liquidate (each extra 0.1 V\n"
                "above the 2.8 V band is ~150 mJ ~ 700 transmissions' worth).\n"
                "The battery's near-flat terminal voltage keeps the node in one\n"
                "Table II band the entire hour — stable service, at the price of\n"
                "cycle-life wear the supercapacitor does not incur.\n");
    return 0;
}
