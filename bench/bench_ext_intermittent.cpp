// Intermittent-source study: many real vibration sources (machinery, HVAC,
// vehicles) run on duty cycles rather than continuously. The storage must
// bridge the off periods — exactly the sizing question the paper's 0.55 F
// "example" capacitor raises. One hour, original vs optimised interval, at
// several duty cycles and two capacitor sizes.
#include <cstdio>

#include "dse/system_evaluator.hpp"

int main() {
    using namespace ehdse;

    std::printf("=== Intermittent vibration: duty-cycled source (1 h) ===\n");
    std::printf("(64 Hz constant frequency; 10-minute machine cycles)\n\n");

    std::printf("%12s %8s | %14s | %14s | %12s\n", "duty", "C (F)",
                "tx (5 s cfg)", "tx (50 ms cfg)", "min voltage");
    for (const double duty : {1.0, 0.7, 0.5, 0.3}) {
        for (const double c_f : {0.55, 0.11}) {
            dse::scenario s;
            s.step_count = 0;  // constant frequency: isolate the duty effect
            if (duty < 1.0) {
                const double period = 600.0;
                const double on_s = duty * period;
                std::vector<std::pair<double, double>> schedule;
                for (double t = 0.0; t < s.duration_s; t += period) {
                    schedule.emplace_back(t, 1.0);
                    schedule.emplace_back(t + on_s, 0.0);
                }
                s.amplitude_schedule = std::move(schedule);
            }
            power::supercapacitor_params cap;
            cap.capacitance_f = c_f;
            dse::system_evaluator ev(s, {}, cap);

            dse::system_config slow = dse::system_config::original();
            dse::system_config fast = slow;
            fast.tx_interval_s = 0.05;
            const auto r_slow = ev.evaluate(slow);
            const auto r_fast = ev.evaluate(fast);
            std::printf("%11.0f%% %8.2f | %14llu | %14llu | %10.3f V\n",
                        100.0 * duty, c_f,
                        static_cast<unsigned long long>(r_slow.transmissions),
                        static_cast<unsigned long long>(r_fast.transmissions),
                        r_fast.min_voltage_v);
        }
    }

    std::printf("\nReading: transmissions track the duty cycle almost linearly in\n"
                "the energy-limited (50 ms) column — the storage successfully\n"
                "bridges 3-7 minute outages at either capacitance, with the\n"
                "smaller capacitor swinging further (min voltage column). The 5 s\n"
                "column is ceiling-limited until the duty cycle starves it.\n");
    return 0;
}
