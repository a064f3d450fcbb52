// The harvester tuning controller — paper Algorithms 1 (top level),
// 2 (coarse-grain) and 3 (fine-grain) as a digital process on the
// mixed-signal kernel.
//
// Per watchdog wake-up:
//   1. check the store holds enough energy for the actuator (Vs >= 2.6 V,
//      Algorithm 1 line 3); sleep again otherwise;
//   2. measure the vibration frequency over 8 signal periods (Timer1 on,
//      clock-dependent energy and accuracy — see frequency_meter);
//   3. look the optimum 8-bit magnet position up; if it differs from the
//      current position run coarse tuning (move, wait 5 s to settle,
//      verify) and then fine tuning (1-step moves minimising the
//      accelerometer/microgenerator phase offset, threshold 100 us);
//      if it already matches, go back to sleep (Algorithm 1 line 12).
//
// Every phase charges its energy to the plant: MCU measurement/calculation
// energy at the configured clock, actuator step energy, and accelerometer
// on-time per fine iteration (paper Table IV).
#pragma once

#include <cstdint>

#include "harvester/plant.hpp"
#include "harvester/tuning_table.hpp"
#include "mcu/frequency_meter.hpp"
#include "mcu/power_model.hpp"
#include "numeric/rng.hpp"
#include "sim/simulator.hpp"

namespace ehdse::mcu {

/// Which tuning subroutines run — the paper's section IV-C argues the
/// two-stage method beats either subroutine alone; bench_ablation_tuning
/// quantifies that claim.
enum class tuning_mode {
    two_stage,    ///< Algorithm 1 as published: coarse then fine
    coarse_only,  ///< Algorithm 2 only (LUT accuracy floor)
    fine_only,    ///< Algorithm 3 only (1-step walks, poor for large jumps)
    disabled,     ///< never retune: a fixed-frequency harvester baseline
};

/// Controller configuration; the two MCU-side optimisation parameters live
/// here (x1 = mcu.clock_hz, x2 = watchdog_period_s).
struct controller_params {
    mcu_params mcu{};
    actuator_params actuator{};
    accelerometer_params accelerometer{};
    tuning_mode mode = tuning_mode::two_stage;

    double watchdog_period_s = 320.0;  ///< x2: 60 .. 600 s
    double settle_time_s = 5.0;        ///< wait after each magnet move
    double phase_threshold_s = 100e-6; ///< Algorithm 3 convergence criterion
    int max_fine_steps = 20;           ///< guard against threshold unreachable
    /// Algorithm 1 line 11 declares a match "within the 1/2^8 accuracy":
    /// positions within this many steps of the LUT optimum count as matching,
    /// so fine-tuning's sub-LSB corrections don't trigger a coarse move back
    /// on the next wake-up.
    int coarse_deadband_steps = 2;
    std::uint64_t rng_seed = 0x5eed;   ///< measurement-noise stream
};

/// Cumulative behaviour counters for reporting and tests.
struct controller_stats {
    std::uint64_t wakeups = 0;             ///< watchdog firings
    std::uint64_t low_energy_skips = 0;    ///< Vs < 2.6 V at wake
    std::uint64_t measurements = 0;        ///< frequency measurements taken
    std::uint64_t position_matches = 0;    ///< LUT agreed with current position
    std::uint64_t coarse_tunings = 0;      ///< coarse moves commanded
    std::uint64_t coarse_steps = 0;        ///< total actuator steps, coarse
    std::uint64_t fine_iterations = 0;     ///< fine measure/decide rounds
    std::uint64_t fine_steps = 0;          ///< total actuator steps, fine
    std::uint64_t fine_converged = 0;      ///< runs ending under threshold
};

class tuning_controller final : public sim::process {
public:
    /// `plant` and `table` must outlive the controller. The first watchdog
    /// fires a full period after t = 0 (Algorithm 1 line 2 sleeps first).
    tuning_controller(sim::simulator& sim, harvester::plant& plant,
                      const harvester::tuning_table& table,
                      controller_params params = {});

    const controller_params& params() const noexcept { return params_; }
    const controller_stats& stats() const noexcept { return stats_; }

    /// True while executing a tuning pass (not sleeping).
    bool busy() const noexcept { return phase_ != phase::sleeping; }

private:
    enum class phase {
        sleeping,        ///< waiting for the watchdog
        measuring,       ///< Timer1 counting 8 signal periods
        coarse_settling, ///< magnet moved, waiting 5 s
        fine_measuring,  ///< accelerometer + phase capture in flight
        fine_settling,   ///< 1-step move done, waiting 5 s
    };

    void activate() override;

    void begin_sleep();
    void begin_measurement();
    void finish_measurement();
    void begin_fine_measurement();
    void finish_fine_measurement();

    /// True phase offset (seconds) between displacement and resonance phase.
    double true_phase_offset() const;

    harvester::plant& plant_;
    const harvester::tuning_table& table_;
    controller_params params_;
    frequency_meter meter_;
    numeric::rng rng_;
    controller_stats stats_;

    phase phase_ = phase::sleeping;
    double last_fine_abs_offset_ = 0.0;
    int fine_steps_this_run_ = 0;
    bool fine_first_iteration_ = true;
};

}  // namespace ehdse::mcu
