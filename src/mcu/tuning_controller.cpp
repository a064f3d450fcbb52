#include "mcu/tuning_controller.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ehdse::mcu {

tuning_controller::tuning_controller(sim::simulator& sim, harvester::plant& plant,
                                     const harvester::tuning_table& table,
                                     controller_params params)
    : sim::process(sim),
      plant_(plant),
      table_(table),
      params_(params),
      meter_(params.mcu),
      rng_(params.rng_seed) {
    if (params_.watchdog_period_s <= 0.0)
        throw std::invalid_argument("tuning_controller: watchdog period must be > 0");
    if (params_.settle_time_s < 0.0)
        throw std::invalid_argument("tuning_controller: negative settle time");
    if (params_.phase_threshold_s <= 0.0)
        throw std::invalid_argument("tuning_controller: phase threshold must be > 0");

    plant_.set_sustained_draw("mcu.sleep", params_.mcu.sleep_current_a);
    begin_sleep();
}

void tuning_controller::begin_sleep() {
    phase_ = phase::sleeping;
    wake_after(params_.watchdog_period_s);
}

void tuning_controller::activate() {
    switch (phase_) {
        case phase::sleeping: {
            // Watchdog fired (Algorithm 1 lines 2-3).
            ++stats_.wakeups;
            if (params_.mode == tuning_mode::disabled) {
                begin_sleep();
                return;
            }
            plant_.withdraw(mcu_active_power(params_.mcu) *
                                (params_.mcu.wake_check_cycles / params_.mcu.clock_hz),
                            "mcu.wake_check");
            if (plant_.storage_voltage() < params_.actuator.min_drive_voltage_v) {
                ++stats_.low_energy_skips;
                begin_sleep();
                return;
            }
            if (params_.mode == tuning_mode::fine_only) {
                fine_steps_this_run_ = 0;
                fine_first_iteration_ = true;
                begin_fine_measurement();
                return;
            }
            begin_measurement();
            return;
        }
        case phase::measuring:
            finish_measurement();
            return;
        case phase::coarse_settling:
            // Algorithm 2 finished; Algorithm 1 line 16 starts the phase check.
            if (params_.mode == tuning_mode::coarse_only) {
                begin_sleep();
                return;
            }
            begin_fine_measurement();
            return;
        case phase::fine_measuring:
            finish_fine_measurement();
            return;
        case phase::fine_settling:
            begin_fine_measurement();
            return;
    }
}

void tuning_controller::begin_measurement() {
    // Timer1 on, counting 8 periods of the microgenerator signal
    // (Algorithm 1 lines 4-9). The MCU is busy for the full window.
    phase_ = phase::measuring;
    const double f_signal = std::max(plant_.vibration_frequency(), 1.0);
    wake_after(measurement_duration(params_.mcu, f_signal) +
               params_.mcu.coarse_calc_cycles / params_.mcu.clock_hz);
}

void tuning_controller::finish_measurement() {
    ++stats_.measurements;
    const double f_true = plant_.vibration_frequency();
    plant_.withdraw(coarse_energy(params_.mcu, f_true), "mcu.measure");

    const double f_hat = meter_.measure_frequency(f_true, rng_);
    const int target = table_.lookup(f_hat);
    const int current = plant_.position();

    if (std::abs(target - current) <= params_.coarse_deadband_steps) {
        // Algorithm 1 lines 11-12: position already optimal, sleep.
        ++stats_.position_matches;
        begin_sleep();
        return;
    }

    // Algorithm 2: command the move, magnet travels, then settle 5 s.
    ++stats_.coarse_tunings;
    const int steps = std::abs(target - current);
    stats_.coarse_steps += static_cast<std::uint64_t>(steps);
    plant_.withdraw(actuator_move_energy(params_.actuator, steps), "actuator.coarse");
    plant_.set_position(target);

    phase_ = phase::coarse_settling;
    fine_steps_this_run_ = 0;
    fine_first_iteration_ = true;
    wake_after(actuator_move_time(params_.actuator, steps) + params_.settle_time_s);
}

double tuning_controller::true_phase_offset() const {
    // Displacement lags base acceleration by phase_lag(); at resonance the
    // lag is exactly pi/2. Expressed as a time offset at the present
    // vibration frequency (what the 100 us threshold is compared against).
    const double f = std::max(plant_.vibration_frequency(), 1.0);
    const double lag = plant_.phase_lag();
    return (lag - std::numbers::pi / 2.0) / (2.0 * std::numbers::pi * f);
}

void tuning_controller::begin_fine_measurement() {
    // Algorithm 3 lines 5-7: accelerometer on, both signals captured.
    phase_ = phase::fine_measuring;
    const double f_signal = std::max(plant_.vibration_frequency(), 1.0);
    const double t_capture = fine_measurement_duration(params_.mcu, f_signal) +
                             params_.mcu.fine_calc_cycles / params_.mcu.clock_hz;
    wake_after(std::max(t_capture, params_.accelerometer.on_time_s));
}

void tuning_controller::finish_fine_measurement() {
    ++stats_.fine_iterations;
    const double f_true = plant_.vibration_frequency();
    plant_.withdraw(fine_energy(params_.mcu, f_true), "mcu.fine");
    plant_.withdraw(params_.accelerometer.energy_per_use_j, "accelerometer");

    const double measured = meter_.measure_phase_offset(true_phase_offset(), rng_);
    const double abs_offset = std::abs(measured);

    if (abs_offset < params_.phase_threshold_s) {
        // Algorithm 3 exit: resonance reached (as far as the MCU can tell).
        ++stats_.fine_converged;
        begin_sleep();
        return;
    }
    // "Improving" must clear the measurement noise floor: far from
    // resonance the phase saturates and successive readings differ only by
    // noise, which a real firmware treats as convergence failure.
    const double improvement_floor = 0.25 * meter_.phase_sigma();
    const bool out_of_steps = fine_steps_this_run_ >= params_.max_fine_steps;
    const bool not_improving =
        !fine_first_iteration_ &&
        abs_offset >= last_fine_abs_offset_ - improvement_floor;
    if (out_of_steps || not_improving) {
        // The threshold is unreachable at this measurement accuracy /
        // position quantisation; a real firmware bails out the same way.
        begin_sleep();
        return;
    }
    last_fine_abs_offset_ = abs_offset;
    fine_first_iteration_ = false;

    // Positive offset: lag > pi/2, i.e. driving above resonance — raise the
    // resonant frequency by extending the actuator (one step), and vice versa.
    const int direction = measured > 0.0 ? 1 : -1;
    const int current = plant_.position();
    const int target = std::clamp(current + direction, 0,
                                  harvester::microgenerator_params::k_position_count - 1);
    if (target == current) {
        begin_sleep();  // pinned at the end of travel
        return;
    }
    ++fine_steps_this_run_;
    ++stats_.fine_steps;
    plant_.withdraw(actuator_move_energy(params_.actuator, 1), "actuator.fine");
    plant_.set_position(target);

    phase_ = phase::fine_settling;
    wake_after(actuator_move_time(params_.actuator, 1) + params_.settle_time_s);
}

}  // namespace ehdse::mcu
