#include "node/sensor_node.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ehdse::node {

node_energy_model derive_energy_model(const node_params& p) {
    node_energy_model m{};
    m.active_time_s = p.wakeup_time_s + p.sensing_time_s + p.tx_time_s;
    m.charge_per_tx_c = p.wakeup_current_a * p.wakeup_time_s +
                        p.sensing_current_a * p.sensing_time_s +
                        p.tx_current_a * p.tx_time_s;
    m.energy_per_tx_j = m.charge_per_tx_c * p.nominal_supply_v;
    // Equivalent resistance such that V^2/R over the burst dissipates the
    // same energy: R = V * t_active / charge.
    m.r_transmit_ohm = p.nominal_supply_v * m.active_time_s / m.charge_per_tx_c;
    m.r_sleep_ohm = p.nominal_supply_v / p.sleep_current_a;
    return m;
}

sensor_node::sensor_node(sim::simulator& sim, harvester::plant& plant,
                         node_params params, double first_wake_s)
    : sim::process(sim), plant_(plant), params_(params) {
    if (params_.fast_interval_s <= 0.0)
        throw std::invalid_argument("sensor_node: fast interval must be > 0");
    if (params_.low_band_interval_s <= 0.0)
        throw std::invalid_argument("sensor_node: low-band interval must be > 0");
    if (params_.cutoff_voltage_v > params_.low_band_voltage_v)
        throw std::invalid_argument("sensor_node: cutoff voltage above low band");

    burst_charge_c_ = params_.wakeup_current_a * params_.wakeup_time_s +
                      params_.sensing_current_a * params_.sensing_time_s +
                      params_.tx_current_a * params_.tx_time_s;

    // The sleep floor is a sustained draw for the whole run.
    plant_.set_sustained_draw("node.sleep", params_.sleep_current_a);
    wake_after(first_wake_s);
}

double sensor_node::burst_energy_at(double v) const {
    return burst_charge_c_ * v;
}

double sensor_node::interval_at(double v) const {
    if (v < params_.cutoff_voltage_v)
        return std::numeric_limits<double>::infinity();
    if (params_.policy == tx_policy::banded) {
        return v < params_.low_band_voltage_v ? params_.low_band_interval_s
                                              : params_.fast_interval_s;
    }
    // Proportional: log-interpolate between the slow interval at the
    // cut-off and the fast interval at proportional_full_v.
    if (v >= params_.proportional_full_v) return params_.fast_interval_s;
    const double frac = (v - params_.cutoff_voltage_v) /
                        (params_.proportional_full_v - params_.cutoff_voltage_v);
    return params_.low_band_interval_s *
           std::pow(params_.fast_interval_s / params_.low_band_interval_s, frac);
}

void sensor_node::enable_telemetry(std::function<double(double)> temperature_source,
                                   std::size_t max_samples) {
    if (!temperature_source)
        throw std::invalid_argument("sensor_node: null temperature source");
    if (max_samples == 0)
        throw std::invalid_argument("sensor_node: telemetry capacity must be > 0");
    temperature_source_ = std::move(temperature_source);
    telemetry_cap_ = max_samples;
    telemetry_.clear();
}

void sensor_node::activate() {
    const double v = plant_.storage_voltage();

    if (v < params_.cutoff_voltage_v) {
        // Table II row 1: no transmission; re-check on the slow cadence.
        ++suppressed_;
        wake_after(params_.low_band_interval_s);
        return;
    }

    // Transmit now: the 4.5 ms burst is applied as an instantaneous charge
    // withdrawal (it is ~10^-6 of the storage time constant).
    plant_.withdraw(burst_energy_at(v), "node.transmission");
    ++transmissions_;
    if (v < params_.low_band_voltage_v) ++low_band_tx_;

    if (temperature_source_) {
        if (telemetry_.size() >= telemetry_cap_)
            telemetry_.erase(telemetry_.begin());  // keep the newest packets
        telemetry_.push_back(
            {sim().now(), temperature_source_(sim().now()), v});
    }

    // Next burst cannot start before the current one finished.
    const node_energy_model m = derive_energy_model(params_);
    wake_after(std::max(interval_at(v), m.active_time_s));
}

}  // namespace ehdse::node
