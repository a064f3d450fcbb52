#include "power/supercapacitor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ehdse::power {

supercapacitor::supercapacitor(supercapacitor_params params) : params_(params) {
    if (params_.capacitance_f <= 0.0)
        throw std::invalid_argument("supercapacitor: capacitance must be > 0");
    if (params_.leakage_resistance_ohm <= 0.0)
        throw std::invalid_argument("supercapacitor: leakage resistance must be > 0");
    if (params_.max_voltage_v <= 0.0)
        throw std::invalid_argument("supercapacitor: voltage rating must be > 0");
}

double supercapacitor::energy_at(double v) const {
    return 0.5 * params_.capacitance_f * v * v;
}

double supercapacitor::energy_between(double v_hi, double v_lo) const {
    return energy_at(v_hi) - energy_at(v_lo);
}

double supercapacitor::voltage_after_withdrawal(double v, double joules) const {
    if (joules < 0.0)
        throw std::invalid_argument("supercapacitor: negative withdrawal");
    const double remaining = energy_at(v) - joules;
    if (remaining <= 0.0) return 0.0;
    return std::sqrt(2.0 * remaining / params_.capacitance_f);
}

double supercapacitor::leakage_current(double v) const {
    return v / params_.leakage_resistance_ohm;
}

double supercapacitor::dv_dt(double v, double i_net_a) const {
    const double i_total = i_net_a - leakage_current(v);
    // Above the rating only discharge is allowed (a shunt protection
    // circuit would clamp a real board the same way).
    if (v >= params_.max_voltage_v && i_total > 0.0) return 0.0;
    // At 0 V only charging is allowed: a depleted capacitor cannot be
    // driven negative by the loads' constant-current terms.
    if (v <= 0.0 && i_total < 0.0) return 0.0;
    return i_total / params_.capacitance_f;
}

double supercapacitor::dv_dt_slope(double v, double i_net_a) const {
    const double i_total = i_net_a - leakage_current(v);
    const bool clamped = (v >= params_.max_voltage_v && i_total > 0.0) ||
                         (v <= 0.0 && i_total < 0.0);
    return clamped ? 0.0 : 1.0 / params_.capacitance_f;
}

}  // namespace ehdse::power
