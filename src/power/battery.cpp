#include "power/battery.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ehdse::power {

thin_film_battery::thin_film_battery(battery_params params) : params_(params) {
    if (params_.capacity_c <= 0.0)
        throw std::invalid_argument("thin_film_battery: capacity must be > 0");
    if (!(params_.v_full > params_.v_empty) || params_.v_empty <= 0.0)
        throw std::invalid_argument("thin_film_battery: require 0 < v_empty < v_full");
    if (params_.charge_current_limit_a <= 0.0)
        throw std::invalid_argument("thin_film_battery: charge limit must be > 0");
    c_eff_ = params_.capacity_c / (params_.v_full - params_.v_empty);
}

double thin_film_battery::state_of_charge(double v) const {
    const double soc =
        (v - params_.v_empty) / (params_.v_full - params_.v_empty);
    return std::clamp(soc, 0.0, 1.0);
}

double thin_film_battery::energy_at(double v) const {
    // Integral of v dq with q = C_eff v, same quadratic form the kernel's
    // balance checks assume. Below v_empty the cell is unusable: treat the
    // energy as pinned at the empty level.
    const double vv = std::max(v, params_.v_empty);
    return 0.5 * c_eff_ * vv * vv;
}

double thin_film_battery::voltage_after_withdrawal(double v, double joules) const {
    if (joules < 0.0)
        throw std::invalid_argument("thin_film_battery: negative withdrawal");
    const double remaining = energy_at(v) - joules;
    const double floor_energy = 0.5 * c_eff_ * params_.v_empty * params_.v_empty;
    if (remaining <= floor_energy) return params_.v_empty;
    return std::sqrt(2.0 * remaining / c_eff_);
}

double thin_film_battery::dv_dt(double v, double i_net_a) const {
    // Charge acceptance ceiling, self-discharge, and window clamps.
    double i = std::min(i_net_a, params_.charge_current_limit_a) -
               params_.self_discharge_a;
    if (v >= params_.v_full && i > 0.0) return 0.0;
    if (v <= params_.v_empty && i < 0.0) return 0.0;
    return i / c_eff_;
}

double thin_film_battery::dv_dt_slope(double v, double i_net_a) const {
    // Above the acceptance ceiling the current no longer moves dv_dt.
    if (i_net_a > params_.charge_current_limit_a) return 0.0;
    const double i = i_net_a - params_.self_discharge_a;
    const bool clamped =
        (v >= params_.v_full && i > 0.0) || (v <= params_.v_empty && i < 0.0);
    return clamped ? 0.0 : 1.0 / c_eff_;
}

}  // namespace ehdse::power
