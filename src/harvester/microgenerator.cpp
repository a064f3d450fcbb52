#include "harvester/microgenerator.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ehdse::harvester {

namespace {
constexpr double two_pi = 2.0 * std::numbers::pi;
}

microgenerator::microgenerator(microgenerator_params params)
    : params_(params) {
    if (params_.mass_kg <= 0.0)
        throw std::invalid_argument("microgenerator: mass must be > 0");
    if (params_.f_nominal_hz <= 0.0)
        throw std::invalid_argument("microgenerator: nominal frequency must be > 0");
    if (params_.damping_ratio <= 0.0)
        throw std::invalid_argument("microgenerator: damping ratio must be > 0");
    if (params_.gap_min_m <= 0.0 || params_.gap_max_m <= params_.gap_min_m)
        throw std::invalid_argument("microgenerator: require 0 < gap_min < gap_max");
    if (params_.critical_load_n <= 0.0)
        throw std::invalid_argument("microgenerator: critical load must be > 0");
    if (params_.law == tuning_law::linearised &&
        (params_.f_min_hz <= 0.0 || params_.f_max_hz <= params_.f_min_hz))
        throw std::invalid_argument("microgenerator: require 0 < f_min < f_max");

    const double w0 = two_pi * params_.f_nominal_hz;
    k0_ = params_.mass_kg * w0 * w0;
    c_mech_ = 2.0 * params_.damping_ratio * std::sqrt(k0_ * params_.mass_kg);
}

double microgenerator::gap_at(int position) const {
    constexpr int last = microgenerator_params::k_position_count - 1;
    if (position < 0 || position > last)
        throw std::out_of_range("microgenerator: actuator position outside [0,255]");
    const double frac = static_cast<double>(position) / last;
    return params_.gap_max_m - frac * (params_.gap_max_m - params_.gap_min_m);
}

double microgenerator::magnetic_force(double gap_m) const {
    if (gap_m <= 0.0)
        throw std::invalid_argument("microgenerator: gap must be > 0");
    // Inverse-fourth-power law of two axially magnetised dipoles, anchored
    // at the minimum-gap force.
    const double r = params_.gap_min_m / gap_m;
    return params_.tuning_force_at_min_gap_n * r * r * r * r;
}

double microgenerator::effective_stiffness(int position) const {
    if (params_.law == tuning_law::linearised) {
        constexpr int last = microgenerator_params::k_position_count - 1;
        if (position < 0 || position > last)
            throw std::out_of_range("microgenerator: actuator position outside [0,255]");
        const double frac = static_cast<double>(position) / last;
        const double f = params_.f_min_hz + frac * (params_.f_max_hz - params_.f_min_hz);
        const double w = two_pi * f;
        return params_.mass_kg * w * w;
    }
    const double fm = magnetic_force(gap_at(position));
    return k0_ * (1.0 + fm / params_.critical_load_n);
}

double microgenerator::resonant_frequency(int position) const {
    return std::sqrt(effective_stiffness(position) / params_.mass_kg) / two_pi;
}

linear_response microgenerator::response(double omega_rad, double accel_amp_ms2,
                                         int position, double c_electrical) const {
    if (c_electrical < 0.0)
        throw std::invalid_argument("microgenerator: electrical damping must be >= 0");
    return response(drive(omega_rad, accel_amp_ms2, position), c_electrical);
}

drive_point microgenerator::drive(double omega_rad, double accel_amp_ms2,
                                  int position) const {
    if (omega_rad <= 0.0)
        throw std::invalid_argument("microgenerator: omega must be > 0");
    const double m = params_.mass_kg;
    return {omega_rad, effective_stiffness(position) - m * omega_rad * omega_rad,
            m * accel_amp_ms2};
}

double microgenerator::quality_factor(int position, double c_electrical) const {
    const double k = effective_stiffness(position);
    return std::sqrt(k * params_.mass_kg) / (c_mech_ + c_electrical);
}

double microgenerator::settling_tau(double c_electrical) const {
    return 2.0 * params_.mass_kg / (c_mech_ + c_electrical);
}

}  // namespace ehdse::harvester
