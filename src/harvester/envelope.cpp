#include "harvester/envelope.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ehdse::harvester {

namespace {

/// One trial of the coupled pair at electrical damping c_e: the mechanics
/// there and the equivalent damping the bridge then presents,
///     T(c_e) = 2 P_mech(c_e) / (omega^2 |Z(c_e)|^2).
/// T is monotonically non-increasing in c_e (more damping -> smaller
/// amplitude -> smaller emf -> less conduction), so the self-consistent
/// operating point is the unique root of T(c) - c, found by bisection.
struct trial_point {
    linear_response mech;
    double c_target = 0.0;
};

}  // namespace

damping_grid kernel_damping_grid(const microgenerator& gen,
                                 const envelope_options& options) {
    // The bridge can never present more equivalent damping than a
    // short-circuited coil, phi^2 / R, so that (plus margin) bounds the
    // root from above.
    const double phi = gen.params().coupling_v_per_ms;
    return {phi * phi / gen.params().coil_resistance_ohm + gen.mech_damping(),
            options.tolerance * gen.mech_damping(), options.max_iterations};
}

damping_point solve_damping(const microgenerator& gen, int position,
                            double freq_hz, double accel_amp_ms2,
                            double store_v,
                            const power::rectifier_params& rect,
                            const envelope_options& options) {
    if (freq_hz <= 0.0)
        throw std::invalid_argument("solve_envelope: frequency must be > 0");
    if (accel_amp_ms2 < 0.0)
        throw std::invalid_argument("solve_envelope: negative acceleration");

    const double omega = 2.0 * std::numbers::pi * freq_hz;
    const double r_coil = gen.params().coil_resistance_ohm;
    const damping_grid grid = kernel_damping_grid(gen, options);
    const double tol = grid.tol;

    // The operating point every trial shares, checked once: the position
    // (std::out_of_range) before the store voltage and coil resistance
    // (std::invalid_argument), the order a trial's response() and
    // bridge_average() met them in. A trial still checks its emf.
    const drive_point drive = gen.drive(omega, accel_amp_ms2, position);
    const power::bridge_sink sink(store_v, r_coil, rect);

    damping_point pt;
    const auto trial = [&](double c_e) {
        trial_point tp;
        tp.mech = gen.response(drive, c_e);
        const double vel = tp.mech.velocity_amp_ms;
        if (sink.conducts(tp.mech.emf_amp_v) && vel > 0.0)
            tp.c_target = 2.0 * sink.p_mech_w(tp.mech.emf_amp_v) / (vel * vel);
        return tp;
    };

    // Root-bracket [0, c_hi] (kernel_damping_grid), bisected at
    // 0.5 * (lo + hi).
    double lo = 0.0;
    double hi = grid.c_hi;

    const trial_point at_zero = trial(0.0);
    if (at_zero.c_target <= tol) {
        // Bridge blocked (or negligibly loaded) even at the open amplitude.
        pt.mech = at_zero.mech;
        pt.c_electrical = 0.0;
        pt.converged = true;
        return pt;
    }

    // Ensure T(hi) - hi < 0 (guaranteed by the physical bound, but the
    // displacement limiter can distort T; expand defensively).
    for (int expand = 0; trial(hi).c_target > hi && expand < 8; ++expand)
        hi *= 2.0;

    for (int it = 0; it < options.max_iterations && (hi - lo) > tol; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (trial(mid).c_target > mid)
            lo = mid;
        else
            hi = mid;
    }

    // The final evaluation needs only the mechanics. Its emf lies between
    // the emfs of the final cell's ends, which trials checked, so the
    // bridge's emf check could not fail here.
    const double c_e = 0.5 * (lo + hi);
    pt.mech = gen.response(drive, c_e);
    pt.c_electrical = c_e;
    pt.converged = (hi - lo) <= tol;
    return pt;
}

envelope_point solve_envelope(const microgenerator& gen, int position,
                              double freq_hz, double accel_amp_ms2,
                              double store_v,
                              const power::rectifier_params& rect,
                              const envelope_options& options) {
    const damping_point d = solve_damping(gen, position, freq_hz, accel_amp_ms2,
                                          store_v, rect, options);
    return {d, power::bridge_average(d.mech.emf_amp_v, store_v,
                                     gen.params().coil_resistance_ohm, rect)};
}

}  // namespace ehdse::harvester
