// Envelope (cycle-averaged) harvester solution — the "accelerated
// simulation" technique of paper ref [9], re-derived for the rectifier-
// coupled case.
//
// Instead of integrating the 60-plus-Hz mechanical oscillation for an hour
// of simulated time, the envelope model computes the periodic steady state
// at the current (excitation frequency, actuator position, storage voltage)
// triple. The mechanical and electrical sides couple through the
// equivalent electrical damping
//     c_e = 2 P_mech / (omega^2 |Z|^2),
// where P_mech is the cycle-averaged power the bridge extracts (see
// power/rectifier.hpp). The bridge's presented damping T(c_e) is monotone
// non-increasing in c_e, so the self-consistent point is the unique root of
// T(c) - c, found by bisection — unconditionally convergent, unlike the
// naive fixed-point iteration which cycles between the bridge's blocked and
// saturated regimes at strong coupling.
//
// This is the reference solve, cold and with libm's asin/cos/sin: the
// electromagnetic harvester's initial_amplitude and phase_lag taps use it,
// and tests hold the envelope RHS (the damping kernel of
// electromagnetic_kernel.cpp, which bisects the same fixed point with a
// polynomial asin and a warm start) to it within solver tolerance. Two
// entry points share one solver. solve_damping returns c_e and the
// mechanics there; its final evaluation at the converged c_e runs the
// mechanics only. solve_envelope adds the bridge's operating point,
// computed once from those mechanics.
//
// The result feeds the slow dynamics: the supercapacitor sees the averaged
// charging current i_avg, and the mechanical amplitude relaxes towards the
// new steady state with time constant 2m / c_total after each retune.
#pragma once

#include "harvester/damping_path.hpp"
#include "harvester/microgenerator.hpp"
#include "power/rectifier.hpp"

namespace ehdse::harvester {

/// Converged self-consistent damping and the mechanics there.
struct damping_point {
    linear_response mech;        ///< steady-state mechanics
    double c_electrical = 0.0;   ///< equivalent electrical damping
    bool converged = true;
};

/// Converged cycle-averaged operating point: the damping point plus the
/// bridge's averaged quantities at its mechanics.
struct envelope_point : damping_point {
    power::rectifier_operating_point elec;
};

/// Solver knobs. The bisection brackets c_e within tolerance *
/// mech_damping in 27 trials of T(c_e), each a mechanics and a bridge
/// evaluation, plus a final evaluation of the mechanics at the converged
/// c_e when the bridge conducts, and in one trial when it is blocked,
/// where the trial at c_e = 0 is the result. The envelope RHS kernel uses
/// the same bracket, tolerance and iteration limit (kernel_damping_grid)
/// on its own dyadic grid.
struct envelope_options {
    double tolerance = 1e-6;   ///< on c_e, relative to mechanical damping
    int max_iterations = 200;  ///< bisection step limit
};

/// Solve the coupled steady state at excitation `freq_hz` / amplitude
/// `accel_amp_ms2`, actuator position `position`, storage voltage `store_v`.
/// Throws std::invalid_argument for a frequency <= 0, a negative
/// acceleration, a negative store voltage and NaN inputs, and
/// std::out_of_range for a position outside [0, 255].
damping_point solve_damping(const microgenerator& gen, int position,
                            double freq_hz, double accel_amp_ms2,
                            double store_v,
                            const power::rectifier_params& rect = {},
                            const envelope_options& options = {});

/// The grid the envelope RHS kernel bisects on: solve_damping's bracket
/// [0, phi^2 / R + mech_damping], tolerance and iteration limit.
damping_grid kernel_damping_grid(const microgenerator& gen,
                                 const envelope_options& options = {});

/// solve_damping plus power::bridge_average at the converged mechanics.
envelope_point solve_envelope(const microgenerator& gen, int position,
                              double freq_hz, double accel_amp_ms2,
                              double store_v,
                              const power::rectifier_params& rect = {},
                              const envelope_options& options = {});

}  // namespace ehdse::harvester
