// Tunable electromagnetic cantilever microgenerator.
//
// Physics follows the Southampton tunable harvester (Garcia et al.,
// PowerMEMS 2009 — paper ref [12]) as modelled in paper ref [9]:
//
//   * second-order mechanics:  m z'' + c z' + k_eff z = -m a(t)
//     where z is the proof-mass displacement relative to the base and a(t)
//     the base acceleration;
//   * electromagnetic transduction:  emf e = phi * z',  reaction force
//     F = phi * i  on the mass, coil resistance R_c (inductance is
//     negligible at vibration frequencies and is carried only for the full
//     transient model);
//   * magnetic-spring tuning: an axial attractive force between a beam-tip
//     magnet and an actuator-borne magnet, F_m(d) ~ 1/d^4 with gap d,
//     pre-tensions the cantilever and raises its effective stiffness:
//         k_eff(d) = k0 * (1 + F_m(d) / F_cr)
//     giving resonance  f_r(d) = f0 * sqrt(1 + F_m(d)/F_cr).
//
// Default parameters are calibrated to the published device class: untuned
// resonance 64 Hz, tuning range up to ~78 Hz at minimum gap, and an output
// power of order 100 uW at 60 mg excitation (DESIGN.md section 5).
#pragma once

#include <cmath>
#include <cstdint>

namespace ehdse::harvester {

/// How actuator travel maps to resonant frequency.
enum class tuning_law {
    /// Calibrated linear f(position) map. Tunable-harvester mechanisms are
    /// designed (lever/cam geometry, operating the magnetic spring in its
    /// quasi-linear region) so that frequency is roughly uniform in travel;
    /// the firmware LUT is calibrated against the realised map either way.
    /// This is the default — it also keeps the energy cost of a retune
    /// proportional to the frequency change, as the paper's energy budget
    /// implies.
    linearised,
    /// Raw magnetic-dipole stiffening: F_m ~ 1/d^4 with a linear-travel
    /// gap. Physically primitive variant; strongly non-uniform (positions
    /// crowd at the low-frequency end).
    magnetic_dipole,
};

/// Physical parameter set of the tunable microgenerator.
struct microgenerator_params {
    // --- mechanics ---
    double mass_kg = 0.02;          ///< proof mass (coil + magnets)
    double damping_ratio = 0.0025;   ///< open-circuit mechanical damping ratio
    double f_nominal_hz = 60.0;     ///< zero-tuning-force resonance (unreachable:
                                    ///< even at max gap some tuning force remains)
    double max_displacement_m = 1.5e-3;  ///< end-stop limit (saturates response)

    // --- transduction ---
    double coupling_v_per_ms = 70.0;  ///< phi: emf per unit velocity (= N/A)
    double coil_resistance_ohm = 5000.0;
    double coil_inductance_h = 0.10;  ///< used only by the full transient model

    // --- magnetic tuning mechanism ---
    // Calibrated to a position-0 resonance of 64 Hz and a position-255
    // resonance of 88 Hz — the tuning-range class of the Southampton
    // magnetically tuned cantilever devices.
    tuning_law law = tuning_law::linearised;
    double f_min_hz = 64.0;  ///< linearised law: resonance at position 0
    double f_max_hz = 88.0;  ///< linearised law: resonance at position 255

    // magnetic_dipole law parameters (also used by magnetic_force()):
    double gap_min_m = 5e-3;      ///< actuator fully extended (highest f_r)
    double gap_max_m = 8.5e-3;    ///< actuator fully retracted (lowest f_r)
    double tuning_force_at_min_gap_n = 4.854;  ///< F_m at gap_min
    double critical_load_n = 4.2168;           ///< F_cr stiffening scale

    /// Number of discrete actuator positions (8-bit in the paper).
    static constexpr int k_position_count = 256;
};

/// Steady-state response of the microgenerator against a purely resistive
/// load (the rectifier-coupled solution lives in envelope.hpp).
struct linear_response {
    double displacement_amp_m = 0.0;  ///< |Z|
    double velocity_amp_ms = 0.0;     ///< omega * |Z|
    double emf_amp_v = 0.0;           ///< phi * omega * |Z| (open-circuit emf)
    bool displacement_limited = false;  ///< clipped at the end stops
};

/// The operands of response() that do not depend on the electrical
/// damping, at one excitation and actuator position: prepared once when
/// many dampings are tried at one operating point (the envelope damping
/// solve).
struct drive_point {
    double omega_rad = 0.0;
    double detuning = 0.0;    ///< k_eff - m omega^2 (N/m)
    double mass_accel = 0.0;  ///< m A (N)
};

/// Stateless physics of one microgenerator; all queries are pure functions
/// of the parameter set, which keeps the model trivially usable from both
/// the envelope and the full transient simulators.
class microgenerator {
public:
    explicit microgenerator(microgenerator_params params = {});

    const microgenerator_params& params() const noexcept { return params_; }

    /// Base (untuned) stiffness k0 = m (2 pi f0)^2.
    double base_stiffness() const noexcept { return k0_; }

    /// Mechanical damping coefficient c = 2 zeta sqrt(k0 m).
    double mech_damping() const noexcept { return c_mech_; }

    /// Magnet gap for a discrete actuator position in [0, 255].
    /// Position 0 = max gap (lowest f_r); 255 = min gap (highest f_r).
    double gap_at(int position) const;

    /// Axial magnetic tuning force at gap d (attractive, in newtons).
    double magnetic_force(double gap_m) const;

    /// Effective stiffness at a discrete actuator position.
    double effective_stiffness(int position) const;

    /// Resonant frequency (Hz) at a discrete actuator position.
    double resonant_frequency(int position) const;

    /// Lowest / highest achievable resonant frequency.
    double min_frequency() const { return resonant_frequency(0); }
    double max_frequency() const {
        return resonant_frequency(microgenerator_params::k_position_count - 1);
    }

    /// Steady-state linear response at excitation (omega, accel amplitude A)
    /// with total damping c_total = mech_damping() + c_electrical.
    /// The displacement is clipped to the end-stop limit.
    linear_response response(double omega_rad, double accel_amp_ms2,
                             int position, double c_electrical) const;

    /// response()'s damping-independent operands, with its checks:
    /// std::invalid_argument for omega <= 0, std::out_of_range for a
    /// position outside [0, 255].
    drive_point drive(double omega_rad, double accel_amp_ms2,
                      int position) const;

    /// response() at a prepared drive point, for c_electrical >= 0
    /// (unchecked). The four-argument response() runs this formula.
    linear_response response(const drive_point& point,
                             double c_electrical) const noexcept {
        const double c_total = c_mech_ + c_electrical;
        const double im = c_total * point.omega_rad;
        const double denom =
            std::sqrt(point.detuning * point.detuning + im * im);

        linear_response out;
        out.displacement_amp_m = point.mass_accel / denom;
        if (out.displacement_amp_m > params_.max_displacement_m) {
            out.displacement_amp_m = params_.max_displacement_m;
            out.displacement_limited = true;
        }
        out.velocity_amp_ms = point.omega_rad * out.displacement_amp_m;
        out.emf_amp_v = params_.coupling_v_per_ms * out.velocity_amp_ms;
        return out;
    }

    /// Quality factor at a position with the given electrical damping.
    double quality_factor(int position, double c_electrical) const;

    /// Envelope (amplitude) settling time constant tau = 2 m / c_total —
    /// how long the mechanical amplitude takes to approach a new steady
    /// state after a retune (the paper's algorithms wait 5 s for this).
    double settling_tau(double c_electrical) const;

private:
    microgenerator_params params_;
    double k0_;
    double c_mech_;
};

}  // namespace ehdse::harvester
