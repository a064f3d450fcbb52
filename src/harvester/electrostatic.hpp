// Electrostatic vibration harvester with a charge-pump conditioning
// circuit and auto-adaptive bias calibration — the registry's second
// device class, after the architecture of Galayko et al. (arXiv:0805.0877)
// with mechanical parameter envelopes from Beeby et al.'s macro-device
// survey (arXiv:0711.3314). DESIGN.md section "Harvester parameter
// envelopes" records the calibration.
//
// Model:
//
//   * mechanics — the same linear mass-spring-damper resonator as the
//     electromagnetic device: m z'' + c z' + k_eff z = -m a(t), with end
//     stops at |z| = z_max;
//
//   * electrostatic spring softening as the tuning law — a DC bias
//     voltage V_b on the variable capacitor softens the suspension,
//         k_eff(V_b) = k0 (1 - alpha (V_b / V_pi)^2),
//     where V_pi is the pull-in voltage and alpha the softening gain.
//     The discrete actuator maps positions 0..255 to a linearly FALLING
//     bias ramp, so resonance RISES with position (the ascending-
//     frequency invariant the firmware tuning LUT requires). A retune is
//     a bias-DAC write: microseconds and microjoules, not the stepper
//     motor's milliseconds and millijoules;
//
//   * conditioning — Galayko's charge pump + flyback keeps the
//     transducer's charge/discharge cycle centred on the calibrated bias
//     (their "auto-adaptive" behaviour). Cycle-averaged, that extraction
//     is an equivalent viscous damping proportional to the bias squared,
//         c_e(V_b) = c_t (V_b / V_pi)^2,
//     extracting P = c_e <zdot^2> = 0.5 c_e omega^2 Z^2 per cycle, of
//     which a fraction eta (flyback efficiency) reaches the store once
//     the pump is primed (store above the priming threshold). The
//     conditioning circuit is integral to the device, so the envelope
//     conditioning selector (diode bridge / mppt) does not alter it.
//
// The envelope and transient paths share the same equivalent damping, so
// their harvested-energy totals agree by construction — asserted per
// registered harvester by the testkit energy-agreement property.
#pragma once

#include "harvester/harvester_model.hpp"

namespace ehdse::harvester {

/// Physical parameter set of the tunable electrostatic harvester.
/// Defaults give a 58..94 Hz tuning band bracketing the electromagnetic
/// device's 64..88 Hz, and ~100 uW extraction at 60 mg.
struct electrostatic_params {
    // --- mechanics (Beeby macro-device envelope) ---
    double mass_kg = 0.012;        ///< proof mass
    double damping_ratio = 0.004;  ///< open-circuit mechanical damping ratio
    double f_unbiased_hz = 95.0;   ///< zero-bias resonance (k0 scale)
    double max_displacement_m = 1.0e-3;  ///< end-stop limit

    // --- electrostatic tuning (spring softening) ---
    double pull_in_voltage_v = 42.0;  ///< V_pi: softening voltage scale
    double softening_alpha = 0.7;     ///< alpha: softening gain at V_b = V_pi
    double bias_max_v = 39.76;        ///< bias at position 0 (lowest f_r)
    double bias_min_v = 7.27;         ///< bias at position 255 (highest f_r)

    // --- charge-pump conditioning ---
    double coupling_damping = 0.064;  ///< c_t: equivalent damping at V_b = V_pi
    double flyback_efficiency = 0.70; ///< eta: extracted power reaching the store
    double priming_voltage_v = 0.25;  ///< store floor to operate the pump

    /// Same 8-bit actuator resolution as the paper's firmware LUT.
    static constexpr int k_position_count = 256;
};

class electrostatic_harvester final : public harvester_model {
public:
    explicit electrostatic_harvester(electrostatic_params params = {});

    const electrostatic_params& params() const noexcept { return params_; }

    /// Base (zero-bias) stiffness k0 = m (2 pi f_unbiased)^2.
    double base_stiffness() const noexcept { return k0_; }
    /// Mechanical damping coefficient c = 2 zeta sqrt(k0 m).
    double mech_damping() const noexcept { return c_mech_; }

    /// Bias voltage the calibration maps to a discrete position
    /// (linearly falling ramp: position 0 = bias_max_v).
    double bias_at(int position) const;
    /// Softened suspension stiffness at a position's bias.
    double effective_stiffness(int position) const;
    /// Equivalent viscous damping the charge pump presents at a position.
    double electrical_damping(int position) const;

    const std::string& name() const noexcept override;
    obs::json_value describe() const override;
    int position_count() const noexcept override {
        return electrostatic_params::k_position_count;
    }
    double resonant_frequency(int position) const override;
    retune_cost actuator() const noexcept override;

    double initial_amplitude(double freq_hz, double accel_amp_ms2,
                             int position, double store_v,
                             const power::rectifier_params& rect) const override;
    envelope_rates envelope_dynamics(
        double freq_hz, double accel_amp_ms2, int position, double store_v,
        double z_env, conditioning_kind conditioning, double efficiency,
        const power::rectifier_params& rect,
        damping_path& path) const override;
    double phase_lag(double freq_hz, double accel_amp_ms2, int position,
                     double store_v,
                     const power::rectifier_params& rect) const override;
    std::unique_ptr<transient_rhs> make_transient(
        const vibration_source& vib, const power::storage_model& storage,
        const power::load_bank& loads,
        const power::rectifier_params& rect) const override;

    /// Steady-state displacement amplitude at (omega, accel) against the
    /// position's softened stiffness and total damping, clipped to the end
    /// stops (shared by the envelope hooks and tests).
    double displacement_amplitude(double omega_rad, double accel_amp_ms2,
                                  int position) const;

private:
    electrostatic_params params_;
    double k0_;
    double c_mech_;
};

}  // namespace ehdse::harvester
