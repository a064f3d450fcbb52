// Diode-bridge rectifier, cycle-averaged model.
//
// The microgenerator's sinusoidal emf e(t) = E sin(wt) drives the storage
// capacitor (held at voltage V over one vibration cycle) through a full
// bridge with per-diode drop Vd and the coil's series resistance R. The
// bridge conducts while |e| exceeds the sink voltage U = V + 2 Vd, i.e. for
// theta in (theta1, pi - theta1) each half cycle with theta1 = asin(U/E).
//
// Closed-form cycle averages (used by the envelope simulator and verified
// against the full transient model in tests):
//   I_avg  = (1/(pi R)) [ 2 E cos(theta1) - U (pi - 2 theta1) ]
//   P_elec = (1/(pi R)) [ E^2 ((pi - 2 theta1)/2 + sin(2 theta1)/2)
//                         - 2 U E cos(theta1) ]
// with the power split P_elec = P_coil + (V + 2 Vd) I_avg, of which
// P_store = V I_avg reaches the supercapacitor and P_diode = 2 Vd I_avg is
// lost in the bridge.
#pragma once

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ehdse::power {

/// Bridge parameters. Defaults model a Schottky bridge as used on
/// energy-harvesting power conditioning boards.
struct rectifier_params {
    double diode_drop_v = 0.30;  ///< forward drop per diode (two in series conduct)
};

/// Cycle-averaged operating point of the bridge at one (E, V) pair.
struct rectifier_operating_point {
    bool conducting = false;       ///< E > V + 2 Vd
    double conduction_angle = 0.0; ///< pi - 2*theta1 per half cycle (radians)
    double i_avg_a = 0.0;          ///< average current delivered into the store
    double p_mech_w = 0.0;         ///< average power drawn from the mechanics (= P_elec)
    double p_store_w = 0.0;        ///< average power into the supercapacitor
    double p_diode_w = 0.0;        ///< average power dissipated in the bridge
    double p_coil_w = 0.0;         ///< average power dissipated in the coil
};

/// Evaluate the averaged bridge at emf amplitude `emf_amp_v`, storage
/// voltage `store_v` and series (coil) resistance `series_r_ohm`.
/// All inputs must be finite; emf_amp_v >= 0, store_v >= 0,
/// series_r_ohm > 0 (std::invalid_argument otherwise).
/// Equal to bridge_sink(store_v, series_r_ohm, params).average(emf_amp_v).
rectifier_operating_point bridge_average(double emf_amp_v, double store_v,
                                         double series_r_ohm,
                                         const rectifier_params& params = {});

/// The averaged bridge at one storage voltage and series resistance, for
/// many emf amplitudes: the envelope damping solve tries several at one
/// operating point. Construction checks store_v and series_r_ohm once;
/// each emf amplitude is still checked. bridge_average runs these
/// formulas, so a trial's P_elec has the bits of bridge_average's.
class bridge_sink {
public:
    /// Throws std::invalid_argument unless store_v >= 0 and
    /// series_r_ohm > 0.
    bridge_sink(double store_v, double series_r_ohm,
                const rectifier_params& params = {});

    /// Whether the bridge conducts at emf amplitude `emf_amp_v`
    /// (E > V + 2 Vd). Throws std::invalid_argument unless emf_amp_v >= 0.
    bool conducts(double emf_amp_v) const {
        if (!(emf_amp_v >= 0.0))
            throw std::invalid_argument(
                "bridge_average: emf amplitude must be >= 0");
        // The negation of the blocked test E <= U, so that a NaN sink
        // voltage conducts as it always did.
        return !(emf_amp_v <= u_);
    }

    /// average(emf_amp_v).p_mech_w alone, for an amplitude that conducts.
    double p_mech_w(double emf_amp_v) const noexcept {
        return conduct(emf_amp_v).p_mech_w;
    }

    /// The full operating point at emf amplitude `emf_amp_v`.
    rectifier_operating_point average(double emf_amp_v) const;

private:
    struct conduction {
        double span;        ///< pi - 2 theta1
        double cos_theta1;
        double p_mech_w;
    };

    conduction conduct(double e) const noexcept {
        const double theta1 = std::asin(u_ / e);
        const double span = std::numbers::pi - 2.0 * theta1;
        const double cos_theta1 = std::cos(theta1);
        return {span, cos_theta1,
                (e * e * (span / 2.0 + std::sin(2.0 * theta1) / 2.0) -
                 2.0 * u_ * e * cos_theta1) /
                    pir_};
    }

    double store_v_;
    double two_vd_;  ///< 2 Vd
    double u_;       ///< sink voltage V + 2 Vd
    double pir_;     ///< pi R
};

}  // namespace ehdse::power
