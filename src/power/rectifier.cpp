#include "power/rectifier.hpp"

#include <numbers>
#include <stdexcept>

namespace ehdse::power {

bridge_sink::bridge_sink(double store_v, double series_r_ohm,
                         const rectifier_params& params)
    : store_v_(store_v),
      two_vd_(2.0 * params.diode_drop_v),
      u_(store_v + two_vd_),
      pir_(std::numbers::pi * series_r_ohm) {
    if (!(store_v >= 0.0))
        throw std::invalid_argument("bridge_average: store voltage must be >= 0");
    if (!(series_r_ohm > 0.0))
        throw std::invalid_argument("bridge_average: series resistance must be > 0");
}

rectifier_operating_point bridge_sink::average(double emf_amp_v) const {
    rectifier_operating_point op;
    if (!conducts(emf_amp_v)) return op;  // blocked: all-zero operating point

    const double e = emf_amp_v;
    const conduction c = conduct(e);
    op.conducting = true;
    op.conduction_angle = c.span;
    op.i_avg_a = (2.0 * e * c.cos_theta1 - u_ * c.span) / pir_;
    op.p_mech_w = c.p_mech_w;
    op.p_store_w = store_v_ * op.i_avg_a;
    op.p_diode_w = two_vd_ * op.i_avg_a;
    op.p_coil_w = op.p_mech_w - u_ * op.i_avg_a;
    return op;
}

rectifier_operating_point bridge_average(double emf_amp_v, double store_v,
                                         double series_r_ohm,
                                         const rectifier_params& params) {
    return bridge_sink(store_v, series_r_ohm, params).average(emf_amp_v);
}

}  // namespace ehdse::power
