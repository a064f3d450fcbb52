// Thin-film rechargeable battery storage (e.g. LiPON cells of the
// Cymbet/IPS class used in energy-harvesting nodes).
//
// Model: charge-linear open-circuit voltage between v_empty and v_full,
// i.e. q(v) = C_eff (v - 0) with C_eff = capacity / (v_full - v_empty)
// restricted to the [v_empty, v_full] window, so dV/dt = i / C_eff and
// the recoverable energy is the integral of v dq — consistent with the
// same quadratic form the kernel's bookkeeping uses. On top of that:
// a charge-acceptance ceiling (thin-film cells take milliamps at most)
// and a small self-discharge.
//
// Against a supercapacitor the terminal voltage barely moves across the
// hour (millivolt-scale), so the node's Table II policy effectively sees
// one band — the behavioural difference bench_ext_storage_sizing probes.
#pragma once

#include "power/storage.hpp"

namespace ehdse::power {

struct battery_params {
    double capacity_c = 3.6;          ///< 1 mAh thin-film cell
    double v_empty = 2.70;            ///< OCV at zero usable charge
    double v_full = 3.05;             ///< OCV fully charged
    double charge_current_limit_a = 5e-3;   ///< acceptance ceiling
    double self_discharge_a = 0.2e-6;       ///< ~leakage floor
};

class thin_film_battery final : public storage_model {
public:
    explicit thin_film_battery(battery_params params = {});

    const battery_params& params() const noexcept { return params_; }

    /// Effective capacitance of the charge-linear OCV: Q / (v_full - v_empty).
    double effective_capacitance() const noexcept { return c_eff_; }

    /// State of charge in [0, 1] at terminal voltage v (clamped).
    double state_of_charge(double v) const;

    double energy_at(double v) const override;
    double voltage_after_withdrawal(double v, double joules) const override;
    double dv_dt(double v, double i_net_a) const override;
    double dv_dt_slope(double v, double i_net_a) const override;
    double max_voltage() const override { return params_.v_full; }

private:
    battery_params params_;
    double c_eff_;
};

}  // namespace ehdse::power
