// Supercapacitor energy store.
//
// The paper's system stores harvested energy in a 0.55 F supercapacitor.
// In the envelope simulator the capacitor voltage is a continuous state
// advanced by the kernel; this class carries the parameters, performs the
// voltage/energy conversions and applies the instantaneous discrete
// withdrawals digital processes make (a transmission burst removes 227 uJ
// in 4.5 ms — negligible against the storage time constant, so it is
// applied as a step).
#pragma once

#include "power/storage.hpp"

namespace ehdse::power {

struct supercapacitor_params {
    double capacitance_f = 0.55;      ///< paper's example value
    /// Self-discharge path; large supercapacitors leak tens of uA —
    /// 150 kohm is ~19 uA at 2.8 V, a realistic mid-life figure.
    double leakage_resistance_ohm = 250e3;
    double max_voltage_v = 5.0;       ///< rating clamp
};

class supercapacitor final : public storage_model {
public:
    explicit supercapacitor(supercapacitor_params params = {});

    const supercapacitor_params& params() const noexcept { return params_; }
    double capacitance() const noexcept { return params_.capacitance_f; }

    /// Stored energy at voltage v: E = C v^2 / 2.
    double energy_at(double v) const override;

    /// Energy released when discharging from v_hi to v_lo.
    double energy_between(double v_hi, double v_lo) const;

    /// Voltage after withdrawing `joules` from a store at voltage v
    /// (floors at 0 when the request exceeds the stored energy).
    double voltage_after_withdrawal(double v, double joules) const override;

    /// Leakage current at voltage v (flows out of the store).
    double leakage_current(double v) const;

    /// dV/dt for a net inflow current i_net (positive charges the store),
    /// including the leakage path and clamped so the voltage cannot be
    /// driven above the rating.
    double dv_dt(double v, double i_net_a) const override;
    double dv_dt_slope(double v, double i_net_a) const override;

    double max_voltage() const override { return params_.max_voltage_v; }

private:
    supercapacitor_params params_;
};

}  // namespace ehdse::power
