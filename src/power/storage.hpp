// Abstract energy-storage element behind the rectifier.
//
// The paper's system banks harvested energy in a supercapacitor; the
// surrounding literature (paper refs [4-6]) debates supercapacitors
// against thin-film batteries. Both plants (envelope and transient) talk
// to storage only through this interface, so the comparison is a drop-in:
// the storage exposes its state as a terminal voltage v, with
//
//   energy_at(v)                 stored (recoverable) energy at v
//   voltage_after_withdrawal     state after an instantaneous energy pull
//   dv_dt(v, i_net)              state dynamics under a net current
//   dv_dt_slope(v, i_net)        its slope in i_net (for the integrator's
//                                exponential step, sim/cash_karp.hpp)
//
// kept mutually consistent so the kernel's energy bookkeeping closes.
#pragma once

namespace ehdse::power {

class storage_model {
public:
    virtual ~storage_model() = default;

    /// Stored energy at terminal voltage v (joules).
    virtual double energy_at(double v) const = 0;

    /// Voltage after withdrawing `joules` from a store at voltage v
    /// (floors at the empty state; throws on negative withdrawals).
    virtual double voltage_after_withdrawal(double v, double joules) const = 0;

    /// dV/dt under net inflow current i_net (positive charges the store),
    /// including self-discharge and any rating/acceptance clamps.
    virtual double dv_dt(double v, double i_net_a) const = 0;

    /// d dv_dt / d i_net at (v, i_net): the inverse capacitance where the
    /// store takes the current, 0 where a clamp holds dv_dt.
    virtual double dv_dt_slope(double v, double i_net_a) const = 0;

    /// Highest terminal voltage the device tolerates / reports.
    virtual double max_voltage() const = 0;
};

}  // namespace ehdse::power
