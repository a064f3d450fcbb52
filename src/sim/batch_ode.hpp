// Batch (SIMD-friendly) half of the mixed-signal kernel.
//
// Every phase of the RSM flow evaluates many design points whose analogue
// structure is identical — same state layout, same equations, different
// coefficients. The batch kernel exploits that: state lives in
// structure-of-arrays form (`state[var][lane]`, contiguous per variable)
// and one Cash–Karp RK45 step advances all B lanes through flat inner
// loops over lanes that GCC auto-vectorises. Step control is per lane and
// masked: each lane carries its own adaptive dt and accept/reject
// decision, so a stiff lane shrinks its own step without stalling the
// batch, and an idle lane (sitting at its event horizon) is simply
// excluded from the sweep.
//
// A lane's step is the scalar `rk45_integrator`'s (ode.cpp): both build
// it from the same per-element expressions (cash_karp.hpp), plain or
// exponential per lane, so a lane advances its state to the bits a scalar
// run would, whichever lanes share its batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/cash_karp.hpp"
#include "sim/ode.hpp"

namespace ehdse::sim {

/// Structure-of-arrays state for B lanes of one analogue equation set.
/// Values of a given variable are contiguous across lanes (`var(v)[lane]`)
/// so per-variable loops over lanes vectorise.
class batch_state {
public:
    batch_state() = default;
    batch_state(std::size_t vars, std::size_t lanes)
        : vars_(vars), lanes_(lanes), data_(vars * lanes, 0.0) {}

    std::size_t vars() const noexcept { return vars_; }
    std::size_t lanes() const noexcept { return lanes_; }

    /// Pointer to the lane-contiguous row of variable v.
    double* var(std::size_t v) noexcept { return data_.data() + v * lanes_; }
    const double* var(std::size_t v) const noexcept {
        return data_.data() + v * lanes_;
    }

    double at(std::size_t v, std::size_t lane) const {
        return data_.at(v * lanes_ + lane);
    }
    void set(std::size_t v, std::size_t lane, double value) {
        data_.at(v * lanes_ + lane) = value;
    }

    /// Copy one scalar state vector into lane `lane`.
    void set_lane(std::size_t lane, std::span<const double> x);

    /// Extract lane `lane` as a scalar state vector.
    std::vector<double> lane_state(std::size_t lane) const;

private:
    std::size_t vars_ = 0;
    std::size_t lanes_ = 0;
    std::vector<double> data_;
};

/// B independent instances of one analogue structure, evaluated in
/// lockstep. Implementations may hold per-lane mutable inputs (load
/// conductances, actuator positions) adjusted by digital processes between
/// integration sweeps.
class batch_analog_system {
public:
    virtual ~batch_analog_system() = default;

    /// Number of continuous state variables (identical across lanes).
    virtual std::size_t state_size() const = 0;

    /// Number of lanes B.
    virtual std::size_t lanes() const = 0;

    /// Evaluate dx/dt for every lane, at per-lane times t[lane]. Lanes with
    /// active[lane] == 0 may be computed anyway (branch-free full-width
    /// kernels are encouraged); the integrator ignores their results.
    virtual void derivatives(std::span<const double> t, const batch_state& x,
                             batch_state& dxdt,
                             std::span<const std::uint8_t> active) const = 0;

    /// analog_system::stiff_element for every lane: one element, or
    /// no_stiff_element (the default) for plain steps throughout.
    virtual std::size_t stiff_element() const { return no_stiff_element; }

    /// analog_system::stiff_column per lane: lane l's Jacobian column
    /// df/dx_s at the last derivatives() call, into column.var(v)[l]. A
    /// lane whose -column.var(s)[l] is not finite and positive takes the
    /// plain step.
    virtual void stiff_column(batch_state& /*column*/) const {}
};

/// Per-lane outcome of one step sweep.
enum class lane_step : std::uint8_t {
    idle = 0,   ///< lane was not attempted (already at its target, or failed)
    advanced,   ///< step accepted; t[lane] moved forward
    rejected,   ///< error too large; dt shrunk, lane will retry next sweep
    failed,     ///< dt underflowed min_dt or max_steps exhausted
};

/// Adaptive Cash–Karp RK45 over B lanes with masked per-lane step control,
/// in the step's exponential form on lanes with a usable stiff column.
///
/// One `step_once` call performs a single step *attempt* for every active
/// lane (t[lane] < target[lane]): six stage evaluations batched across
/// lanes, then a per-lane accept/reject. The caller (batch_simulator)
/// loops sweeps, snapping lanes that arrive at their targets and firing
/// their digital events. Per-lane dt hints persist across segments exactly
/// like the scalar integrator's dt_hint_.
class batch_rk45_integrator {
public:
    batch_rk45_integrator(std::size_t vars, std::size_t lanes,
                          ode_options options = {});

    const ode_options& options() const noexcept { return opt_; }
    ode_options& options() noexcept { return opt_; }

    /// One masked step attempt. For each lane l with t[l] < target[l] (and
    /// not previously failed): attempt one RK45 step of size
    /// min(dt_hint, max_dt, target[l] - t[l]); on accept advance t[l] and
    /// x lane l, on reject shrink dt. outcome[l] reports what happened;
    /// lanes at/past their target get lane_step::idle. Returns the number
    /// of lanes attempted.
    std::size_t step_once(const batch_analog_system& sys, std::span<double> t,
                          std::span<const double> target, batch_state& x,
                          std::span<lane_step> outcome);

    /// Reset lane l's per-segment step budget (max_steps is per segment
    /// between digital events, mirroring one scalar integrate() call).
    void start_segment(std::size_t lane) { segment_attempts_[lane] = 0; }

    /// Cumulative accepted / rejected steps for lane l.
    std::size_t steps_taken(std::size_t lane) const {
        return steps_taken_[lane];
    }
    std::size_t steps_rejected(std::size_t lane) const {
        return steps_rejected_[lane];
    }

    /// Final per-lane step size (resume hint), mirroring ode_status::last_dt.
    double last_dt(std::size_t lane) const { return dt_hint_[lane]; }

private:
    std::size_t vars_;
    std::size_t lanes_;
    ode_options opt_;

    std::vector<double> dt_hint_;    ///< carried across segments; 0 = unset
    std::vector<double> dt_try_;     ///< this sweep's per-lane trial step
    std::vector<double> stage_t_;    ///< per-lane stage times
    std::vector<double> err_;        ///< per-lane max error ratio
    std::vector<std::uint8_t> attempt_;  ///< per-lane "in this sweep" mask
    std::vector<std::uint8_t> failed_;   ///< per-lane sticky failure flag
    std::vector<std::size_t> segment_attempts_;
    std::vector<std::size_t> steps_taken_;
    std::vector<std::size_t> steps_rejected_;

    // The exponential form (cash_karp.hpp): which lanes take it this
    // sweep, each lane's stiff deviation and stage shift (shift4_: the
    // fourth-order solution's), its step set-up, and the column.
    std::vector<std::uint8_t> ex_;
    std::vector<double> dev_, shift_, shift4_;
    std::vector<cash_karp::stiff_lane> stiff_;
    batch_state column_;

    batch_state k1_, k2_, k3_, k4_, k5_, k6_, xtmp_, x5_;
};

}  // namespace ehdse::sim
