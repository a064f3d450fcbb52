// Continuous-time (analogue) part of the mixed-signal kernel.
//
// SystemC-A couples an analogue equation set solved by a variable-step
// integrator with digital processes. Here the analogue side is an explicit
// ODE system dx/dt = f(t, x) advanced by an adaptive Cash–Karp RK45
// integrator (the step itself is in cash_karp.hpp, shared with the batch
// integrator of batch_ode.hpp). A system that names a stiff element and
// reports its Jacobian column gets the step's exponential form, which
// integrates that column's linear dynamics exactly; every other system
// gets the plain step. The simulator (simulator.hpp) guarantees
// integration is always stopped exactly at digital event times, so
// digital processes observe and perturb a consistent analogue state.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "numeric/matrix.hpp"

namespace ehdse::sim {

/// stiff_element() of a system without one.
inline constexpr std::size_t no_stiff_element =
    std::numeric_limits<std::size_t>::max();

/// Interface for an analogue equation set dx/dt = f(t, x).
///
/// Implementations may hold mutable "inputs" (e.g. the present load
/// conductance across the supercapacitor) that digital processes adjust
/// between integration segments.
class analog_system {
public:
    virtual ~analog_system() = default;

    /// Number of continuous state variables.
    virtual std::size_t state_size() const = 0;

    /// Evaluate dx/dt into `dxdt` (pre-sized to state_size()).
    virtual void derivatives(double t, std::span<const double> x,
                             std::span<double> dxdt) const = 0;

    /// The element s whose dynamics are stiff and, to first order,
    /// linear: the integrator's exponential step (cash_karp.hpp)
    /// integrates its Jacobian column exactly. A property of the system,
    /// constant over a run; no_stiff_element (the default) makes every
    /// step the plain Cash–Karp step.
    virtual std::size_t stiff_element() const { return no_stiff_element; }

    /// The Jacobian column df/dx_s at the operating point of the last
    /// derivatives() call, into `column` (state_size() entries). Its own
    /// entry is -lambda; a lambda that is not finite and positive makes
    /// that step plain. Called only when stiff_element() names one.
    virtual void stiff_column(std::span<double> /*column*/) const {}
};

/// Integrator tuning knobs.
struct ode_options {
    double abs_tol = 1e-9;     ///< absolute error tolerance per step (RK45)
    double rel_tol = 1e-6;     ///< relative error tolerance per step (RK45)
    double initial_dt = 1e-4;  ///< first trial step
    double min_dt = 1e-12;     ///< below this the integrator reports failure
    double max_dt = 1e30;      ///< cap on step size (set ~1/(20 f) for AC work)
    std::size_t max_steps = 200'000'000;  ///< hard safety limit per segment
};

/// Outcome of integrating one segment.
struct ode_status {
    bool ok = true;               ///< false when min_dt/max_steps was hit
    std::size_t steps_taken = 0;  ///< accepted steps
    std::size_t steps_rejected = 0;
    double last_dt = 0.0;         ///< final accepted step size (resume hint)
};

/// Adaptive Cash–Karp RK45 integrator with PI-free step control, in the
/// step's exponential form for a system with a stiff element.
///
/// Keeps its stage buffers between calls, so a long simulation made of many
/// short segments (between digital events) does not reallocate.
class rk45_integrator {
public:
    explicit rk45_integrator(ode_options options = {}) : opt_(options) {}

    const ode_options& options() const noexcept { return opt_; }
    ode_options& options() noexcept { return opt_; }

    /// Integrate `sys` from t0 to t1 (t1 >= t0), updating x in place.
    /// `observer`, when set, is called after every accepted step with
    /// (t, x) — used for waveform tracing. An empty observer is hoisted out
    /// of the step loop entirely: the common no-tracing run pays no
    /// per-step dispatch (not even an emptiness check).
    ode_status integrate(
        const analog_system& sys, double t0, double t1, std::vector<double>& x,
        const std::function<void(double, std::span<const double>)>& observer = {});

private:
    template <bool Stiff, typename Observer>
    ode_status integrate_loop(const analog_system& sys, double t0, double t1,
                              std::vector<double>& x, Observer&& observer);

    void resize_buffers(std::size_t n);

    ode_options opt_;
    double dt_hint_ = 0.0;  ///< carry step size across segments
    std::vector<double> k1_, k2_, k3_, k4_, k5_, k6_, xtmp_, x5_;
    std::vector<double> column_;  ///< the stiff element's Jacobian column
};

}  // namespace ehdse::sim
