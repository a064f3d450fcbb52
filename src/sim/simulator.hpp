// Mixed-signal simulation coordinator — the ehdse stand-in for the
// SystemC-A kernel used in the paper.
//
// Operation mirrors an analogue/digital lock-step HDL kernel:
//   1. find the earliest pending digital event at time te,
//   2. advance the analogue ODE state from `now` to te,
//   3. fire every event scheduled at te (FIFO order); events may read the
//      analogue state, modify it (e.g. withdraw a packet's worth of charge
//      from the supercapacitor) and change analogue inputs (e.g. load
//      conductances) that the next integration segment will see,
//   4. repeat until the horizon.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/ode.hpp"

namespace ehdse::obs {
class counter;
}

namespace ehdse::sim {

/// Drives one analog_system plus an event queue over simulated time.
class simulator final {
public:
    /// The analog system must outlive the simulator.
    simulator(analog_system& sys, std::vector<double> initial_state,
              ode_options options = {});

    /// Current simulation time in seconds.
    double now() const noexcept { return now_; }

    /// Read-only view of the analogue state vector.
    std::span<const double> state() const noexcept { return state_; }

    /// Read one analogue state variable.
    double state_at(std::size_t i) const { return state_.at(i); }

    /// Overwrite one analogue state variable (discrete perturbation by a
    /// digital process, e.g. an instantaneous charge withdrawal).
    void set_state(std::size_t i, double value) { state_.at(i) = value; }

    /// Schedule `action` at absolute time t (must be >= now; throws otherwise).
    event_id at(double t, std::function<void()> action);

    /// Schedule `action` after `delay` seconds (delay must be >= 0).
    event_id after(double delay, std::function<void()> action);

    /// Cancel a pending event.
    bool cancel(event_id id) { return queue_.cancel(id); }

    /// Register an observer invoked after every accepted integration step and
    /// after every event batch, with (time, state) — used for tracing.
    void add_step_observer(std::function<void(double, std::span<const double>)> obs);

    /// Advance simulation until `t_end`, executing all due events.
    /// Returns false if the analogue integrator failed (status reported by
    /// last_ode_status()) or any state variable became non-finite — a
    /// corrupted state (e.g. an injected NaN) fails the run immediately
    /// rather than stalling the error-controlled integrator.
    bool run_until(double t_end);

    /// True while every analogue state variable is finite.
    bool state_finite() const noexcept;

    const ode_status& last_ode_status() const noexcept { return last_status_; }

    /// Cumulative accepted integration steps across all segments.
    std::size_t total_steps() const noexcept { return total_steps_; }

    /// Cumulative rejected (error-controlled retry) steps across all segments.
    std::size_t total_rejected_steps() const noexcept { return total_rejected_; }

    /// Cumulative executed events.
    std::uint64_t total_events() const noexcept { return queue_.executed_count(); }

    /// Access integrator options (e.g. to cap max_dt at a fraction of the
    /// vibration period before running).
    ode_options& options() noexcept { return integrator_.options(); }

    event_queue& queue() noexcept { return queue_; }

private:
    void notify_observers(double t);
    bool integrate_to(double t_target);
    void flush_event_count();

    analog_system& sys_;
    std::vector<double> state_;
    rk45_integrator integrator_;
    event_queue queue_;
    std::vector<std::function<void(double, std::span<const double>)>> observers_;
    double now_ = 0.0;
    ode_status last_status_;
    std::size_t total_steps_ = 0;
    std::size_t total_rejected_ = 0;
    // Process-wide metrics sink, resolved once at construction (nullptr =
    // observability off). Updated per integration segment / run, never per
    // step, so an attached sink stays off the integrator's hot path.
    obs::counter* steps_counter_ = nullptr;
    obs::counter* rejected_counter_ = nullptr;
    obs::counter* events_counter_ = nullptr;
    std::uint64_t flushed_events_ = 0;
};

/// Base class for digital processes (microcontroller, sensor node, ...).
///
/// A process owns at most one pending wake-up; calling wake_after/wake_at
/// cancels any previous pending wake-up, which keeps the "reschedule on
/// state change" idiom (Table II's voltage-banded transmission policy) safe.
class process {
public:
    explicit process(simulator& sim) : sim_(sim) {}
    virtual ~process();

    process(const process&) = delete;
    process& operator=(const process&) = delete;

protected:
    simulator& sim() noexcept { return sim_; }
    const simulator& sim() const noexcept { return sim_; }

    /// Schedule activate() after `delay` seconds, replacing any pending wake.
    void wake_after(double delay);

    /// Schedule activate() at absolute time t, replacing any pending wake.
    void wake_at(double t);

    /// Cancel the pending wake-up, if any.
    void cancel_wake();

    /// True when a wake-up is pending.
    bool wake_pending() const noexcept { return pending_ != 0; }

    /// Called by the kernel at the scheduled time.
    virtual void activate() = 0;

private:
    simulator& sim_;
    event_id pending_ = 0;
};

}  // namespace ehdse::sim
