// Pluggable harvester backend interface — the registry pattern (PR 4's
// design/surrogate/optimizer registries) applied to the physics layer.
//
// A harvester_model bundles everything the node simulators need from one
// device class:
//
//   * the tuning law          resonant_frequency(position) over a discrete
//                             actuator range (the firmware LUT samples it);
//   * the power envelope      envelope_dynamics(): cycle-averaged amplitude
//                             relaxation rate and store charging current at
//                             one (excitation, position, store voltage)
//                             point — the RHS contribution the envelope
//                             fast path integrates — plus 1/tau and the
//                             current's slope in z_env, from which the
//                             envelope system assembles the Jacobian
//                             column of the integrator's exponential step
//                             (sim/cash_karp.hpp);
//   * the transient RHS       make_transient(): the full per-cycle ODE
//                             system for validation runs;
//   * the retune energy cost  actuator(): what one tuning move costs the
//                             energy budget (stepper motor for the
//                             electromagnetic device, bias DAC for the
//                             electrostatic one);
//   * describe()              machine-readable parameter summary for
//                             --list-harvesters and service manifests.
//
// Numerical contract: initial_amplitude / phase_lag are pure functions of
// their arguments, and envelope_dynamics is a pure function of all its
// arguments but the damping_path. That path is per-run solver state the
// caller owns (one per simulated run) and passes in/out: a backend may
// read it to warm-start an iterative solve and update it for the next
// call, but must treat what it holds as untrusted input, so the returned
// rates never depend on it — it changes only speed (the electromagnetic
// entry predicts its damping bisection's root from the path, finds the
// final cell holding it in closed form and verifies that cell; the
// bit-identity argument is in damping_path.hpp; other backends ignore the
// path). A run that carries its path from call to call therefore gets the
// bits of a run that hands every call a fresh one. The models themselves
// hold no mutable state: per-run state lives in the caller's path and in
// what make_transient returns.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harvester/damping_path.hpp"
#include "obs/json.hpp"
#include "power/load_bank.hpp"
#include "power/rectifier.hpp"
#include "power/storage.hpp"
#include "sim/ode.hpp"

namespace ehdse::harvester {

class vibration_source;

/// Power-conditioning mode of the envelope path. Mirrors
/// spec::frontend_kind (spec depends on harvester, so the canonical enum
/// cannot be referenced from here); dse::make_node_system maps between
/// the two.
enum class conditioning_kind {
    diode_bridge,  ///< passive bridge straight into the store
    mppt,          ///< matched-load converter at fixed efficiency
};

/// What one actuator move costs — the numbers the tuning controller
/// budgets against before committing to a retune. Defaults are the
/// electromagnetic device's Haydon 21000 stepper (mcu::actuator_params).
struct retune_cost {
    double step_time_s = 5.0e-3;         ///< wall time per position step
    double single_step_energy_j = 4.06e-3;
    double multi_step_energy_j = 2.03e-3;  ///< per step in a multi-step move
    double min_drive_voltage_v = 2.6;    ///< store voltage floor to actuate
};

/// Envelope RHS contribution at one operating point: how fast the
/// displacement-amplitude envelope relaxes and what average current the
/// conditioning circuit delivers into the store, plus the two derivatives
/// the integrator's exponential step needs (sim/cash_karp.hpp): the
/// envelope relaxes as d z_env/dt = (z_a - z_env) / tau with z_a and tau
/// independent of z_env, so d(amplitude_rate)/d z_env = -1/tau.
struct envelope_rates {
    double amplitude_rate = 0.0;    ///< d z_env / dt (m/s)
    double charge_current_a = 0.0;  ///< average current into the store
    double relaxation_rate = 0.0;   ///< 1/tau = c_total / 2m (1/s)
    double charge_slope = 0.0;      ///< d charge_current_a / d z_env (A/m)
};

/// Full transient ODE system of one harvester: mechanics + conditioning
/// circuit resolved every vibration cycle. The wrapper (transient_system)
/// only needs the state layout taps and integration ceiling; everything
/// else is the analog_system contract.
class transient_rhs : public sim::analog_system {
public:
    ~transient_rhs() override = default;

    /// Initial state: mass at rest, store at `v0` volts.
    virtual std::vector<double> initial_state(double v0) const = 0;

    virtual int position() const = 0;
    virtual void set_position(int position) = 0;

    /// Where the store voltage / cumulative harvested energy live.
    virtual std::size_t voltage_index() const = 0;
    virtual std::size_t harvested_index() const = 0;

    /// Integrator step ceiling resolving the fastest dynamics.
    virtual double suggested_max_dt() const = 0;
};

/// One registered harvester device class. Stateless and thread-safe: all
/// queries are pure functions of the parameters, shared read-only across
/// concurrent evaluations exactly like the microgenerator it generalises.
class harvester_model {
public:
    virtual ~harvester_model() = default;

    /// Registry name ("electromagnetic", "electrostatic").
    virtual const std::string& name() const noexcept = 0;

    /// Machine-readable parameter summary (JSON object) for
    /// --list-harvesters, manifests and debugging.
    virtual obs::json_value describe() const = 0;

    /// Number of discrete actuator positions (8-bit in the paper).
    virtual int position_count() const noexcept = 0;

    /// Tuning law: resonant frequency (Hz) at a discrete position. Must be
    /// monotone non-decreasing in position (tuning_table's invariant).
    virtual double resonant_frequency(int position) const = 0;

    double min_frequency() const { return resonant_frequency(0); }
    double max_frequency() const {
        return resonant_frequency(position_count() - 1);
    }

    /// Energy/time cost of actuating the tuning mechanism.
    virtual retune_cost actuator() const noexcept = 0;

    /// Converged steady-state displacement amplitude at t = 0 — the
    /// envelope integrator's initial condition (so the run does not start
    /// on an artificial transient).
    virtual double initial_amplitude(double freq_hz, double accel_amp_ms2,
                                     int position, double store_v,
                                     const power::rectifier_params& rect) const = 0;

    /// Envelope RHS at one operating point: amplitude relaxation rate for
    /// the current envelope value `z_env` plus the average charging
    /// current the conditioning circuit delivers at store voltage
    /// `store_v`, with 1/tau and the current's slope in z_env.
    /// `efficiency` applies to the mppt conditioning kind only.
    /// `path` is the calling run's solver warm-start state (see the
    /// numerical contract above); it never changes the result.
    virtual envelope_rates envelope_dynamics(
        double freq_hz, double accel_amp_ms2, int position, double store_v,
        double z_env, conditioning_kind conditioning, double efficiency,
        const power::rectifier_params& rect, damping_path& path) const = 0;

    /// Steady-state phase lag between excitation and displacement — the
    /// measurement tap the fine-tuning controller's phase detector reads.
    virtual double phase_lag(double freq_hz, double accel_amp_ms2,
                             int position, double store_v,
                             const power::rectifier_params& rect) const = 0;

    /// Build the full transient ODE system for validation-fidelity runs.
    /// All referenced objects must outlive the returned system.
    virtual std::unique_ptr<transient_rhs> make_transient(
        const vibration_source& vib, const power::storage_model& storage,
        const power::load_bank& loads,
        const power::rectifier_params& rect) const = 0;
};

/// One registry row: the spellings --list-harvesters prints.
struct harvester_info {
    std::string name;
    std::string description;
};

/// Registered harvester device classes, in presentation order.
const std::vector<harvester_info>& harvester_registry();

/// True when `name` is a registered harvester.
bool is_known_harvester(std::string_view name) noexcept;

/// Comma-separated registered names, for error messages.
std::string harvester_names();

/// Build the named harvester with its default (paper-calibrated)
/// parameters. Throws std::invalid_argument for an unknown name
/// (offender named, valid choices listed).
std::unique_ptr<harvester_model> make_harvester(std::string_view name);

}  // namespace ehdse::harvester
