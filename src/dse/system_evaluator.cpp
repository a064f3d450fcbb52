#include "dse/system_evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>

#include "dse/batch_envelope_system.hpp"
#include "obs/metrics.hpp"
#include "obs/timing.hpp"

namespace ehdse::dse {

system_evaluator::system_evaluator(scenario scn, spec::harvester_spec harv,
                                   power::supercapacitor_params cap,
                                   power::rectifier_params rect,
                                   node::node_params node,
                                   mcu::controller_params controller)
    : scenario_(scn),
      harv_(harv.canonicalized()),
      model_((harv_.validate(), harvester::make_harvester(harv_.model))),
      table_(*model_),
      cap_(cap),
      storage_(std::make_shared<power::supercapacitor>(cap_)),
      rect_(rect),
      node_(node),
      controller_(controller) {
    scenario_.validate();
    const double f_start = scenario_.frequency_schedule.empty()
                               ? scenario_.f_start_hz
                               : scenario_.frequency_schedule.front().second;
    start_position_ = scenario_.initial_position >= 0
                          ? scenario_.initial_position
                          : table_.lookup(f_start);
    // Each device class knows its own retune mechanism: the EM cantilever
    // moves a magnet with a stepper, the electrostatic device programs a
    // bias DAC. The controller charges whatever the backend quotes.
    const harvester::retune_cost cost = model_->actuator();
    controller_.actuator.step_time_s = cost.step_time_s;
    controller_.actuator.single_step_energy_j = cost.single_step_energy_j;
    controller_.actuator.multi_step_energy_j = cost.multi_step_energy_j;
    controller_.actuator.min_drive_voltage_v = cost.min_drive_voltage_v;
}

void system_evaluator::set_storage(
    std::shared_ptr<const power::storage_model> storage) {
    storage_ = storage ? std::move(storage)
                       : std::make_shared<power::supercapacitor>(cap_);
}

std::pair<node::node_params, mcu::controller_params>
system_evaluator::digital_params(const system_config& config,
                                 const evaluation_options& options) const {
    node::node_params node_params = node_;
    node_params.fast_interval_s = config.tx_interval_s;
    mcu::controller_params ctrl_params = controller_;
    ctrl_params.mcu.clock_hz = config.mcu_clock_hz;
    ctrl_params.watchdog_period_s = config.watchdog_period_s;
    ctrl_params.rng_seed = options.controller_seed;
    return {node_params, ctrl_params};
}

namespace {

/// Shared digital wiring + run loop over any node_system: the system
/// supplies its own integration defaults and state layout, so neither
/// fidelity branch threads index/ode plumbing through here.
evaluation_result run_simulation(node_system& system, const scenario& scn,
                                 const harvester::tuning_table& table,
                                 const node::node_params& node_params,
                                 const mcu::controller_params& ctrl_params,
                                 const evaluation_options& options,
                                 int start_position) {
    const node_system::state_map ix = system.states();
    std::vector<double> x0 = system.initial_state(scn.v_initial, start_position);
    sim::simulator sim(system, std::move(x0), system.suggested_ode_options());
    system.attach(sim);

    node::sensor_node node(sim, system, node_params, /*first_wake_s=*/0.0);
    mcu::tuning_controller controller(sim, system, table, ctrl_params);

    evaluation_result out;
    double v_min = scn.v_initial;
    double v_max = scn.v_initial;
    sim.add_step_observer([&](double, std::span<const double> x) {
        const double v = x[ix.voltage];
        v_min = std::min(v_min, v);
        v_max = std::max(v_max, v);
    });

    if (options.record_traces) {
        out.voltage_trace.emplace("supercap_voltage", options.trace_interval_s);
        out.position_trace.emplace("actuator_position", options.trace_interval_s);
        sim.add_step_observer([&](double t, std::span<const double> x) {
            out.voltage_trace->record(t, x[ix.voltage]);
            out.position_trace->record(t, static_cast<double>(system.position()));
        });
    }

    out.sim_ok = sim.run_until(scn.duration_s);

    out.transmissions = node.transmissions();
    out.suppressed_wakeups = node.suppressed_wakeups();
    out.low_band_transmissions = node.low_band_transmissions();
    out.tuning = controller.stats();
    out.final_voltage_v = sim.state_at(ix.voltage);
    out.min_voltage_v = v_min;
    out.max_voltage_v = v_max;
    out.harvested_energy_j = sim.state_at(ix.harvested);
    if (ix.load_energy) out.sustained_load_energy_j = sim.state_at(*ix.load_energy);
    out.ledger = system.ledger();
    out.withdrawn_energy_j = out.ledger.grand_total();
    out.ode_steps = sim.total_steps();
    out.ode_steps_rejected = sim.total_rejected_steps();
    out.events = sim.total_events();
    return out;
}

/// Book one finished run into the process-wide metrics sink, if attached.
/// A batch lane's wall is its sweep's, observed once as dse.batch.seconds.
void record_run_metrics(const evaluation_result& r) {
    obs::metrics_registry* reg = obs::global_registry();
    if (!reg) return;
    reg->get_counter("dse.evaluate.runs").add();
    if (!r.sim_ok) reg->get_counter("dse.evaluate.failures").add();
    if (r.batch_lanes == 0)
        reg->get_histogram("dse.evaluate.seconds").observe(r.wall_time_s);
    reg->get_histogram("dse.evaluate.ode_steps")
        .observe(static_cast<double>(r.ode_steps));
    reg->get_histogram("dse.evaluate.transmissions")
        .observe(static_cast<double>(r.transmissions));
}

}  // namespace

evaluation_result system_evaluator::evaluate(const system_config& config,
                                             const evaluation_options& options) const {
    ++runs_;
    const obs::stopwatch watch;

    // Per-run stimulus — evaluations are independent experiments.
    const harvester::vibration_source vib = scenario_.make_vibration();
    const auto [node_params, ctrl_params] = digital_params(config, options);

    const std::unique_ptr<node_system> system =
        build_system(config, options, vib);
    evaluation_result out = run_simulation(*system, scenario_, table_,
                                           node_params, ctrl_params, options,
                                           start_position_);
    out.wall_time_s = watch.seconds();
    record_run_metrics(out);
    return out;
}

std::unique_ptr<node_system> system_evaluator::build_system(
    const system_config& /*config*/, const evaluation_options& options,
    const harvester::vibration_source& vib) const {
    return make_node_system(options, *model_, vib, storage_, rect_);
}

namespace {

/// Book one finished batch into the dse.batch.* metrics, if attached.
void record_batch_metrics(std::size_t lanes, bool fallback,
                          double wall_s = 0.0) {
    obs::metrics_registry* reg = obs::global_registry();
    if (!reg) return;
    if (fallback) {
        reg->get_counter("dse.batch.fallbacks").add();
        return;
    }
    reg->get_counter("dse.batch.batches").add();
    reg->get_counter("dse.batch.lanes").add(lanes);
    reg->get_histogram("dse.batch.seconds").observe(wall_s);
}

}  // namespace

std::vector<evaluation_result> system_evaluator::evaluate_batch(
    const std::span<const system_config> configs,
    const evaluation_options& options) const {
    std::vector<evaluation_result> out(configs.size());
    if (configs.empty()) return out;

    // The batch sweep covers the hot flow path: envelope fidelity, no
    // traces. Everything else runs the scalar path per config.
    if (options.model != fidelity::envelope || options.record_traces) {
        record_batch_metrics(configs.size(), /*fallback=*/true);
        for (std::size_t i = 0; i < configs.size(); ++i)
            out[i] = evaluate(configs[i], options);
        return out;
    }

    for (std::size_t first = 0; first < configs.size();
         first += k_max_batch_lanes) {
        const std::size_t lanes =
            std::min(k_max_batch_lanes, configs.size() - first);
        runs_ += lanes;
        const obs::stopwatch watch;

        // Per-batch stimulus — same scenario for every lane, so one
        // vibration source is shared read-only across lanes.
        const harvester::vibration_source vib = scenario_.make_vibration();
        batch_envelope_system system(*model_, vib, storage_, rect_, lanes);
        system.set_frontend(options.frontend, options.frontend_efficiency);
        std::vector<double> x0 =
            system.initial_state(scenario_.v_initial, start_position_);
        sim::batch_simulator bsim(system, std::move(x0),
                                  system.suggested_ode_options());
        system.attach(bsim);

        // Digital side per lane, wired exactly as the scalar run wires its
        // single design point (node first, then controller — the per-lane
        // event queues preserve the scalar FIFO order).
        std::deque<node::sensor_node> nodes;
        std::deque<mcu::tuning_controller> controllers;
        for (std::size_t l = 0; l < lanes; ++l) {
            const auto [node_params, ctrl_params] =
                digital_params(configs[first + l], options);
            nodes.emplace_back(bsim.lane(l), system.plant(l), node_params,
                               /*first_wake_s=*/0.0);
            controllers.emplace_back(bsim.lane(l), system.plant(l), table_,
                                     ctrl_params);
        }
        bsim.watch_range(batch_envelope_system::ix_voltage);

        bsim.run_until(scenario_.duration_s);

        for (std::size_t l = 0; l < lanes; ++l) {
            evaluation_result& r = out[first + l];
            r.sim_ok = bsim.lane_ok(l);
            r.transmissions = nodes[l].transmissions();
            r.suppressed_wakeups = nodes[l].suppressed_wakeups();
            r.low_band_transmissions = nodes[l].low_band_transmissions();
            r.tuning = controllers[l].stats();
            r.final_voltage_v =
                bsim.state_at(l, batch_envelope_system::ix_voltage);
            r.min_voltage_v = bsim.watched_min(l);
            r.max_voltage_v = bsim.watched_max(l);
            r.harvested_energy_j =
                bsim.state_at(l, batch_envelope_system::ix_harvested);
            r.sustained_load_energy_j =
                bsim.state_at(l, batch_envelope_system::ix_load_energy);
            r.ledger = system.ledger(l);
            r.withdrawn_energy_j = r.ledger.grand_total();
            r.ode_steps = bsim.lane_steps(l);
            r.ode_steps_rejected = bsim.lane_rejected_steps(l);
            r.events = bsim.lane_events(l);
        }

        // The lanes share one measured wall; each carries it whole, with
        // the lane count that shared it.
        const double wall_s = watch.seconds();
        for (std::size_t l = 0; l < lanes; ++l) {
            out[first + l].wall_time_s = wall_s;
            out[first + l].batch_lanes = lanes;
            record_run_metrics(out[first + l]);
        }
        record_batch_metrics(lanes, /*fallback=*/false, wall_s);
    }
    return out;
}

}  // namespace ehdse::dse
