#include "dse/system_evaluator.hpp"

#include <algorithm>
#include <memory>

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
void record_run_metrics(const evaluation_result& r) {
    obs::metrics_registry* reg = obs::global_registry();
    if (!reg) return;
    reg->get_counter("dse.evaluate.runs").add();
    if (!r.sim_ok) reg->get_counter("dse.evaluate.failures").add();
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

    // Digital side: configure per the design point.
    node::node_params node_params = node_;
    node_params.fast_interval_s = config.tx_interval_s;
    mcu::controller_params ctrl_params = controller_;
    ctrl_params.mcu.clock_hz = config.mcu_clock_hz;
    ctrl_params.watchdog_period_s = config.watchdog_period_s;
    ctrl_params.rng_seed = options.controller_seed;

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

std::vector<evaluation_result> system_evaluator::evaluate_batch(
    const std::span<const system_config> configs,
    const evaluation_options& options) const {
    std::vector<evaluation_result> out;
    out.reserve(configs.size());
    for (const system_config& config : configs)
        out.push_back(evaluate(config, options));
    return out;
}

}  // namespace ehdse::dse
