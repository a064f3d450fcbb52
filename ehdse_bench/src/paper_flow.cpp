// paper_flow: the paper's method, one dse::run_rsm_flow call per request,
// one flow at a time. The pool is built once in set-up and lent to every
// flow through flow_options::pool, the way ehdsed reuses its pool. Each
// flow carries fresh controller and optimiser seeds, so no memo can carry
// over from one flow to the next.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "common.hpp"
#include "dse/rsm_flow.hpp"
#include "exec/thread_pool.hpp"
#include "obs/run_manifest.hpp"
#include "spec/json_codec.hpp"
#include "trace.hpp"

namespace ehdse_bench {
namespace {

using namespace ehdse;

/// The paper's flow spec: electromagnetic backend, 3600 s scenario,
/// D-optimal 10 of the 27-point grid, quadratic fit, SA + GA.
spec::experiment_spec paper_spec(std::uint64_t controller_seed,
                                 std::uint64_t optimizer_seed) {
    spec::experiment_spec s;
    s.eval.controller_seed = controller_seed;
    s.flow.optimizer_seed = optimizer_seed;
    return s;
}

bool is_design_phase(const std::string& name) {
    return name != "simulate" && name != "fit" && name != "baseline" &&
           name != "optimise" && name != "validate";
}

/// Flow phase walls by layer: the design-of-experiments phases (the
/// candidate set and the selection, which is named after the design) sum
/// under "design"; simulate, fit, baseline, optimise and validate keep
/// their names.
std::map<std::string, double> phase_walls(
    const std::vector<std::pair<std::string, double>>& phases) {
    std::map<std::string, double> walls;
    for (const auto& [name, wall_s] : phases)
        walls[is_design_phase(name) ? "design" : name] += wall_s;
    return walls;
}

/// Module that runs a flow phase: doe, rsm, opt or dse.
const char* phase_layer(const std::string& name) {
    if (is_design_phase(name)) return "doe";
    if (name == "fit") return "rsm";
    if (name == "optimise") return "opt";
    return "dse";
}

/// Wall of one phase_walls() entry, 0 when the phase did not run.
double phase_wall(const std::map<std::string, double>& walls, const std::string& name) {
    const auto it = walls.find(name);
    return it == walls.end() ? 0.0 : it->second;
}

/// Bench-side interposition on the evaluator, at the point
/// system_evaluator.hpp documents for wrappers (both virtual entry points
/// overridden). Times every call that reaches the evaluator as a span
/// under the current flow; calls outside a timed flow are not recorded.
class timed_evaluator final : public dse::system_evaluator {
public:
    timed_evaluator(const spec::experiment_spec& s, span_recorder& recorder)
        : dse::system_evaluator(s.scn, s.harv), recorder_(recorder) {}

    /// Parent span and request id for the calls of the next flow. Called
    /// between flows only; the pool hands the values to its workers.
    void begin_flow(std::uint64_t flow_span, std::string request) {
        flow_span_ = flow_span;
        request_ = std::move(request);
    }

    dse::evaluation_result evaluate(
        const dse::system_config& config,
        const dse::evaluation_options& options) const override {
        const time_point start = bench_clock::now();
        dse::evaluation_result result =
            dse::system_evaluator::evaluate(config, options);
        record("dse.evaluate", start, 1);
        return result;
    }

    std::vector<dse::evaluation_result> evaluate_batch(
        std::span<const dse::system_config> configs,
        const dse::evaluation_options& options) const override {
        const time_point start = bench_clock::now();
        std::vector<dse::evaluation_result> results =
            dse::system_evaluator::evaluate_batch(configs, options);
        record("dse.evaluate_batch", start, configs.size());
        return results;
    }

private:
    void record(const char* name, time_point start, std::size_t lanes) const {
        if (flow_span_ == 0) return;
        span s;
        s.name = name;
        s.layer = "dse";
        s.start = start;
        s.end = bench_clock::now();
        s.parent = flow_span_;
        s.request = request_;
        s.args.emplace_back("lanes", obs::json_value(lanes));
        recorder_.add(std::move(s));
    }

    span_recorder& recorder_;
    std::uint64_t flow_span_ = 0;
    std::string request_;
};

/// Per-flow figures the traced window collects.
struct flow_trace {
    std::map<std::string, double> phase_s;  ///< phase_walls() of the manifest
    double unattributed_s = 0.0;
    double objective_evals = 0.0;
    double manifest_encode_s = 0.0;
    std::optional<double> chunk_imbalance;
};

class paper_flow final : public workload {
public:
    explicit paper_flow(const run_options& options) {
        // A flow takes ~0.4 s on a 4-thread host; 10 per second of window
        // leaves a fourfold margin before the list could run out.
        const auto n = static_cast<std::size_t>(std::ceil(options.seconds * 10.0)) + 4;
        std::uint64_t state = options.seed;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t controller = splitmix64(state) >> 16;
            const std::uint64_t optimizer = splitmix64(state) >> 16;
            requests_.push_back(paper_spec(controller, optimizer));
            digest_.add("flow|" + spec::to_json(requests_.back()).dump() + "\n");
        }
    }

    std::string request_digest() const override { return digest_.hex(); }
    std::size_t requests_generated() const override { return requests_.size(); }

    window_result run(const run_options& options, time_point setup_origin,
                      span_recorder* tracer) override;

private:
    void check_flow(const dse::flow_result& result,
                    const obs::run_manifest& manifest, const std::string& id,
                    window_result& out, std::vector<double>& gains) const;
    flow_trace trace_flow(const obs::run_manifest& manifest,
                          std::uint64_t flow_span, const std::string& id,
                          time_point start, time_point end,
                          span_recorder& tracer) const;

    std::vector<spec::experiment_spec> requests_;
    digest digest_;
};

void paper_flow::check_flow(const dse::flow_result& result,
                            const obs::run_manifest& manifest,
                            const std::string& id, window_result& out,
                            std::vector<double>& gains) const {
    for (const obs::sim_run_record& run : manifest.sim_runs()) {
        out.checked("flow.sim_ok");
        if (!run.sim_ok)
            out.miss(id + ": " + run.kind + " run " +
                     std::to_string(run.index) + " has sim_ok = false");
    }
    out.checked("flow.validated_vs_baseline");
    std::uint64_t best = 0;
    for (const dse::optimizer_outcome& outcome : result.outcomes)
        best = std::max(best, outcome.validated.transmissions);
    const std::uint64_t baseline = result.original_eval.transmissions;
    if (result.outcomes.empty() || best < baseline) {
        out.miss(id + ": best validated optimum " + std::to_string(best) +
                 " tx is below the baseline's " + std::to_string(baseline));
        return;
    }
    gains.push_back(ratio(static_cast<double>(best), static_cast<double>(baseline)));
}

flow_trace paper_flow::trace_flow(const obs::run_manifest& manifest,
                                  std::uint64_t flow_span,
                                  const std::string& id, time_point start,
                                  time_point end, span_recorder& tracer) const {
    flow_trace ft;
    std::vector<std::pair<std::string, double>> phases;
    double phases_total = 0.0;
    // The manifest gives each phase's wall time; phases run back to back,
    // so their spans are laid end to end from the flow start.
    time_point cursor = start;
    for (const obs::phase_record& phase : manifest.phases()) {
        phases.emplace_back(phase.name, phase.wall_s);
        phases_total += phase.wall_s;
        span s;
        s.name = "dse.phase." + phase.name;
        s.layer = phase_layer(phase.name);
        s.start = cursor;
        cursor += std::chrono::duration_cast<bench_clock::duration>(
            std::chrono::duration<double>(phase.wall_s));
        s.end = cursor;
        s.parent = flow_span;
        s.request = id;
        s.args.emplace_back("placement", obs::json_value("end to end from the flow start"));
        tracer.add(std::move(s));
    }
    ft.phase_s = phase_walls(phases);
    ft.unattributed_s = seconds_between(start, end) - phases_total;
    for (const obs::optimizer_record& rec : manifest.optimizers())
        ft.objective_evals += static_cast<double>(rec.evaluations);

    // Chunk imbalance of the simulate phase: its evaluate_batch calls run
    // concurrently on the pool and all precede the flow's first scalar
    // evaluate (the baseline).
    std::vector<span> calls = tracer.children_of(flow_span);
    std::sort(calls.begin(), calls.end(),
              [](const span& a, const span& b) { return a.start < b.start; });
    std::vector<double> chunk_s;
    for (const span& call : calls) {
        if (call.name == "dse.evaluate") break;
        if (call.name == "dse.evaluate_batch") chunk_s.push_back(call.seconds());
    }
    if (!chunk_s.empty())
        ft.chunk_imbalance = ratio(*std::max_element(chunk_s.begin(), chunk_s.end()),
                                   mean(chunk_s));

    const time_point encode_start = bench_clock::now();
    const std::string text = manifest.to_json().dump();
    const time_point encode_end = bench_clock::now();
    ft.manifest_encode_s = seconds_between(encode_start, encode_end);
    span encode;
    encode.name = "obs.manifest_encode";
    encode.layer = "obs";
    encode.start = encode_start;
    encode.end = encode_end;
    encode.request = id;
    encode.args.emplace_back("bytes", obs::json_value(text.size()));
    tracer.add(std::move(encode));

    span flow;
    flow.id = flow_span;
    flow.name = "dse.run_rsm_flow";
    flow.layer = "dse";
    flow.start = start;
    flow.end = end;
    flow.request = id;
    tracer.add(std::move(flow));
    return ft;
}

window_result paper_flow::run(const run_options& options,
                              time_point setup_origin, span_recorder* tracer) {
    window_result out;
    // `ehdse_cli flow` without --metrics-out installs no registry, so the
    // untraced window runs without one; the traced window installs it
    // before building the pool, whose instruments resolve at construction.
    static obs::metrics_registry registry;
    if (tracer) obs::set_global_registry(&registry);

    std::unique_ptr<exec::thread_pool> pool;
    std::unique_ptr<dse::system_evaluator> evaluator;
    timed_evaluator* timed = nullptr;
    time_point setup_start = setup_origin;
    for (std::size_t k = 0; k < k_setups; ++k) {
        if (k > 0) {
            evaluator.reset();
            pool.reset();
            setup_start = bench_clock::now();
        }
        pool = std::make_unique<exec::thread_pool>(host_threads());
        const spec::experiment_spec warmup = paper_spec(0x5eed0000 + k, 0x0b7a1);
        if (tracer) {
            auto wrapped = std::make_unique<timed_evaluator>(warmup, *tracer);
            timed = wrapped.get();
            evaluator = std::move(wrapped);
        } else {
            evaluator = std::make_unique<dse::system_evaluator>(warmup.scn, warmup.harv);
        }
        dse::flow_options runtime;
        runtime.pool = pool.get();
        dse::run_rsm_flow(*evaluator, dse::flow_options_from_spec(warmup, runtime));
        out.setup_s.push_back(seconds_between(setup_start, bench_clock::now()));
    }

    std::vector<double> gains;
    std::vector<flow_trace> traces;
    std::vector<std::uint64_t> flow_spans;
    dse::cached_evaluator::cache_stats cache;

    const registry_snapshot before = registry_snapshot::take(obs::global_registry());
    const double cpu_start = process_cpu_seconds();
    const time_point window_start = bench_clock::now();
    const time_point deadline =
        window_start + std::chrono::duration_cast<bench_clock::duration>(
                           std::chrono::duration<double>(options.seconds));
    std::size_t next = 0;
    while (bench_clock::now() < deadline &&
           (options.max_requests == 0 || next < options.max_requests)) {
        if (next == requests_.size()) {
            out.notes.emplace_back("inputs_exhausted", obs::json_value(true));
            break;
        }
        const std::string id = "flow-" + std::to_string(next);
        const spec::experiment_spec& request = requests_[next++];
        obs::run_manifest manifest;
        dse::flow_options runtime;
        runtime.pool = pool.get();
        runtime.manifest = &manifest;
        const dse::flow_options flow_options =
            dse::flow_options_from_spec(request, runtime);
        const std::uint64_t flow_span = tracer ? tracer->next_id() : 0;
        if (timed) timed->begin_flow(flow_span, id);

        ++out.submitted;
        const time_point start = bench_clock::now();
        std::optional<dse::flow_result> result;
        try {
            result = dse::run_rsm_flow(*evaluator, flow_options);
        } catch (const std::exception& e) {
            ++out.failed;
            if (out.problems.size() < 10) out.problems.push_back(id + ": " + e.what());
        }
        const time_point end = bench_clock::now();
        if (!result) continue;
        ++out.completed;
        out.complete(seconds_between(start, end), seconds_between(window_start, end),
                     process_cpu_seconds() - cpu_start);
        check_flow(*result, manifest, id, out, gains);
        if (tracer) {
            cache.hits += result->cache.hits;
            cache.misses += result->cache.misses;
            flow_spans.push_back(flow_span);
            traces.push_back(trace_flow(manifest, flow_span, id, start, end, *tracer));
        }
    }
    out.window_s = seconds_between(window_start, bench_clock::now());
    out.cpu_s = process_cpu_seconds() - cpu_start;
    const registry_snapshot after = registry_snapshot::take(obs::global_registry());

    out.notes.emplace_back("validated_gain_x", obs::json_value(mean(gains)));
    if (!tracer) return out;

    // -- per-layer metrics of the traced window ---------------------------
    std::vector<double> evaluate_s, batch_s;
    double lanes = 0.0;
    for (const std::uint64_t flow_span : flow_spans) {
        for (const span& call : tracer->children_of(flow_span)) {
            if (call.name == "dse.evaluate") evaluate_s.push_back(call.seconds());
            if (call.name == "dse.evaluate_batch") {
                batch_s.push_back(call.seconds());
                lanes += call.args.front().second.as_number();
            }
        }
    }
    const auto per_flow = [&traces](auto field) {
        std::vector<double> values;
        for (const flow_trace& ft : traces) values.push_back(field(ft));
        return mean(values);
    };
    const auto phase = [&per_flow](const char* name) {
        return per_flow([name](const flow_trace& ft) { return phase_wall(ft.phase_s, name); });
    };
    std::vector<double> imbalance, encode_s;
    for (const flow_trace& ft : traces) {
        if (ft.chunk_imbalance) imbalance.push_back(*ft.chunk_imbalance);
        encode_s.push_back(ft.manifest_encode_s);
    }
    const double batch_steps = static_cast<double>(after.delta(before, "sim.batch.ode_steps"));
    const double batch_lanes = static_cast<double>(after.delta(before, "dse.batch.lanes"));
    const double scalar_steps = static_cast<double>(after.delta(before, "sim.ode_steps"));
    const double scalar_evals =
        static_cast<double>(after.delta(before, "dse.evaluate.runs")) - batch_lanes;

    out.layer = {
        {"sim.batch.steps_per_sweep",
         ratio(batch_steps, static_cast<double>(after.delta(before, "sim.batch.sweeps"))), "count"},
        {"sim.batch.ode_reject_frac",
         ratio(static_cast<double>(after.delta(before, "sim.batch.ode_steps_rejected")), batch_steps),
         "ratio"},
        {"sim.batch.events_per_eval",
         ratio(static_cast<double>(after.delta(before, "sim.batch.events")), batch_lanes), "count"},
        {"sim.ode_steps_per_eval", ratio(scalar_steps, scalar_evals), "count"},
        {"sim.ode_reject_frac",
         ratio(static_cast<double>(after.delta(before, "sim.ode_steps_rejected")), scalar_steps),
         "ratio"},
        {"sim.events_per_eval",
         ratio(static_cast<double>(after.delta(before, "sim.events")), scalar_evals), "count"},
        {"dse.evaluate.calls", static_cast<double>(evaluate_s.size()), "count"},
        {"dse.evaluate_s", quantile(evaluate_s, 0.5), "s"},
        {"dse.evaluate_batch.calls", static_cast<double>(batch_s.size()), "count"},
        {"dse.evaluate_batch.lanes", ratio(lanes, static_cast<double>(batch_s.size())), "count"},
        {"dse.evaluate_batch_s", quantile(batch_s, 0.5), "s"},
        {"dse.simulate_s", phase("simulate"), "s"},
        {"dse.baseline_s", phase("baseline"), "s"},
        {"dse.validate_s", phase("validate"), "s"},
        {"dse.unattributed_s", per_flow([](const flow_trace& ft) { return ft.unattributed_s; }), "s"},
        {"dse.cache.hits", static_cast<double>(cache.hits), "count"},
        {"dse.cache.misses", static_cast<double>(cache.misses), "count"},
        {"dse.cache.hit_frac", cache.hit_rate(), "ratio"},
        {"exec.pool.tasks", static_cast<double>(after.delta(before, "exec.pool.tasks")), "count"},
        {"exec.pool.steals", static_cast<double>(after.delta(before, "exec.pool.steals")), "count"},
        {"exec.pool.task_wait_s", after.mean_delta(before, "exec.pool.task_wait_seconds"), "s"},
        {"exec.pool.task_run_s", after.mean_delta(before, "exec.pool.task_run_seconds"), "s"},
        {"exec.chunk_imbalance", mean(imbalance), "x"},
        {"doe.design_s", phase("design"), "s"},
        {"rsm.fit_s", phase("fit"), "s"},
        {"opt.optimise_s", phase("optimise"), "s"},
        {"opt.objective_evals", per_flow([](const flow_trace& ft) { return ft.objective_evals; }),
         "count"},
        // Not on this workload's path: no spec documents, frames or service.
        {"spec.decode_s", 0.0, "s"},
        {"spec.hash_s", 0.0, "s"},
        {"spec.encode_s", 0.0, "s"},
        {"obs.manifest_encode_s", quantile(encode_s, 0.5), "s"},
        {"svc.result_bytes", 0.0, "bytes"},
        {"svc.admit_s", 0.0, "s"},
        {"svc.queue_wait_s", 0.0, "s"},
        {"svc.exec_s", 0.0, "s"},
    };
    return out;
}

}  // namespace

std::unique_ptr<workload> make_paper_flow(const run_options& options) {
    return std::make_unique<paper_flow>(options);
}

}  // namespace ehdse_bench
