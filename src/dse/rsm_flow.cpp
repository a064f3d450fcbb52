#include "dse/rsm_flow.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "exec/batch.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/timing.hpp"
#include "opt/genetic_algorithm.hpp"
#include "opt/simulated_annealing.hpp"
#include "rsm/quadratic_model.hpp"
#include "spec/json_codec.hpp"
#include "spec/spec_hash.hpp"

namespace ehdse::dse {

namespace {

/// Flow-scoped observability: phase bookkeeping against the (optional)
/// manifest and progress callback, plus the process-wide metrics sink.
/// Everything degrades to no-ops when the corresponding sink is absent.
class flow_observer {
public:
    explicit flow_observer(const flow_options& options)
        : manifest_(options.manifest),
          progress_(options.progress),
          registry_(obs::global_registry()) {}

    /// Close the current phase (if any) and open a new one.
    void phase(std::string name, std::uint64_t items = 0) {
        end_phase();
        current_ = obs::phase_record{std::move(name), 0.0, items};
        in_phase_ = true;
        watch_ = obs::stopwatch();
    }

    void set_phase_items(std::uint64_t items) { current_.items = items; }

    void end_phase() {
        if (!in_phase_) return;
        current_.wall_s = watch_.seconds();
        if (registry_)
            registry_->get_histogram("dse.flow.phase_seconds." + current_.name)
                .observe(current_.wall_s);
        if (manifest_) manifest_->add_phase(current_);
        in_phase_ = false;
    }

    void note(const std::string& line) const {
        if (progress_) progress_(line);
    }

    /// Name of the phase currently open ("" between phases).
    std::string current_phase() const { return in_phase_ ? current_.name : ""; }

    void sim_run(obs::sim_run_record record) const {
        if (manifest_) manifest_->add_sim_run(std::move(record));
    }

    void optimizer(obs::optimizer_record record) const {
        if (registry_) {
            registry_->get_counter("dse.flow.optimizer_evaluations")
                .add(record.evaluations);
        }
        if (manifest_) manifest_->add_optimizer(std::move(record));
    }

    bool manifest_attached() const noexcept { return manifest_ != nullptr; }

private:
    obs::run_manifest* manifest_;
    const std::function<void(const std::string&)>& progress_;
    obs::metrics_registry* registry_;
    obs::phase_record current_;
    obs::stopwatch watch_;
    bool in_phase_ = false;
};

obs::sim_run_record make_run_record(const char* kind, std::size_t index,
                                    const numeric::vec& coded,
                                    const system_config& config,
                                    std::uint64_t seed,
                                    const evaluation_result& r) {
    obs::sim_run_record rec;
    rec.kind = kind;
    rec.index = index;
    rec.coded.assign(coded.begin(), coded.end());
    rec.mcu_clock_hz = config.mcu_clock_hz;
    rec.watchdog_period_s = config.watchdog_period_s;
    rec.tx_interval_s = config.tx_interval_s;
    rec.seed = seed;
    rec.response = static_cast<double>(r.transmissions);
    rec.wall_s = r.wall_time_s;
    rec.ode_steps = r.ode_steps;
    rec.ode_steps_rejected = r.ode_steps_rejected;
    rec.events = r.events;
    rec.sim_ok = r.sim_ok;
    return rec;
}

/// Rebuild the canonical spec this invocation answers. The CLI constructs
/// the same value when driving the flow from a spec file, so both entry
/// points stamp identical spec / spec_hash manifest fields — the property
/// the spec_roundtrip ctest fixture asserts.
spec::experiment_spec spec_of(const system_evaluator& evaluator,
                              const flow_options& options) {
    spec::experiment_spec out;
    out.scn = evaluator.scene();
    out.harv = evaluator.harvester_config();
    out.config = options.baseline;
    out.eval = options.eval;
    out.flow.doe_runs = options.doe_runs;
    out.flow.factorial_levels = options.factorial_levels;
    out.flow.design = options.design;
    out.flow.surrogate = options.surrogate;
    out.flow.optimizer_seed = options.optimizer_seed;
    out.flow.replicates = options.replicates;
    out.flow.replicate_seed_base = options.replicate_seed_base;
    out.flow.parallel = options.parallel;
    out.flow.jobs = options.jobs;
    out.flow.cache = options.cache;
    out.flow.cache_capacity = options.cache_capacity;
    for (const auto& optimizer : options.optimizers)
        out.flow.optimizers.push_back(optimizer->name());
    return out.canonicalized();
}

void echo_options(obs::run_manifest& manifest, const flow_options& options,
                  std::size_t dimension, std::size_t resolved_jobs) {
    manifest.set_option("dimension", obs::json_value(dimension));
    manifest.set_option("doe_runs", obs::json_value(options.doe_runs));
    manifest.set_option("factorial_levels",
                        obs::json_value(options.factorial_levels));
    manifest.set_option("design", obs::json_value(options.design));
    manifest.set_option("surrogate", obs::json_value(options.surrogate));
    manifest.set_option("replicates", obs::json_value(options.replicates));
    manifest.set_option("parallel", obs::json_value(options.parallel));
    manifest.set_option("jobs", obs::json_value(resolved_jobs));
    manifest.set_option("cache", obs::json_value(options.cache));
    manifest.set_option("cache_capacity",
                        obs::json_value(options.cache_capacity));
    manifest.set_option("optimizer_seed", obs::json_value(options.optimizer_seed));
    manifest.set_option("replicate_seed_base",
                        obs::json_value(options.replicate_seed_base));
    manifest.set_option("controller_seed",
                        obs::json_value(options.eval.controller_seed));
    manifest.set_option(
        "fidelity",
        obs::json_value(options.eval.model == fidelity::transient ? "transient"
                                                                  : "envelope"));
}

}  // namespace

/// The flow body proper — everything after fail-fast validation. Runs
/// inside run_rsm_flow's try scope so any phase failure lands in the
/// manifest and rethrows as flow_error.
static flow_result run_flow_phases(
    const system_evaluator& evaluator, const flow_options& options,
    const std::shared_ptr<rsm::surrogate_model>& surrogate,
    flow_observer& obs_hook) {
    // Execution engine: use the caller's pool when provided; otherwise own
    // one for the duration of the call when `parallel` is requested. A null
    // pool means every phase runs inline on this thread.
    exec::thread_pool* pool = options.pool;
    std::unique_ptr<exec::thread_pool> owned_pool;
    if (pool == nullptr && options.parallel) {
        owned_pool = std::make_unique<exec::thread_pool>(options.jobs);
        pool = owned_pool.get();
    }

    // Memoise evaluations so optimiser revisits of a design point (and
    // concurrent duplicates under the pool) cost one simulation.
    std::optional<cached_evaluator> cache;
    if (options.cache) cache.emplace(evaluator, options.cache_capacity);
    const auto evaluate = [&](const system_config& config,
                              const evaluation_options& eval) {
        return cache ? cache->evaluate(config, eval)
                     : evaluator.evaluate(config, eval);
    };

    flow_result out;
    out.space = paper_design_space();
    const std::size_t k = out.space.dimension();
    if (options.manifest) {
        echo_options(*options.manifest, options, k, pool ? pool->size() : 1);
        const spec::experiment_spec espec = spec_of(evaluator, options);
        options.manifest->set_option("spec", spec::to_json(espec));
        options.manifest->set_option(
            "spec_hash",
            obs::json_value(spec::spec_hash_hex(spec::spec_hash(espec))));
    }

    // 1. Candidate set of the chosen design family (paper default:
    //    d_optimal over the 3^3 = 27-point grid).
    doe::design_request request;
    request.name = options.design;
    request.dimension = k;
    request.runs = options.doe_runs;
    request.factorial_levels = options.factorial_levels;
    request.basis = [](const numeric::vec& x) {
        return rsm::quadratic_basis(x);
    };
    obs_hook.phase("candidates");
    std::vector<numeric::vec> candidates =
        doe::design_candidates(request, options.doe);
    obs_hook.set_phase_items(candidates.size());
    obs_hook.note("candidates: " + std::to_string(candidates.size()) +
                  " grid points");

    // 2. Run selection (the Fedorov exchange for d_optimal; every
    //    candidate for the fixed-shape and sampled families). The phase
    //    carries the design's registry name — "d_optimal" by default,
    //    matching the pre-registry manifests.
    obs_hook.phase(options.design);
    out.design =
        doe::select_design(request, std::move(candidates), options.doe);
    obs_hook.set_phase_items(out.design.selected.size());
    if (options.design == "d_optimal") {
        std::ostringstream msg;
        msg << "d-optimal: selected " << out.design.selected.size() << "/"
            << out.design.candidates.size() << " (log det " << out.design.log_det
            << ")";
        obs_hook.note(msg.str());
    } else {
        std::ostringstream msg;
        msg << "design[" << out.design.name << "]: " << out.design.points.size()
            << " runs";
        obs_hook.note(msg.str());
    }

    // 3. Simulate each selected design point (optionally replicated with
    //    distinct measurement-noise seeds, for pure-error estimation).
    obs_hook.phase("simulate");
    const std::size_t replicates = std::max<std::size_t>(options.replicates, 1);
    struct job {
        numeric::vec coded;
        system_config config;
        evaluation_options eval;
    };
    std::vector<job> jobs;
    for (const numeric::vec& coded : out.design.points) {
        const system_config config = config_from_coded(out.space, coded);
        for (std::size_t rep = 0; rep < replicates; ++rep) {
            evaluation_options eval = options.eval;
            if (replicates > 1)
                eval.controller_seed = options.replicate_seed_base + rep;
            jobs.push_back({coded, config, eval});
        }
    }
    obs_hook.set_phase_items(jobs.size());

    // One task per simulation, replicates included: a task costs one
    // evaluate() (the flow cache's when it is on), and each result lands
    // at its own index, so neither the pool nor its schedule changes any
    // output.
    std::vector<evaluation_result> results(jobs.size());
    exec::parallel_for(pool, jobs.size(), [&](std::size_t i) {
        results[i] = evaluate(jobs[i].config, jobs[i].eval);
    });
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        out.design_coded.push_back(jobs[i].coded);
        out.design_configs.push_back(jobs[i].config);
        out.responses.push_back(static_cast<double>(results[i].transmissions));
        obs_hook.sim_run(make_run_record("design_point", i, jobs[i].coded,
                                         jobs[i].config,
                                         jobs[i].eval.controller_seed,
                                         results[i]));
        std::ostringstream msg;
        msg << "run " << i + 1 << "/" << jobs.size() << ": "
            << results[i].transmissions << " tx, " << results[i].ode_steps
            << " ode steps";
        obs_hook.note(msg.str());
    }

    // 4. Fit the chosen surrogate to the responses (paper default: the
    //    least-squares quadratic of eq. 9).
    obs_hook.phase("fit");
    out.fit = surrogate->fit(out.design_coded, out.responses);
    if (options.manifest)
        options.manifest->set_option("fit", out.fit.diagnostics());
    {
        std::ostringstream msg;
        msg << "fit: R^2 = " << out.fit.r_squared;
        obs_hook.note(msg.str());
    }

    // 5. Maximise the surface, one task per optimiser. Each task seeds its
    //    own rng and writes only its own outcome, so the outcomes are the
    //    sequential loop's. The surrogate costs well under a microsecond
    //    per point, so an optimiser scores it inline. Progress lines and
    //    failures follow on this thread in list order: the first failing
    //    optimiser in the list is the one reported, as in a sequential run.
    std::vector<std::shared_ptr<opt::optimizer>> optimizers = options.optimizers;
    if (optimizers.empty()) {
        optimizers.push_back(std::make_shared<opt::simulated_annealing>());
        optimizers.push_back(std::make_shared<opt::genetic_algorithm>());
    }
    const opt::box_bounds bounds = opt::box_bounds::unit(k);
    const opt::objective_fn surface = [&](const numeric::vec& x) {
        return out.fit.surface->predict(x);
    };

    obs_hook.phase("optimise", optimizers.size());
    out.outcomes.resize(optimizers.size());
    std::vector<std::exception_ptr> failures(optimizers.size());
    exec::parallel_for(pool, optimizers.size(), [&](std::size_t i) {
        try {
            numeric::rng rng(options.optimizer_seed);
            obs::stopwatch opt_watch;
            opt::opt_result best = optimizers[i]->maximize(surface, bounds, rng);
            optimizer_outcome& oc = out.outcomes[i];
            oc.optimise_wall_s = opt_watch.seconds();
            oc.name = optimizers[i]->name();
            oc.coded = best.best_x;
            oc.config = config_from_coded(out.space, best.best_x);
            oc.predicted = best.best_value;
            oc.evaluations = best.evaluations;
            oc.details = std::move(best);
        } catch (...) {
            failures[i] = std::current_exception();
        }
    });
    for (std::size_t i = 0; i < out.outcomes.size(); ++i) {
        if (failures[i]) std::rethrow_exception(failures[i]);
        const opt::opt_result& best = out.outcomes[i].details;
        std::ostringstream msg;
        msg << "optimise[" << out.outcomes[i].name << "]: " << best.evaluations
            << " evaluations, " << best.iterations << " iterations";
        if (best.acceptance_rate() >= 0.0)
            msg << ", acceptance " << best.acceptance_rate();
        obs_hook.note(msg.str());
    }

    // 6. Validate each optimum by simulation, with the Table VI baseline
    //    as one more task of the same fan-out (task 0). Manifest records
    //    and progress notes stay on the calling thread: the baseline, then
    //    the validations in outcome order.
    obs_hook.phase("validate", out.outcomes.size() + 1);
    exec::parallel_for(pool, out.outcomes.size() + 1, [&](std::size_t task) {
        if (task == 0)
            out.original_eval = evaluate(options.baseline, options.eval);
        else
            out.outcomes[task - 1].validated =
                evaluate(out.outcomes[task - 1].config, options.eval);
    });
    obs_hook.sim_run(make_run_record(
        "baseline", 0, config_to_coded(out.space, options.baseline),
        options.baseline, options.eval.controller_seed, out.original_eval));
    for (std::size_t i = 0; i < out.outcomes.size(); ++i) {
        optimizer_outcome& oc = out.outcomes[i];
        obs_hook.sim_run(make_run_record("validation", i, oc.coded, oc.config,
                                         options.eval.controller_seed,
                                         oc.validated));

        obs::optimizer_record rec;
        rec.name = oc.name;
        rec.evaluations = oc.details.evaluations;
        rec.iterations = oc.details.iterations;
        rec.proposed_moves = oc.details.proposed_moves;
        rec.accepted_moves = oc.details.accepted_moves;
        rec.acceptance_rate = oc.details.acceptance_rate();
        rec.converged = oc.details.converged;
        rec.predicted = oc.predicted;
        rec.validated_response = static_cast<double>(oc.validated.transmissions);
        rec.coded.assign(oc.coded.begin(), oc.coded.end());
        rec.wall_s = oc.optimise_wall_s;
        obs_hook.optimizer(std::move(rec));

        std::ostringstream msg;
        msg << "validate[" << oc.name << "]: " << oc.validated.transmissions
            << " tx (predicted " << oc.predicted << ")";
        obs_hook.note(msg.str());
    }
    obs_hook.end_phase();

    if (cache) {
        out.cache = cache->stats();
        if (options.manifest) {
            options.manifest->set_option("cache_hits",
                                         obs::json_value(out.cache.hits));
            options.manifest->set_option("cache_misses",
                                         obs::json_value(out.cache.misses));
            options.manifest->set_option("cache_evictions",
                                         obs::json_value(out.cache.evictions));
            options.manifest->set_option("cache_hit_rate",
                                         obs::json_value(out.cache.hit_rate()));
        }
        std::ostringstream msg;
        msg << "cache: " << out.cache.hits << " hits / " << out.cache.misses
            << " misses";
        obs_hook.note(msg.str());
    }

    return out;
}

flow_result run_rsm_flow(const system_evaluator& evaluator,
                         const flow_options& options) {
    // Fail fast on unknown registry names — before any pool is spun up,
    // manifest line written, or simulation run. Validation failures stay
    // std::invalid_argument; only running phases produce flow_error.
    const std::shared_ptr<rsm::surrogate_model> surrogate =
        rsm::make_surrogate(options.surrogate);
    if (!doe::is_known_design(options.design))
        throw std::invalid_argument("dse::run_rsm_flow: unknown design '" +
                                    options.design + "' (valid: " +
                                    doe::design_names() + ")");

    flow_observer obs_hook(options);
    if (options.manifest) {
        options.manifest->set_tool("ehdse.run_rsm_flow", "");
    }

    try {
        return run_flow_phases(evaluator, options, surrogate, obs_hook);
    } catch (const std::exception& e) {
        std::string phase = obs_hook.current_phase();
        if (phase.empty()) phase = "flow";
        obs_hook.end_phase();
        if (options.manifest) {
            options.manifest->set_option("error",
                                         obs::json_value(std::string(e.what())));
            options.manifest->set_option("error_phase", obs::json_value(phase));
        }
        obs_hook.note("error[" + phase + "]: " + e.what());
        throw flow_error(phase, e.what());
    }
}

flow_options flow_options_from_spec(const spec::experiment_spec& spec,
                                    flow_options runtime) {
    spec.validate();
    runtime.doe_runs = spec.flow.doe_runs;
    runtime.factorial_levels = spec.flow.factorial_levels;
    runtime.design = spec.flow.design;
    runtime.surrogate = spec.flow.surrogate;
    runtime.optimizer_seed = spec.flow.optimizer_seed;
    runtime.eval = spec.eval;
    runtime.baseline = spec.config;
    runtime.replicates = spec.flow.replicates;
    runtime.replicate_seed_base = spec.flow.replicate_seed_base;
    runtime.parallel = spec.flow.parallel;
    runtime.jobs = spec.flow.jobs;
    runtime.cache = spec.flow.cache;
    runtime.cache_capacity = spec.flow.cache_capacity;
    runtime.optimizers.clear();
    for (const std::string& name : spec.flow.optimizers)
        runtime.optimizers.push_back(opt::make_optimizer(name));
    return runtime;
}

flow_result run_rsm_flow(const spec::experiment_spec& spec,
                         const flow_options& runtime) {
    const system_evaluator evaluator(spec.scn, spec.harv);
    return run_rsm_flow(evaluator, flow_options_from_spec(spec, runtime));
}

}  // namespace ehdse::dse
