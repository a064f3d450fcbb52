// End-to-end RSM flow (DOE -> simulate -> fit -> optimise -> validate),
// and the evaluate() interposition the flow's design points go through.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dse/rsm_flow.hpp"
#include "obs/metrics.hpp"
#include "obs/run_manifest.hpp"
#include "rsm/anova.hpp"
#include "opt/nelder_mead.hpp"

namespace ed = ehdse::dse;

namespace {
/// The flow on a shortened scenario so the whole file stays fast.
ed::scenario flow_scenario() {
    ed::scenario s;
    s.duration_s = 1200.0;
    s.step_period_s = 500.0;
    s.step_count = 2;
    return s;
}

const ed::flow_result& shared_flow() {
    static const ed::flow_result result = [] {
        ed::system_evaluator ev(flow_scenario());
        return ed::run_rsm_flow(ev, {});
    }();
    return result;
}
}  // namespace

TEST(Flow, DoeSelectsRequestedRunCount) {
    const auto& r = shared_flow();
    EXPECT_EQ(r.design.candidates.size(), 27u);
    EXPECT_EQ(r.design.selected.size(), 10u);
    EXPECT_EQ(r.design.points.size(), 10u);
    EXPECT_EQ(r.design_coded.size(), 10u);
    EXPECT_EQ(r.design_configs.size(), 10u);
    EXPECT_EQ(r.responses.size(), 10u);
}

TEST(Flow, DesignConfigsDecodeSelectedPoints) {
    const auto& r = shared_flow();
    for (std::size_t i = 0; i < r.design_coded.size(); ++i) {
        const auto expected = ed::config_from_coded(r.space, r.design_coded[i]);
        EXPECT_DOUBLE_EQ(r.design_configs[i].mcu_clock_hz, expected.mcu_clock_hz);
        EXPECT_DOUBLE_EQ(r.design_configs[i].tx_interval_s, expected.tx_interval_s);
    }
}

TEST(Flow, FitInterpolatesSaturatedDesign) {
    const auto& r = shared_flow();
    // n = 10 runs, 10 coefficients: residuals are numerically zero.
    EXPECT_NEAR(r.fit.r_squared, 1.0, 1e-9);
    for (double e : r.fit.residuals) EXPECT_NEAR(e, 0.0, 1e-6);
}

TEST(Flow, DefaultOptimizersAreThePapersPair) {
    const auto& r = shared_flow();
    ASSERT_EQ(r.outcomes.size(), 2u);
    EXPECT_EQ(r.outcomes[0].name, "simulated-annealing");
    EXPECT_EQ(r.outcomes[1].name, "genetic-algorithm");
}

TEST(Flow, OptimaInsideBoxAndValidated) {
    const auto& r = shared_flow();
    for (const auto& oc : r.outcomes) {
        EXPECT_TRUE(r.space.contains(oc.coded, 1e-9)) << oc.name;
        EXPECT_GT(oc.evaluations, 0u);
        EXPECT_TRUE(oc.validated.sim_ok);
        // The surface optimum should not be predicted below the best
        // observed design point.
        double best_observed = 0.0;
        for (double y : r.responses) best_observed = std::max(best_observed, y);
        EXPECT_GE(oc.predicted, best_observed - 1e-6) << oc.name;
    }
}

TEST(Flow, OptimisedBeatsOriginal) {
    const auto& r = shared_flow();
    for (const auto& oc : r.outcomes) {
        EXPECT_GT(oc.validated.transmissions,
                  r.original_eval.transmissions)
            << oc.name << " failed to beat the baseline";
    }
}

TEST(Flow, CustomOptimizerListHonoured) {
    ed::system_evaluator ev(flow_scenario());
    ed::flow_options opts;
    opts.optimizers = {std::make_shared<ehdse::opt::nelder_mead>()};
    const auto r = ed::run_rsm_flow(ev, opts);
    ASSERT_EQ(r.outcomes.size(), 1u);
    EXPECT_EQ(r.outcomes[0].name, "nelder-mead");
}

TEST(Flow, ReplicatedRunsEnableLackOfFit) {
    ed::system_evaluator ev(flow_scenario());
    ed::flow_options opts;
    opts.doe_runs = 12;
    opts.replicates = 2;
    const auto r = ed::run_rsm_flow(ev, opts);
    EXPECT_EQ(r.design_coded.size(), 24u);
    EXPECT_EQ(r.responses.size(), 24u);
    // Each consecutive pair shares a design point (replicate layout).
    for (std::size_t i = 0; i + 1 < r.design_coded.size(); i += 2)
        EXPECT_EQ(r.design_coded[i], r.design_coded[i + 1]);
    const ehdse::rsm::fit_result* fit = r.fit.quadratic();
    ASSERT_NE(fit, nullptr);
    const auto lof = ehdse::rsm::lack_of_fit(r.design_coded, r.responses, *fit);
    EXPECT_TRUE(lof.testable);
    EXPECT_EQ(lof.replicate_groups, 12u);
}

TEST(Flow, ParallelMatchesSequential) {
    ed::system_evaluator ev(flow_scenario());
    ed::flow_options seq, par;
    par.parallel = true;
    const auto a = ed::run_rsm_flow(ev, seq);
    const auto b = ed::run_rsm_flow(ev, par);
    ASSERT_EQ(a.responses.size(), b.responses.size());
    for (std::size_t i = 0; i < a.responses.size(); ++i)
        EXPECT_DOUBLE_EQ(a.responses[i], b.responses[i]);
    EXPECT_EQ(a.outcomes[0].validated.transmissions,
              b.outcomes[0].validated.transmissions);
}

TEST(Flow, ManifestEmitsOneRecordPerDoeRun) {
    ed::system_evaluator ev(flow_scenario());
    ehdse::obs::run_manifest manifest;
    ed::flow_options opts;
    opts.manifest = &manifest;
    const auto r = ed::run_rsm_flow(ev, opts);

    // One design-point record per DoE run, plus the baseline and one
    // validation per optimiser.
    EXPECT_EQ(manifest.sim_run_count("design_point"), r.responses.size());
    EXPECT_EQ(manifest.sim_run_count("baseline"), 1u);
    EXPECT_EQ(manifest.sim_run_count("validation"), r.outcomes.size());

    for (const auto& run : manifest.sim_runs()) {
        EXPECT_GT(run.ode_steps, 0u) << run.kind;
        EXPECT_GT(run.events, 0u) << run.kind;
        EXPECT_GE(run.wall_s, 0.0);
        EXPECT_TRUE(run.sim_ok);
        if (run.kind == "design_point") EXPECT_EQ(run.coded.size(), 3u);
    }

    // Recorded responses match the flow's responses, in order.
    std::size_t i = 0;
    for (const auto& run : manifest.sim_runs()) {
        if (run.kind != "design_point") continue;
        EXPECT_DOUBLE_EQ(run.response, r.responses[i]) << i;
        ++i;
    }

    // Runs are recorded design points first, then the baseline, then the
    // validations, although the baseline is simulated beside them.
    std::vector<std::string> kinds;
    for (const auto& run : manifest.sim_runs()) kinds.push_back(run.kind);
    std::vector<std::string> expected_kinds(r.responses.size(), "design_point");
    expected_kinds.push_back("baseline");
    expected_kinds.insert(expected_kinds.end(), r.outcomes.size(), "validation");
    EXPECT_EQ(kinds, expected_kinds);

    // Every phase present, in pipeline order; the baseline is one more
    // item of the validate phase.
    std::vector<std::string> names;
    for (const auto& p : manifest.phases()) names.push_back(p.name);
    EXPECT_EQ(names,
              (std::vector<std::string>{"candidates", "d_optimal", "simulate",
                                        "fit", "optimise", "validate"}));
    for (const auto& p : manifest.phases()) EXPECT_GE(p.wall_s, 0.0) << p.name;
    EXPECT_EQ(manifest.phases().back().items, r.outcomes.size() + 1);

    // One optimizer record per optimiser; SA exposes its acceptance rate.
    // (accessors snapshot by value — keep the copy alive while indexing)
    const auto optimizers = manifest.optimizers();
    ASSERT_EQ(optimizers.size(), 2u);
    for (const auto& opt : optimizers) {
        EXPECT_GT(opt.evaluations, 0u) << opt.name;
        EXPECT_GT(opt.iterations, 0u) << opt.name;
    }
    const auto& sa = optimizers[0];
    EXPECT_EQ(sa.name, "simulated-annealing");
    EXPECT_GT(sa.acceptance_rate, 0.0);
    EXPECT_LE(sa.acceptance_rate, 1.0);

    // The whole manifest serialises to valid JSON.
    const auto doc = ehdse::obs::json_value::parse(manifest.to_json().dump(2));
    EXPECT_EQ(doc.at("runs").size(), manifest.sim_runs().size());
    EXPECT_DOUBLE_EQ(doc.at("options").at("doe_runs").as_number(), 10.0);
}

TEST(Flow, ManifestCountsReplicatesAndParallel) {
    ed::system_evaluator ev(flow_scenario());
    ehdse::obs::run_manifest manifest;
    ed::flow_options opts;
    opts.doe_runs = 12;
    opts.replicates = 2;
    opts.parallel = true;
    opts.manifest = &manifest;
    const auto r = ed::run_rsm_flow(ev, opts);
    EXPECT_EQ(r.responses.size(), 24u);
    EXPECT_EQ(manifest.sim_run_count("design_point"), 24u);
    // Replicates carry their distinct measurement-noise seeds.
    const auto runs = manifest.sim_runs();
    EXPECT_NE(runs[0].seed, runs[1].seed);
}

TEST(Flow, ProgressCallbackSeesEveryDesignPoint) {
    ed::system_evaluator ev(flow_scenario());
    ed::flow_options opts;
    std::vector<std::string> lines;
    opts.progress = [&lines](const std::string& line) { lines.push_back(line); };
    const auto r = ed::run_rsm_flow(ev, opts);
    std::size_t run_lines = 0;
    for (const auto& l : lines)
        if (l.rfind("run ", 0) == 0) ++run_lines;
    EXPECT_EQ(run_lines, r.responses.size());
    // Milestone lines for every phase family.
    const auto has_prefix = [&lines](const char* prefix) {
        for (const auto& l : lines)
            if (l.rfind(prefix, 0) == 0) return true;
        return false;
    };
    EXPECT_TRUE(has_prefix("candidates:"));
    EXPECT_TRUE(has_prefix("d-optimal:"));
    EXPECT_TRUE(has_prefix("fit:"));
    EXPECT_TRUE(has_prefix("optimise["));
    EXPECT_TRUE(has_prefix("validate["));
}

TEST(Flow, GlobalMetricsPopulatedWhenInstalled) {
    ehdse::obs::metrics_registry registry;
    ehdse::obs::set_global_registry(&registry);
    ed::system_evaluator ev(flow_scenario());
    const auto r = ed::run_rsm_flow(ev, {});
    ehdse::obs::set_global_registry(nullptr);

    // The memoising cache (on by default) may serve optimiser revisits, so
    // count evaluations and cache hits together.
    EXPECT_GE(registry.get_counter("dse.evaluate.runs").value() +
                  registry.get_counter("dse.cache.hits").value(),
              r.responses.size() + 1 + r.outcomes.size());
    EXPECT_GT(registry.get_counter("sim.ode_steps").value(), 0u);
    EXPECT_GT(registry.get_counter("sim.events").value(), 0u);
    EXPECT_GT(registry.get_histogram("dse.evaluate.seconds").count(), 0u);
    EXPECT_GT(
        registry.get_histogram("dse.flow.phase_seconds.simulate").count(), 0u);
    EXPECT_GT(registry.get_counter("dse.flow.optimizer_evaluations").value(),
              0u);
}

TEST(Flow, OptimiserTelemetryExposed) {
    const auto& r = shared_flow();
    const auto& sa = r.outcomes[0];
    EXPECT_EQ(sa.details.algorithm, "simulated-annealing");
    EXPECT_GT(sa.details.proposed_moves, 0u);
    EXPECT_GT(sa.details.accepted_moves, 0u);
    EXPECT_LE(sa.details.accepted_moves, sa.details.proposed_moves);
    EXPECT_EQ(sa.details.trajectory.size(), sa.details.iterations);
    const auto& ga = r.outcomes[1];
    EXPECT_EQ(ga.details.proposed_moves, 0u);  // no acceptance notion
    EXPECT_DOUBLE_EQ(ga.details.acceptance_rate(), -1.0);
    EXPECT_EQ(ga.details.trajectory.size(), ga.details.iterations);
    // Best-so-far trajectories never decrease.
    for (const auto& oc : r.outcomes)
        for (std::size_t i = 1; i < oc.details.trajectory.size(); ++i)
            EXPECT_GE(oc.details.trajectory[i], oc.details.trajectory[i - 1])
                << oc.name;
}

TEST(Flow, ReducedDoeRunsStillWork) {
    ed::system_evaluator ev(flow_scenario());
    ed::flow_options opts;
    opts.doe_runs = 14;
    const auto r = ed::run_rsm_flow(ev, opts);
    EXPECT_EQ(r.design_coded.size(), 14u);
    // Over-determined fit: R^2 well-defined and LOO-CV RMSE finite.
    EXPECT_TRUE(std::isfinite(r.fit.loo_rmse));
}

namespace {

/// Two minutes with one frequency step: long enough to transmit and to
/// exercise the tuning controller, fast enough for a unit test.
ed::scenario fast_scenario() {
    ed::scenario s;
    s.duration_s = 120.0;
    s.step_period_s = 50.0;
    s.step_count = 1;
    return s;
}

std::vector<ed::system_config> spread_configs(std::size_t n) {
    std::vector<ed::system_config> configs;
    for (std::size_t i = 0; i < n; ++i) {
        ed::system_config cfg = ed::system_config::original();
        cfg.tx_interval_s += static_cast<double>(i);
        cfg.watchdog_period_s += 10.0 * static_cast<double>(i);
        configs.push_back(cfg);
    }
    return configs;
}

/// Exact equality of every deterministic field (wall_time_s describes
/// the run, not its result).
void expect_results_equal(const ed::evaluation_result& a,
                          const ed::evaluation_result& b,
                          const std::string& what) {
    EXPECT_EQ(a.transmissions, b.transmissions) << what;
    EXPECT_EQ(a.suppressed_wakeups, b.suppressed_wakeups) << what;
    EXPECT_EQ(a.low_band_transmissions, b.low_band_transmissions) << what;
    EXPECT_EQ(a.tuning.wakeups, b.tuning.wakeups) << what;
    EXPECT_EQ(a.tuning.low_energy_skips, b.tuning.low_energy_skips) << what;
    EXPECT_EQ(a.tuning.measurements, b.tuning.measurements) << what;
    EXPECT_EQ(a.tuning.position_matches, b.tuning.position_matches) << what;
    EXPECT_EQ(a.tuning.coarse_tunings, b.tuning.coarse_tunings) << what;
    EXPECT_EQ(a.tuning.coarse_steps, b.tuning.coarse_steps) << what;
    EXPECT_EQ(a.tuning.fine_iterations, b.tuning.fine_iterations) << what;
    EXPECT_EQ(a.tuning.fine_steps, b.tuning.fine_steps) << what;
    EXPECT_EQ(a.tuning.fine_converged, b.tuning.fine_converged) << what;
    EXPECT_EQ(a.events, b.events) << what;
    EXPECT_EQ(a.ode_steps, b.ode_steps) << what;
    EXPECT_EQ(a.ode_steps_rejected, b.ode_steps_rejected) << what;
    EXPECT_EQ(a.final_voltage_v, b.final_voltage_v) << what;
    EXPECT_EQ(a.min_voltage_v, b.min_voltage_v) << what;
    EXPECT_EQ(a.max_voltage_v, b.max_voltage_v) << what;
    EXPECT_EQ(a.harvested_energy_j, b.harvested_energy_j) << what;
    EXPECT_EQ(a.sustained_load_energy_j, b.sustained_load_energy_j) << what;
    EXPECT_EQ(a.withdrawn_energy_j, b.withdrawn_energy_j) << what;
    EXPECT_EQ(a.ledger.accounts(), b.ledger.accounts()) << what;
    EXPECT_EQ(a.sim_ok, b.sim_ok) << what;
}

/// Overrides evaluate() alone and keeps every result it returns, in call
/// order, by config.
class recording_evaluator final : public ed::system_evaluator {
public:
    using ed::system_evaluator::system_evaluator;

    ed::evaluation_result evaluate(
        const ed::system_config& config,
        const ed::evaluation_options& options = {}) const override {
        ed::evaluation_result result =
            ed::system_evaluator::evaluate(config, options);
        const std::lock_guard<std::mutex> lock(mutex_);
        calls_.emplace_back(config, result);
        return result;
    }

    std::vector<std::pair<ed::system_config, ed::evaluation_result>> calls()
        const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return calls_;
    }

private:
    mutable std::mutex mutex_;
    mutable std::vector<std::pair<ed::system_config, ed::evaluation_result>>
        calls_;
};

}  // namespace

TEST(Flow, PooledDesignPointsEqualAFreshEvaluate) {
    // The simulate phase runs each design point as its own evaluate() task
    // (over a 3-worker pool here); the result each call returned, and so
    // each response the surface is fitted to, is the per-config evaluate()
    // of a fresh evaluator, bit for bit.
    const recording_evaluator evaluator(fast_scenario());
    ed::flow_options opts;
    opts.doe_runs = 10;
    opts.parallel = true;
    opts.jobs = 3;
    const ed::flow_result flow = ed::run_rsm_flow(evaluator, opts);

    // Every simulation the flow cache missed reached evaluate().
    const auto calls = evaluator.calls();
    ASSERT_EQ(calls.size(), flow.cache.misses);
    const ed::system_evaluator plain(fast_scenario());
    for (std::size_t i = 0; i < flow.design_configs.size(); ++i) {
        const ed::system_config& config = flow.design_configs[i];
        const auto call = std::find_if(
            calls.begin(), calls.end(),
            [&](const auto& entry) { return entry.first == config; });
        ASSERT_NE(call, calls.end()) << "design point " << i;
        const ed::evaluation_result alone = plain.evaluate(config);
        expect_results_equal(call->second, alone,
                             "design point " + std::to_string(i));
        EXPECT_EQ(flow.responses[i],
                  static_cast<double>(alone.transmissions))
            << "design point " << i;
    }
}

TEST(EvaluateBatch, AWrapperOfEvaluateAloneSeesEveryConfigInOrder) {
    // evaluate_batch() runs the virtual evaluate() for each config, so a
    // wrapper that overrides evaluate() alone interposes on the batch
    // entry point too, and every result is evaluate()'s, field by field.
    const recording_evaluator evaluator(fast_scenario());
    std::vector<ed::system_config> configs = spread_configs(3);
    configs.push_back(configs[0]);  // a repeat is a call of its own
    const auto batch = evaluator.evaluate_batch(configs);
    const auto calls = evaluator.calls();
    ASSERT_EQ(batch.size(), configs.size());
    ASSERT_EQ(calls.size(), configs.size());
    const ed::system_evaluator plain(fast_scenario());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::string what = "config " + std::to_string(i);
        EXPECT_EQ(calls[i].first, configs[i]) << what;
        expect_results_equal(batch[i], calls[i].second, what + " vs its call");
        expect_results_equal(batch[i], plain.evaluate(configs[i]),
                             what + " vs a fresh evaluate()");
    }
}
