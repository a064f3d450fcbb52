// End-to-end RSM flow (DOE -> simulate -> fit -> optimise -> validate).
#include <gtest/gtest.h>

#include <cmath>

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
