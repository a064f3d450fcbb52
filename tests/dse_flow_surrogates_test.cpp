// The pluggable flow: run_rsm_flow driven through non-default surrogate /
// design registry names — same pipeline, different fitted surface — with
// the manifest recording which names ran and the uniform fit diagnostics.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "dse/rsm_flow.hpp"
#include "obs/run_manifest.hpp"

namespace ed = ehdse::dse;

namespace {

ed::scenario flow_scenario() {
    ed::scenario s;
    s.duration_s = 1200.0;
    s.step_period_s = 500.0;
    s.step_count = 2;
    return s;
}

ed::flow_result run_with(const std::string& surrogate,
                         const std::string& design,
                         std::size_t doe_runs = 10, bool parallel = false,
                         ehdse::obs::run_manifest* manifest = nullptr) {
    ed::system_evaluator ev(flow_scenario());
    ed::flow_options opts;
    opts.surrogate = surrogate;
    opts.design = design;
    opts.doe_runs = doe_runs;
    opts.parallel = parallel;
    opts.manifest = manifest;
    return ed::run_rsm_flow(ev, opts);
}

}  // namespace

// The same 10-run D-optimal design fitted by each registered surrogate:
// deterministic finite predictions over the coded box, and the LOO-CV
// diagnostic populated (finite when cross-validation has folds to spare,
// +inf on the saturated quadratic — but never silently absent).
TEST(FlowSurrogates, EverySurrogateDrivesTheFlow) {
    for (const std::string surrogate : {"quadratic", "gp"}) {
        const auto a = run_with(surrogate, "d_optimal");
        const auto b = run_with(surrogate, "d_optimal");
        EXPECT_EQ(a.fit.surrogate, surrogate);
        ASSERT_NE(a.fit.surface, nullptr);
        EXPECT_FALSE(std::isnan(a.fit.loo_rmse)) << surrogate;
        for (const auto& x : a.design_coded) {
            const double p = a.fit.predict(x);
            EXPECT_TRUE(std::isfinite(p)) << surrogate;
            EXPECT_DOUBLE_EQ(p, b.fit.predict(x)) << surrogate;
        }
        ASSERT_FALSE(a.outcomes.empty());
        for (const auto& oc : a.outcomes) {
            EXPECT_TRUE(std::isfinite(oc.predicted)) << surrogate;
            EXPECT_TRUE(oc.validated.sim_ok) << surrogate;
        }
    }
}

// The stepwise surrogate needs an over-determined design; at 14 runs it
// fits, reports a finite LOO-CV RMSE, and the optimise phase maximises
// the reduced polynomial.
TEST(FlowSurrogates, StepwiseNeedsOverDeterminedDesign) {
    const auto r = run_with("stepwise", "d_optimal", 14);
    EXPECT_EQ(r.fit.surrogate, "stepwise");
    EXPECT_EQ(r.design_coded.size(), 14u);
    EXPECT_TRUE(std::isfinite(r.fit.loo_rmse));
    EXPECT_TRUE(std::isfinite(r.fit.r_squared));
    EXPECT_EQ(r.fit.quadratic(), nullptr);  // reduced model, not fit_result
    for (const auto& oc : r.outcomes)
        EXPECT_TRUE(r.space.contains(oc.coded, 1e-9)) << oc.name;
}

// Non-default design: Box-Behnken fixes its own 13-run shape, and the
// manifest phase that used to be "d_optimal" carries the design's name.
TEST(FlowSurrogates, BoxBehnkenDesignDrivesTheFlow) {
    ehdse::obs::run_manifest manifest;
    const auto r = run_with("quadratic", "box_behnken", 10, false, &manifest);
    EXPECT_EQ(r.design.name, "box_behnken");
    EXPECT_EQ(r.design.points.size(), 13u);
    EXPECT_EQ(r.design_coded.size(), 13u);
    EXPECT_EQ(manifest.sim_run_count("design_point"), 13u);

    std::vector<std::string> names;
    for (const auto& p : manifest.phases()) names.push_back(p.name);
    EXPECT_EQ(names,
              (std::vector<std::string>{"candidates", "box_behnken", "simulate",
                                        "fit", "optimise", "validate"}));
    EXPECT_EQ(manifest.phases().back().items, r.outcomes.size() + 1);
}

// The manifest echoes the registry names and the uniform fit diagnostics.
TEST(FlowSurrogates, ManifestRecordsNamesAndDiagnostics) {
    ehdse::obs::run_manifest manifest;
    const auto r = run_with("gp", "d_optimal", 10, false, &manifest);
    const auto doc = manifest.to_json();
    EXPECT_EQ(doc.at("options").at("design").as_string(), "d_optimal");
    EXPECT_EQ(doc.at("options").at("surrogate").as_string(), "gp");
    const auto& fit = doc.at("options").at("fit");
    EXPECT_EQ(fit.at("surrogate").as_string(), "gp");
    EXPECT_DOUBLE_EQ(fit.at("r_squared").as_number(), r.fit.r_squared);
    EXPECT_TRUE(fit.at("model").is_object());
}

// GP fit under the worker pool: results identical to sequential (the rsm
// label puts this file in the TSan job).
TEST(FlowSurrogates, ParallelGpMatchesSequential) {
    const auto seq = run_with("gp", "d_optimal");
    const auto par = run_with("gp", "d_optimal", 10, true);
    ASSERT_EQ(seq.responses.size(), par.responses.size());
    for (std::size_t i = 0; i < seq.responses.size(); ++i)
        EXPECT_DOUBLE_EQ(seq.responses[i], par.responses[i]);
    for (const auto& x : seq.design_coded)
        EXPECT_DOUBLE_EQ(seq.fit.predict(x), par.fit.predict(x));
}

// Unknown names surface as std::invalid_argument before any simulation,
// naming the offender.
TEST(FlowSurrogates, UnknownNamesRejected) {
    EXPECT_THROW(run_with("cubic", "d_optimal"), std::invalid_argument);
    EXPECT_THROW(run_with("quadratic", "taguchi"), std::invalid_argument);
}
