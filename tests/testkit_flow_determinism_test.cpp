// Metamorphic property over the whole pipeline: the flow's results are a
// pure function of the spec — running the same experiment sequentially
// and over a 3-worker pool yields identical design responses, fits,
// baselines and optimiser outcomes. Few cases (each runs two complete
// flows), but each case draws a different design/surrogate/optimiser
// combination from the registries.
#include <gtest/gtest.h>

#include "testkit_oracles.hpp"

namespace tk = ehdse::testkit;

TEST(TestkitFlowProperty, JobsOneAndJobsThreeAgreeExactly) {
    tk::property_def<ehdse::spec::experiment_spec> def;
    def.name = "TestkitFlowProperty.JobsOneAndJobsThreeAgreeExactly";
    def.generate = [](tk::prng& r) {
        ehdse::spec::experiment_spec s = tk::gen_experiment_spec(r);
        s.scn.duration_s = r.uniform(60.0, 120.0);
        s.flow.replicates = 1;  // replication multiplies runs; keep 2 flows cheap
        return s;
    };
    def.property = tk::oracles::check_jobs_determinism;
    def.shrink = [](const ehdse::spec::experiment_spec& s) {
        return tk::shrink_spec(s);
    };
    def.show = [](const ehdse::spec::experiment_spec& s) {
        return ehdse::spec::to_json(s).dump();
    };
    tk::property_options options;
    options.cases = 6;
    const auto result = tk::run_property(def, options);
    EXPECT_TRUE(result.ok) << result.report();
}
