// Differential property: the SoA batch kernel is an implementation
// detail. For any valid spec, evaluating a config inside a batch equals
// evaluating it alone (lane independence) and equals the scalar
// evaluate() of that config (path independence), bitwise in every
// deterministic field. Batch width (1..16) and the extra lane configs
// derive from the spec hash, so a shrunk counterexample pins the whole
// batch, not just one lane.
#include <gtest/gtest.h>

#include "testkit_oracles.hpp"

namespace tk = ehdse::testkit;

TEST(TestkitBatchProperty, BatchMatchesScalarForAllWidths) {
    tk::property_def<ehdse::spec::experiment_spec> def;
    def.name = "TestkitBatchProperty.BatchMatchesScalarForAllWidths";
    def.generate = [](tk::prng& r) {
        ehdse::spec::experiment_spec s = tk::gen_experiment_spec(r);
        // Keep cases short: each one costs up to 16 lanes x 3 evaluation
        // paths, and the invariant does not depend on the horizon.
        s.scn.duration_s = r.uniform(60.0, 180.0);
        return s;
    };
    def.property = tk::oracles::check_batch_vs_scalar;
    def.shrink = [](const ehdse::spec::experiment_spec& s) {
        return tk::shrink_spec(s);
    };
    def.show = [](const ehdse::spec::experiment_spec& s) {
        return ehdse::spec::to_json(s).dump();
    };
    tk::property_options options;
    options.cases = 30;
    const auto result = tk::run_property(def, options);
    EXPECT_TRUE(result.ok) << result.report();
}
