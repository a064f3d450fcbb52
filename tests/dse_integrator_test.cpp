// The envelope integrator's accuracy on the golden scenario, against the
// plain Cash–Karp reference (testkit/plain_step.hpp).
//
// The envelope integrates with the exponential Cash–Karp step
// (sim/cash_karp.hpp) at rel 1e-9. The bound it must meet is the error of
// the integrator it replaced — the plain step at rel 1e-6 / abs 1e-8 —
// measured here on the same runs through the same decorator, which at
// that tolerance reproduces the former integrator's pinned runs exactly,
// plus one accepted step's absolute tolerance (abs_tol, 1e-8 V): both
// integrators keep the electrostatic runs' final voltage within a few
// 1e-8 V of the reference, where their order is the abs_tol floor's
// noise (measured: former 4.13e-8 V, exponential 4.24e-8 V; the
// electromagnetic runs: 1.04e-6 V against 6.74e-7 V).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "dse/envelope_system.hpp"
#include "dse/system_evaluator.hpp"
#include "golden_scenario.hpp"
#include "testkit/plain_step.hpp"

namespace ed = ehdse::dse;
namespace tk = ehdse::testkit;
using ehdse::testdata::golden_configs;
using ehdse::testdata::golden_scenario;

namespace {

/// One scalar run of the former integrator (the plain step at rel 1e-6 /
/// abs 1e-8), pinned over the current envelope RHS: the electromagnetic
/// runs move with the damping kernel's bits.
struct pinned_run {
    std::size_t transmissions;
    double final_voltage_v;
    std::size_t ode_steps;
    std::size_t ode_steps_rejected;
};

}  // namespace

TEST(IntegratorAccuracy, PlainStepAtTheFormerToleranceReproducesPinnedRuns) {
    const std::vector<pinned_run> em = {
        {76, 0x1.5ffb78417bca6p+1, 1282, 268},
        {184, 0x1.5443ab9cb505cp+1, 1455, 289},
        {62, 0x1.5bfc259f48f79p+1, 975, 212},
        {183, 0x1.58fede1fbb7cp+1, 1125, 223},
        {41, 0x1.60be90be02f27p+1, 1333, 273},
        {88, 0x1.5bc5fdf584e56p+1, 1090, 220},
        {44, 0x1.60c2e72937131p+1, 1224, 285},
        {165, 0x1.5a26a2750dc47p+1, 1020, 188},
        {187, 0x1.5d86549cf4e1bp+1, 1390, 297},
        {61, 0x1.5afa1dd4bc7cfp+1, 1015, 220},
    };
    const std::vector<pinned_run> es = {
        {136, 0x1.684c607e17f7cp+1, 885, 203},
        {264, 0x1.66fa5bd7675abp+1, 1025, 197},
        {56, 0x1.67f9c1f2a1155p+1, 766, 167},
    };
    const auto configs = golden_configs();
    for (const auto& [name, pinned] :
         {std::pair{"electromagnetic", em}, std::pair{"electrostatic", es}}) {
        const tk::plain_step_evaluator former(golden_scenario(),
                                              ehdse::spec::harvester_spec{name},
                                              1e-6, 1e-8);
        for (std::size_t i = 0; i < pinned.size(); ++i) {
            const ed::evaluation_result r = former.evaluate(configs[i]);
            EXPECT_EQ(r.transmissions, pinned[i].transmissions)
                << name << " config " << i;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(r.final_voltage_v),
                      std::bit_cast<std::uint64_t>(pinned[i].final_voltage_v))
                << name << " config " << i;
            EXPECT_EQ(r.ode_steps, pinned[i].ode_steps) << name << " config " << i;
            EXPECT_EQ(r.ode_steps_rejected, pinned[i].ode_steps_rejected)
                << name << " config " << i;
        }
    }
}

TEST(IntegratorAccuracy, GoldenConfigsMatchTheReferenceWithinTheFormerError) {
    const auto configs = golden_configs();
    for (const char* name : {"electromagnetic", "electrostatic"}) {
        const ehdse::spec::harvester_spec harv{name};
        const tk::plain_step_evaluator reference(golden_scenario(), harv);
        const tk::plain_step_evaluator former(golden_scenario(), harv, 1e-6,
                                              1e-8);
        const ed::system_evaluator envelope(golden_scenario(), harv);

        double former_max = 0.0, scalar_max = 0.0;
        std::size_t former_work = 0, envelope_work = 0;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const ed::evaluation_result ref = reference.evaluate(configs[i]);
            const ed::evaluation_result old = former.evaluate(configs[i]);
            const ed::evaluation_result now = envelope.evaluate(configs[i]);
            ASSERT_TRUE(ref.sim_ok && old.sim_ok && now.sim_ok);
            EXPECT_EQ(now.transmissions, ref.transmissions)
                << name << " config " << i;
            const auto err = [&](const ed::evaluation_result& r) {
                return std::abs(r.final_voltage_v - ref.final_voltage_v);
            };
            former_max = std::max(former_max, err(old));
            scalar_max = std::max(scalar_max, err(now));
            former_work += old.ode_steps + old.ode_steps_rejected;
            envelope_work += now.ode_steps + now.ode_steps_rejected;
        }
        // The bound: the former integrator's largest final-voltage error
        // on these runs, measured above, plus one step's abs_tol.
        const double bound = former_max + ed::envelope_ode_options().abs_tol;
        EXPECT_LE(scalar_max, bound) << name;
        EXPECT_LT(envelope_work, former_work) << name;
        std::printf("%s: max |dV| former %.3g V, exponential %.3g V; step "
                    "attempts %zu -> %zu\n",
                    name, former_max, scalar_max, former_work, envelope_work);
    }
}
