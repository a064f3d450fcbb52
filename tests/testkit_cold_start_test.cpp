// The damping solve's warm start changes no bit of an evaluation, end to
// end: on the golden scenario and design points, for the electromagnetic
// device behind either front-end, testkit::cold_start_evaluator (every
// damping solve cold) equals the default evaluator (warm-started) in
// every deterministic field, through evaluate() and through every lane
// of evaluate_batch().
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "dse/system_evaluator.hpp"
#include "golden_scenario.hpp"
#include "testkit/cold_start.hpp"

namespace ed = ehdse::dse;
namespace tk = ehdse::testkit;
using ehdse::testdata::golden_configs;
using ehdse::testdata::golden_scenario;

namespace {

std::string hex(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/// Every deterministic field of a run (wall_time_s and batch_lanes
/// describe the run, not its result), floats as hex.
std::string fields(const ed::evaluation_result& r) {
    std::ostringstream os;
    os << "transmissions " << r.transmissions << "\nsuppressed_wakeups "
       << r.suppressed_wakeups << "\nlow_band_transmissions "
       << r.low_band_transmissions << "\ntuning " << r.tuning.wakeups << ' '
       << r.tuning.low_energy_skips << ' ' << r.tuning.measurements << ' '
       << r.tuning.position_matches << ' ' << r.tuning.coarse_tunings << ' '
       << r.tuning.coarse_steps << ' ' << r.tuning.fine_iterations << ' '
       << r.tuning.fine_steps << ' ' << r.tuning.fine_converged
       << "\nfinal_voltage_v " << hex(r.final_voltage_v) << "\nmin_voltage_v "
       << hex(r.min_voltage_v) << "\nmax_voltage_v " << hex(r.max_voltage_v)
       << "\nharvested_energy_j " << hex(r.harvested_energy_j)
       << "\nsustained_load_energy_j " << hex(r.sustained_load_energy_j)
       << "\nwithdrawn_energy_j " << hex(r.withdrawn_energy_j);
    for (const auto& [account, joules] : r.ledger.accounts())
        os << "\nledger[" << account << "] " << hex(joules);
    os << "\node_steps " << r.ode_steps << "\node_steps_rejected "
       << r.ode_steps_rejected << "\nevents " << r.events << "\nsim_ok "
       << r.sim_ok;
    return os.str();
}

}  // namespace

TEST(ColdStart, WarmStartedEvaluationsEqualColdOnesBitForBit) {
    const std::vector<ed::system_config> configs = golden_configs();
    const ed::system_evaluator warm(golden_scenario());
    const tk::cold_start_evaluator cold(golden_scenario());
    for (const ed::frontend_kind frontend :
         {ed::frontend_kind::diode_bridge, ed::frontend_kind::mppt}) {
        ed::evaluation_options options;
        options.frontend = frontend;
        const std::string fe =
            frontend == ed::frontend_kind::mppt ? "mppt" : "diode bridge";
        const std::vector<ed::evaluation_result> warm_batch =
            warm.evaluate_batch(configs, options);
        const std::vector<ed::evaluation_result> cold_batch =
            cold.evaluate_batch(configs, options);
        ASSERT_EQ(warm_batch.size(), configs.size());
        ASSERT_EQ(cold_batch.size(), configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const std::string want = fields(cold.evaluate(configs[i], options));
            EXPECT_EQ(fields(warm.evaluate(configs[i], options)), want)
                << fe << ", evaluate(), config " << i;
            EXPECT_EQ(fields(warm_batch[i]), want)
                << fe << ", evaluate_batch() lane " << i;
            EXPECT_EQ(fields(cold_batch[i]), want)
                << fe << ", cold evaluate_batch() lane " << i;
        }
    }
}
