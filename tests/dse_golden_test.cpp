// Golden bit-identity fixture: every deterministic field of evaluate(),
// pinned as hex floats on a short scenario that crosses frequency steps,
// a vibration dropout and a strong-excitation stretch (blocked,
// conducting and displacement-limited bridge regimes all occur).
// Performance work on the envelope kernel (warm starts, register
// allocation) must leave these numbers bit for bit alone; any numerical
// drift fails here loudly.
//
// On a mismatch the test writes the full actual dump next to the test's
// working directory (dse_golden_evaluate.actual.txt) so the diff can be
// inspected — and, for a deliberate numerical change, reviewed and
// committed as the new fixture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dse/system_evaluator.hpp"
#include "golden_scenario.hpp"

namespace ed = ehdse::dse;

namespace {

const char* const k_fixture = EHDSE_TEST_DATA_DIR "/golden/evaluate_short.txt";

using ehdse::testdata::golden_configs;
using ehdse::testdata::golden_scenario;

std::string hex(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/// One `<label>.<field> <value>` line per deterministic field
/// (wall_time_s describes the run, not its result).
void dump(std::ostream& os, const std::string& label,
          const ed::evaluation_result& r) {
    const auto line = [&](const char* field, const auto& value) {
        os << label << '.' << field << ' ' << value << '\n';
    };
    line("transmissions", r.transmissions);
    line("suppressed_wakeups", r.suppressed_wakeups);
    line("low_band_transmissions", r.low_band_transmissions);
    line("tuning.wakeups", r.tuning.wakeups);
    line("tuning.low_energy_skips", r.tuning.low_energy_skips);
    line("tuning.measurements", r.tuning.measurements);
    line("tuning.position_matches", r.tuning.position_matches);
    line("tuning.coarse_tunings", r.tuning.coarse_tunings);
    line("tuning.coarse_steps", r.tuning.coarse_steps);
    line("tuning.fine_iterations", r.tuning.fine_iterations);
    line("tuning.fine_steps", r.tuning.fine_steps);
    line("tuning.fine_converged", r.tuning.fine_converged);
    line("final_voltage_v", hex(r.final_voltage_v));
    line("min_voltage_v", hex(r.min_voltage_v));
    line("max_voltage_v", hex(r.max_voltage_v));
    line("harvested_energy_j", hex(r.harvested_energy_j));
    line("sustained_load_energy_j", hex(r.sustained_load_energy_j));
    line("withdrawn_energy_j", hex(r.withdrawn_energy_j));
    for (const auto& [account, joules] : r.ledger.accounts())
        line(("ledger[" + account + "]").c_str(), hex(joules));
    line("ode_steps", r.ode_steps);
    line("ode_steps_rejected", r.ode_steps_rejected);
    line("events", r.events);
    line("sim_ok", r.sim_ok ? "true" : "false");
}

/// One backend's part of the dump: evaluate() of its first `runs`
/// golden configs.
struct backend_dump {
    std::string name;
    std::size_t runs;
};

const std::vector<backend_dump>& golden_backends() {
    static const std::vector<backend_dump> k_backends = {
        {"electromagnetic", 10},
        {"electrostatic", 3},
    };
    return k_backends;
}

void dump_backend(std::ostream& os, const backend_dump& b) {
    const ed::system_evaluator evaluator(golden_scenario(),
                                         ehdse::spec::harvester_spec{b.name});
    const std::vector<ed::system_config> configs = golden_configs();
    for (std::size_t i = 0; i < b.runs; ++i)
        dump(os, b.name + ".scalar[" + std::to_string(i) + "]",
             evaluator.evaluate(configs[i]));
}

std::string golden_dump() {
    std::ostringstream os;
    for (const backend_dump& b : golden_backends()) dump_backend(os, b);
    return os.str();
}

std::vector<std::string> lines_of(std::istream& is) {
    std::vector<std::string> out;
    for (std::string l; std::getline(is, l);) out.push_back(l);
    return out;
}

}  // namespace

TEST(GoldenEvaluate, ScalarAndBatchResultsMatchPinnedHexFloats) {
    std::ifstream file(k_fixture);
    ASSERT_TRUE(file) << "missing fixture " << k_fixture;
    const std::vector<std::string> expected = lines_of(file);

    const std::string actual_text = golden_dump();
    std::istringstream actual_stream(actual_text);
    const std::vector<std::string> actual = lines_of(actual_stream);

    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < std::max(expected.size(), actual.size()); ++i) {
        const std::string want = i < expected.size() ? expected[i] : "<none>";
        const std::string got = i < actual.size() ? actual[i] : "<none>";
        if (want == got) continue;
        if (++mismatches <= 20)
            ADD_FAILURE() << "line " << i + 1 << ": expected '" << want
                          << "', got '" << got << "'";
    }
    if (mismatches > 0) {
        std::ofstream("dse_golden_evaluate.actual.txt") << actual_text;
        FAIL() << mismatches << " line(s) differ from " << k_fixture
               << "; full dump in dse_golden_evaluate.actual.txt";
    }
}
