// Markdown report rendering of a flow result.
#include <gtest/gtest.h>

#include "dse/report.hpp"

namespace ed = ehdse::dse;

namespace {
const ed::flow_result& shared_flow(bool saturated) {
    static const ed::flow_result sat = [] {
        ed::scenario s;
        s.duration_s = 900.0;
        s.step_period_s = 400.0;
        ed::system_evaluator ev(s);
        return ed::run_rsm_flow(ev, {});
    }();
    static const ed::flow_result over = [] {
        ed::scenario s;
        s.duration_s = 900.0;
        s.step_period_s = 400.0;
        ed::system_evaluator ev(s);
        ed::flow_options o;
        o.doe_runs = 14;
        return ed::run_rsm_flow(ev, o);
    }();
    return saturated ? sat : over;
}
}  // namespace

TEST(Report, ContainsAllSections) {
    const std::string text = ed::report_to_string(shared_flow(false));
    for (const char* needle :
         {"# Response-surface design-space exploration report",
          "## Design points and responses", "## Fitted response surface",
          "## Statistical assessment", "ANOVA", "## Sensitivity (Sobol indices)",
          "## Optimisation outcomes", "simulated-annealing", "baseline",
          "mcu_clock_hz", "tx_interval_s"})
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

TEST(Report, SaturatedDesignExplainsMissingAnova) {
    const std::string text = ed::report_to_string(shared_flow(true));
    EXPECT_NE(text.find("Saturated design"), std::string::npos);
    EXPECT_EQ(text.find("ANOVA\n"), std::string::npos);
}

TEST(Report, RowCountsMatchFlow) {
    const auto& flow = shared_flow(false);
    const std::string text = ed::report_to_string(flow);
    // One table row per observation: count "| 14 |" style last index.
    EXPECT_NE(text.find("| " + std::to_string(flow.responses.size()) + " |"),
              std::string::npos);
}
