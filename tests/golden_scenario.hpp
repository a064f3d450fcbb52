// The golden fixture's scenario and design points, shared by the
// bit-identity test (dse_golden_test) and the integrator accuracy test
// (dse_integrator_test).
#pragma once

#include <vector>

#include "dse/system_evaluator.hpp"

namespace ehdse::testdata {

/// 900 s: 64 -> 69 -> 74 Hz steps every 300 s, the source off for
/// 100 s and then driven at 1.5x for the rest of the run.
inline dse::scenario golden_scenario() {
    dse::scenario s;
    s.duration_s = 900.0;
    s.step_period_s = 300.0;
    s.step_count = 2;
    s.amplitude_schedule = {{0.0, 1.0}, {250.0, 0.0}, {350.0, 1.5}};
    return s;
}

/// Ten points spread over the coded design box (corners, faces, centre).
inline std::vector<dse::system_config> golden_configs() {
    const std::vector<numeric::vec> coded = {
        {0.0, 0.0, 0.0},   {-1.0, -1.0, -1.0}, {1.0, 1.0, 1.0},
        {-1.0, 1.0, -1.0}, {1.0, -1.0, 1.0},   {0.5, -0.5, 0.0},
        {-0.5, 0.0, 1.0},  {0.0, 1.0, -0.5},   {1.0, 0.0, -1.0},
        {-1.0, -0.5, 0.5},
    };
    const auto space = dse::paper_design_space();
    std::vector<dse::system_config> out;
    for (const auto& c : coded) out.push_back(dse::config_from_coded(space, c));
    return out;
}

}  // namespace ehdse::testdata
