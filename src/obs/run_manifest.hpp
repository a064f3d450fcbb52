// Machine-readable record of one flow execution — the automated version
// of the paper's Table VI / Fig. 5 bookkeeping: which configuration was
// simulated when, at what cost (wall time, ODE steps, events), what every
// optimiser did, and how the optima validated. One manifest per
// run_rsm_flow call; serialises to a single JSON document or to JSONL
// (one record per line, for appending across runs).
//
// Appending records is thread-safe (the flow's parallel path records
// design points from worker threads); serialisation is not — write only
// after the run completes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace ehdse::obs {

/// One timed stage of the flow (candidates, d_optimal, simulate, ...).
struct phase_record {
    std::string name;
    double wall_s = 0.0;
    std::uint64_t items = 0;  ///< units processed (points, runs, ...), 0 = n/a
};

/// One whole-system simulation: a DoE design point (possibly a replicate),
/// the baseline, or an optimiser-validation re-run.
struct sim_run_record {
    std::string kind;             ///< "design_point" | "baseline" | "validation"
    std::size_t index = 0;        ///< design-point / optimiser ordinal
    std::vector<double> coded;    ///< coded coordinates (empty for baseline)
    double mcu_clock_hz = 0.0;
    double watchdog_period_s = 0.0;
    double tx_interval_s = 0.0;
    std::uint64_t seed = 0;       ///< controller measurement-noise seed
    double response = 0.0;        ///< transmissions (the paper's y)
    double wall_s = 0.0;          ///< measured wall of the run
    std::uint64_t ode_steps = 0;
    std::uint64_t ode_steps_rejected = 0;
    std::uint64_t events = 0;
    bool sim_ok = true;
};

/// One optimiser's pass over the fitted surface.
struct optimizer_record {
    std::string name;
    std::uint64_t evaluations = 0;  ///< objective (surface) evaluations
    std::uint64_t iterations = 0;   ///< epochs (SA) / generations (GA)
    std::uint64_t proposed_moves = 0;  ///< moves offered to an acceptance rule
    std::uint64_t accepted_moves = 0;  ///< SA Metropolis acceptances (0 = n/a)
    double acceptance_rate = -1.0;  ///< accepted/evaluated; < 0 = n/a
    bool converged = false;
    double predicted = 0.0;         ///< surface value at the optimum
    double validated_response = 0.0;  ///< re-simulated transmissions
    std::vector<double> coded;      ///< optimum in coded coordinates
    double wall_s = 0.0;
};

class run_manifest {
public:
    /// Identify the producing tool (echoed into the header record).
    void set_tool(std::string name, std::string version);

    /// Echo one configuration option / seed into the manifest header.
    /// Call before serialising; later calls with the same key append (the
    /// reader sees the last value — keep keys unique).
    void set_option(std::string key, json_value value);

    void add_phase(phase_record record);
    void add_sim_run(sim_run_record record);
    void add_optimizer(optimizer_record record);

    /// Attach a metrics snapshot (typically registry.to_json()).
    void set_metrics(json_value snapshot);

    std::vector<phase_record> phases() const;
    std::vector<sim_run_record> sim_runs() const;
    std::vector<optimizer_record> optimizers() const;

    /// Count of sim runs of one kind ("design_point", ...).
    std::size_t sim_run_count(std::string_view kind) const;

    /// One JSON document:
    /// {schema, tool, options, phases, runs, optimizers, metrics?}
    json_value to_json() const;
    void write_json(std::ostream& os, int indent = 2) const;

    /// JSONL: a header line {record:"header",...} followed by one line per
    /// phase/run/optimizer record, each tagged with "record".
    void write_jsonl(std::ostream& os) const;

    /// Schema identifier written into every manifest.
    static constexpr const char* k_schema = "ehdse.run_manifest/1";

private:
    json_value header_json() const;  ///< caller holds mutex_

    mutable std::mutex mutex_;
    std::string tool_name_ = "ehdse";
    std::string tool_version_;
    json_object options_;
    std::vector<phase_record> phases_;
    std::vector<sim_run_record> runs_;
    std::vector<optimizer_record> optimizers_;
    json_value metrics_ = json_value(nullptr);
};

}  // namespace ehdse::obs
