#include "obs/run_manifest.hpp"

#include <ostream>

namespace ehdse::obs {

namespace {

json_value coded_json(const std::vector<double>& coded) {
    json_array a;
    a.reserve(coded.size());
    for (double c : coded) a.push_back(json_value(c));
    return json_value(std::move(a));
}

json_value phase_json(const phase_record& p) {
    json_object o;
    o.emplace_back("name", json_value(p.name));
    o.emplace_back("wall_s", json_value(p.wall_s));
    if (p.items) o.emplace_back("items", json_value(p.items));
    return json_value(std::move(o));
}

json_value sim_run_json(const sim_run_record& r) {
    json_object o;
    o.emplace_back("kind", json_value(r.kind));
    o.emplace_back("index", json_value(static_cast<std::uint64_t>(r.index)));
    if (!r.coded.empty()) o.emplace_back("coded", coded_json(r.coded));
    json_object cfg;
    cfg.emplace_back("mcu_clock_hz", json_value(r.mcu_clock_hz));
    cfg.emplace_back("watchdog_period_s", json_value(r.watchdog_period_s));
    cfg.emplace_back("tx_interval_s", json_value(r.tx_interval_s));
    o.emplace_back("config", json_value(std::move(cfg)));
    o.emplace_back("seed", json_value(r.seed));
    o.emplace_back("response", json_value(r.response));
    o.emplace_back("wall_s", json_value(r.wall_s));
    if (r.batch_lanes) o.emplace_back("batch_lanes", json_value(r.batch_lanes));
    o.emplace_back("ode_steps", json_value(r.ode_steps));
    o.emplace_back("ode_steps_rejected", json_value(r.ode_steps_rejected));
    o.emplace_back("events", json_value(r.events));
    o.emplace_back("sim_ok", json_value(r.sim_ok));
    return json_value(std::move(o));
}

json_value optimizer_json(const optimizer_record& r) {
    json_object o;
    o.emplace_back("name", json_value(r.name));
    o.emplace_back("evaluations", json_value(r.evaluations));
    o.emplace_back("iterations", json_value(r.iterations));
    if (r.acceptance_rate >= 0.0) {
        o.emplace_back("proposed_moves", json_value(r.proposed_moves));
        o.emplace_back("accepted_moves", json_value(r.accepted_moves));
        o.emplace_back("acceptance_rate", json_value(r.acceptance_rate));
    }
    o.emplace_back("converged", json_value(r.converged));
    o.emplace_back("predicted", json_value(r.predicted));
    o.emplace_back("validated_response", json_value(r.validated_response));
    if (!r.coded.empty()) o.emplace_back("coded", coded_json(r.coded));
    o.emplace_back("wall_s", json_value(r.wall_s));
    return json_value(std::move(o));
}

}  // namespace

void run_manifest::set_tool(std::string name, std::string version) {
    const std::lock_guard<std::mutex> lock(mutex_);
    tool_name_ = std::move(name);
    tool_version_ = std::move(version);
}

void run_manifest::set_option(std::string key, json_value value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    options_.emplace_back(std::move(key), std::move(value));
}

void run_manifest::add_phase(phase_record record) {
    const std::lock_guard<std::mutex> lock(mutex_);
    phases_.push_back(std::move(record));
}

void run_manifest::add_sim_run(sim_run_record record) {
    const std::lock_guard<std::mutex> lock(mutex_);
    runs_.push_back(std::move(record));
}

void run_manifest::add_optimizer(optimizer_record record) {
    const std::lock_guard<std::mutex> lock(mutex_);
    optimizers_.push_back(std::move(record));
}

void run_manifest::set_metrics(json_value snapshot) {
    const std::lock_guard<std::mutex> lock(mutex_);
    metrics_ = std::move(snapshot);
}

std::vector<phase_record> run_manifest::phases() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return phases_;
}

std::vector<sim_run_record> run_manifest::sim_runs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return runs_;
}

std::vector<optimizer_record> run_manifest::optimizers() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return optimizers_;
}

std::size_t run_manifest::sim_run_count(std::string_view kind) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& r : runs_)
        if (r.kind == kind) ++n;
    return n;
}

json_value run_manifest::header_json() const {
    json_object tool;
    tool.emplace_back("name", json_value(tool_name_));
    if (!tool_version_.empty())
        tool.emplace_back("version", json_value(tool_version_));
    return json_value(std::move(tool));
}

json_value run_manifest::to_json() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    json_object root;
    root.emplace_back("schema", json_value(k_schema));
    root.emplace_back("tool", header_json());
    root.emplace_back("options", json_value(options_));
    json_array phases;
    for (const auto& p : phases_) phases.push_back(phase_json(p));
    root.emplace_back("phases", json_value(std::move(phases)));
    json_array runs;
    for (const auto& r : runs_) runs.push_back(sim_run_json(r));
    root.emplace_back("runs", json_value(std::move(runs)));
    json_array optimizers;
    for (const auto& r : optimizers_) optimizers.push_back(optimizer_json(r));
    root.emplace_back("optimizers", json_value(std::move(optimizers)));
    if (!metrics_.is_null()) root.emplace_back("metrics", metrics_);
    return json_value(std::move(root));
}

void run_manifest::write_json(std::ostream& os, int indent) const {
    to_json().write(os, indent);
    os << '\n';
}

void run_manifest::write_jsonl(std::ostream& os) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto line = [&os](const char* kind, json_value v) {
        json_object o;
        o.emplace_back("record", json_value(kind));
        for (auto& [k, member] : v.as_object())
            o.emplace_back(std::move(k), std::move(member));
        json_value(std::move(o)).write(os, -1);
        os << '\n';
    };
    json_object header;
    header.emplace_back("schema", json_value(k_schema));
    header.emplace_back("tool", header_json());
    header.emplace_back("options", json_value(options_));
    line("header", json_value(std::move(header)));
    for (const auto& p : phases_) line("phase", phase_json(p));
    for (const auto& r : runs_) line("run", sim_run_json(r));
    for (const auto& r : optimizers_) line("optimizer", optimizer_json(r));
    if (!metrics_.is_null()) line("metrics", metrics_);
}

}  // namespace ehdse::obs
