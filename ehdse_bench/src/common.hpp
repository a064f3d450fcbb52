// Shared vocabulary of the ehdse benchmark program: run options, the result
// of one measured window, the workload interface, statistics helpers and
// registry deltas. The benchmark only calls the program's public APIs; every
// span and timing here is taken from the benchmark's side of those calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace ehdse_bench {

namespace obs = ehdse::obs;

using bench_clock = std::chrono::steady_clock;
using time_point = bench_clock::time_point;

inline double seconds_between(time_point a, time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one benchmark invocation.
struct run_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Stop each connection after this many timed requests (0 = bounded
    /// by `seconds` only). The smoke test uses it to run a handful.
    std::size_t max_requests = 0;
    std::string git_sha = "unknown";
    std::string source_digest = "unknown";
};

/// Where traced runs write their Chrome trace-event JSON.
inline constexpr const char* k_trace_dir = ".bench_build/traces";
/// Where the service workloads bind their unix socket: relative, so the
/// socket path stays short and inside the checkout.
inline constexpr const char* k_socket_dir = ".bench_build/run";

/// One named metric with its unit.
struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

class span_recorder;

/// Everything one measured window produced.
struct window_result {
    std::vector<double> setup_s;    ///< one entry per set-up, in order
    std::vector<double> latency_s;  ///< one entry per completed timed request
    /// Parallel to latency_s: when each request completed, from the window
    /// start, and the process user+sys CPU spent in the window by then.
    std::vector<double> finished_s;
    std::vector<double> finished_cpu_s;
    double window_s = 0.0;          ///< first timed submit -> last result
    double cpu_s = 0.0;             ///< process user+sys over the window
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;     ///< requests that ended in a failure
    std::uint64_t rejected = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t check_misses = 0;  ///< output and accounting checks that failed
    std::vector<std::string> problems;              ///< first few misses, for the log
    std::map<std::string, std::uint64_t> checks;    ///< checks run, by name
    std::vector<metric> layer;   ///< per-layer metrics (traced windows only)
    obs::json_object notes;      ///< workload-specific extras

    /// Record one completed request.
    void complete(double latency, double finished, double finished_cpu) {
        latency_s.push_back(latency);
        finished_s.push_back(finished);
        finished_cpu_s.push_back(finished_cpu);
    }
    /// Count one output-check miss and keep its description.
    void miss(const std::string& what);
    /// Count one check that ran.
    void checked(const std::string& name, std::uint64_t n = 1) { checks[name] += n; }
};

/// A workload generates its requests from the seed on construction (before
/// any set-up), then measures windows on demand.
class workload {
public:
    virtual ~workload() = default;

    /// Run the set-ups and one timed window. The first set-up of the first
    /// window is timed from `setup_origin` (the process start); `tracer`
    /// is non-null in the traced window.
    virtual window_result run(const run_options& options,
                              time_point setup_origin,
                              span_recorder* tracer) = 0;

    /// Hex digest over every generated request document, in order.
    virtual std::string request_digest() const = 0;
    virtual std::size_t requests_generated() const = 0;
};

std::unique_ptr<workload> make_paper_flow(const run_options& options);
/// svc_simulate_cold.
std::unique_ptr<workload> make_service_workload(const run_options& options);

/// Set-ups per window; setup_s reports their median.
inline constexpr std::size_t k_setups = 11;

/// Worker count: one per hardware thread.
std::size_t host_threads();

/// Quantile q in [0, 1] with linear interpolation between order statistics
/// (0 for an empty sample).
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// splitmix64 step: the benchmark's only source of generated inputs.
std::uint64_t splitmix64(std::uint64_t& state);
/// Uniform double in [lo, hi).
double uniform(std::uint64_t& state, double lo, double hi);

/// Incremental FNV-1a digest of the generated request documents.
class digest {
public:
    void add(const std::string& bytes);
    std::string hex() const;

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Process user+sys CPU seconds so far.
double process_cpu_seconds();
/// Peak resident set size of this process image in MB.
double peak_rss_mb();

/// Point-in-time copy of a metrics registry's counters and histogram
/// totals, for deltas over a window.
struct registry_snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::pair<std::uint64_t, double>> histograms;  ///< count, sum

    static registry_snapshot take(obs::metrics_registry* registry);
    /// Counter increase since `before` (0 when absent).
    std::uint64_t delta(const registry_snapshot& before,
                        const std::string& name) const;
    /// Mean of the histogram observations made since `before` (0 when none).
    double mean_delta(const registry_snapshot& before,
                      const std::string& name) const;
};

/// a / b, or 0 when b is 0 (a layer the workload does not reach).
double ratio(double a, double b);

/// Slices per window for slice_medians().
inline constexpr std::size_t k_slices = 10;

/// The window's rates as medians over `slices` consecutive slices, each
/// holding an equal share of the completed requests in completion order.
/// A slice runs from the previous slice's last completion (the window
/// start for the first) to its own last one. A host hiccup that spans a
/// few slices moves these medians far less than whole-window figures.
struct slice_rates {
    double latency_p50_s = 0.0;      ///< median of the slices' median latencies
    double throughput_rps = 0.0;     ///< median of completions / slice length
    double cpu_s_per_request = 0.0;  ///< median of slice CPU / completions
};
slice_rates slice_medians(const window_result& w, std::size_t slices = k_slices);

}  // namespace ehdse_bench
