// ehdse benchmark program. One workload per process:
//
//   ehdse_bench --workload paper_flow|svc_simulate_cold
//               --seed N --seconds S --trace 0|1 [--requests N]
//               [--git-sha SHA] [--source-digest HEX]
//
// --trace 0 measures one window untraced and reports the end-to-end
// metrics. --trace 1 measures an untraced reference window, then a traced
// one, each half as long, and reports the per-layer metrics plus
// trace_overhead_frac (traced vs reference median latency); its spans go to
// a Chrome trace-event file.
//
// stdout: one full result record (host fingerprint, every metric with its
// unit, sample counts, checks run, first problems), then as the LAST line
// {"correct", "attempted", "failed", "metrics"}. Exit 0 when every output
// and accounting check passed, 1 otherwise, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "obs/json.hpp"
#include "trace.hpp"

namespace {

using namespace ehdse_bench;
using ehdse::obs::json_array;
using ehdse::obs::json_object;
using ehdse::obs::json_value;

const char* compiler_id() {
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

[[noreturn]] void usage_error(const std::string& message) {
    std::fprintf(stderr,
                 "ehdse_bench: %s\n"
                 "usage: ehdse_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--requests N] [--git-sha SHA] "
                 "[--source-digest HEX]\n",
                 message.c_str());
    std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-')
        usage_error(flag + " expects a non-negative integer, got '" + text + "'");
    return v;
}

run_options parse_options(int argc, char** argv) {
    run_options options;
    bool have_workload = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage_error("flag '" + flag + "' requires a value");
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = parse_count(flag, value);
        } else if (flag == "--seconds") {
            options.seconds = static_cast<double>(parse_count(flag, value));
            if (options.seconds < 1) usage_error("--seconds must be at least 1");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage_error("--trace expects 0 or 1");
            options.trace = value == "1";
        } else if (flag == "--requests") {
            options.max_requests = parse_count(flag, value);
        } else if (flag == "--git-sha") {
            options.git_sha = value;
        } else if (flag == "--source-digest") {
            options.source_digest = value;
        } else {
            usage_error("unknown flag '" + flag + "'");
        }
    }
    if (!have_workload) usage_error("--workload is required");
    return options;
}

std::unique_ptr<workload> make_workload(const run_options& options) {
    if (options.workload == "paper_flow") return make_paper_flow(options);
    if (options.workload == "svc_simulate_cold") return make_service_workload(options);
    usage_error("unknown workload '" + options.workload +
                "' (valid: paper_flow, svc_simulate_cold)");
}

json_value metric_json(const metric& m) {
    json_object o;
    o.emplace_back("value", json_value(m.value));
    o.emplace_back("unit", json_value(m.unit));
    return json_value(std::move(o));
}

json_value counts_json(const window_result& w) {
    json_object o;
    o.emplace_back("submitted", json_value(w.submitted));
    o.emplace_back("completed", json_value(w.completed));
    o.emplace_back("failed", json_value(w.failed));
    o.emplace_back("rejected", json_value(w.rejected));
    o.emplace_back("cancelled", json_value(w.cancelled));
    o.emplace_back("check_misses", json_value(w.check_misses));
    o.emplace_back("window_s", json_value(w.window_s));
    json_array setups;
    for (const double s : w.setup_s) setups.push_back(json_value(s));
    o.emplace_back("setup_runs_s", json_value(std::move(setups)));
    return json_value(std::move(o));
}

std::uint64_t failures(const window_result& w) {
    return w.failed + w.rejected + w.cancelled + w.check_misses;
}

/// The end-to-end metrics BENCHMARK.json names, in its order. The rates
/// are medians over slices of the window (slice_medians).
std::vector<metric> end_to_end(const window_result& w) {
    const slice_rates rates = slice_medians(w);
    return {
        {"setup_s", quantile(w.setup_s, 0.5), "s"},
        {"latency_p50_s", rates.latency_p50_s, "s"},
        {"throughput_rps", rates.throughput_rps, "1/s"},
        {"cpu_s_per_request", rates.cpu_s_per_request, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
}

/// Figures of the record that the run's length or workload may not
/// support: p90 needs at least 100 samples, so ten lie beyond it. The
/// whole-window rates sit beside the sliced ones.
std::vector<metric> record_only(const window_result& w) {
    const double completed = static_cast<double>(w.completed);
    std::vector<metric> out = {
        {"window_latency_p50_s", quantile(w.latency_s, 0.5), "s"},
        {"window_throughput_rps", ratio(completed, w.window_s), "1/s"},
        {"window_cpu_s_per_request", ratio(w.cpu_s, completed), "s"},
    };
    if (w.latency_s.size() >= 100) {
        out.push_back({"latency_p90_s", quantile(w.latency_s, 0.9), "s"});
        out.push_back({"latency_p90_samples", static_cast<double>(w.latency_s.size()), "count"});
    }
    out.push_back({"failed_frac",
                   ratio(static_cast<double>(failures(w)), static_cast<double>(w.submitted)),
                   "ratio"});
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const time_point process_start = bench_clock::now();
    const run_options options = parse_options(argc, argv);
    try {
        const std::unique_ptr<workload> wl = make_workload(options);

        std::optional<window_result> reference;
        std::unique_ptr<span_recorder> tracer;
        window_result result;
        if (options.trace) {
            // The two windows share the run's time budget.
            run_options half = options;
            half.seconds = options.seconds / 2.0;
            reference = wl->run(half, process_start, nullptr);
            tracer = std::make_unique<span_recorder>(bench_clock::now());
            result = wl->run(half, bench_clock::now(), tracer.get());
        } else {
            result = wl->run(options, process_start, nullptr);
        }

        std::vector<metric> reported;
        if (options.trace) {
            reported = result.layer;
            reported.push_back({"trace_overhead_frac",
                                ratio(quantile(result.latency_s, 0.5),
                                      quantile(reference->latency_s, 0.5)) - 1.0,
                                "ratio"});
        } else {
            reported = end_to_end(result);
        }

        json_object fingerprint;
        fingerprint.emplace_back("nproc", json_value(host_threads()));
        fingerprint.emplace_back("compiler", json_value(compiler_id()));
        fingerprint.emplace_back("build_type", json_value(EHDSE_BENCH_BUILD_TYPE));
        fingerprint.emplace_back("native_arch", json_value(EHDSE_BENCH_NATIVE_ARCH != 0));
        fingerprint.emplace_back("git_sha", json_value(options.git_sha));
        fingerprint.emplace_back("source_digest", json_value(options.source_digest));
        fingerprint.emplace_back("workload_seed", json_value(options.seed));
        fingerprint.emplace_back("request_digest", json_value(wl->request_digest()));
        fingerprint.emplace_back("requests_generated", json_value(wl->requests_generated()));

        json_object metrics;
        for (const metric& m : reported) metrics.emplace_back(m.name, metric_json(m));
        for (const metric& m : record_only(result)) metrics.emplace_back(m.name, metric_json(m));
        std::map<std::string, std::uint64_t> checks = result.checks;
        json_array problems;
        for (const std::string& p : result.problems) problems.push_back(json_value(p));
        std::uint64_t attempted = result.submitted;
        std::uint64_t failed = failures(result);
        std::uint64_t misses = result.check_misses;
        if (reference) {
            for (const auto& [name, n] : reference->checks) checks[name] += n;
            for (const std::string& p : reference->problems) problems.push_back(json_value(p));
            attempted += reference->submitted;
            failed += failures(*reference);
            misses += reference->check_misses;
        }
        json_object checks_run;
        for (const auto& [name, n] : checks) checks_run.emplace_back(name, json_value(n));

        json_object record;
        record.emplace_back("record", json_value("ehdse_bench.result/1"));
        record.emplace_back("workload", json_value(options.workload));
        record.emplace_back("trace", json_value(options.trace));
        record.emplace_back("seconds", json_value(options.seconds));
        record.emplace_back("fingerprint", json_value(std::move(fingerprint)));
        record.emplace_back("counts", counts_json(result));
        if (reference) record.emplace_back("reference_counts", counts_json(*reference));
        record.emplace_back("metrics", json_value(metrics));
        record.emplace_back("notes", json_value(result.notes));
        record.emplace_back("checks", json_value(std::move(checks_run)));
        record.emplace_back("problems", json_value(std::move(problems)));
        if (tracer) {
            const std::string path = std::string(k_trace_dir) + "/" + options.workload +
                                     "-seed" + std::to_string(options.seed) + ".trace.json";
            json_object meta;
            meta.emplace_back("workload", json_value(options.workload));
            meta.emplace_back("seed", json_value(options.seed));
            tracer->write_chrome_trace(path, meta);
            record.emplace_back("trace_file", json_value(path));
            record.emplace_back("spans", json_value(tracer->size()));
        }
        std::printf("%s\n", json_value(std::move(record)).dump().c_str());

        const bool correct = misses == 0 && result.completed > 0 &&
                             (!reference || reference->completed > 0);
        json_object summary_metrics;
        for (const metric& m : reported) summary_metrics.emplace_back(m.name, metric_json(m));
        json_object summary;
        summary.emplace_back("correct", json_value(correct));
        summary.emplace_back("attempted", json_value(attempted));
        summary.emplace_back("failed", json_value(failed));
        summary.emplace_back("metrics", json_value(std::move(summary_metrics)));
        std::printf("%s\n", json_value(std::move(summary)).dump().c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ehdse_bench: %s\n", e.what());
        return 1;
    }
}
