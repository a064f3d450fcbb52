// Machine-readable benchmark output: each harness records named metrics
// and writes BENCH_<name>.json next to the working directory (or into
// $EHDSE_BENCH_OUT when set). The format is deliberately flat — one
// metric object per line — so scripts/check_perf.sh can diff a fresh run
// against the committed baselines with awk, no JSON library required:
//
//   {
//     "bench": "batch_kernel",
//     "host": {"hardware_concurrency": 4, "compiler": "GNU 12.2.0", ...},
//     "run": {"steal_frac": 0.031},
//     "metrics": [
//       {"metric": "scalar_evals_per_s", "value": 77.31, "unit": "evals/s", "config": "..."},
//       {"metric": "batch_speedup_x", "value": 1.45, "unit": "x", "config": "...", "min": 1.38, "iqr": 0.06, "trials": 7},
//       ...
//     ]
//   }
//
// "host" fingerprints where the numbers were taken: hardware threads,
// compiler, build type, -march=native or not, and the commit (the build
// passes the last four in; see bench/CMakeLists.txt). "run" describes the
// run instead of the host, so it stays out of the fingerprint:
// "steal_frac" is the share of the host's CPU time that the hypervisor
// stole from process start to write(), from /proc/stat (null where that
// file cannot be read). A row measured by interleaved_trials records its
// median as "value" and its minimum, interquartile range and trial count
// after the fixed keys.
//
// Committed BENCH_*.json files at the repo root pin the perf trajectory;
// EXPERIMENTS.md points at them and the perf-labelled ctest compares.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/timing.hpp"

namespace ehdse::bench {

/// The host's aggregate CPU time from the first line of /proc/stat, in
/// clock ticks: stolen time, and the total of user, nice, system, idle,
/// iowait, irq, softirq and steal (guest time is already inside user and
/// nice). Both zero when the file cannot be read.
struct cpu_ticks {
    unsigned long long steal = 0;
    unsigned long long total = 0;
};

inline cpu_ticks read_cpu_ticks() {
    cpu_ticks out;
    std::FILE* stat = std::fopen("/proc/stat", "r");
    if (stat == nullptr) return out;
    unsigned long long t[8] = {};
    if (std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &t[0],
                    &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]) == 8) {
        for (const unsigned long long ticks : t) out.total += ticks;
        out.steal = t[7];
    }
    std::fclose(stat);
    return out;
}

/// Read during static initialisation, so the steal share written with a
/// BENCH_*.json file covers the whole run.
inline const cpu_ticks run_start_ticks = read_cpu_ticks();

/// Median, minimum and interquartile range of one series of readings.
struct trial_stats {
    double median = 0.0;
    double min = 0.0;
    double iqr = 0.0;
    std::size_t trials = 0;
};

/// Summarise a non-empty series; quartiles interpolate linearly between
/// the sorted readings.
inline trial_stats summarise(std::vector<double> readings) {
    if (readings.empty())
        throw std::invalid_argument("bench_json: no readings to summarise");
    std::sort(readings.begin(), readings.end());
    const auto quantile = [&](double q) {
        const double pos = q * static_cast<double>(readings.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, readings.size() - 1);
        return readings[lo] +
               (pos - static_cast<double>(lo)) * (readings[hi] - readings[lo]);
    };
    return {quantile(0.5), readings.front(), quantile(0.75) - quantile(0.25),
            readings.size()};
}

/// Trials per interleaved_trials measurement, and the least wall time each
/// side of a trial runs: enough passes that one trial sits well above
/// timer and scheduler noise.
inline constexpr int k_trials = 7;
inline constexpr double k_min_side_s = 0.1;

/// Two workloads timed side by side: the rate of each (work units per
/// second) and, trial by trial, the candidate's rate over the reference's.
struct paired_trials {
    trial_stats reference;
    trial_stats candidate;
    trial_stats ratio;
    int reference_passes = 0;  // passes timed per side of a trial
    int candidate_passes = 0;
};

/// Measure `candidate` against `reference` (each a callable doing
/// `work_per_pass` units) in k_trials trials. Each side is first warmed
/// up (one untimed call) and then called until k_min_side_s has passed;
/// that call count is the number of passes each trial times for the side.
/// A trial times a reference side and a candidate side back to back, the
/// one that goes first alternating from trial to trial, so drift of the
/// host's speed over a run shows in both rates and cancels from the
/// per-trial ratio.
template <class Reference, class Candidate>
paired_trials interleaved_trials(Reference&& reference, Candidate&& candidate,
                                 double work_per_pass) {
    const auto passes_per_side = [](auto& pass) {
        pass();
        int passes = 0;
        const obs::stopwatch watch;
        do {
            pass();
            ++passes;
        } while (watch.seconds() < k_min_side_s);
        return passes;
    };
    const auto timed_rate = [work_per_pass](auto& pass, int passes) {
        const obs::stopwatch watch;
        for (int i = 0; i < passes; ++i) pass();
        return passes * work_per_pass / watch.seconds();
    };

    paired_trials out;
    out.reference_passes = passes_per_side(reference);
    out.candidate_passes = passes_per_side(candidate);
    std::vector<double> reference_rates, candidate_rates, ratios;
    for (int trial = 0; trial < k_trials; ++trial) {
        double reference_rate = 0.0;
        double candidate_rate = 0.0;
        if (trial % 2 == 0) {
            reference_rate = timed_rate(reference, out.reference_passes);
            candidate_rate = timed_rate(candidate, out.candidate_passes);
        } else {
            candidate_rate = timed_rate(candidate, out.candidate_passes);
            reference_rate = timed_rate(reference, out.reference_passes);
        }
        reference_rates.push_back(reference_rate);
        candidate_rates.push_back(candidate_rate);
        ratios.push_back(candidate_rate / reference_rate);
    }
    out.reference = summarise(std::move(reference_rates));
    out.candidate = summarise(std::move(candidate_rates));
    out.ratio = summarise(std::move(ratios));
    return out;
}

class json_emitter {
public:
    explicit json_emitter(std::string name) : name_(std::move(name)) {}

    /// Record one metric. `config` describes the workload (free text).
    void record(const std::string& metric, double value,
                const std::string& unit, const std::string& config) {
        rows_.push_back({metric, value, unit, config, std::nullopt});
    }

    /// Record a metric measured over trials; its median is the value.
    void record(const std::string& metric, const trial_stats& stats,
                const std::string& unit, const std::string& config) {
        rows_.push_back({metric, stats.median, unit, config, stats});
    }

    /// Write BENCH_<name>.json; throws std::runtime_error on I/O failure.
    /// Call explicitly at the end of main so a crashed bench leaves no
    /// half-written baseline behind.
    void write() const {
        const char* dir = std::getenv("EHDSE_BENCH_OUT");
        const std::string path =
            (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : "") +
            "BENCH_" + name_ + ".json";
        std::FILE* out = std::fopen(path.c_str(), "w");
        if (out == nullptr)
            throw std::runtime_error("bench_json: cannot write " + path);
        std::fprintf(out, "{\n  \"bench\": \"%s\",\n", name_.c_str());
        std::fprintf(out,
                     "  \"host\": {\"hardware_concurrency\": %u, "
                     "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                     "\"native_arch\": %s, \"git_sha\": \"%s\"},\n",
                     std::thread::hardware_concurrency(), EHDSE_BENCH_COMPILER,
                     EHDSE_BENCH_BUILD_TYPE,
                     EHDSE_BENCH_NATIVE_ARCH ? "true" : "false",
                     EHDSE_BENCH_GIT_SHA);
        const cpu_ticks now = read_cpu_ticks();
        if (now.total > run_start_ticks.total)
            std::fprintf(out, "  \"run\": {\"steal_frac\": %.4g},\n",
                         static_cast<double>(now.steal - run_start_ticks.steal) /
                             static_cast<double>(now.total -
                                                 run_start_ticks.total));
        else
            std::fprintf(out, "  \"run\": {\"steal_frac\": null},\n");
        std::fprintf(out, "  \"metrics\": [\n");
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const row& r = rows_[i];
            std::fprintf(out,
                         "    {\"metric\": \"%s\", \"value\": %.6g, "
                         "\"unit\": \"%s\", \"config\": \"%s\"",
                         r.metric.c_str(), r.value, r.unit.c_str(),
                         r.config.c_str());
            if (r.stats)
                std::fprintf(out,
                             ", \"min\": %.6g, \"iqr\": %.6g, \"trials\": %zu",
                             r.stats->min, r.stats->iqr, r.stats->trials);
            std::fprintf(out, "}%s\n", i + 1 < rows_.size() ? "," : "");
        }
        std::fprintf(out, "  ]\n}\n");
        if (std::fclose(out) != 0)
            throw std::runtime_error("bench_json: short write to " + path);
        std::printf("wrote %s\n", path.c_str());
    }

private:
    struct row {
        std::string metric;
        double value;
        std::string unit;
        std::string config;
        std::optional<trial_stats> stats;
    };

    std::string name_;
    std::vector<row> rows_;
};

}  // namespace ehdse::bench
