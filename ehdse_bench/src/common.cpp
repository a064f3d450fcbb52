#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>

namespace ehdse_bench {

void window_result::miss(const std::string& what) {
    ++check_misses;
    if (problems.size() < 10) problems.push_back(what);
}

std::size_t host_threads() {
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double uniform(std::uint64_t& state, double lo, double hi) {
    const double u =
        static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;  // [0, 1)
    return lo + (hi - lo) * u;
}

void digest::add(const std::string& bytes) {
    for (const char c : bytes) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 0x100000001b3ULL;
    }
}

std::string digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
}

double process_cpu_seconds() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
    // VmHWM is this image's high-water mark. getrusage's ru_maxrss would
    // also carry the peak of whatever process exec'd this one.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

registry_snapshot registry_snapshot::take(obs::metrics_registry* registry) {
    registry_snapshot snap;
    if (registry == nullptr) return snap;
    for (const std::string& name : registry->counter_names())
        snap.counters[name] = registry->get_counter(name).value();
    for (const std::string& name : registry->histogram_names()) {
        const obs::histogram& h = registry->get_histogram(name);
        snap.histograms[name] = {h.count(), h.sum()};
    }
    return snap;
}

std::uint64_t registry_snapshot::delta(const registry_snapshot& before,
                                       const std::string& name) const {
    const auto now = counters.find(name);
    if (now == counters.end()) return 0;
    const auto then = before.counters.find(name);
    return now->second - (then == before.counters.end() ? 0 : then->second);
}

double registry_snapshot::mean_delta(const registry_snapshot& before,
                                     const std::string& name) const {
    const auto now = histograms.find(name);
    if (now == histograms.end()) return 0.0;
    std::pair<std::uint64_t, double> then{0, 0.0};
    if (const auto it = before.histograms.find(name);
        it != before.histograms.end())
        then = it->second;
    return ratio(now->second.second - then.second,
                 static_cast<double>(now->second.first - then.first));
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

slice_rates slice_medians(const window_result& w, std::size_t slices) {
    const std::size_t n = w.latency_s.size();
    slices = std::min(slices, n);
    if (slices == 0) return {};
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&w](std::size_t a, std::size_t b) {
        return w.finished_s[a] < w.finished_s[b];
    });
    std::vector<double> p50, rate, cpu;
    double t0 = 0.0;
    double cpu0 = 0.0;
    std::size_t begin = 0;
    for (std::size_t g = 0; g < slices; ++g) {
        const std::size_t end = (g + 1) * n / slices;
        std::vector<double> latency;
        for (std::size_t i = begin; i < end; ++i) latency.push_back(w.latency_s[order[i]]);
        const double count = static_cast<double>(end - begin);
        const double t1 = w.finished_s[order[end - 1]];
        const double cpu1 = w.finished_cpu_s[order[end - 1]];
        p50.push_back(quantile(std::move(latency), 0.5));
        rate.push_back(ratio(count, t1 - t0));
        cpu.push_back(ratio(cpu1 - cpu0, count));
        t0 = t1;
        cpu0 = cpu1;
        begin = end;
    }
    return {quantile(p50, 0.5), quantile(rate, 0.5), quantile(cpu, 0.5)};
}

}  // namespace ehdse_bench
