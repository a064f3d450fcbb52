// In-memory span recorder of the traced run. Spans are recorded from the
// benchmark's side of each layer boundary (frame timestamps, evaluator
// interposition, timed public calls), kept in memory, and written once at
// the end as Chrome trace-event JSON, which Perfetto and chrome://tracing
// open. Spans of one request share its request id.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/json.hpp"

namespace ehdse_bench {

struct span {
    std::string name;
    std::string layer;  ///< module the span times (svc, spec, dse, ...)
    time_point start;
    time_point end;
    std::uint64_t id = 0;      ///< assigned by span_recorder::add when 0
    std::uint64_t parent = 0;  ///< 0 = root
    std::string request;       ///< request id; the trace id of the span
    std::uint32_t tid = 0;     ///< assigned from the calling thread when 0
    obs::json_object args;

    double seconds() const { return seconds_between(start, end); }
};

class span_recorder {
public:
    explicit span_recorder(time_point origin) : origin_(origin) {}

    span_recorder(const span_recorder&) = delete;
    span_recorder& operator=(const span_recorder&) = delete;

    /// Reserve a span id ahead of recording (for parents recorded last).
    std::uint64_t next_id() { return next_.fetch_add(1); }

    /// Record a finished span; safe from any thread. Returns its id.
    std::uint64_t add(span s);

    /// Copy of the recorded spans whose parent is `parent`.
    std::vector<span> children_of(std::uint64_t parent) const;

    std::size_t size() const;

    /// Write every span as a Chrome trace-event document.
    void write_chrome_trace(const std::string& path,
                            const obs::json_object& metadata) const;

    /// Small stable index of the calling thread (1 = first thread seen).
    static std::uint32_t thread_index();

private:
    time_point origin_;
    std::atomic<std::uint64_t> next_{1};
    mutable std::mutex mutex_;
    std::vector<span> spans_;  ///< guarded by mutex_
};

}  // namespace ehdse_bench
