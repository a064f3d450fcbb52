#include "trace.hpp"

#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>

namespace ehdse_bench {

std::uint32_t span_recorder::thread_index() {
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

std::uint64_t span_recorder::add(span s) {
    if (s.id == 0) s.id = next_id();
    if (s.tid == 0) s.tid = thread_index();
    const std::uint64_t id = s.id;
    std::lock_guard lock(mutex_);
    spans_.push_back(std::move(s));
    return id;
}

std::vector<span> span_recorder::children_of(std::uint64_t parent) const {
    std::vector<span> out;
    std::lock_guard lock(mutex_);
    for (const span& s : spans_)
        if (s.parent == parent) out.push_back(s);
    return out;
}

std::size_t span_recorder::size() const {
    std::lock_guard lock(mutex_);
    return spans_.size();
}

void span_recorder::write_chrome_trace(const std::string& path,
                                       const obs::json_object& metadata) const {
    const auto micros = [this](time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    obs::json_array events;
    std::set<std::uint32_t> threads;
    {
        std::lock_guard lock(mutex_);
        for (const span& s : spans_) {
            obs::json_object args = s.args;
            args.emplace_back("span_id", obs::json_value(s.id));
            args.emplace_back("parent", obs::json_value(s.parent));
            args.emplace_back("request", obs::json_value(s.request));
            obs::json_object event;
            event.emplace_back("name", obs::json_value(s.name));
            event.emplace_back("cat", obs::json_value(s.layer));
            event.emplace_back("ph", obs::json_value("X"));
            event.emplace_back("ts", obs::json_value(micros(s.start)));
            event.emplace_back("dur", obs::json_value(micros(s.end) - micros(s.start)));
            event.emplace_back("pid", obs::json_value(1));
            event.emplace_back("tid", obs::json_value(s.tid));
            event.emplace_back("args", obs::json_value(std::move(args)));
            events.push_back(obs::json_value(std::move(event)));
            threads.insert(s.tid);
        }
    }
    for (const std::uint32_t tid : threads) {
        obs::json_object name;
        name.emplace_back("name", obs::json_value("thread " + std::to_string(tid)));
        obs::json_object event;
        event.emplace_back("name", obs::json_value("thread_name"));
        event.emplace_back("ph", obs::json_value("M"));
        event.emplace_back("pid", obs::json_value(1));
        event.emplace_back("tid", obs::json_value(tid));
        event.emplace_back("args", obs::json_value(std::move(name)));
        events.push_back(obs::json_value(std::move(event)));
    }
    obs::json_object doc;
    doc.emplace_back("traceEvents", obs::json_value(std::move(events)));
    doc.emplace_back("displayTimeUnit", obs::json_value("ms"));
    doc.emplace_back("otherData", obs::json_value(metadata));

    const std::filesystem::path target(path);
    if (target.has_parent_path())
        std::filesystem::create_directories(target.parent_path());
    std::ofstream out(target);
    out << obs::json_value(std::move(doc)).dump() << '\n';
    if (!out) throw std::runtime_error("cannot write trace '" + path + "'");
}

}  // namespace ehdse_bench
