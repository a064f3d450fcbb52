// svc_simulate_cold: an in-process svc::server on a unix socket, configured
// the way ehdsed runs by default (pool = one worker per hardware thread,
// queue 256, quota 64, cache 512, metrics registry installed), driven by
// one connection per hardware thread but one, each from its own client
// thread. Every connection keeps one request outstanding — a closed loop,
// as `ehdse_client submit` does. All submit frames are generated from the
// seed before set-up; a client only writes them.
//
// The spare hardware thread absorbs the client threads, the server's
// reader threads and whatever else the host runs. With a connection per
// hardware thread every core is busy: on a 4-thread host one busy core
// elsewhere added 19% to the median latency, and with one connection
// fewer it added 5%.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "dse/system_config.hpp"
#include "dse/system_evaluator.hpp"
#include "exec/batch.hpp"
#include "exec/thread_pool.hpp"
#include "spec/json_codec.hpp"
#include "spec/spec_hash.hpp"
#include "svc/framing.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"
#include "trace.hpp"

namespace ehdse_bench {
namespace {

using namespace ehdse;

/// Requests re-run in-process after a window.
constexpr std::size_t k_recheck_sample = 8;

std::uint64_t seed48(std::uint64_t& state) { return splitmix64(state) >> 16; }

/// A simulate spec on the electromagnetic backend whose design point is
/// drawn uniformly from the paper's continuous box, so no two requests
/// share a cache entry.
spec::experiment_spec cold_simulate_spec(std::uint64_t& state) {
    spec::experiment_spec s;
    const numeric::vec coded = {uniform(state, -1.0, 1.0), uniform(state, -1.0, 1.0),
                                uniform(state, -1.0, 1.0)};
    s.config = dse::config_from_coded(dse::paper_design_space(), coded);
    s.eval.controller_seed = seed48(state);
    return s;
}

/// One generated request. Only the submit frame is kept; the spec is
/// decoded back from it where a check or a timing needs it.
struct planned_request {
    std::string id;
    std::string frame;     ///< the submit line, newline included
    std::string hash_hex;  ///< client-side spec_hash_hex of the canonical spec
};

planned_request plan(std::string id, const spec::experiment_spec& s) {
    planned_request p;
    p.frame = svc::make_submit(id, svc::workload::simulate, s).dump() + "\n";
    p.hash_hex = spec::spec_hash_hex(spec::spec_hash(s.canonicalized()));
    p.id = std::move(id);
    return p;
}

spec::experiment_spec spec_of(const planned_request& req) {
    return spec::spec_from_json(obs::json_value::parse(req.frame).at("spec"));
}

/// What the client saw of one request; outcome i of a connection answers
/// its planned request i.
struct request_outcome {
    time_point submit{}, accepted{}, started{}, result{};
    bool was_accepted = false;
    bool was_started = false;
    bool hash_ok = false;
    std::string terminal;  ///< result | rejected | cancelled
    bool ok = false;       ///< result status "ok"
    bool sim_ok = true;    ///< every simulation the result reports ran clean
    std::uint64_t transmissions = 0;
    std::size_t result_bytes = 0;
    double cpu_s = 0.0;  ///< process CPU when the terminal frame arrived
    // Traced windows only.
    double run_wall_s = -1.0;  ///< the manifest's wall of the simulate run
    double manifest_encode_s = 0.0;
    double spec_encode_s = 0.0;
    double spec_hash_s = 0.0;
    double spec_decode_s = 0.0;
};

/// One client connection: frame I/O plus the per-id frame tally the
/// accounting check reads (accepted frames, terminal frames).
class client {
public:
    explicit client(const std::string& path) : fd_(svc::connect_unix(path)) {}

    void send(const std::string& line) {
        if (!svc::send_all(fd_.get(), line.data(), line.size()))
            throw std::runtime_error("client: send failed");
    }

    /// Next frame; `bytes` receives its size and `at` the time its last
    /// byte was read, before parsing. Throws on EOF or overflow.
    obs::json_value read(std::size_t& bytes, time_point& at) {
        std::string frame;
        for (;;) {
            switch (splitter_.next(frame)) {
                case svc::frame_splitter::status::frame: {
                    at = bench_clock::now();
                    bytes = frame.size() + 1;
                    obs::json_value doc = obs::json_value::parse(frame);
                    tally(doc);
                    return doc;
                }
                case svc::frame_splitter::status::overflow:
                    throw std::runtime_error("client: frame too large");
                case svc::frame_splitter::status::need_more:
                    break;
            }
            const long n = svc::recv_some(fd_.get(), buf_.data(), buf_.size());
            if (n <= 0) throw std::runtime_error("client: connection closed");
            splitter_.feed(buf_.data(), static_cast<std::size_t>(n));
        }
    }

    /// id -> (accepted frames, terminal frames)
    const std::map<std::string, std::pair<int, int>>& frames() const { return frames_; }

private:
    void tally(const obs::json_value& doc) {
        const obs::json_value* type = doc.find("type");
        const obs::json_value* id = doc.find("id");
        if (!type || !type->is_string() || !id || !id->is_string()) return;
        const std::string& t = type->as_string();
        if (t == "accepted") ++frames_[id->as_string()].first;
        if (t == "result" || t == "cancelled" || t == "rejected")
            ++frames_[id->as_string()].second;
    }

    svc::socket_fd fd_;
    svc::frame_splitter splitter_;
    std::array<char, 1 << 16> buf_{};
    std::map<std::string, std::pair<int, int>> frames_;
};

/// Read frames for `req` until its terminal frame; fills `out`.
void await_terminal(client& conn, const planned_request& req,
                    request_outcome& out, bool traced) {
    for (;;) {
        std::size_t bytes = 0;
        time_point now{};
        const obs::json_value frame = conn.read(bytes, now);
        const std::string& type = frame.at("type").as_string();
        const obs::json_value* id = frame.find("id");
        if (!id || !id->is_string() || id->as_string() != req.id)
            throw std::runtime_error("client: unexpected '" + type +
                                     "' frame while awaiting " + req.id);
        if (type == "accepted") {
            out.accepted = now;
            out.was_accepted = true;
            out.hash_ok = frame.at("spec_hash").as_string() == req.hash_hex;
        } else if (type == "event") {
            if (frame.at("event").as_string() == "started") {
                out.started = now;
                out.was_started = true;
            }
        } else if (type == "rejected" || type == "cancelled") {
            out.terminal = type;
            out.result = now;
            return;
        } else if (type == "result") {
            out.terminal = type;
            out.result = now;
            out.result_bytes = bytes;
            out.ok = frame.at("status").as_string() == "ok";
            const obs::json_value& response = frame.at("response");
            if (const obs::json_value* tx = response.find("transmissions"))
                out.transmissions = static_cast<std::uint64_t>(tx->as_number());
            if (const obs::json_value* ok = response.find("sim_ok"))
                out.sim_ok = out.sim_ok && ok->as_bool();
            const obs::json_value& manifest = frame.at("manifest");
            for (const obs::json_value& run : manifest.at("runs").as_array()) {
                out.sim_ok = out.sim_ok && run.at("sim_ok").as_bool();
                if (traced && run.at("kind").as_string() == "request")
                    out.run_wall_s = run.at("wall_s").as_number();
            }
            if (traced) {
                const time_point encode_start = bench_clock::now();
                const std::string text = manifest.dump();
                out.manifest_encode_s = seconds_between(encode_start, bench_clock::now());
            }
            return;
        } else {
            throw std::runtime_error("client: unexpected '" + type + "' frame");
        }
    }
}

/// Time the public spec calls on the exact document a request submits.
void time_spec_calls(const planned_request& req, request_outcome& out,
                     span_recorder& tracer) {
    const spec::experiment_spec submitted = spec_of(req);
    const auto timed_span = [&](const char* name, time_point start) {
        span s;
        s.name = name;
        s.layer = "spec";
        s.start = start;
        s.end = bench_clock::now();
        s.request = req.id;
        tracer.add(s);
        return s.seconds();
    };
    time_point start = bench_clock::now();
    const obs::json_value doc = spec::to_json(submitted);
    out.spec_encode_s = timed_span("spec.to_json", start);
    start = bench_clock::now();
    const std::string hash = spec::spec_hash_hex(spec::spec_hash(submitted.canonicalized()));
    out.spec_hash_s = timed_span("spec.spec_hash", start);
    start = bench_clock::now();
    const spec::experiment_spec decoded = spec::spec_from_json(doc);
    out.spec_decode_s = timed_span("spec.spec_from_json", start);
    if (hash != req.hash_hex || !(decoded == submitted))
        throw std::runtime_error("spec round trip changed request " + req.id);
}

/// Spans of one finished request, from the client's frame timestamps.
void trace_request(const planned_request& req, const request_outcome& o,
                   span_recorder& tracer) {
    const std::uint64_t root = tracer.next_id();
    const auto add = [&](std::string name, const char* layer, time_point a,
                         time_point b, std::uint64_t parent) {
        span s;
        s.name = std::move(name);
        s.layer = layer;
        s.start = a;
        s.end = b;
        s.parent = parent;
        s.request = req.id;
        return tracer.add(std::move(s));
    };
    if (o.was_accepted) add("svc.admit", "svc", o.submit, o.accepted, root);
    if (o.was_accepted && o.was_started)
        add("svc.queue_wait", "svc", o.accepted, o.started, root);
    if (o.was_started) add("svc.exec", "svc", o.started, o.result, root);
    span request;
    request.id = root;
    request.name = "svc.request";
    request.layer = "svc";
    request.start = o.submit;
    request.end = o.result;
    request.request = req.id;
    request.args.emplace_back("terminal", obs::json_value(o.terminal));
    request.args.emplace_back("result_bytes", obs::json_value(o.result_bytes));
    tracer.add(std::move(request));
}

class service_workload final : public workload {
public:
    explicit service_workload(const run_options& options)
        : connections_(std::max<std::size_t>(1, host_threads() - 1)) {
        // Per-connection lists hold four times the measured rate (~9 req/s
        // per connection); running out ends the window early and is
        // reported.
        const auto n = static_cast<std::size_t>(std::ceil(options.seconds * 40.0)) + 16;
        plans_.resize(connections_);
        for (std::size_t c = 0; c < connections_; ++c) {
            std::uint64_t state = options.seed ^ (0x9e3779b97f4a7c15ULL * (c + 1));
            for (std::size_t j = 0; j < n; ++j) {
                std::string id = "c";  // appended: GCC 12 misreports "c" + ... as -Wrestrict
                id += std::to_string(c);
                id += '-';
                id += std::to_string(j);
                plans_[c].push_back(plan(id, cold_simulate_spec(state)));
                digest_.add(plans_[c].back().frame);
            }
        }
    }

    std::string request_digest() const override { return digest_.hex(); }
    std::size_t requests_generated() const override {
        return connections_ * (plans_.empty() ? 0 : plans_.front().size());
    }

    window_result run(const run_options& options, time_point setup_origin,
                      span_recorder* tracer) override;

private:
    /// The fixed, seed-independent warm-up request of one connection.
    planned_request warmup(std::size_t setup, std::size_t c) const {
        spec::experiment_spec s;
        s.eval.controller_seed = 0x5eed0000 + c;
        return plan("warmup-" + std::to_string(setup) + "-" + std::to_string(c), s);
    }

    void drive(std::size_t c, client& conn, time_point deadline,
               std::size_t max_requests, std::vector<request_outcome>& outcomes,
               bool& exhausted, span_recorder* tracer) const;
    void check_outputs(const std::vector<std::vector<request_outcome>>& outcomes,
                       const run_options& options, window_result& out) const;
    void layer_metrics(const std::vector<std::vector<request_outcome>>& outcomes,
                       const registry_snapshot& before, const registry_snapshot& after,
                       const svc::server_stats& stats_before,
                       const svc::server_stats& stats_after, window_result& out) const;

    std::size_t connections_;
    std::vector<std::vector<planned_request>> plans_;  ///< per connection
    digest digest_;
};

void service_workload::drive(std::size_t c, client& conn, time_point deadline,
                             std::size_t max_requests,
                             std::vector<request_outcome>& outcomes,
                             bool& exhausted, span_recorder* tracer) const {
    const std::vector<planned_request>& plans = plans_[c];
    for (std::size_t j = 0;; ++j) {
        if (bench_clock::now() >= deadline) return;
        if (max_requests != 0 && j == max_requests) return;
        if (j == plans.size()) {
            exhausted = true;
            return;
        }
        const planned_request& req = plans[j];
        request_outcome& o = outcomes.emplace_back();
        if (tracer) time_spec_calls(req, o, *tracer);
        o.submit = bench_clock::now();
        conn.send(req.frame);
        await_terminal(conn, req, o, tracer != nullptr);
        o.cpu_s = process_cpu_seconds();
        if (tracer) trace_request(req, o, *tracer);
    }
}

void service_workload::check_outputs(
    const std::vector<std::vector<request_outcome>>& outcomes,
    const run_options& options, window_result& out) const {
    std::vector<std::pair<std::size_t, std::size_t>> recheck;  // (connection, outcome)
    for (std::size_t c = 0; c < outcomes.size(); ++c) {
        for (std::size_t i = 0; i < outcomes[c].size(); ++i) {
            const request_outcome& o = outcomes[c][i];
            const planned_request& req = plans_[c][i];
            if (o.was_accepted) {
                out.checked("svc.spec_hash");
                if (!o.hash_ok) out.miss(req.id + ": accepted.spec_hash differs from the client's");
            }
            if (o.terminal != "result" || !o.ok) continue;
            out.checked("svc.sim_ok");
            if (!o.sim_ok) out.miss(req.id + ": a simulation reported sim_ok = false");
            recheck.emplace_back(c, i);
        }
    }
    if (recheck.empty()) return;

    // Re-run a seeded sample in-process; transmissions must be identical.
    std::uint64_t state = options.seed ^ 0x5a3b1e;
    for (std::size_t k = 0; k < std::min(k_recheck_sample, recheck.size()); ++k) {
        const std::size_t pick = k + splitmix64(state) % (recheck.size() - k);
        std::swap(recheck[k], recheck[pick]);
    }
    recheck.resize(std::min(k_recheck_sample, recheck.size()));
    std::vector<spec::experiment_spec> specs;
    for (const auto& [c, i] : recheck) specs.push_back(spec_of(plans_[c][i]));
    const dse::system_evaluator evaluator(specs.front().scn, specs.front().harv);
    std::vector<std::uint64_t> expected(recheck.size());
    exec::thread_pool pool(host_threads());
    exec::parallel_for(&pool, recheck.size(), [&](std::size_t k) {
        expected[k] = evaluator.evaluate(specs[k].config, specs[k].eval).transmissions;
    });
    for (std::size_t k = 0; k < recheck.size(); ++k) {
        const auto [c, i] = recheck[k];
        out.checked("svc.recheck_transmissions");
        if (expected[k] != outcomes[c][i].transmissions)
            out.miss(plans_[c][i].id + ": served " +
                     std::to_string(outcomes[c][i].transmissions) +
                     " tx, in-process evaluate gives " + std::to_string(expected[k]));
    }
}

void service_workload::layer_metrics(
    const std::vector<std::vector<request_outcome>>& outcomes,
    const registry_snapshot& before, const registry_snapshot& after,
    const svc::server_stats& stats_before, const svc::server_stats& stats_after,
    window_result& out) const {
    std::vector<double> admit, queue_wait, exec_s, bytes, unattributed, run_wall;
    std::vector<double> encode, hash, decode, manifest_encode;
    for (std::size_t c = 0; c < outcomes.size(); ++c) {
        for (std::size_t i = 0; i < outcomes[c].size(); ++i) {
            const request_outcome& o = outcomes[c][i];
            encode.push_back(o.spec_encode_s);
            hash.push_back(o.spec_hash_s);
            decode.push_back(o.spec_decode_s);
            if (o.terminal != "result" || !o.was_accepted || !o.was_started) continue;
            admit.push_back(seconds_between(o.submit, o.accepted));
            queue_wait.push_back(seconds_between(o.accepted, o.started));
            const double exec = seconds_between(o.started, o.result);
            exec_s.push_back(exec);
            bytes.push_back(static_cast<double>(o.result_bytes));
            manifest_encode.push_back(o.manifest_encode_s);
            if (o.run_wall_s >= 0.0) run_wall.push_back(o.run_wall_s);
            // A simulate request runs no flow phases: exec minus the
            // evaluation's own wall.
            unattributed.push_back(exec - std::max(o.run_wall_s, 0.0));
        }
    }
    const double batch_steps = static_cast<double>(after.delta(before, "sim.batch.ode_steps"));
    const double batch_lanes = static_cast<double>(after.delta(before, "dse.batch.lanes"));
    const double batches = static_cast<double>(after.delta(before, "dse.batch.batches"));
    const double scalar_steps = static_cast<double>(after.delta(before, "sim.ode_steps"));
    const double scalar_evals =
        static_cast<double>(after.delta(before, "dse.evaluate.runs")) - batch_lanes;
    const double hits = static_cast<double>(stats_after.cache.hits - stats_before.cache.hits);
    const double misses =
        static_cast<double>(stats_after.cache.misses - stats_before.cache.misses);

    out.layer = {
        {"sim.batch.steps_per_sweep",
         ratio(batch_steps, static_cast<double>(after.delta(before, "sim.batch.sweeps"))), "count"},
        {"sim.batch.ode_reject_frac",
         ratio(static_cast<double>(after.delta(before, "sim.batch.ode_steps_rejected")), batch_steps),
         "ratio"},
        {"sim.batch.events_per_eval",
         ratio(static_cast<double>(after.delta(before, "sim.batch.events")), batch_lanes), "count"},
        {"sim.ode_steps_per_eval", ratio(scalar_steps, scalar_evals), "count"},
        {"sim.ode_reject_frac",
         ratio(static_cast<double>(after.delta(before, "sim.ode_steps_rejected")), scalar_steps),
         "ratio"},
        {"sim.events_per_eval",
         ratio(static_cast<double>(after.delta(before, "sim.events")), scalar_evals), "count"},
        {"dse.evaluate.calls", scalar_evals, "count"},
        {"dse.evaluate_s", quantile(run_wall, 0.5), "s"},
        {"dse.evaluate_batch.calls", batches, "count"},
        {"dse.evaluate_batch.lanes", ratio(batch_lanes, batches), "count"},
        // Not on this workload's path: simulate requests make no batch
        // calls and run no flow phases.
        {"dse.evaluate_batch_s", 0.0, "s"},
        {"dse.simulate_s", 0.0, "s"},
        {"dse.baseline_s", 0.0, "s"},
        {"dse.validate_s", 0.0, "s"},
        {"dse.unattributed_s", mean(unattributed), "s"},
        {"dse.cache.hits", hits, "count"},
        {"dse.cache.misses", misses, "count"},
        {"dse.cache.hit_frac", ratio(hits, hits + misses), "ratio"},
        {"exec.pool.tasks", static_cast<double>(after.delta(before, "exec.pool.tasks")), "count"},
        {"exec.pool.steals", static_cast<double>(after.delta(before, "exec.pool.steals")), "count"},
        {"exec.pool.task_wait_s", after.mean_delta(before, "exec.pool.task_wait_seconds"), "s"},
        {"exec.pool.task_run_s", after.mean_delta(before, "exec.pool.task_run_seconds"), "s"},
        {"exec.chunk_imbalance", 0.0, "x"},
        {"doe.design_s", 0.0, "s"},
        {"rsm.fit_s", 0.0, "s"},
        {"opt.optimise_s", 0.0, "s"},
        {"opt.objective_evals", 0.0, "count"},
        {"spec.decode_s", quantile(decode, 0.5), "s"},
        {"spec.hash_s", quantile(hash, 0.5), "s"},
        {"spec.encode_s", quantile(encode, 0.5), "s"},
        {"obs.manifest_encode_s", quantile(manifest_encode, 0.5), "s"},
        {"svc.result_bytes", mean(bytes), "bytes"},
        {"svc.admit_s", mean(admit), "s"},
        {"svc.queue_wait_s", mean(queue_wait), "s"},
        {"svc.exec_s", mean(exec_s), "s"},
    };
}

window_result service_workload::run(const run_options& options,
                                    time_point setup_origin,
                                    span_recorder* tracer) {
    window_result out;
    // ehdsed installs its registry before it builds the server; both
    // windows do the same. Instruments are never removed, so one registry
    // serves the whole process and windows read deltas.
    static obs::metrics_registry registry;
    obs::set_global_registry(&registry);

    std::filesystem::create_directories(k_socket_dir);
    const std::string socket_path =
        std::string(k_socket_dir) + "/ehdsed-" + std::to_string(::getpid()) + ".sock";

    std::unique_ptr<svc::server> server;
    std::vector<std::unique_ptr<client>> clients;
    time_point setup_start = setup_origin;
    for (std::size_t k = 0; k < k_setups; ++k) {
        if (k > 0) {
            clients.clear();
            server->drain();
            server.reset();
            setup_start = bench_clock::now();
        }
        svc::server_config config;
        config.unix_path = socket_path;
        config.jobs = host_threads();
        server = std::make_unique<svc::server>(config);
        server->start();
        for (std::size_t c = 0; c < connections_; ++c)
            clients.push_back(std::make_unique<client>(socket_path));
        // One warm-up request per connection, one connection at a time. In
        // flight together, set-up was the slowest of nproc - 1 parallel
        // simulations: ~11% host steal time stretched it by 43% where it
        // stretched request latency by 16%.
        for (std::size_t c = 0; c < connections_; ++c) {
            const planned_request warm = warmup(k, c);
            clients[c]->send(warm.frame);
            request_outcome o;
            await_terminal(*clients[c], warm, o, false);
            if (!o.ok) throw std::runtime_error("warm-up request " + warm.id + " failed");
        }
        out.setup_s.push_back(seconds_between(setup_start, bench_clock::now()));
    }

    std::vector<std::vector<request_outcome>> outcomes(connections_);
    std::vector<std::string> errors(connections_);
    std::vector<char> exhausted(connections_, 0);

    const registry_snapshot before = registry_snapshot::take(&registry);
    const svc::server_stats stats_before = server->stats();
    const double cpu_start = process_cpu_seconds();
    const time_point window_start = bench_clock::now();
    const time_point deadline =
        window_start + std::chrono::duration_cast<bench_clock::duration>(
                           std::chrono::duration<double>(options.seconds));
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < connections_; ++c) {
            threads.emplace_back([&, c] {
                bool ran_out = false;
                try {
                    drive(c, *clients[c], deadline, options.max_requests, outcomes[c],
                          ran_out, tracer);
                } catch (const std::exception& e) {
                    errors[c] = e.what();
                }
                exhausted[c] = ran_out;
            });
        }
        for (std::thread& t : threads) t.join();
    }
    out.window_s = seconds_between(window_start, bench_clock::now());
    out.cpu_s = process_cpu_seconds() - cpu_start;
    const registry_snapshot after = registry_snapshot::take(&registry);
    const svc::server_stats stats_after = server->stats();
    for (const std::string& error : errors)
        if (!error.empty()) throw std::runtime_error(error);
    if (std::find(exhausted.begin(), exhausted.end(), 1) != exhausted.end())
        out.notes.emplace_back("inputs_exhausted", obs::json_value(true));

    // Accounting: a ping per connection is a barrier — any terminal frame
    // still owed (or sent twice) arrives before its pong.
    const std::string ping = svc::make_ping().dump() + "\n";
    for (const std::unique_ptr<client>& conn : clients) {
        conn->send(ping);
        std::size_t bytes = 0;
        time_point at{};
        while (conn->read(bytes, at).at("type").as_string() != "pong") {
        }
    }
    const svc::server_stats totals = server->stats();
    out.checked("svc.accounting");
    if (totals.accepted != totals.completed + totals.failed + totals.cancelled)
        out.miss("server stats: accepted " + std::to_string(totals.accepted) +
                 " != completed + failed + cancelled (" +
                 std::to_string(totals.completed + totals.failed + totals.cancelled) + ")");
    std::uint64_t accepted_seen = 0;
    for (const std::unique_ptr<client>& conn : clients) {
        for (const auto& [id, counts] : conn->frames()) {
            if (counts.first == 0) continue;
            accepted_seen += static_cast<std::uint64_t>(counts.first);
            out.checked("svc.one_terminal_frame");
            if (counts.first != 1 || counts.second != 1)
                out.miss(id + ": " + std::to_string(counts.first) + " accepted and " +
                         std::to_string(counts.second) + " terminal frames");
        }
    }
    out.checked("svc.accepted_ids");
    if (accepted_seen != totals.accepted)
        out.miss("clients saw " + std::to_string(accepted_seen) +
                 " accepted frames, server counted " + std::to_string(totals.accepted));

    clients.clear();
    server->drain();
    server.reset();

    for (const std::vector<request_outcome>& connection : outcomes) {
        for (const request_outcome& o : connection) {
            ++out.submitted;
            if (o.terminal == "rejected") ++out.rejected;
            else if (o.terminal == "cancelled") ++out.cancelled;
            else if (!o.ok) ++out.failed;
            else {
                ++out.completed;
                out.complete(seconds_between(o.submit, o.result),
                             seconds_between(window_start, o.result), o.cpu_s - cpu_start);
            }
        }
    }
    check_outputs(outcomes, options, out);
    out.notes.emplace_back("cache_hits", obs::json_value(stats_after.cache.hits -
                                                         stats_before.cache.hits));
    if (tracer)
        layer_metrics(outcomes, before, after, stats_before, stats_after, out);
    return out;
}

}  // namespace

std::unique_ptr<workload> make_service_workload(const run_options& options) {
    return std::make_unique<service_workload>(options);
}

}  // namespace ehdse_bench
