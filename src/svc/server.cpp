#include "svc/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "dse/rsm_flow.hpp"
#include "dse/system_evaluator.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/run_manifest.hpp"
#include "spec/json_codec.hpp"
#include "spec/spec_hash.hpp"
#include "svc/framing.hpp"

namespace ehdse::svc {

namespace {

/// Polymorphic shim routing every evaluation of a flow through an
/// externally shared cache — the mechanism behind cross-request and
/// cross-client cache hits (two clients running the same flow share one
/// set of simulations). system_evaluator documents exactly this
/// interposition point.
class forwarding_evaluator final : public dse::system_evaluator {
public:
    using eval_fn = std::function<dse::evaluation_result(
        const dse::system_config&, const dse::evaluation_options&)>;

    // Carries the harvester spec so spec_of() rebuilds the same canonical
    // spec (and spec_hash) the client submitted.
    forwarding_evaluator(dse::scenario scn, spec::harvester_spec harv,
                         eval_fn fn)
        : dse::system_evaluator(std::move(scn), std::move(harv)),
          fn_(std::move(fn)) {}

    dse::evaluation_result evaluate(
        const dse::system_config& config,
        const dse::evaluation_options& options) const override {
        return fn_(config, options);
    }

private:
    eval_fn fn_;
};

obs::json_value simulate_response(const dse::evaluation_result& result) {
    obs::json_object doc;
    doc.emplace_back("transmissions", obs::json_value(result.transmissions));
    doc.emplace_back("low_band_transmissions",
                     obs::json_value(result.low_band_transmissions));
    doc.emplace_back("suppressed_wakeups",
                     obs::json_value(result.suppressed_wakeups));
    doc.emplace_back("final_voltage_v", obs::json_value(result.final_voltage_v));
    doc.emplace_back("harvested_energy_j",
                     obs::json_value(result.harvested_energy_j));
    doc.emplace_back("ode_steps", obs::json_value(result.ode_steps));
    doc.emplace_back("events", obs::json_value(result.events));
    doc.emplace_back("sim_ok", obs::json_value(result.sim_ok));
    return obs::json_value(std::move(doc));
}

obs::json_value config_json(const spec::system_config& config) {
    obs::json_object doc;
    doc.emplace_back("mcu_clock_hz", obs::json_value(config.mcu_clock_hz));
    doc.emplace_back("watchdog_period_s",
                     obs::json_value(config.watchdog_period_s));
    doc.emplace_back("tx_interval_s", obs::json_value(config.tx_interval_s));
    return obs::json_value(std::move(doc));
}

obs::json_value flow_response(const dse::flow_result& flow) {
    obs::json_object doc;
    doc.emplace_back("baseline_transmissions",
                     obs::json_value(flow.original_eval.transmissions));
    obs::json_array outcomes;
    for (const dse::optimizer_outcome& outcome : flow.outcomes) {
        obs::json_object row;
        row.emplace_back("name", obs::json_value(outcome.name));
        row.emplace_back("predicted", obs::json_value(outcome.predicted));
        row.emplace_back("validated",
                         obs::json_value(outcome.validated.transmissions));
        row.emplace_back("config", config_json(outcome.config));
        outcomes.push_back(obs::json_value(std::move(row)));
    }
    doc.emplace_back("outcomes", obs::json_value(std::move(outcomes)));
    return obs::json_value(std::move(doc));
}

obs::json_value cache_stats_json(const dse::cached_evaluator::cache_stats& s) {
    obs::json_object doc;
    doc.emplace_back("hits", obs::json_value(s.hits));
    doc.emplace_back("misses", obs::json_value(s.misses));
    doc.emplace_back("evictions", obs::json_value(s.evictions));
    doc.emplace_back("entries", obs::json_value(s.entries));
    doc.emplace_back("hit_rate", obs::json_value(s.hit_rate()));
    return obs::json_value(std::move(doc));
}

}  // namespace

/// One client connection. The write mutex serialises frames from the
/// reader thread and any runner streaming this connection's results; the
/// reader holds it across request_queue::enqueue() so `accepted` is on
/// the wire before any runner frame for the same request (enqueue never
/// invokes callbacks — see request_queue.hpp).
struct server::connection {
    std::uint64_t id = 0;
    socket_fd fd;
    std::mutex write_mutex;
    std::atomic<bool> alive{true};

    bool send(const obs::json_value& doc) {
        std::lock_guard lock(write_mutex);
        return send_locked(doc);
    }

    /// Caller holds write_mutex. Marks the connection dead on a short
    /// write so later senders stop immediately.
    bool send_locked(const obs::json_value& doc) {
        if (!alive.load(std::memory_order_relaxed)) return false;
        std::string line = doc.dump();
        line.push_back('\n');
        if (!send_all(fd.get(), line.data(), line.size())) {
            alive.store(false, std::memory_order_relaxed);
            return false;
        }
        return true;
    }
};

/// One canonical (scenario, harvester) pair's shared physics +
/// cross-request cache.
struct server::eval_entry {
    std::uint64_t key_hash = 0;  ///< mixed scenario + harvester hash
    spec::scenario scn;
    spec::harvester_spec harv;
    std::unique_ptr<dse::system_evaluator> evaluator;
    std::unique_ptr<dse::cached_evaluator> cache;
};

server::server(server_config config)
    : config_(std::move(config)), queue_(config_.limits) {
    if (obs::metrics_registry* registry = obs::global_registry()) {
        connections_counter_ = &registry->get_counter("svc.connections");
        accepted_counter_ = &registry->get_counter("svc.requests.accepted");
        rejected_counter_ = &registry->get_counter("svc.requests.rejected");
        completed_counter_ = &registry->get_counter("svc.requests.completed");
        failed_counter_ = &registry->get_counter("svc.requests.failed");
        cancelled_counter_ = &registry->get_counter("svc.requests.cancelled");
        bad_frames_counter_ = &registry->get_counter("svc.frames.bad");
        active_gauge_ = &registry->get_gauge("svc.connections.active");
        queue_gauge_ = &registry->get_gauge("svc.queue.depth");
        in_flight_gauge_ = &registry->get_gauge("svc.requests.in_flight");
        evaluators_gauge_ = &registry->get_gauge("svc.evaluators");
        request_hist_ = &registry->get_histogram("svc.request.seconds");
    }
    pool_ = std::make_unique<exec::thread_pool>(config_.jobs);
    max_runners_ = pool_->size();
}

server::~server() { stop(); }

void server::start() {
    std::lock_guard lifecycle(lifecycle_mutex_);
    if (started_.exchange(true))
        throw std::logic_error("svc::server::start: already started");
    if (config_.unix_path.empty() && config_.tcp_port < 0)
        throw std::logic_error("svc::server::start: no listener configured");

    if (!config_.unix_path.empty())
        unix_listener_ = listen_unix(config_.unix_path);
    if (config_.tcp_port >= 0)
        tcp_listener_ =
            listen_tcp(config_.tcp_host, config_.tcp_port, &tcp_port_);

    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) != 0)
        throw std::runtime_error(std::string("svc::server::start: pipe: ") +
                                 std::strerror(errno));
    wake_read_ = socket_fd(pipe_fds[0]);
    wake_write_ = socket_fd(pipe_fds[1]);

    acceptor_ = std::thread([this] { accept_loop(); });
}

void server::accept_loop() {
    while (!stopping_.load(std::memory_order_acquire)) {
        pollfd fds[3];
        nfds_t nfds = 0;
        const int wake_index = static_cast<int>(nfds);
        fds[nfds++] = {wake_read_.get(), POLLIN, 0};
        int unix_index = -1;
        if (unix_listener_.valid()) {
            unix_index = static_cast<int>(nfds);
            fds[nfds++] = {unix_listener_.get(), POLLIN, 0};
        }
        int tcp_index = -1;
        if (tcp_listener_.valid()) {
            tcp_index = static_cast<int>(nfds);
            fds[nfds++] = {tcp_listener_.get(), POLLIN, 0};
        }

        const int ready = ::poll(fds, nfds, -1);
        if (ready < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (fds[wake_index].revents != 0) break;

        for (const int index : {unix_index, tcp_index}) {
            if (index < 0 || (fds[index].revents & POLLIN) == 0) continue;
            const int raw = ::accept(fds[index].fd, nullptr, nullptr);
            if (raw < 0) continue;  // transient (EMFILE, ECONNABORTED, ...)

            auto conn = std::make_shared<connection>();
            conn->fd = socket_fd(raw);
            connections_total_.fetch_add(1, std::memory_order_relaxed);
            if (connections_counter_) connections_counter_->add();
            {
                std::lock_guard lock(connections_mutex_);
                conn->id = next_connection_id_++;
                connections_.push_back(conn);
                readers_.emplace_back(
                    [this, conn] { serve_connection(conn); });
                if (active_gauge_)
                    active_gauge_->set(
                        static_cast<double>(connections_.size()));
            }
        }
    }
}

void server::serve_connection(std::shared_ptr<connection> conn) {
    frame_splitter splitter;
    char buf[4096];
    bool closing = false;
    while (!closing) {
        const long n = recv_some(conn->fd.get(), buf, sizeof buf);
        if (n <= 0) break;
        splitter.feed(buf, static_cast<std::size_t>(n));
        std::string frame;
        for (;;) {
            const frame_splitter::status st = splitter.next(frame);
            if (st == frame_splitter::status::need_more) break;
            if (st == frame_splitter::status::overflow) {
                if (bad_frames_counter_) bad_frames_counter_->add();
                conn->send(make_error(
                    error_code::frame_too_large,
                    "frame exceeds " + std::to_string(k_max_frame_bytes) +
                        " bytes; closing connection"));
                closing = true;
                break;
            }
            handle_frame(conn, frame);
            if (!conn->alive.load(std::memory_order_relaxed)) {
                closing = true;
                break;
            }
        }
    }

    conn->alive.store(false, std::memory_order_relaxed);
    conn->fd.shutdown_both();
    // Sweep this client's queued-but-unstarted requests; running ones
    // finish normally and their frames die against the dead connection.
    const std::size_t swept = queue_.drop_client(conn->id);
    if (swept > 0) {
        cancelled_.fetch_add(swept, std::memory_order_relaxed);
        if (cancelled_counter_) cancelled_counter_->add(swept);
        if (queue_gauge_)
            queue_gauge_->set(static_cast<double>(queue_.queued()));
    }
    {
        std::lock_guard lock(connections_mutex_);
        for (auto it = connections_.begin(); it != connections_.end(); ++it) {
            if (it->get() == conn.get()) {
                connections_.erase(it);
                break;
            }
        }
        if (active_gauge_)
            active_gauge_->set(static_cast<double>(connections_.size()));
    }
}

void server::handle_frame(const std::shared_ptr<connection>& conn,
                          const std::string& frame) {
    obs::json_value doc;
    try {
        doc = obs::json_value::parse(frame);
    } catch (const std::exception& e) {
        if (bad_frames_counter_) bad_frames_counter_->add();
        conn->send(make_error(error_code::bad_frame, e.what()));
        return;  // framing is still intact — keep the connection
    }

    client_request request;
    try {
        request = parse_request(doc);
    } catch (const protocol_error& e) {
        if (bad_frames_counter_) bad_frames_counter_->add();
        // Echo the id when the frame carried one, so pipelined clients
        // can correlate; a rejected submit counts against svc.rejected.
        std::string id;
        if (const obs::json_value* member = doc.find("id");
            member && member->is_string() &&
            member->as_string().size() <= k_max_request_id)
            id = member->as_string();
        const obs::json_value* type = doc.find("type");
        if (type && type->is_string() && type->as_string() == "submit") {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            if (rejected_counter_) rejected_counter_->add();
            conn->send(make_rejected(id, e.code(), e.what()));
        } else {
            conn->send(make_error(e.code(), e.what(), id));
        }
        return;
    }

    switch (request.kind) {
        case request_kind::ping:
            conn->send(make_pong(config_.name));
            return;
        case request_kind::stats: {
            const server_stats totals = stats();
            obs::json_object server_doc;
            server_doc.emplace_back("connections",
                                    obs::json_value(totals.connections));
            server_doc.emplace_back(
                "active_connections",
                obs::json_value(totals.active_connections));
            server_doc.emplace_back("accepted",
                                    obs::json_value(totals.accepted));
            server_doc.emplace_back("rejected",
                                    obs::json_value(totals.rejected));
            server_doc.emplace_back("completed",
                                    obs::json_value(totals.completed));
            server_doc.emplace_back("failed", obs::json_value(totals.failed));
            server_doc.emplace_back("cancelled",
                                    obs::json_value(totals.cancelled));
            server_doc.emplace_back("queued", obs::json_value(totals.queued));
            server_doc.emplace_back("running",
                                    obs::json_value(totals.running));
            server_doc.emplace_back("evaluators",
                                    obs::json_value(totals.evaluators));
            conn->send(make_stats_reply(
                obs::json_value(std::move(server_doc)),
                cache_stats_json(totals.cache)));
            return;
        }
        case request_kind::cancel:
            handle_cancel(conn, request.id);
            return;
        case request_kind::submit:
            handle_submit(conn, std::move(request));
            return;
    }
}

void server::handle_submit(const std::shared_ptr<connection>& conn,
                           client_request&& request) {
    const spec::experiment_spec canon = request.spec.canonicalized();
    const std::string hash = spec::spec_hash_hex(spec::spec_hash(canon));
    const std::string id = request.id;
    const workload work = request.work;

    request_queue::job job;
    job.client = conn->id;
    job.id = id;
    job.run = [this, conn, id, work, canon] { execute(conn, id, work, canon); };
    job.cancelled = [this, conn, id](bool notify) {
        if (notify) conn->send(make_cancelled(id));
    };

    request_queue::admit admission;
    std::size_t depth = 0;
    {
        // Holding the write lock across enqueue() keeps `accepted` ahead
        // of any frame a runner sends for this request (the ordering
        // guarantee of docs/service.md). enqueue() never invokes
        // callbacks, so this cannot deadlock.
        std::lock_guard lock(conn->write_mutex);
        admission = queue_.enqueue(std::move(job), &depth);
        switch (admission) {
            case request_queue::admit::accepted:
                conn->send_locked(make_accepted(id, hash, depth));
                break;
            case request_queue::admit::queue_full:
                conn->send_locked(make_rejected(
                    id, error_code::queue_full,
                    "admission queue is at capacity (" +
                        std::to_string(config_.limits.max_queued) + ")"));
                break;
            case request_queue::admit::quota_exceeded:
                conn->send_locked(make_rejected(
                    id, error_code::quota_exceeded,
                    "connection quota of " +
                        std::to_string(config_.limits.max_per_client) +
                        " in-flight requests is spent"));
                break;
            case request_queue::admit::draining:
                conn->send_locked(make_rejected(
                    id, error_code::draining,
                    "server is draining; no new work accepted"));
                break;
            case request_queue::admit::duplicate_id:
                conn->send_locked(make_rejected(
                    id, error_code::duplicate_id,
                    "a request with id '" + id +
                        "' is already live on this connection"));
                break;
        }
    }

    if (admission == request_queue::admit::accepted) {
        accepted_.fetch_add(1, std::memory_order_relaxed);
        if (accepted_counter_) accepted_counter_->add();
        if (queue_gauge_) queue_gauge_->set(static_cast<double>(depth));
        schedule_runner();
    } else {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        if (rejected_counter_) rejected_counter_->add();
    }
}

void server::handle_cancel(const std::shared_ptr<connection>& conn,
                           const std::string& id) {
    // Called WITHOUT the connection write lock: a successful cancel
    // invokes the cancelled callback, which takes it to send the frame.
    switch (queue_.cancel(conn->id, id)) {
        case request_queue::cancel_outcome::cancelled:
            cancelled_.fetch_add(1, std::memory_order_relaxed);
            if (cancelled_counter_) cancelled_counter_->add();
            if (queue_gauge_)
                queue_gauge_->set(static_cast<double>(queue_.queued()));
            return;
        case request_queue::cancel_outcome::running:
            conn->send(make_error(error_code::too_late,
                                  "request '" + id +
                                      "' is already executing; it will "
                                      "run to completion",
                                  id));
            return;
        case request_queue::cancel_outcome::not_found:
            conn->send(make_error(error_code::unknown_id,
                                  "no live request with id '" + id +
                                      "' on this connection",
                                  id));
            return;
    }
}

void server::execute(const std::shared_ptr<connection>& conn,
                     const std::string& id, workload work,
                     const spec::experiment_spec& canon) {
    const auto start = std::chrono::steady_clock::now();
    conn->send(make_event(id, "started", to_string(work)));

    obs::run_manifest manifest;
    manifest.set_tool(config_.name + " " + to_string(work), "");
    manifest.set_option("request_id", obs::json_value(id));
    manifest.set_option("client", obs::json_value(conn->id));

    bool ok = false;
    obs::json_value response;
    try {
        const std::shared_ptr<eval_entry> entry =
            evaluator_for(canon.scn, canon.harv);
        if (work == workload::simulate) {
            manifest.set_option("spec", spec::to_json(canon));
            manifest.set_option(
                "spec_hash",
                obs::json_value(spec::spec_hash_hex(spec::spec_hash(canon))));
            const dse::evaluation_result result =
                entry->cache->evaluate(canon.config, canon.eval);
            obs::sim_run_record record;
            record.kind = "request";
            record.mcu_clock_hz = canon.config.mcu_clock_hz;
            record.watchdog_period_s = canon.config.watchdog_period_s;
            record.tx_interval_s = canon.config.tx_interval_s;
            record.seed = canon.eval.controller_seed;
            record.response = static_cast<double>(result.transmissions);
            record.wall_s = result.wall_time_s;
            record.ode_steps = result.ode_steps;
            record.ode_steps_rejected = result.ode_steps_rejected;
            record.events = result.events;
            record.sim_ok = result.sim_ok;
            manifest.add_sim_run(std::move(record));
            response = simulate_response(result);
            ok = result.sim_ok;
        } else {
            // Every evaluation inside the flow goes through the shared
            // scenario cache; the flow's own per-run cache stays off so
            // results are not double-stored.
            forwarding_evaluator evaluator(
                canon.scn, canon.harv,
                [entry](const dse::system_config& config,
                        const dse::evaluation_options& options) {
                    return entry->cache->evaluate(config, options);
                });
            dse::flow_options runtime;
            runtime.pool = pool_.get();
            runtime.manifest = &manifest;
            if (conn->alive.load(std::memory_order_relaxed))
                runtime.progress = [conn, id](const std::string& line) {
                    if (conn->alive.load(std::memory_order_relaxed))
                        conn->send(make_event(id, "progress", line));
                };
            dse::flow_options options =
                dse::flow_options_from_spec(canon, std::move(runtime));
            options.cache = false;
            const dse::flow_result flow =
                dse::run_rsm_flow(evaluator, options);
            // set_option appends and the reader sees the last value, so
            // re-stamping here overrides what the flow recorded with the
            // exact spec this request carried.
            manifest.set_option("spec", spec::to_json(canon));
            manifest.set_option(
                "spec_hash",
                obs::json_value(spec::spec_hash_hex(spec::spec_hash(canon))));
            response = flow_response(flow);
            ok = true;
        }
    } catch (const std::exception& e) {
        obs::json_object failure;
        failure.emplace_back("error", obs::json_value(e.what()));
        response = obs::json_value(std::move(failure));
        ok = false;
    }

    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (request_hist_) request_hist_->observe(wall);
    if (ok) {
        completed_.fetch_add(1, std::memory_order_relaxed);
        if (completed_counter_) completed_counter_->add();
    } else {
        failed_.fetch_add(1, std::memory_order_relaxed);
        if (failed_counter_) failed_counter_->add();
    }
    conn->send(make_result(id, ok, std::move(response), manifest.to_json()));
}

void server::schedule_runner() {
    std::lock_guard lock(runner_mutex_);
    if (active_runners_ >= max_runners_) return;
    ++active_runners_;
    pool_->submit([this] { runner_loop(); });
}

void server::runner_loop() {
    for (;;) {
        std::optional<request_queue::job> job = queue_.pop();
        if (!job) break;
        if (queue_gauge_)
            queue_gauge_->set(static_cast<double>(queue_.queued()));
        if (in_flight_gauge_)
            in_flight_gauge_->set(static_cast<double>(queue_.running()));
        job->run();  // execute() catches; a runner never throws
        queue_.finish(job->client, job->id);
        if (in_flight_gauge_)
            in_flight_gauge_->set(static_cast<double>(queue_.running()));
    }
    std::lock_guard lock(runner_mutex_);
    --active_runners_;
    // A submit that raced this runner's exit saw active_runners_ at the
    // cap and skipped scheduling — respawn for it.
    if (queue_.queued() > 0 && active_runners_ < max_runners_) {
        ++active_runners_;
        pool_->submit([this] { runner_loop(); });
    }
}

std::shared_ptr<server::eval_entry> server::evaluator_for(
    const spec::scenario& canon, const spec::harvester_spec& harv) {
    // In-memory MRU key only — the structural equality below is
    // authoritative, the combined hash just prunes the scan.
    const std::uint64_t hash =
        spec::spec_hash(canon) ^ (spec::spec_hash(harv) << 1);
    std::lock_guard lock(evaluators_mutex_);
    for (auto it = evaluators_.begin(); it != evaluators_.end(); ++it) {
        if ((*it)->key_hash == hash && (*it)->scn == canon &&
            (*it)->harv == harv) {
            std::shared_ptr<eval_entry> entry = *it;
            evaluators_.erase(it);
            evaluators_.insert(evaluators_.begin(), entry);  // MRU front
            return entry;
        }
    }

    auto entry = std::make_shared<eval_entry>();
    entry->key_hash = hash;
    entry->scn = canon;
    entry->harv = harv;
    entry->evaluator = std::make_unique<dse::system_evaluator>(canon, harv);
    entry->cache = std::make_unique<dse::cached_evaluator>(
        *entry->evaluator, config_.cache_capacity);
    evaluators_.insert(evaluators_.begin(), entry);
    while (evaluators_.size() > config_.max_evaluators) {
        // Retire the coldest scenario. In-flight requests holding the
        // shared_ptr keep using it; its stats from here on are lost to
        // the aggregate, which only ever undercounts.
        const auto stats = evaluators_.back()->cache->stats();
        retired_cache_.hits += stats.hits;
        retired_cache_.misses += stats.misses;
        retired_cache_.evictions += stats.evictions;
        evaluators_.pop_back();
    }
    if (evaluators_gauge_)
        evaluators_gauge_->set(static_cast<double>(evaluators_.size()));
    return entry;
}

void server::shutdown_connections(bool send_goodbye) {
    std::vector<std::shared_ptr<connection>> snapshot;
    {
        std::lock_guard lock(connections_mutex_);
        snapshot = connections_;
    }
    for (const std::shared_ptr<connection>& conn : snapshot) {
        if (send_goodbye) conn->send(make_goodbye("shutting down"));
        conn->alive.store(false, std::memory_order_relaxed);
        conn->fd.shutdown_both();  // wakes the blocked reader
    }
}

void server::drain() {
    std::lock_guard lifecycle(lifecycle_mutex_);
    if (shut_down_.load() || !started_.load()) {
        shut_down_.store(true);
        return;
    }
    queue_.begin_drain();

    // Stop accepting: wake the acceptor, close the listeners.
    stopping_.store(true, std::memory_order_release);
    if (wake_write_.valid()) {
        const char byte = 'x';
        (void)!::write(wake_write_.get(), &byte, 1);
    }
    if (acceptor_.joinable()) acceptor_.join();
    unix_listener_.close();
    tcp_listener_.close();
    if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());

    if (stop_requested_) {
        const std::size_t swept = queue_.cancel_all();
        if (swept > 0) {
            cancelled_.fetch_add(swept, std::memory_order_relaxed);
            if (cancelled_counter_) cancelled_counter_->add(swept);
        }
    }

    // Every accepted request reaches its terminal frame before goodbye.
    schedule_runner();  // in case work is queued with no live runner
    queue_.wait_idle();

    shutdown_connections(true);
    std::vector<std::thread> readers;
    {
        std::lock_guard lock(connections_mutex_);
        readers.swap(readers_);
    }
    for (std::thread& reader : readers) reader.join();

    shut_down_.store(true);
}

void server::stop() {
    {
        std::lock_guard lifecycle(lifecycle_mutex_);
        stop_requested_ = true;
    }
    drain();
}

server_stats server::stats() const {
    server_stats totals;
    totals.connections = connections_total_.load(std::memory_order_relaxed);
    totals.accepted = accepted_.load(std::memory_order_relaxed);
    totals.rejected = rejected_.load(std::memory_order_relaxed);
    totals.completed = completed_.load(std::memory_order_relaxed);
    totals.failed = failed_.load(std::memory_order_relaxed);
    totals.cancelled = cancelled_.load(std::memory_order_relaxed);
    totals.queued = queue_.queued();
    totals.running = queue_.running();
    {
        std::lock_guard lock(connections_mutex_);
        totals.active_connections = connections_.size();
    }
    {
        std::lock_guard lock(evaluators_mutex_);
        totals.evaluators = evaluators_.size();
        totals.cache = retired_cache_;
        for (const std::shared_ptr<eval_entry>& entry : evaluators_) {
            const auto stats = entry->cache->stats();
            totals.cache.hits += stats.hits;
            totals.cache.misses += stats.misses;
            totals.cache.evictions += stats.evictions;
            totals.cache.entries += stats.entries;
        }
    }
    return totals;
}

}  // namespace ehdse::svc
