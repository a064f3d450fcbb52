// End-to-end contract of the experiment service over real sockets:
// submit/stream/result, protocol edge cases (malformed frames, oversized
// frames, unknown schema versions), cancellation, admission control, and
// graceful drain (docs/service.md). Each test runs its own server on a
// unique unix socket; one test covers the TCP listener.
#include "svc/server.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <thread>

#include "spec/json_codec.hpp"
#include "spec/spec_hash.hpp"
#include "svc/framing.hpp"
#include "svc/protocol.hpp"
#include "svc_test_util.hpp"

namespace {

using namespace ehdse;
using svc::testutil::code_of;
using svc::testutil::test_client;
using svc::testutil::type_of;
using svc::testutil::unique_socket_path;

/// Fast request: a 2-minute envelope scenario (~2.5 ms of wall time).
spec::experiment_spec fast_spec(double duration_s = 120.0) {
    spec::experiment_spec request;
    request.scn.duration_s = duration_s;
    return request;
}

/// Slow request: hours of simulated time keep a runner busy long enough
/// to observe queued states (~20 ms of wall per simulated hour).
spec::experiment_spec blocker_spec(std::uint64_t seed = 1) {
    spec::experiment_spec request;
    request.scn.duration_s = 36000.0;
    request.eval.controller_seed = seed;  // distinct seeds dodge the cache
    return request;
}

struct server_fixture {
    explicit server_fixture(svc::server_config config = {}) {
        config.unix_path = unique_socket_path();
        path = config.unix_path;
        server = std::make_unique<svc::server>(std::move(config));
        server->start();
    }
    ~server_fixture() {
        server->stop();
        ::unlink(path.c_str());
    }

    std::string path;
    std::unique_ptr<svc::server> server;
};

TEST(SvcServer, PingPong) {
    server_fixture fixture;
    test_client client(fixture.path);
    client.send(svc::make_ping());
    const obs::json_value pong = client.read_frame();
    EXPECT_EQ(type_of(pong), "pong");
    EXPECT_EQ(pong.at("protocol").as_string(), svc::k_protocol);
}

TEST(SvcServer, SubmitSimulateStreamsToResult) {
    server_fixture fixture;
    test_client client(fixture.path);
    const spec::experiment_spec request = fast_spec();
    client.send(svc::make_submit("sim-1", svc::workload::simulate, request));

    const obs::json_value accepted = client.read_frame();
    ASSERT_EQ(type_of(accepted), "accepted");
    EXPECT_EQ(accepted.at("id").as_string(), "sim-1");
    const std::string expected_hash =
        spec::spec_hash_hex(spec::spec_hash(request.canonicalized()));
    EXPECT_EQ(accepted.at("spec_hash").as_string(), expected_hash);

    const obs::json_value started = client.read_frame();
    ASSERT_EQ(type_of(started), "event");
    EXPECT_EQ(started.at("event").as_string(), "started");

    const obs::json_value result = client.read_until("result");
    EXPECT_EQ(result.at("id").as_string(), "sim-1");
    EXPECT_EQ(result.at("status").as_string(), "ok");
    EXPECT_GT(result.at("response").at("transmissions").as_number(), 0.0);
    // The embedded manifest identifies the experiment it answers.
    EXPECT_EQ(result.at("manifest").at("options").at("spec_hash").as_string(),
              expected_hash);
    EXPECT_EQ(result.at("manifest").at("options").at("request_id").as_string(),
              "sim-1");
}

TEST(SvcServer, SubmitFlowStreamsProgressAndOutcomes) {
    server_fixture fixture;
    test_client client(fixture.path);
    spec::experiment_spec request = fast_spec();
    request.flow.parallel = true;  // fan the DoE out over the shared pool
    client.send(svc::make_submit("flow-1", svc::workload::flow, request));
    ASSERT_EQ(type_of(client.read_frame()), "accepted");

    std::size_t progress_events = 0;
    obs::json_value result;
    for (;;) {
        const obs::json_value frame = client.read_frame(120000);
        if (type_of(frame) == "event") {
            if (frame.at("event").as_string() == "progress") ++progress_events;
            continue;
        }
        ASSERT_EQ(type_of(frame), "result");
        result = frame;
        break;
    }
    EXPECT_GT(progress_events, 0u);
    EXPECT_EQ(result.at("status").as_string(), "ok");
    // The paper's pair of optimisers validated on the surface.
    EXPECT_EQ(result.at("response").at("outcomes").size(), 2u);
    EXPECT_GE(result.at("manifest").at("optimizers").size(), 2u);
}

TEST(SvcServer, SimulateOfAFlowDesignPointMatchesAFreshServer) {
    // A finished flow leaves its design points in the shared cache, each
    // stored by the flow's own evaluate() of it. A simulate of one of them
    // hits that entry and must answer with the numbers a server that never
    // ran the flow computes: an answer depends on the request alone, not
    // on what ran before it.
    server_fixture used;
    const spec::experiment_spec flow_request = fast_spec();
    test_client client(used.path);
    client.send(svc::make_submit("flow", svc::workload::flow, flow_request));
    const obs::json_value flow = client.read_until("result", 120000);
    ASSERT_EQ(flow.at("status").as_string(), "ok");

    spec::experiment_spec point = flow_request;
    bool found = false;
    for (const obs::json_value& run : flow.at("manifest").at("runs").as_array()) {
        if (run.at("kind").as_string() != "design_point") continue;
        const obs::json_value& config = run.at("config");
        point.config.mcu_clock_hz = config.at("mcu_clock_hz").as_number();
        point.config.watchdog_period_s =
            config.at("watchdog_period_s").as_number();
        point.config.tx_interval_s = config.at("tx_interval_s").as_number();
        found = true;
        break;
    }
    ASSERT_TRUE(found);

    const auto simulate_on = [&](const std::string& path) {
        test_client c(path);
        c.send(svc::make_submit("point", svc::workload::simulate, point));
        const obs::json_value result = c.read_until("result");
        EXPECT_EQ(result.at("status").as_string(), "ok");
        return result.at("response");
    };
    const auto cache_hits = [&] {
        client.send(svc::make_stats_request());
        return client.read_until("stats").at("cache").at("hits").as_number();
    };
    const double hits_before = cache_hits();
    const obs::json_value from_cache = simulate_on(used.path);
    EXPECT_EQ(cache_hits(), hits_before + 1.0);

    server_fixture fresh;
    EXPECT_EQ(from_cache.dump(), simulate_on(fresh.path).dump());
}

TEST(SvcServer, MalformedFrameKeepsConnectionUsable) {
    server_fixture fixture;
    test_client client(fixture.path);
    client.send_raw("this is not json\n");
    const obs::json_value error = client.read_frame();
    ASSERT_EQ(type_of(error), "error");
    EXPECT_EQ(code_of(error), "bad_frame");
    // Framing is intact — the connection still serves requests.
    client.send(svc::make_ping());
    EXPECT_EQ(type_of(client.read_frame()), "pong");
}

TEST(SvcServer, OversizedFrameClosesConnection) {
    server_fixture fixture;
    test_client client(fixture.path);
    std::string giant(svc::k_max_frame_bytes + 16, 'x');
    client.send_raw(giant);
    const obs::json_value error = client.read_frame();
    ASSERT_EQ(type_of(error), "error");
    EXPECT_EQ(code_of(error), "frame_too_large");
    EXPECT_TRUE(client.reads_eof());
}

TEST(SvcServer, UnknownSchemaVersionRejected) {
    server_fixture fixture;
    test_client client(fixture.path);
    obs::json_value spec_doc = spec::to_json(fast_spec());
    for (auto& [key, value] : spec_doc.as_object())
        if (key == "schema") value = obs::json_value("ehdse.experiment_spec/99");
    obs::json_object doc;
    doc.emplace_back("type", obs::json_value("submit"));
    doc.emplace_back("id", obs::json_value("future"));
    doc.emplace_back("spec", std::move(spec_doc));
    client.send(obs::json_value(std::move(doc)));

    const obs::json_value rejected = client.read_frame();
    ASSERT_EQ(type_of(rejected), "rejected");
    EXPECT_EQ(rejected.at("id").as_string(), "future");
    EXPECT_EQ(code_of(rejected), "bad_schema");
    // Connection survives a rejected submit.
    client.send(svc::make_ping());
    EXPECT_EQ(type_of(client.read_frame()), "pong");
}

TEST(SvcServer, InvalidSpecRejected) {
    server_fixture fixture;
    test_client client(fixture.path);
    obs::json_value doc =
        svc::make_submit("bad", svc::workload::simulate, fast_spec());
    // Corrupt the duration after building the frame (make_submit would
    // not serialise an invalid spec otherwise).
    for (auto& [key, value] : doc.as_object())
        if (key == "spec")
            for (auto& [spec_key, spec_value] : value.as_object())
                if (spec_key == "scenario")
                    for (auto& [field, field_value] : spec_value.as_object())
                        if (field == "duration_s")
                            field_value = obs::json_value(-1.0);
    client.send(doc);
    const obs::json_value rejected = client.read_frame();
    ASSERT_EQ(type_of(rejected), "rejected");
    EXPECT_EQ(code_of(rejected), "bad_spec");
}

TEST(SvcServer, CancelQueuedRequestIsCancelled) {
    svc::server_config config;
    config.jobs = 1;  // one runner: the second submit stays queued
    server_fixture fixture(std::move(config));
    test_client client(fixture.path);

    client.send(svc::make_submit("blocker", svc::workload::simulate,
                                 blocker_spec()));
    ASSERT_EQ(type_of(client.read_frame()), "accepted");
    client.read_until("event");  // blocker started — runner is busy

    client.send(svc::make_submit("victim", svc::workload::simulate,
                                 blocker_spec(2)));
    ASSERT_EQ(type_of(client.read_frame()), "accepted");
    client.send(svc::make_cancel("victim"));
    const obs::json_value cancelled = client.read_frame();
    ASSERT_EQ(type_of(cancelled), "cancelled");
    EXPECT_EQ(cancelled.at("id").as_string(), "victim");
    // The blocker still completes; the victim never produces a result.
    const obs::json_value result = client.read_until("result", 120000);
    EXPECT_EQ(result.at("id").as_string(), "blocker");
}

TEST(SvcServer, CancelRunningRequestIsTooLate) {
    server_fixture fixture;
    test_client client(fixture.path);
    client.send(svc::make_submit("running", svc::workload::simulate,
                                 blocker_spec()));
    ASSERT_EQ(type_of(client.read_frame()), "accepted");
    client.read_until("event");  // started
    client.send(svc::make_cancel("running"));
    const obs::json_value error = client.read_frame();
    ASSERT_EQ(type_of(error), "error");
    EXPECT_EQ(code_of(error), "too_late");
    // ... and the request still runs to completion.
    EXPECT_EQ(client.read_until("result", 120000).at("id").as_string(),
              "running");
}

TEST(SvcServer, CancelUnknownIdIsUnknownId) {
    server_fixture fixture;
    test_client client(fixture.path);
    client.send(svc::make_cancel("never-submitted"));
    const obs::json_value error = client.read_frame();
    ASSERT_EQ(type_of(error), "error");
    EXPECT_EQ(code_of(error), "unknown_id");
}

TEST(SvcServer, DuplicateIdRejected) {
    svc::server_config config;
    config.jobs = 1;
    server_fixture fixture(std::move(config));
    test_client client(fixture.path);
    client.send(svc::make_submit("blocker", svc::workload::simulate,
                                 blocker_spec()));
    ASSERT_EQ(type_of(client.read_frame()), "accepted");
    client.read_until("event");
    client.send(svc::make_submit("blocker", svc::workload::simulate,
                                 fast_spec()));
    const obs::json_value rejected = client.read_frame();
    ASSERT_EQ(type_of(rejected), "rejected");
    EXPECT_EQ(code_of(rejected), "duplicate_id");
    client.read_until("result", 120000);
}

TEST(SvcServer, PerClientQuotaRejected) {
    svc::server_config config;
    config.jobs = 1;
    config.limits.max_per_client = 2;  // queued + running
    server_fixture fixture(std::move(config));
    test_client client(fixture.path);

    client.send(svc::make_submit("r1", svc::workload::simulate,
                                 blocker_spec(1)));
    ASSERT_EQ(type_of(client.read_frame()), "accepted");
    client.read_until("event");  // r1 running
    client.send(svc::make_submit("r2", svc::workload::simulate,
                                 blocker_spec(2)));
    ASSERT_EQ(type_of(client.read_frame()), "accepted");  // r2 queued

    client.send(svc::make_submit("r3", svc::workload::simulate,
                                 blocker_spec(3)));
    const obs::json_value rejected = client.read_frame();
    ASSERT_EQ(type_of(rejected), "rejected");
    EXPECT_EQ(code_of(rejected), "quota_exceeded");

    // A SECOND connection has its own quota and is admitted.
    test_client other(fixture.path);
    other.send(svc::make_submit("r1", svc::workload::simulate,
                                blocker_spec(4)));
    EXPECT_EQ(type_of(other.read_frame()), "accepted");

    client.read_until("result", 120000);  // r1
    client.read_until("result", 120000);  // r2
    other.read_until("result", 120000);
}

TEST(SvcServer, GlobalQueueFullRejected) {
    svc::server_config config;
    config.jobs = 1;
    config.limits.max_queued = 1;
    server_fixture fixture(std::move(config));
    test_client client(fixture.path);

    client.send(svc::make_submit("running", svc::workload::simulate,
                                 blocker_spec(1)));
    ASSERT_EQ(type_of(client.read_frame()), "accepted");
    client.read_until("event");  // runner busy; queue empty again
    client.send(svc::make_submit("queued", svc::workload::simulate,
                                 blocker_spec(2)));
    ASSERT_EQ(type_of(client.read_frame()), "accepted");

    test_client other(fixture.path);  // global bound hits every client
    other.send(svc::make_submit("overflow", svc::workload::simulate,
                                blocker_spec(3)));
    const obs::json_value rejected = other.read_frame();
    ASSERT_EQ(type_of(rejected), "rejected");
    EXPECT_EQ(code_of(rejected), "queue_full");

    client.read_until("result", 120000);
    client.read_until("result", 120000);
}

TEST(SvcServer, StatsFrameReportsTotalsAndCacheHits) {
    server_fixture fixture;
    test_client producer(fixture.path);
    const spec::experiment_spec request = fast_spec();
    producer.send(svc::make_submit("a", svc::workload::simulate, request));
    producer.read_until("result");
    // Same canonical spec from a DIFFERENT client: must hit the shared
    // cross-request cache.
    test_client consumer(fixture.path);
    consumer.send(svc::make_submit("b", svc::workload::simulate, request));
    consumer.read_until("result");

    consumer.send(svc::make_stats_request());
    const obs::json_value stats = consumer.read_frame();
    ASSERT_EQ(type_of(stats), "stats");
    EXPECT_GE(stats.at("server").at("accepted").as_number(), 2.0);
    EXPECT_GE(stats.at("server").at("completed").as_number(), 2.0);
    EXPECT_GE(stats.at("cache").at("hits").as_number(), 1.0);
    EXPECT_EQ(stats.at("server").at("evaluators").as_number(), 1.0);
}

TEST(SvcServer, DrainRejectsNewCompletesAcceptedSendsGoodbye) {
    svc::server_config config;
    config.jobs = 1;
    server_fixture fixture(std::move(config));
    test_client client(fixture.path);
    client.send(svc::make_submit("accepted-before-drain",
                                 svc::workload::simulate, blocker_spec()));
    ASSERT_EQ(type_of(client.read_frame()), "accepted");
    client.read_until("event");  // started

    std::thread drainer([&] { fixture.server->drain(); });
    while (!fixture.server->draining())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    client.send(svc::make_submit("late", svc::workload::simulate,
                                 fast_spec()));
    const obs::json_value rejected = client.read_frame();
    ASSERT_EQ(type_of(rejected), "rejected");
    EXPECT_EQ(code_of(rejected), "draining");

    // The accepted request reaches its terminal frame, then goodbye.
    const obs::json_value result = client.read_until("result", 120000);
    EXPECT_EQ(result.at("id").as_string(), "accepted-before-drain");
    EXPECT_EQ(type_of(client.read_frame()), "goodbye");
    EXPECT_TRUE(client.reads_eof());
    drainer.join();
}

TEST(SvcServer, StopCancelsQueuedWork) {
    svc::server_config config;
    config.jobs = 1;
    server_fixture fixture(std::move(config));
    test_client client(fixture.path);
    client.send(svc::make_submit("running", svc::workload::simulate,
                                 blocker_spec(1)));
    ASSERT_EQ(type_of(client.read_frame()), "accepted");
    client.read_until("event");
    client.send(svc::make_submit("queued", svc::workload::simulate,
                                 blocker_spec(2)));
    ASSERT_EQ(type_of(client.read_frame()), "accepted");

    std::thread stopper([&] { fixture.server->stop(); });
    // Terminal frames for BOTH requests: queued is cancelled, running
    // completes. Order between them is not guaranteed.
    bool saw_cancelled = false;
    bool saw_result = false;
    while (!saw_cancelled || !saw_result) {
        const obs::json_value frame = client.read_frame(120000);
        if (type_of(frame) == "cancelled") {
            EXPECT_EQ(frame.at("id").as_string(), "queued");
            saw_cancelled = true;
        } else if (type_of(frame) == "result") {
            EXPECT_EQ(frame.at("id").as_string(), "running");
            saw_result = true;
        }
    }
    stopper.join();
}

TEST(SvcServer, DisconnectSweepsQueuedRequests) {
    svc::server_config config;
    config.jobs = 1;
    server_fixture fixture(std::move(config));
    {
        test_client doomed(fixture.path);
        doomed.send(svc::make_submit("running", svc::workload::simulate,
                                     blocker_spec(1)));
        ASSERT_EQ(type_of(doomed.read_frame()), "accepted");
        doomed.read_until("event");
        doomed.send(svc::make_submit("queued", svc::workload::simulate,
                                     blocker_spec(2)));
        ASSERT_EQ(type_of(doomed.read_frame()), "accepted");
        doomed.close();  // mid-stream disconnect
    }
    // The queued request is swept; the running one finishes against the
    // dead socket without disturbing the server.
    test_client observer(fixture.path);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (;;) {
        observer.send(svc::make_stats_request());
        const obs::json_value stats = observer.read_frame();
        if (stats.at("server").at("cancelled").as_number() >= 1.0 &&
            stats.at("server").at("queued").as_number() == 0.0 &&
            stats.at("server").at("running").as_number() == 0.0)
            break;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    // Server is fully operational for new clients afterwards.
    observer.send(svc::make_ping());
    EXPECT_EQ(type_of(observer.read_frame()), "pong");
}

TEST(SvcServer, TcpListenerWithEphemeralPort) {
    svc::server_config config;
    config.unix_path.clear();
    config.tcp_port = 0;  // ephemeral
    svc::server server(std::move(config));
    server.start();
    ASSERT_GT(server.tcp_port(), 0);

    test_client client("127.0.0.1", server.tcp_port());
    client.send(svc::make_ping());
    EXPECT_EQ(type_of(client.read_frame()), "pong");
    client.send(svc::make_submit("tcp-1", svc::workload::simulate,
                                 fast_spec()));
    EXPECT_EQ(client.read_until("result").at("status").as_string(), "ok");
    server.stop();
}

}  // namespace
