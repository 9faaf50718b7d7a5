/**
 * @file
 * printedd service tests: protocol round-trips, end-to-end TCP
 * request/reply, admission control, deadlines, drain, and the
 * serving determinism rule (concurrent replies byte-identical to
 * serial ones).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/json_min.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"

namespace
{

using namespace printed;
using namespace printed::service;

CoreConfig
smallConfig()
{
    return CoreConfig::standard(1, 4, 2);
}

/**
 * An ISS sweep request line: 3 cores x 3 kernels = 9 grid points,
 * 100 machines each. `extra` is spliced in before the closing brace
 * (", \"stream\": true", ...).
 */
std::string
issSweepLine(const std::string &id, const std::string &extra = "")
{
    return "{\"id\": \"" + id +
           "\", \"type\": \"sweep\", \"iss\": {\"cores\": "
           "[\"msp430\", \"zpu\", \"z80\"], \"kernels\": [\"mult\", "
           "\"div\", \"crc8\"], \"machines\": 100, \"seed\": 3}" +
           extra + "}";
}

/** A classify spec small enough for sub-second end-to-end tests. */
ml::ClassifySpec
smallClassifySpec()
{
    ml::ClassifySpec spec;
    spec.dataset.features = 2;
    spec.dataset.classes = 2;
    spec.dataset.bits = 4;
    spec.dataset.train = 48;
    spec.dataset.holdout = 32;
    spec.depth = 2;
    spec.search.generations = 2;
    spec.search.population = 4;
    return spec;
}

// ---------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------

TEST(ServiceProtocol, SynthRequestRoundTrip)
{
    CoreConfig cfg = CoreConfig::standard(2, 16, 4);
    cfg.opcodeMask = 0x1FF;
    cfg.tristateResultMux = false;

    const Request req =
        parseRequest(synthRequest("r42", cfg, 125.5));
    EXPECT_EQ(req.id, "r42");
    EXPECT_EQ(req.type, RequestType::Synth);
    EXPECT_EQ(req.config.stages, 2u);
    EXPECT_EQ(req.config.isa.datawidth, 16u);
    EXPECT_EQ(req.config.isa.barCount, 4u);
    EXPECT_EQ(req.config.opcodeMask, 0x1FFu);
    EXPECT_FALSE(req.config.tristateResultMux);
    EXPECT_DOUBLE_EQ(req.deadlineMs, 125.5);
}

TEST(ServiceProtocol, YieldRequestRoundTrip)
{
    const Request req = parseRequest(
        yieldRequest("y1", smallConfig(), 512, 99, 3));
    EXPECT_EQ(req.type, RequestType::Yield);
    EXPECT_EQ(req.trials, 512u);
    EXPECT_EQ(req.seed, 99u);
    EXPECT_EQ(req.replicas, 3u);
    EXPECT_DOUBLE_EQ(req.deviceYield, 0.9999);

    // The largest seed survives the double-valued JSON parse.
    const std::string maxLine =
        yieldRequest("y2", smallConfig(), 64, kMaxSeed);
    const Request maxReq = parseRequest(maxLine);
    EXPECT_EQ(maxReq.seed, 9007199254740991u);
    EXPECT_EQ(requestLine(maxReq), maxLine);
}

TEST(ServiceProtocol, SweepRequestRoundTrip)
{
    SweepSpec spec;
    spec.stages = {1, 3};
    spec.widths = {8};
    spec.bars = {2, 4};
    const Request req =
        parseRequest(sweepRequest("w1", spec));
    EXPECT_EQ(req.type, RequestType::Sweep);
    EXPECT_EQ(req.sweep.stages, spec.stages);
    EXPECT_EQ(req.sweep.widths, spec.widths);
    EXPECT_EQ(req.sweep.bars, spec.bars);
    EXPECT_EQ(req.sweep.configs().size(), 4u);
}

TEST(ServiceProtocol, SweepDefaultsToFullGrid)
{
    const Request req =
        parseRequest("{\"id\":\"w\",\"type\":\"sweep\"}");
    EXPECT_EQ(req.sweep.configs().size(), 24u);
}

TEST(ServiceProtocol, RejectsInvalidRequests)
{
    EXPECT_THROW(parseRequest("{\"type\":\"nope\"}"), FatalError);
    EXPECT_THROW(parseRequest("{}"), FatalError);
    EXPECT_THROW(parseRequest("[1,2]"), FatalError);
    EXPECT_THROW(parseRequest("{\"type\":\"synth\","
                              "\"config\":{\"stages\":7}}"),
                 FatalError);
    EXPECT_THROW(parseRequest("{\"type\":\"sweep\","
                              "\"widths\":[13]}"),
                 FatalError);
    EXPECT_THROW(parseRequest("not json"), json::ParseError);

    // A seed a double cannot hold exactly is refused, not rounded,
    // in each of the four seed fields.
    for (const std::string big : {"9007199254740992",
                                  "18446744073709551615"}) {
        for (const std::string &line :
             {"{\"type\":\"yield\",\"seed\":" + big + "}",
              "{\"type\":\"sweep\",\"iss\":{\"seed\":" + big + "}}",
              "{\"type\":\"classify\",\"dataset\":{\"seed\":" + big +
                  "}}",
              "{\"type\":\"classify\",\"search\":{\"seed\":" + big +
                  "}}"}) {
            try {
                parseRequest(line);
                ADD_FAILURE() << "accepted " << line;
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "request field 'seed' out of range"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(ServiceProtocol, CoalesceKeyIgnoresIdAndDeadline)
{
    const CoreConfig cfg = smallConfig();
    const Request a = parseRequest(synthRequest("a", cfg, 0));
    const Request b = parseRequest(synthRequest("b", cfg, 500));
    EXPECT_EQ(coalesceKey(a), coalesceKey(b));

    const Request c = parseRequest(
        synthRequest("c", CoreConfig::standard(1, 8, 2)));
    EXPECT_NE(coalesceKey(a), coalesceKey(c));

    // Different yield seeds are different computations.
    const Request y1 =
        parseRequest(yieldRequest("y", cfg, 64, 1));
    const Request y2 =
        parseRequest(yieldRequest("y", cfg, 64, 2));
    EXPECT_NE(coalesceKey(y1), coalesceKey(y2));
}

TEST(ServiceProtocol, ClassifyRequestRoundTrip)
{
    ml::ClassifySpec spec = smallClassifySpec();
    spec.dataset.kind = "xor";
    spec.dataset.seed = 7;
    spec.search.seed = 9;
    spec.budget.battery = "Zinergy 12mAh";
    spec.budget.maxAreaCm2 = 3.5;

    const std::string line = classifyRequest("c42", spec, 250);
    const Request req = parseRequest(line);
    EXPECT_EQ(req.id, "c42");
    EXPECT_EQ(req.type, RequestType::Classify);
    EXPECT_EQ(req.classify.dataset.kind, "xor");
    EXPECT_EQ(req.classify.dataset.features, 2u);
    EXPECT_EQ(req.classify.dataset.seed, 7u);
    EXPECT_EQ(req.classify.model, ml::ModelKind::Tree);
    EXPECT_EQ(req.classify.depth, 2u);
    EXPECT_EQ(req.classify.search.generations, 2u);
    EXPECT_EQ(req.classify.search.seed, 9u);
    EXPECT_EQ(req.classify.budget.battery, "Zinergy 12mAh");
    EXPECT_DOUBLE_EQ(req.classify.budget.maxAreaCm2, 3.5);
    EXPECT_DOUBLE_EQ(req.deadlineMs, 250);

    // requestLine() is the canonical renderer: parse -> render is
    // identity on rendered lines. The scoring engine is not part of
    // the protocol.
    EXPECT_EQ(requestLine(req), line);
    EXPECT_EQ(line.find("engine"), std::string::npos) << line;

    // Defaults resolve exactly like an empty request body, and an
    // "engine" member is ignored like any unknown member.
    const Request bare =
        parseRequest("{\"id\":\"c\",\"type\":\"classify\"}");
    EXPECT_EQ(bare.classify, ml::ClassifySpec{});
    const Request scalar = parseRequest(
        "{\"id\":\"c\",\"type\":\"classify\","
        "\"search\":{\"engine\":\"scalar\"}}");
    EXPECT_EQ(scalar.classify, ml::ClassifySpec{});

    // Bad specs are rejected at parse time.
    EXPECT_THROW(parseRequest("{\"type\":\"classify\","
                              "\"model\":\"forest\"}"),
                 FatalError);
    EXPECT_THROW(parseRequest("{\"type\":\"classify\",\"budget\":"
                              "{\"battery\":\"AA\"}}"),
                 FatalError);
    EXPECT_THROW(parseRequest("{\"type\":\"classify\",\"dataset\":"
                              "{\"kind\":\"xor\",\"classes\":3}}"),
                 FatalError);
}

TEST(ServiceProtocol, ClassifyCoalesceAndRouteKeys)
{
    const ml::ClassifySpec spec = smallClassifySpec();
    const Request a = parseRequest(classifyRequest("a", spec, 0));
    const Request b = parseRequest(classifyRequest("b", spec, 500));
    EXPECT_EQ(coalesceKey(a), coalesceKey(b));

    ml::ClassifySpec other = spec;
    other.search.seed += 1;
    const Request c = parseRequest(classifyRequest("c", other));
    EXPECT_NE(coalesceKey(a), coalesceKey(c));

    // An "engine" member names the same search as a line without it.
    std::string line = classifyRequest("d", spec);
    const std::string search = "\"search\": {";
    line.insert(line.find(search) + search.size(),
                "\"engine\": \"scalar\", ");
    const Request d = parseRequest(line);
    EXPECT_EQ(coalesceKey(a), coalesceKey(d));
}

TEST(ServiceProtocol, IssSweepRequestRoundTrip)
{
    const Request req = parseRequest(issSweepLine("i"));
    EXPECT_EQ(req.type, RequestType::Sweep);
    ASSERT_TRUE(req.hasIss);
    EXPECT_EQ(req.iss.cores,
              (std::vector<legacy::LegacyCore>{
                  legacy::LegacyCore::OpenMsp430,
                  legacy::LegacyCore::ZpuSmall,
                  legacy::LegacyCore::Z80}));
    EXPECT_EQ(req.iss.kernels,
              (std::vector<Kernel>{Kernel::Mult, Kernel::Div,
                                   Kernel::Crc8}));
    EXPECT_EQ(req.iss.grid().size(), 9u);
    EXPECT_EQ(req.iss.machines, 100u);
    EXPECT_EQ(req.iss.seed, 3u);

    // Defaults are resolved at parse time: the canonical line names
    // the width and the step budget.
    EXPECT_EQ(req.iss.width, 8u);
    EXPECT_EQ(req.iss.maxSteps, 50'000'000u);
    const std::string line = requestLine(req);
    EXPECT_NE(line.find("\"max_steps\": 50000000"), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"width\": 8"), std::string::npos) << line;

    // Unknown members are ignored: an "engine" member from an older
    // client names the same work as a request without it.
    const Request withEngine = parseRequest(
        "{\"id\": \"i\", \"type\": \"sweep\", \"iss\": {\"cores\": "
        "[\"msp430\", \"zpu\", \"z80\"], \"kernels\": [\"mult\", "
        "\"div\", \"crc8\"], \"machines\": 100, \"seed\": 3, "
        "\"engine\": \"scalar\"}}");
    EXPECT_EQ(requestLine(withEngine), line);
    EXPECT_EQ(line.find("engine"), std::string::npos) << line;

    // parse -> requestLine -> parse is identity.
    const Request again = parseRequest(line);
    EXPECT_EQ(requestLine(again), line);
    EXPECT_EQ(coalesceKey(again), coalesceKey(req));

    // An empty "iss" object is the four-core {mult, div} grid.
    const Request bare = parseRequest(
        "{\"id\": \"b\", \"type\": \"sweep\", \"iss\": {}}");
    ASSERT_TRUE(bare.hasIss);
    EXPECT_EQ(bare.iss.cores.size(), 4u);
    EXPECT_EQ(bare.iss.kernels,
              (std::vector<Kernel>{Kernel::Mult, Kernel::Div}));
    EXPECT_EQ(requestLine(parseRequest(requestLine(bare))),
              requestLine(bare));
}

TEST(ServiceProtocol, IssSweepRejectsInvalidSpecs)
{
    const auto iss = [](const std::string &body) {
        return "{\"id\": \"x\", \"type\": \"sweep\", \"iss\": " +
               body + "}";
    };
    EXPECT_THROW(parseRequest(iss("{\"cores\": [\"pdp11\"]}")),
                 FatalError);
    EXPECT_THROW(parseRequest(iss("{\"kernels\": [\"fft\"]}")),
                 FatalError);
    EXPECT_THROW(parseRequest(iss(
                     "{\"kernels\": [\"crc8\"], \"width\": 16}")),
                 FatalError);
    EXPECT_THROW(parseRequest(
                     "{\"id\": \"x\", \"type\": \"sweep\", "
                     "\"widths\": [8], \"iss\": {}}"),
                 FatalError);
    // The same crc8 grid is fine at width 8.
    EXPECT_NO_THROW(parseRequest(
        iss("{\"kernels\": [\"crc8\"], \"width\": 8}")));
}

TEST(ServiceProtocol, FormatDoubleRoundTrips)
{
    for (double v : {0.0, 1.0, 0.1, 1.0 / 3.0, 22.830007762202637,
                     1e-300, -123456.789}) {
        const std::string text = formatDouble(v);
        EXPECT_EQ(std::stod(text), v) << text;
    }
    EXPECT_EQ(formatDouble(1.0 / 0.0), "null");
}

TEST(ServiceProtocol, ReplyParsing)
{
    const Reply ok = parseReply(okReply(
        "r1", RequestType::Synth, "{\"gates\": 454}"));
    EXPECT_TRUE(ok.ok);
    EXPECT_EQ(ok.id, "r1");

    const Reply err = parseReply(
        errorReply("r2", errc::queueFull, "full"));
    EXPECT_FALSE(err.ok);
    EXPECT_EQ(err.id, "r2");
    EXPECT_EQ(err.error, "queue_full");
    EXPECT_EQ(err.message, "full");
}

// ---------------------------------------------------------------
// End to end
// ---------------------------------------------------------------

TEST(ServiceServer, SynthOverTcp)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    const std::string raw =
        client.call(synthRequest("s1", smallConfig()));
    const Reply reply = parseReply(raw);
    ASSERT_TRUE(reply.ok) << raw;

    const json::Value root = json::parse(raw);
    const json::Value *result = root.find("result");
    ASSERT_NE(result, nullptr);
    const json::Value *core = result->find("core");
    ASSERT_NE(core, nullptr);
    EXPECT_EQ(core->string, "p1_4_2");
    EXPECT_GT(result->find("gates")->number, 100);

    // The reply is a pure function of the request line.
    EXPECT_EQ(client.call(synthRequest("s1", smallConfig())), raw);
}

TEST(ServiceServer, YieldAndSweepOverTcp)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    const Reply yield = parseReply(client.call(
        yieldRequest("y1", smallConfig(), 32, 5)));
    ASSERT_TRUE(yield.ok) << yield.raw;
    const json::Value yroot = json::parse(yield.raw);
    EXPECT_EQ(
        yroot.find("result")->find("trials")->number, 32);

    SweepSpec spec;
    spec.stages = {1};
    spec.widths = {4, 8};
    spec.bars = {2};
    const Reply sweep =
        parseReply(client.call(sweepRequest("w1", spec)));
    ASSERT_TRUE(sweep.ok) << sweep.raw;
    const json::Value wroot = json::parse(sweep.raw);
    EXPECT_EQ(
        wroot.find("result")->find("points")->array.size(), 2u);
}

TEST(ServiceServer, ClassifyOverTcp)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    const ml::ClassifySpec spec = smallClassifySpec();
    const std::string raw =
        client.call(classifyRequest("c1", spec));
    const Reply reply = parseReply(raw);
    ASSERT_TRUE(reply.ok) << raw;

    // Points 0..G-1 are generation summaries, point G the front.
    const json::Value root = json::parse(raw);
    const json::Value *points = root.find("result")->find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->array.size(), spec.search.generations + 1u);
    EXPECT_EQ(points->array[0].find("generation")->number, 0);
    const json::Value &front = points->array.back();
    ASSERT_NE(front.find("front"), nullptr);
    EXPECT_GE(front.find("front")->array.size(), 1u);
    EXPECT_GT(
        front.find("baseline")->find("accuracy")->number, 0.5);

    // Identical specs reuse the cached search result and the reply
    // is a pure function of the request line.
    const std::uint64_t hits =
        metrics::counter("ml.cache_hits").value();
    EXPECT_EQ(client.call(classifyRequest("c1", spec)), raw);
    EXPECT_GT(metrics::counter("ml.cache_hits").value(), hits);
}

TEST(ServiceServer, IssSweepMonolithicDeadlineAndStreamAgree)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    const std::string monolithic = client.call(issSweepLine("i"));
    const Reply reply = parseReply(monolithic);
    ASSERT_TRUE(reply.ok) << monolithic;
    const json::Value root = json::parse(monolithic);
    const json::Value *points = root.find("result")->find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->array.size(), 9u);
    EXPECT_EQ(points->array[0].find("core")->string, "msp430");
    EXPECT_EQ(points->array[8].find("kernel")->string, "crc8");
    EXPECT_EQ(points->array[4].find("machines")->number, 100);

    // A request with a deadline runs the same points.
    EXPECT_EQ(client.call(issSweepLine("i", ", \"deadline_ms\": 600000")),
              monolithic);

    // So does a stream, reassembled.
    client.send(issSweepLine("i", ", \"stream\": true"));
    std::vector<std::string> bodies;
    for (;;) {
        const StreamFrame frame = classifyFrame(client.readLine());
        if (frame.kind == StreamFrame::Kind::Partial) {
            EXPECT_EQ(frame.index, bodies.size());
            EXPECT_EQ(frame.total, 9u);
            bodies.push_back(frame.pointBody);
            continue;
        }
        ASSERT_EQ(frame.kind, StreamFrame::Kind::Done);
        EXPECT_EQ(frame.points, 9u);
        break;
    }
    EXPECT_EQ(assembleStreamedReply("i", RequestType::Sweep, bodies),
              monolithic);
}

TEST(ServiceServer, HealthAdvertisesClassify)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    const std::string raw =
        client.call(adminRequest("h", RequestType::Health));
    const json::Value root = json::parse(raw);
    const json::Value *types = root.find("result")->find("types");
    ASSERT_NE(types, nullptr);
    std::vector<std::string> got;
    for (const json::Value &t : types->array)
        got.push_back(t.string);
    EXPECT_NE(std::find(got.begin(), got.end(), "classify"),
              got.end());
    EXPECT_NE(std::find(got.begin(), got.end(), "synth"),
              got.end());
}

TEST(ServiceServer, MalformedAndInvalidRequests)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    const Reply parse = parseReply(client.call("{{{"));
    EXPECT_FALSE(parse.ok);
    EXPECT_EQ(parse.error, "parse_error");

    const Reply bad = parseReply(client.call(
        "{\"id\":\"b\",\"type\":\"synth\","
        "\"config\":{\"width\":5}}"));
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.error, "bad_request");

    const Reply range = parseReply(client.call(
        "{\"id\":\"r\",\"type\":\"synth\","
        "\"config\":{\"width\":65}}"));
    EXPECT_EQ(range.error, "bad_request");
    EXPECT_EQ(range.message,
              "request field 'width' out of range [1, 64]");

    // The connection survives every error.
    EXPECT_TRUE(parseReply(client.call(
                    adminRequest("h", RequestType::Health)))
                    .ok);
}

TEST(ServiceServer, DeadlineExceededAtAdmission)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    // A sub-microsecond deadline is always expired by dequeue
    // time.
    const Reply reply = parseReply(client.call(synthRequest(
        "d1", CoreConfig::standard(3, 32, 4), 1e-4)));
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.error, "deadline_exceeded");
}

TEST(ServiceServer, ExpiredRequestDoesNotJoinAnInflightLeader)
{
    ServerOptions opts;
    opts.executors = 2;
    Server server(opts);
    server.start();

    // A slow leader, a yield no other test computes. It is in flight
    // once an executor has dequeued it.
    const auto yield = [](const std::string &id, double deadlineMs) {
        return yieldRequest(id, smallConfig(), 10000, 4242, 1,
                            deadlineMs);
    };
    metrics::Distribution &dequeued =
        metrics::distribution("service.queue_wait_ms");
    const std::uint64_t before = dequeued.summary().count;
    Client leader("127.0.0.1", server.port());
    leader.send(yield("lead", 0));
    while (dequeued.summary().count == before)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // The identical request, expired by dequeue time, is answered
    // deadline_exceeded at once instead of waiting for the leader.
    metrics::Counter &hits = metrics::counter("service.coalesce_hits");
    const std::uint64_t hitsBefore = hits.value();
    Client late("127.0.0.1", server.port());
    const Reply reply = parseReply(late.call(yield("late", 1e-4)));
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.error, errc::deadlineExceeded);
    EXPECT_EQ(hits.value(), hitsBefore);
    EXPECT_TRUE(parseReply(leader.readLine(60000)).ok);
}

TEST(ServiceServer, QueueFullRejection)
{
    ServerOptions opts;
    opts.maxQueue = 0; // reject every compute admission
    Server server(opts);
    server.start();
    Client client("127.0.0.1", server.port());

    const Reply reply = parseReply(
        client.call(synthRequest("q1", smallConfig())));
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.error, "queue_full");

    // Admin requests bypass the queue entirely.
    EXPECT_TRUE(parseReply(client.call(
                    adminRequest("h", RequestType::Health)))
                    .ok);
}

TEST(ServiceServer, MetricsAndHealthIntrospection)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());

    client.call(synthRequest("s", smallConfig()));

    const std::string health =
        client.call(adminRequest("h", RequestType::Health));
    const json::Value hroot = json::parse(health);
    EXPECT_EQ(hroot.find("result")->find("status")->string, "ok");

    const std::string metrics =
        client.call(adminRequest("m", RequestType::Metrics));
    const json::Value mroot = json::parse(metrics);
    const json::Value *counters =
        mroot.find("result")->find("counters");
    ASSERT_NE(counters, nullptr);
    const json::Value *served =
        counters->find("service.requests");
    ASSERT_NE(served, nullptr);
    EXPECT_GE(served->number, 2);
}

TEST(ServiceServer, ShutdownDrainsAndCloses)
{
    Server server;
    server.start();
    const std::uint16_t port = server.port();
    Client client("127.0.0.1", port);

    const Reply reply = parseReply(
        client.call(adminRequest("bye", RequestType::Shutdown)));
    EXPECT_TRUE(reply.ok);

    server.wait(); // returns because shutdown was requested

    // Further compute on the old connection is refused or the
    // socket is closed; either way no hang.
    bool refused = false;
    try {
        const Reply r = parseReply(
            client.call(synthRequest("late", smallConfig())));
        refused = !r.ok && r.error == "shutting_down";
    } catch (const FatalError &) {
        refused = true; // connection closed
    }
    EXPECT_TRUE(refused);
}

TEST(ServiceServer, ConcurrentRepliesAreByteIdentical)
{
    // The determinism rule: the same requests, issued serially on
    // one connection and concurrently from several, produce
    // byte-identical reply lines (matched by id).
    ServerOptions opts;
    opts.executors = 4;
    Server server(opts);
    server.start();

    std::vector<std::string> requests;
    for (unsigned width : {4u, 8u, 16u})
        requests.push_back(synthRequest(
            "s" + std::to_string(width),
            CoreConfig::standard(1, width, 2)));
    requests.push_back(
        yieldRequest("y", smallConfig(), 48, 11));
    SweepSpec spec;
    spec.stages = {1, 2};
    spec.widths = {4};
    spec.bars = {2};
    requests.push_back(sweepRequest("w", spec));

    std::map<std::string, std::string> serial;
    {
        Client client("127.0.0.1", server.port());
        for (const std::string &req : requests) {
            const std::string raw = client.call(req);
            serial[parseReply(raw).id] = raw;
        }
    }

    constexpr unsigned kClients = 4;
    std::vector<std::map<std::string, std::string>> got(kClients);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            Client client("127.0.0.1", server.port());
            for (const std::string &req : requests)
                client.send(req); // pipelined
            for (std::size_t i = 0; i < requests.size(); ++i) {
                const std::string raw = client.readLine();
                got[c][parseReply(raw).id] = raw;
            }
        });
    for (std::thread &t : threads)
        t.join();

    for (unsigned c = 0; c < kClients; ++c) {
        ASSERT_EQ(got[c].size(), serial.size());
        for (const auto &[id, raw] : serial)
            EXPECT_EQ(got[c].at(id), raw)
                << "client " << c << " id " << id;
    }
}

TEST(ServiceProtocol, QueueFullReplyCarriesRetryHint)
{
    const Reply r = parseReply(queueFullReply("q7", 37.5));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.id, "q7");
    EXPECT_EQ(r.error, "queue_full");
    EXPECT_DOUBLE_EQ(r.retryAfterMs, 37.5);

    // Replies without the hint parse with a zero default.
    const Reply plain = parseReply(
        errorReply("q8", errc::queueFull, "full"));
    EXPECT_DOUBLE_EQ(plain.retryAfterMs, 0.0);
}

TEST(ServiceProtocol, ParsersRejectMutatedFramesWithoutCrashing)
{
    // Fuzz both wire parsers with truncations and byte mutations
    // of valid frames: anything may be rejected, nothing may crash
    // or be silently misparsed into a *different* valid value.
    std::vector<std::string> seeds = {
        synthRequest("f1", CoreConfig::standard(2, 16, 4), 10),
        yieldRequest("f2", smallConfig(), 64, 3, 2),
        sweepRequest("f3", SweepSpec{{1, 2}, {4, 8}, {2}}),
        adminRequest("f4", RequestType::Metrics),
        okReply("f5", RequestType::Synth, "{\"gates\": 454}"),
        queueFullReply("f6", 12.5),
    };
    // Deeply nested and invalid-escape frames too.
    std::string nested = "{\"id\":\"n\",\"type\":\"health\",\"x\":";
    for (int i = 0; i < 64; ++i)
        nested += "[";
    seeds.push_back(nested);
    seeds.push_back("{\"id\":\"\\uD800\",\"type\":\"health\"}");
    seeds.push_back("{\"id\":\"\\u12G4\",\"type\":\"health\"}");
    seeds.push_back(std::string(1 << 16, '['));

    Rng rng(2026);
    std::size_t attempts = 0;
    for (const std::string &seed : seeds) {
        for (std::size_t cut = 0; cut < seed.size();
             cut += 1 + seed.size() / 37) {
            const std::string truncated = seed.substr(0, cut);
            try {
                (void)parseRequest(truncated);
            } catch (const std::exception &) {
            }
            try {
                (void)parseReply(truncated);
            } catch (const std::exception &) {
            }
            ++attempts;
        }
        for (unsigned m = 0; m < 64; ++m) {
            std::string mutated = seed;
            if (mutated.empty())
                continue;
            const std::size_t at =
                std::size_t(rng.below(mutated.size()));
            mutated[at] = char(rng.next() & 0xFF);
            try {
                (void)parseRequest(mutated);
            } catch (const std::exception &) {
            }
            try {
                (void)parseReply(mutated);
            } catch (const std::exception &) {
            }
            ++attempts;
        }
    }
    EXPECT_GT(attempts, 500u);
}

TEST(ServiceServer, QueueFullOverTcpCarriesRetryHint)
{
    ServerOptions opts;
    opts.maxQueue = 0;
    Server server(opts);
    server.start();
    Client client("127.0.0.1", server.port());

    const Reply reply = parseReply(
        client.call(synthRequest("q1", smallConfig())));
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.error, "queue_full");
    EXPECT_GT(reply.retryAfterMs, 0.0);
}

TEST(ServiceServer, ShedsHeavyClassesFirst)
{
    // One executor, pinned busy by an expensive yield, and a queue
    // of 8: sweeps shed at depth 4, yields at depth 6, synths only
    // at 8. Build known depths, then observe class-ordered
    // admission verdicts.
    ServerOptions opts;
    opts.executors = 1;
    opts.maxQueue = 8;
    Server server(opts);
    server.start();

    const std::uint64_t yieldArrivals =
        metrics::counter("service.requests_yield").value();
    Client pin("127.0.0.1", server.port());
    pin.send(yieldRequest("pin", smallConfig(), 20000, 1));

    // Wait until the pin request was admitted *and* dequeued: from
    // then on the lone executor is busy for ~a second and queued
    // requests stay queued.
    Client filler("127.0.0.1", server.port());
    Client probe("127.0.0.1", server.port());
    const auto queueDepth = [&] {
        const std::string raw = probe.call(
            adminRequest("h", RequestType::Health));
        return json::parse(raw)
            .find("result")
            ->find("queue_depth")
            ->number;
    };
    for (int spin = 0;
         spin < 5000 &&
         metrics::counter("service.requests_yield").value() ==
             yieldArrivals;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (int spin = 0; spin < 5000 && queueDepth() != 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(queueDepth(), 0);

    // Fill to depth 5 with yields (each below the yield limit of 6
    // at admission time; distinct seeds so nothing coalesces).
    for (int i = 0; i < 5; ++i)
        filler.send(yieldRequest("f" + std::to_string(i),
                                 smallConfig(), 2000,
                                 100 + unsigned(i)));
    for (int spin = 0; spin < 5000 && queueDepth() < 5; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(queueDepth(), 5);

    // Depth 5: sweeps (limit 4) shed; synths (limit 8) admitted.
    SweepSpec spec;
    spec.stages = {1};
    spec.widths = {4};
    spec.bars = {2};
    const Reply sweep =
        parseReply(probe.call(sweepRequest("w", spec)));
    EXPECT_FALSE(sweep.ok);
    EXPECT_EQ(sweep.error, "queue_full");
    EXPECT_GT(sweep.retryAfterMs, 0.0);
    EXPECT_GE(metrics::counter("service.shed_sweep").value(), 1u);

    probe.send(yieldRequest("y", smallConfig(), 100, 2)); // depth 6
    probe.send(
        synthRequest("s", CoreConfig::standard(1, 8, 2))); // 7
    for (int spin = 0; spin < 5000 && queueDepth() < 7; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(queueDepth(), 7);

    // Depth 7: yields (limit 6) shed too — the rejection is sent
    // inline by the reader, so it overtakes the queued replies...
    probe.send(yieldRequest("y2", smallConfig(), 100, 3));
    const Reply yield2 = parseReply(probe.readLine());
    EXPECT_EQ(yield2.id, "y2");
    EXPECT_FALSE(yield2.ok);
    EXPECT_EQ(yield2.error, "queue_full");
    EXPECT_GE(metrics::counter("service.shed_yield").value(), 1u);

    // ...while a synth still fits (limit 8). Collect the three
    // queued replies (y, s, s2) in execution order.
    probe.send(
        synthRequest("s2", CoreConfig::standard(1, 16, 2)));
    std::map<std::string, Reply> done;
    for (int i = 0; i < 3; ++i) {
        const Reply r = parseReply(probe.readLine());
        done[r.id] = r;
    }
    EXPECT_TRUE(done.at("y").ok) << done.at("y").raw;
    EXPECT_TRUE(done.at("s").ok) << done.at("s").raw;
    EXPECT_TRUE(done.at("s2").ok) << done.at("s2").raw;
}

TEST(ServiceServer, WatchdogFlagsDeadlineOverruns)
{
    // A worker that blows through its request's deadline while
    // computing (the deadline is only checked between sweep points
    // and at dequeue) must be flagged by the watchdog.
    ServerOptions opts;
    opts.executors = 1;
    opts.watchdogPeriodMs = 5;
    Server server(opts);
    server.start();

    const std::uint64_t before =
        metrics::counter("service.watchdog_overruns").value();

    // A yield big enough to outlive its own 50 ms deadline once it
    // starts computing (the server is idle, so admission-to-dequeue
    // is far under 50 ms and the deadline is still live when the
    // executor picks it up). 20,000 trials of one replica took
    // 26 ms on an idle 4-vCPU machine, so the test passed only when
    // other tests loaded it; 8 replicas draw and simulate 8x the
    // copies.
    Client client("127.0.0.1", server.port());
    const Reply r = parseReply(client.call(yieldRequest(
        "slow", CoreConfig::standard(1, 8, 2), 20000, 77, 8, 50)));
    // The reply itself may be ok or deadline_exceeded depending on
    // where the overrun was noticed; the watchdog observation is
    // the invariant.
    (void)r;
    EXPECT_GT(
        metrics::counter("service.watchdog_overruns").value(),
        before);
}

TEST(ServiceClient, RetryingClientReconnectsAcrossServerRestart)
{
    ServerOptions opts;
    Server *server = new Server(opts);
    server->start();
    const std::uint16_t port = server->port();

    RetryPolicy policy;
    policy.baseBackoffMs = 1;
    policy.maxBackoffMs = 10;
    policy.maxLossRetries = 400; // restart takes a few attempts
    RetryingClient client("127.0.0.1", port, policy);

    const std::string req = synthRequest("r", smallConfig());
    const std::string before = client.call(req);
    ASSERT_TRUE(parseReply(before).ok);

    // Kill the server (connections die) and bring up a new one on
    // the same port; the client must heal transparently.
    delete server;
    ServerOptions opts2;
    opts2.port = port;
    Server server2(opts2);
    server2.start();

    const std::string after = client.call(req);
    EXPECT_EQ(after, before); // determinism across restarts too
    EXPECT_GE(client.stats().reconnects, 2u);
    EXPECT_GE(client.stats().lossReplays, 1u);
}

TEST(ServiceClient, RetryingClientReplaysPastADrainingServer)
{
    auto a = std::make_unique<Server>();
    a->start();
    const std::uint16_t port = a->port();

    const std::string req = synthRequest("d", smallConfig());
    SweepSpec spec;
    spec.stages = {1};
    spec.widths = {4, 8};
    spec.bars = {2};
    Client raw("127.0.0.1", port);
    const std::string expected = raw.call(req);
    ASSERT_TRUE(parseReply(expected).ok) << expected;
    const std::string expectedSweep = raw.call(sweepRequest("w", spec));
    ASSERT_TRUE(parseReply(expectedSweep).ok) << expectedSweep;

    RetryPolicy policy;
    policy.baseBackoffMs = 1;
    policy.maxBackoffMs = 10;
    policy.maxLossRetries = 400; // the restart takes a few attempts
    RetryingClient client("127.0.0.1", port, policy);
    RetryingClient streamer("127.0.0.1", port, policy);
    // Connect before the drain: a draining server accepts no new
    // connections.
    const std::string health = adminRequest("h", RequestType::Health);
    ASSERT_TRUE(client.callParsed(health).ok);
    ASSERT_TRUE(streamer.callParsed(health).ok);

    // Server A drains but keeps answering its open connections.
    a->beginShutdown();
    const Reply draining = parseReply(raw.call(req));
    EXPECT_FALSE(draining.ok);
    EXPECT_EQ(draining.error, errc::shuttingDown);

    // A non-idempotent call gets the answer as it is.
    const Reply once =
        parseReply(client.call(req, /*idempotent=*/false));
    EXPECT_EQ(once.error, errc::shuttingDown);
    EXPECT_EQ(client.stats().lossReplays, 0u);

    // An idempotent call and a stream are replayed until server B,
    // restarted on A's port, answers them.
    metrics::Counter &requests = metrics::counter("service.requests");
    const std::uint64_t before = requests.value();
    std::string got, gotSweep;
    std::thread caller([&] {
        try {
            got = client.call(req);
        } catch (const std::exception &e) {
            got = e.what();
        }
    });
    std::thread streamCaller([&] {
        try {
            gotSweep = streamer.streamSweep("w", spec).reply.raw;
        } catch (const std::exception &e) {
            gotSweep = e.what();
        }
    });
    // A has seen both (and answered shutting_down) once the counter
    // has moved twice; only then is it torn down.
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (requests.value() < before + 2 &&
           std::chrono::steady_clock::now() < giveUp)
        std::this_thread::yield();
    a->wait();
    a.reset();
    ServerOptions opts;
    opts.port = port;
    Server b(opts);
    b.start();
    caller.join();
    streamCaller.join();

    EXPECT_EQ(got, expected);
    EXPECT_GE(client.stats().lossReplays, 1u);
    EXPECT_EQ(gotSweep, expectedSweep);
    EXPECT_GE(streamer.stats().lossReplays, 1u);
}

TEST(ServiceClient, NonIdempotentRequestsAreNotReplayed)
{
    Server server;
    server.start();

    RetryPolicy policy;
    policy.baseBackoffMs = 1;
    RetryingClient client("127.0.0.1", server.port(), policy);

    // shutdown is the one non-idempotent request: sent once, never
    // replayed. It succeeds here; the non-replay contract is that a
    // *failure* after send propagates instead of retrying, which
    // the lost-connection path below exercises.
    const Reply bye = client.callParsed(
        adminRequest("bye", RequestType::Shutdown),
        /*idempotent=*/false);
    EXPECT_TRUE(bye.ok);
    server.wait();

    // With the server gone, a non-idempotent call must fail, never
    // be replayed once its bytes may have reached a server, and
    // never be answered twice. (Reconnect attempts for a request
    // that provably never reached the wire are allowed.)
    EXPECT_THROW(client.call(adminRequest(
                                 "bye2", RequestType::Shutdown),
                             /*idempotent=*/false),
                 FatalError);
}

TEST(ServiceClient, CallTimeoutThrowsTimeoutError)
{
    // An unanswered socket (a listener that never replies) must
    // trip the per-call poll deadline, not hang.
    Server server;
    server.start();
    Client raw("127.0.0.1", server.port());
    // health answers fast; then ask for a reply that never comes by
    // reading twice.
    raw.send(adminRequest("h", RequestType::Health));
    EXPECT_FALSE(raw.readLine(2000).empty());
    EXPECT_THROW(raw.readLine(50), TimeoutError);
}

TEST(ServiceServer, CoalescesIdenticalInflightRequests)
{
    ServerOptions opts;
    opts.executors = 4;
    Server server(opts);
    server.start();

    metrics::Counter &hits =
        metrics::counter("service.coalesce_hits");

    // A fresh, expensive computation, issued from several
    // connections at once: while the first executor computes it,
    // the others dequeue the duplicates and join the in-flight
    // future. Retry with increasing cost in the (unlikely) event
    // the first burst never overlapped.
    std::string expected;
    for (unsigned attempt = 0; attempt < 5; ++attempt) {
        const std::uint64_t before = hits.value();
        const unsigned trials = 200 << attempt;
        const std::string req = yieldRequest(
            "c", smallConfig(), trials, 1000 + attempt);

        constexpr unsigned kClients = 4;
        std::vector<std::string> replies(kClients);
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClients; ++c)
            threads.emplace_back([&, c] {
                Client client("127.0.0.1", server.port());
                replies[c] = client.call(req);
            });
        for (std::thread &t : threads)
            t.join();

        for (unsigned c = 1; c < kClients; ++c)
            EXPECT_EQ(replies[c], replies[0]);
        ASSERT_TRUE(parseReply(replies[0]).ok) << replies[0];
        if (hits.value() > before)
            return; // coalescing observed
    }
    FAIL() << "no coalescing observed in any burst";
}

} // namespace
