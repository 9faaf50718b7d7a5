/**
 * @file
 * printedd service tests: protocol round-trips, end-to-end TCP
 * request/reply, admission control, deadlines, drain, connection
 * lifetime (closed connections release their descriptors, an
 * over-long line closes its client, a failed accept is retried),
 * the serving determinism rule (concurrent replies byte-identical
 * to serial ones), and an EINTR signal-storm regression test for
 * the socket I/O loops.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json_min.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "service/client.hh"
#include "service/net_io.hh"
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

/** Synths, a yield and a sweep, each with its own id. */
std::vector<std::string>
mixedRequests()
{
    std::vector<std::string> requests;
    for (unsigned width : {4u, 8u, 16u})
        requests.push_back(synthRequest(
            "s" + std::to_string(width),
            CoreConfig::standard(1, width, 2)));
    requests.push_back(yieldRequest("y", smallConfig(), 48, 11));
    SweepSpec spec;
    spec.stages = {1, 2};
    spec.widths = {4};
    spec.bars = {2};
    requests.push_back(sweepRequest("w", spec));
    return requests;
}

/** Each request's reply line, keyed by id, from serial calls. */
std::map<std::string, std::string>
serialReplies(std::uint16_t port, const std::vector<std::string> &requests)
{
    Client client("127.0.0.1", port);
    std::map<std::string, std::string> replies;
    for (const std::string &req : requests) {
        const std::string raw = client.call(req);
        replies[parseReply(raw).id] = raw;
    }
    return replies;
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

    // An axis value is matched as the double it parsed to: 2^32 + 2
    // must not wrap onto stage 2, nor 2^32 + 8 onto width 8.
    for (const std::string line :
         {"{\"type\":\"sweep\",\"stages\":[4294967298]}",
          "{\"type\":\"sweep\",\"widths\":[4294967304]}",
          "{\"type\":\"sweep\",\"stages\":[-1]}",
          "{\"type\":\"sweep\",\"widths\":[1e300]}"}) {
        try {
            parseRequest(line);
            ADD_FAILURE() << "accepted " << line;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "holds unsupported value"),
                      std::string::npos)
                << e.what();
        }
    }

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

TEST(ServiceProtocol, RequestLineIdentityIgnoresIdAndDeadline)
{
    // What a request computes is its canonical line without the id
    // and the deadline.
    const auto identity = [](const std::string &line) {
        Request req = parseRequest(line);
        req.id.clear();
        req.deadlineMs = 0;
        return requestLine(req);
    };
    const CoreConfig cfg = smallConfig();
    EXPECT_EQ(identity(synthRequest("a", cfg, 0)),
              identity(synthRequest("b", cfg, 500)));
    EXPECT_NE(identity(synthRequest("a", cfg)),
              identity(synthRequest("c", CoreConfig::standard(1, 8, 2))));

    // Different yield seeds are different computations.
    EXPECT_NE(identity(yieldRequest("y", cfg, 64, 1)),
              identity(yieldRequest("y", cfg, 64, 2)));
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

TEST(ServiceProtocol, ClassifySpecKeyNamesTheSearch)
{
    const ml::ClassifySpec spec = smallClassifySpec();
    const Request a = parseRequest(classifyRequest("a", spec, 0));
    const Request b = parseRequest(classifyRequest("b", spec, 500));
    EXPECT_EQ(ml::classifySpecKey(a.classify),
              ml::classifySpecKey(b.classify));

    ml::ClassifySpec other = spec;
    other.search.seed += 1;
    const Request c = parseRequest(classifyRequest("c", other));
    EXPECT_NE(ml::classifySpecKey(a.classify),
              ml::classifySpecKey(c.classify));

    // An "engine" member names the same search as a line without it.
    std::string line = classifyRequest("a", spec);
    const std::string search = "\"search\": {";
    line.insert(line.find(search) + search.size(),
                "\"engine\": \"scalar\", ");
    const Request d = parseRequest(line);
    EXPECT_EQ(ml::classifySpecKey(a.classify),
              ml::classifySpecKey(d.classify));
    EXPECT_EQ(requestLine(d), classifyRequest("a", spec));
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

TEST(ServiceProtocol, QueueFullReplyCarriesNoRetryHint)
{
    const std::string line =
        errorReply("q7", errc::queueFull, "admission queue is full");
    std::vector<std::string> members;
    for (const auto &member : json::parse(line).object)
        members.push_back(member.first);
    EXPECT_EQ(members, (std::vector<std::string>{"id", "ok", "error",
                                                 "message"}));

    // Unknown members, such as an older daemon's hint, are ignored.
    const Reply plain = parseReply(line);
    const Reply hinted = parseReply(
        "{\"id\": \"q7\", \"ok\": false, \"error\": \"queue_full\", "
        "\"message\": \"admission queue is full\", \"after\": 37.5}");
    EXPECT_FALSE(hinted.ok);
    EXPECT_EQ(hinted.id, plain.id);
    EXPECT_EQ(hinted.error, plain.error);
    EXPECT_EQ(hinted.message, plain.message);
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

    // The reply is a pure function of the request line, and the
    // repeat is served from the synthesis cache: it builds no core
    // and hits the cached characterizations.
    const std::uint64_t built =
        metrics::counter("synth.cores_built").value();
    const std::uint64_t charHits =
        metrics::counter("synth.cache.char_hits").value();
    EXPECT_EQ(client.call(synthRequest("s1", smallConfig())), raw);
    EXPECT_EQ(metrics::counter("synth.cores_built").value(), built);
    EXPECT_GT(metrics::counter("synth.cache.char_hits").value(),
              charHits);
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

TEST(ServiceServer, QueueFullOverTcpCarriesNoRetryHint)
{
    ServerOptions opts;
    opts.maxQueue = 0;
    Server server(opts);
    server.start();
    Client client("127.0.0.1", server.port());

    // Every error reply, queue_full included, has the same members.
    EXPECT_EQ(client.call(synthRequest("q1", smallConfig())),
              errorReply("q1", errc::queueFull,
                         "admission queue is full"));
}

TEST(ServiceServer, EveryComputeClassIsAdmittedUntilTheQueueIsFull)
{
    // One admission rule: below maxQueue every compute request
    // queues, at maxQueue every one is answered queue_full. The lone
    // executor is held by a long streamed yield, which stops within
    // one Monte Carlo trial once its client hangs up.
    ServerOptions opts;
    opts.executors = 1;
    opts.maxQueue = 4;
    Server server(opts);
    server.start();

    metrics::Distribution &dequeued =
        metrics::distribution("service.queue_wait_ms");
    const std::uint64_t before = dequeued.summary().count;
    Client pin("127.0.0.1", server.port());
    pin.send(yieldStreamRequest("pin", CoreConfig::standard(1, 8, 2),
                                100000, 31, 64));
    while (dequeued.summary().count == before)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // The probe's lines are handled in order, so its health reply
    // comes after the verdicts on everything sent before it: a
    // rejection would be read first (depth -1).
    Client probe("127.0.0.1", server.port());
    const auto depthAfter = [&](const std::vector<std::string> &lines) {
        for (const std::string &line : lines)
            probe.send(line);
        const json::Value root = json::parse(
            probe.call(adminRequest("h", RequestType::Health)));
        const json::Value *result = root.find("result");
        return result ? result->find("queue_depth")->number : -1.0;
    };
    SweepSpec spec;
    spec.stages = {1};
    spec.widths = {4};
    spec.bars = {2};
    ASSERT_EQ(depthAfter({synthRequest("f0", smallConfig()),
                          synthRequest("f1", smallConfig())}),
              2);
    ASSERT_EQ(depthAfter({sweepRequest("w", spec)}), 3);
    ASSERT_EQ(depthAfter({yieldRequest("y", smallConfig(), 16, 5)}), 4);

    const std::string full[] = {
        synthRequest("s", smallConfig()),
        yieldRequest("y2", smallConfig(), 16, 5),
        sweepRequest("w2", spec),
        classifyRequest("c", smallClassifySpec()),
    };
    for (const std::string &line : full) {
        const std::string id = parseRequest(line).id;
        EXPECT_EQ(probe.call(line),
                  errorReply(id, errc::queueFull,
                             "admission queue is full"));
    }

    // Release the executor: the four queued requests are answered.
    pin.close();
    std::set<std::string> answered;
    for (int i = 0; i < 4; ++i) {
        const Reply r = parseReply(probe.readLine(60000));
        EXPECT_TRUE(r.ok) << r.raw;
        answered.insert(r.id);
    }
    EXPECT_EQ(answered, (std::set<std::string>{"f0", "f1", "w", "y"}));
}

TEST(ServiceServer, MetricsAndHealthIntrospection)
{
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());
    const auto metrics = [&] {
        return json::parse(
            client.call(adminRequest("m", RequestType::Metrics)));
    };
    const auto execCount = [&] {
        const json::Value root = metrics();
        const json::Value *exec = root.find("result")
                                      ->find("distributions")
                                      ->find("service.exec_ms");
        return exec ? exec->find("count")->number : 0.0;
    };

    // A request's exec_ms sample is recorded before its answer is
    // sent, so a metrics read right after the last reply sees all.
    const double execBefore = execCount();
    const std::vector<std::string> requests = mixedRequests();
    for (const std::string &req : requests)
        ASSERT_TRUE(parseReply(client.call(req)).ok) << req;
    EXPECT_EQ(execCount(), execBefore + double(requests.size()));

    const std::string health =
        client.call(adminRequest("h", RequestType::Health));
    const json::Value hroot = json::parse(health);
    EXPECT_EQ(hroot.find("result")->find("status")->string, "ok");

    const json::Value mroot = metrics();
    const json::Value *served =
        mroot.find("result")->find("counters")->find("service.requests");
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

TEST(ServiceServer, DrainingServerAnswersComputeShuttingDown)
{
    // Until wait() closes it, a connection opened before the drain
    // gets a definite answer to a compute request: shutting_down.
    Server server;
    server.start();
    Client client("127.0.0.1", server.port());
    ASSERT_TRUE(parseReply(client.call(
                    adminRequest("h", RequestType::Health)))
                    .ok);

    server.beginShutdown();
    EXPECT_EQ(client.call(synthRequest("late", smallConfig())),
              errorReply("late", errc::shuttingDown,
                         "server is draining"));
    // Introspection still answers, and says so.
    const json::Value health = json::parse(
        client.call(adminRequest("h2", RequestType::Health)));
    EXPECT_TRUE(health.find("result")->find("draining")->boolean);
    server.wait();
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

    const std::vector<std::string> requests = mixedRequests();
    const std::map<std::string, std::string> serial =
        serialReplies(server.port(), requests);

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
        errorReply("f6", errc::queueFull, "admission queue is full"),
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

TEST(ServiceServer, DeadlineStopsAYieldInsideItsPoint)
{
    // A yield is one point, so only the pool's stop check can end it
    // before it finishes. Work is bounded by counters: the full
    // request draws 2,345,186 replica maps (deterministic by the
    // Monte Carlo's contract), and a stopped one must draw < 1 %.
    ServerOptions opts;
    opts.poolThreads = 2;
    Server server(opts);
    server.start();
    Client client("127.0.0.1", server.port());
    const CoreConfig config = CoreConfig::standard(1, 8, 2);

    // Warm the core and its golden verification first.
    ASSERT_TRUE(
        parseReply(client.call(yieldRequest("warm", config, 16, 77)))
            .ok);

    metrics::Counter &draws = metrics::counter("fault.draws");
    metrics::Distribution &overrun =
        metrics::distribution("service.deadline_overrun_ms");
    const std::uint64_t drawsBefore = draws.value();
    const std::uint64_t overrunsBefore = overrun.summary().count;
    const Reply reply = parseReply(client.call(
        yieldRequest("big", config, 100000, 77, 64, 5)));
    EXPECT_FALSE(reply.ok) << reply.raw;
    EXPECT_EQ(reply.error, errc::deadlineExceeded);
    EXPECT_LT(draws.value() - drawsBefore, 23452u);
    EXPECT_EQ(overrun.summary().count, overrunsBefore + 1);
}

TEST(ServiceServer, DeadlineStopsAClassifySearchInsideAGeneration)
{
    // ml.candidates_scored counts the baseline, then a generation's
    // 256 candidates once all are scored, so a search stopped inside
    // its one generation moves it by less than 1 + 256.
    ServerOptions opts;
    opts.poolThreads = 2;
    Server server(opts);
    server.start();
    Client client("127.0.0.1", server.port());

    ml::ClassifySpec spec;
    spec.dataset.features = 16;
    spec.dataset.classes = 10;
    spec.dataset.bits = 12;
    spec.dataset.train = 4096;
    spec.dataset.holdout = 4096;
    spec.dataset.seed = 4417;
    spec.depth = 12;
    spec.search.generations = 1;
    spec.search.population = 256;
    spec.search.seed = 4418;

    metrics::Counter &scored = metrics::counter("ml.candidates_scored");
    const std::uint64_t before = scored.value();
    const Reply reply =
        parseReply(client.call(classifyRequest("c", spec, 5)));
    EXPECT_FALSE(reply.ok) << reply.raw;
    EXPECT_EQ(reply.error, errc::deadlineExceeded);
    EXPECT_LT(scored.value() - before, 257u);
}

TEST(ServiceServer, DrainAnswersALongYieldInFlight)
{
    // Drain finishes admitted requests: a yield in flight when
    // shutdown begins is answered ok, and wait() returns.
    Server server;
    server.start();
    metrics::Distribution &dequeued =
        metrics::distribution("service.queue_wait_ms");
    const std::uint64_t before = dequeued.summary().count;
    Client client("127.0.0.1", server.port());
    client.send(yieldRequest("long", CoreConfig::standard(1, 8, 2),
                             20000, 78, 8));
    while (dequeued.summary().count == before)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.beginShutdown();
    const Reply reply = parseReply(client.readLine(60000));
    EXPECT_TRUE(reply.ok) << reply.raw;
    server.wait();
}

// ---------------------------------------------------------------
// Connection lifetime
// ---------------------------------------------------------------

/** Descriptors this process holds open. */
std::size_t
openFds()
{
    using std::filesystem::directory_iterator;
    return std::size_t(std::distance(directory_iterator("/proc/self/fd"),
                                     directory_iterator()));
}

/** Connect socket `fd` to loopback `port` (0 on success). */
int
rawConnect(int fd, std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr));
}

/**
 * What `fd` receives until the server closes it (`closed` true) or
 * `timeoutMs` pass without a byte (`closed` false).
 */
std::string
readUntilClosed(int fd, double timeoutMs, bool &closed)
{
    std::string got;
    char buf[4096];
    closed = false;
    while (netio::waitReadable(fd, timeoutMs)) {
        const ssize_t n = netio::recvSome(fd, buf, sizeof(buf));
        if (n <= 0) {
            closed = true;
            break;
        }
        got.append(buf, std::size_t(n));
    }
    return got;
}

TEST(ServiceServer, ClosedConnectionsReleaseTheirDescriptors)
{
    // A connection's socket closes once its client has hung up and
    // its reader returned, so a long-lived server holds only its
    // live connections.
    Server server;
    server.start();
    const auto cycle = [&] {
        Client client("127.0.0.1", server.port());
        ASSERT_TRUE(parseReply(client.call(
                        adminRequest("h", RequestType::Health)))
                        .ok);
    };
    cycle();
    const std::size_t start = openFds();
    for (int i = 0; i < 300; ++i)
        cycle();
    // The last readers may still be returning.
    std::size_t now = openFds();
    for (int wait = 0; now > start + 4 && wait < 500; ++wait) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        now = openFds();
    }
    EXPECT_LE(now, start + 4);
}

TEST(ServiceServer, OverlongLineIsAnsweredThenClosed)
{
    Server server;
    server.start();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(rawConnect(fd, server.port()), 0);

    // One byte past the limit and no newline: the server reads all
    // of it, answers, and closes the connection.
    const std::string line(kMaxRequestBytes + 1, 'x');
    ASSERT_TRUE(netio::sendAll(fd, line.data(), line.size()));
    bool closed = false;
    EXPECT_EQ(readUntilClosed(fd, 10000, closed),
              errorReply("", errc::parseError, "request line too long") +
                  "\n");
    EXPECT_TRUE(closed);
    ::close(fd);
}

TEST(ServiceServer, AcceptRetriesWhileTheProcessIsOutOfDescriptors)
{
    Server server;
    server.start();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);

    // Hold the process at its descriptor limit: the kernel completes
    // the handshake, but the server's accept fails with EMFILE.
    rlimit old{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old), 0);
    rlimit low = old;
    low.rlim_cur = std::min<rlim_t>(old.rlim_cur, openFds() + 16);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
    std::vector<int> filler;
    for (int dup; filler.size() < 1024 && (dup = ::dup(fd)) >= 0;)
        filler.push_back(dup);
    const int fillErrno = errno;
    const int connected = rawConnect(fd, server.port());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (const int dup : filler)
        ::close(dup);
    ::setrlimit(RLIMIT_NOFILE, &old);
    ASSERT_EQ(fillErrno, EMFILE);
    ASSERT_EQ(connected, 0);

    // Once descriptors are free again, the connection is served.
    const std::string health =
        adminRequest("h", RequestType::Health) + "\n";
    ASSERT_TRUE(netio::sendAll(fd, health.data(), health.size()));
    ::shutdown(fd, SHUT_WR);
    bool closed = false;
    const std::string reply = readUntilClosed(fd, 10000, closed);
    ::close(fd);
    ASSERT_FALSE(reply.empty());
    EXPECT_TRUE(parseReply(reply.substr(0, reply.size() - 1)).ok)
        << reply;
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

// ---------------------------------------------------------------
// EINTR / partial-I/O regression (the signal-storm test)
// ---------------------------------------------------------------

void
noopHandler(int)
{
}

TEST(ServiceChaos, SocketLoopsSurviveSignalStorm)
{
    // Install a SIGUSR1 handler *without* SA_RESTART, so every
    // blocking send/recv/poll in the storm thread is interrupted
    // with EINTR instead of transparently restarted — the exact
    // condition the netio helpers must absorb.
    struct sigaction sa{};
    struct sigaction old{};
    sa.sa_handler = noopHandler;
    ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

    Server server;
    server.start();

    const std::vector<std::string> requests = mixedRequests();
    const std::map<std::string, std::string> ref =
        serialReplies(server.port(), requests);

    std::atomic<bool> done{false};
    std::string failure;
    std::thread storm([&] {
        try {
            Client client("127.0.0.1", server.port());
            for (unsigned round = 0; round < 8; ++round) {
                for (const std::string &req : requests) {
                    const std::string raw = client.call(req);
                    const Reply parsed = parseReply(raw);
                    if (raw != ref.at(parsed.id)) {
                        failure = "mismatched reply: " + raw;
                        break;
                    }
                }
            }
        } catch (const std::exception &e) {
            failure = e.what();
        }
        done.store(true);
    });

    // Pepper the client thread with signals while it works.
    while (!done.load()) {
        pthread_kill(storm.native_handle(), SIGUSR1);
        std::this_thread::sleep_for(
            std::chrono::microseconds(200));
    }
    storm.join();
    sigaction(SIGUSR1, &old, nullptr);
    EXPECT_TRUE(failure.empty()) << failure;
}

} // namespace
