/**
 * @file
 * Load generator and acceptance harness for printedd.
 *
 * Runs a fixed phase sequence against a server (an in-process one
 * by default, or an already-running daemon via --connect):
 *
 *   cold    8 distinct synth requests (first-touch synthesis)
 *   hot     the same synth request repeated --hot-iters times:
 *           SynthCache hits, per-request latency percentiles
 *   probes  malformed line -> parse_error, tiny deadline ->
 *           deadline_exceeded (error paths stay cheap)
 *   reject  a pipelined burst of distinct yield requests
 *           overflowing the admission queue -> queue_full replies,
 *           every request still answered exactly once
 *   determinism  a fixed request set, serial vs. --clients
 *           concurrent pipelined connections: replies must be
 *           byte-identical (matched by id)
 *
 * The cache check is structural, read from the server's counters:
 * against a fresh server the cold phase builds exactly one core per
 * request (synth.cores_built), and the hot phase builds none, is
 * served from the characterization cache (synth.cache.char_hits
 * moves by at least --hot-iters) and answers every request with the
 * first hot reply's bytes. The hot/cold speedup is reported but not
 * gated.
 *
 * Exit status: 1 when the cache check fails or any concurrent reply
 * differs from the serial one; 0 otherwise.
 *
 * Options: --connect HOST:PORT, --clients N, --hot-iters N,
 * --executors N, --max-queue N, --cache-cap N, --shutdown-after,
 * --json PATH, --trace-out PATH.
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "analysis/variation.hh"
#include "bench_util.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"

using namespace printed;
using namespace printed::service;

namespace
{

/** A named service counter out of a metrics reply, or 0. */
std::uint64_t
serverCounter(const std::string &host, std::uint16_t port,
              const std::string &name)
{
    Client client(host, port);
    const json::Value root = json::parse(
        client.call(adminRequest("metrics", RequestType::Metrics)));
    const json::Value *result = root.find("result");
    if (!result)
        return 0;
    const json::Value *counters = result->find("counters");
    if (!counters)
        return 0;
    const json::Value *c = counters->find(name);
    return c ? std::uint64_t(c->number) : 0;
}

std::string
valueOfArg(int argc, char **argv, const std::string &flag)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (argv[i] == "--" + flag)
            return argv[i + 1];
    return "";
}

bool
hasFlag(int argc, char **argv, const std::string &flag)
{
    for (int i = 1; i < argc; ++i)
        if (argv[i] == "--" + flag)
            return true;
    return false;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::initObservability(argc, argv);
    const std::string jsonPath = bench::jsonPathFromArgs(argc, argv);
    const unsigned clients =
        bench::uintFromArgs<unsigned>(argc, argv, "clients", 4);
    const unsigned hotIters =
        bench::uintFromArgs<unsigned>(argc, argv, "hot-iters", 200);
    fatalIf(hotIters == 0, "--hot-iters needs at least one request");
    const std::string connect = valueOfArg(argc, argv, "connect");
    const bool shutdownAfter =
        hasFlag(argc, argv, "shutdown-after");

    bench::banner("printedd load",
                  "service throughput, latency, and admission "
                  "control");

    // ---- Server (in-process unless --connect) ------------------
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::optional<Server> server;
    if (connect.empty()) {
        ServerOptions opts;
        opts.executors =
            bench::uintFromArgs<unsigned>(argc, argv, "executors", 4);
        opts.maxQueue =
            bench::uintFromArgs<std::size_t>(argc, argv, "max-queue", 64);
        opts.cacheCapacity = bench::uintFromArgs<std::size_t>(
            argc, argv, "cache-cap", 256);
        server.emplace(opts);
        server->start();
        port = server->port();
        std::cout << "in-process server on port " << port << "\n";
    } else {
        const std::size_t colon = connect.rfind(':');
        fatalIf(colon == std::string::npos,
                "--connect expects HOST:PORT");
        host = connect.substr(0, colon);
        port = std::uint16_t(
            std::stoul(connect.substr(colon + 1)));
        std::cout << "connecting to " << host << ":" << port
                  << "\n";
    }

    bench::JsonReport jr("bench_service");
    const bench::WallTimer total;
    Client client(host, port);
    bool pass = true;

    // ---- Phase 1: cold synth -----------------------------------
    // 8 distinct configurations, none synthesized before (in a
    // fresh server process): each request pays a full synthesis +
    // characterization.
    std::vector<CoreConfig> coldConfigs;
    for (unsigned stages : {1u, 2u, 3u})
        for (unsigned width : {4u, 8u})
            coldConfigs.push_back(
                CoreConfig::standard(stages, width, 2));
    coldConfigs.push_back(CoreConfig::standard(1, 16, 2));
    coldConfigs.push_back(CoreConfig::standard(2, 16, 2));

    const auto coresBuilt = [&] {
        return serverCounter(host, port, "synth.cores_built");
    };
    const std::uint64_t builtBeforeCold = coresBuilt();
    const bench::WallTimer coldTimer;
    for (std::size_t i = 0; i < coldConfigs.size(); ++i) {
        const Reply r = parseReply(client.call(synthRequest(
            "cold" + std::to_string(i), coldConfigs[i])));
        if (!r.ok)
            fatal("cold synth failed: " + r.raw);
    }
    const double coldMs = coldTimer.elapsedMs();
    const double coldPerS =
        double(coldConfigs.size()) / (coldMs / 1000.0);
    const std::uint64_t builtBeforeHot = coresBuilt();
    std::cout << "cold: " << coldConfigs.size() << " requests in "
              << TableWriter::fixed(coldMs, 1) << " ms ("
              << TableWriter::fixed(coldPerS, 1) << "/s), "
              << builtBeforeHot - builtBeforeCold << " cores built\n";

    // ---- Phase 2: hot synth ------------------------------------
    // The same request repeated: served from the SynthCache, so
    // per-request cost is protocol + lookup only.
    const std::string hotReq =
        synthRequest("hot", coldConfigs.front());
    std::vector<double> hotLatMs;
    hotLatMs.reserve(hotIters);
    std::string firstHot;
    bool hotIdentical = true;
    const std::uint64_t charHitsBefore =
        serverCounter(host, port, "synth.cache.char_hits");
    const bench::WallTimer hotTimer;
    for (unsigned i = 0; i < hotIters; ++i) {
        const bench::WallTimer one;
        std::string raw = client.call(hotReq);
        hotLatMs.push_back(one.elapsedMs());
        const Reply r = parseReply(raw);
        if (!r.ok)
            fatal("hot synth failed: " + r.raw);
        if (i == 0)
            firstHot = std::move(raw);
        else
            hotIdentical = hotIdentical && raw == firstHot;
    }
    const double hotMs = hotTimer.elapsedMs();
    const std::uint64_t hotBuilt = coresBuilt() - builtBeforeHot;
    const std::uint64_t hotCharHits =
        serverCounter(host, port, "synth.cache.char_hits") -
        charHitsBefore;
    const double hotPerS = double(hotIters) / (hotMs / 1000.0);
    const double speedup =
        (coldMs / double(coldConfigs.size())) /
        (hotMs / double(hotIters));
    // The repo's one percentile rule (analysis/variation.hh).
    std::sort(hotLatMs.begin(), hotLatMs.end());
    const double p50 = percentile(hotLatMs, 0.50);
    const double p95 = percentile(hotLatMs, 0.95);
    const double p99 = percentile(hotLatMs, 0.99);
    std::cout << "hot:  " << hotIters << " requests in "
              << TableWriter::fixed(hotMs, 1) << " ms ("
              << TableWriter::fixed(hotPerS, 1) << "/s, "
              << TableWriter::fixed(speedup, 1)
              << "x vs cold); latency p50 "
              << TableWriter::fixed(p50, 3) << " p95 "
              << TableWriter::fixed(p95, 3) << " p99 "
              << TableWriter::fixed(p99, 3) << " ms; " << hotBuilt
              << " cores built, " << hotCharHits
              << " characterization hits, replies "
              << (hotIdentical ? "byte-identical" : "DIFFER") << "\n";
    if (builtBeforeHot - builtBeforeCold != coldConfigs.size()) {
        std::cout << "FAIL: the cold phase built "
                  << builtBeforeHot - builtBeforeCold << " cores, want "
                  << coldConfigs.size() << "\n";
        pass = false;
    }
    if (hotBuilt != 0 || hotCharHits < hotIters || !hotIdentical) {
        std::cout << "FAIL: the hot phase missed the synthesis cache\n";
        pass = false;
    }

    // ---- Phase 3: error-path probes ----------------------------
    const Reply malformed =
        parseReply(client.call("{not json at all"));
    const bool malformedOk =
        !malformed.ok && malformed.error == errc::parseError;
    const Reply expired = parseReply(client.call(synthRequest(
        "exp", CoreConfig::standard(3, 32, 4), 1e-4)));
    const bool deadlineOk =
        !expired.ok && expired.error == errc::deadlineExceeded;
    std::cout << "probes: malformed -> "
              << (malformed.ok ? "OK?!" : malformed.error)
              << ", expired deadline -> "
              << (expired.ok ? "OK?!" : expired.error) << "\n";
    if (!malformedOk || !deadlineOk)
        pass = false;

    // ---- Phase 4: rejection burst ------------------------------
    // Pipeline far more distinct requests than the queue holds; the
    // overflow is answered queue_full immediately, and every
    // request gets exactly one reply.
    const unsigned burstN = 160;
    unsigned rejected = 0, accepted = 0;
    {
        Client pipelined(host, port);
        for (unsigned i = 0; i < burstN; ++i)
            pipelined.send(yieldRequest(
                "rej" + std::to_string(i), coldConfigs.front(),
                20, 90000 + i));
        for (unsigned i = 0; i < burstN; ++i) {
            const Reply r = parseReply(pipelined.readLine());
            if (r.ok)
                ++accepted;
            else if (r.error == errc::queueFull)
                ++rejected;
            else
                fatal("unexpected burst reply: " + r.raw);
        }
        std::cout << "reject: " << burstN << " pipelined -> "
                  << accepted << " served, " << rejected
                  << " rejected (queue_full), 0 dropped\n";
    }

    // ---- Phase 5: determinism ----------------------------------
    // The serving determinism rule, end to end: serial replies are
    // the reference; concurrent pipelined clients must produce the
    // same bytes for the same ids.
    std::vector<std::string> detReqs;
    for (unsigned width : {4u, 8u, 16u})
        detReqs.push_back(
            synthRequest("d" + std::to_string(width),
                         CoreConfig::standard(1, width, 2)));
    detReqs.push_back(
        yieldRequest("dy", coldConfigs.front(), 64, 7));
    SweepSpec spec;
    spec.stages = {1, 2};
    spec.widths = {4, 8};
    spec.bars = {2};
    detReqs.push_back(sweepRequest("dw", spec));

    std::map<std::string, std::string> serial;
    for (const std::string &req : detReqs) {
        const std::string raw = client.call(req);
        serial[parseReply(raw).id] = raw;
    }
    bool identical = true;
    {
        std::vector<std::thread> threads;
        std::vector<bool> same(clients, true);
        for (unsigned c = 0; c < clients; ++c)
            threads.emplace_back([&, c] {
                Client det(host, port);
                for (const std::string &req : detReqs)
                    det.send(req);
                for (std::size_t i = 0; i < detReqs.size(); ++i) {
                    const std::string raw = det.readLine();
                    if (serial.at(parseReply(raw).id) != raw)
                        same[c] = false;
                }
            });
        for (std::thread &t : threads)
            t.join();
        for (unsigned c = 0; c < clients; ++c)
            identical = identical && same[c];
    }
    std::cout << "determinism: " << clients
              << " concurrent clients, replies "
              << (identical ? "byte-identical to serial"
                            : "DIFFER from serial")
              << "\n";
    if (!identical)
        pass = false;

    // ---- Teardown + report -------------------------------------
    const std::uint64_t servedTotal =
        serverCounter(host, port, "service.requests");
    const std::uint64_t rejectedTotal =
        serverCounter(host, port, "service.rejected");
    const std::uint64_t deadlineTotal =
        serverCounter(host, port, "service.deadline_exceeded");

    if (connect.empty() || shutdownAfter) {
        const Reply r = parseReply(client.call(
            adminRequest("bye", RequestType::Shutdown)));
        if (!r.ok)
            fatal("shutdown refused: " + r.raw);
    }
    client.close();
    if (server) {
        server->wait();
        server.reset();
    }
    const double totalMs = total.elapsedMs();

    std::cout << "\nserver totals: " << servedTotal
              << " requests, " << rejectedTotal << " rejected, "
              << deadlineTotal << " deadline-expired; "
              << (pass ? "PASS" : "FAIL") << " in "
              << TableWriter::fixed(totalMs, 0) << " ms\n";

    if (!jsonPath.empty()) {
        jr.meta("clients", clients);
        jr.meta("hot_iters", hotIters);
        jr.meta("wall_ms", totalMs);
        jr.meta("cold_synth_per_s", coldPerS);
        jr.meta("hot_synth_per_s", hotPerS);
        jr.meta("hot_speedup_x", speedup);
        jr.meta("hot_p50_ms", p50);
        jr.meta("hot_p95_ms", p95);
        jr.meta("hot_p99_ms", p99);
        jr.meta("burst_requests", burstN);
        jr.meta("burst_served", accepted);
        jr.meta("burst_rejected", rejected);
        jr.meta("malformed_rejected", malformedOk);
        jr.meta("deadline_rejected", deadlineOk);
        jr.meta("concurrent_replies_identical", identical);
        jr.meta("server_requests_total", servedTotal);
        jr.meta("server_rejected_total", rejectedTotal);
        jr.meta("server_deadline_exceeded_total", deadlineTotal);
        jr.writeTo(jsonPath);
    }
    return pass ? 0 : 1;
}
