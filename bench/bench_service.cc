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
 *   coalesce  one fresh expensive yield request issued from
 *           --clients connections at once (in-flight dedup)
 *   probes  malformed line -> parse_error, tiny deadline ->
 *           deadline_exceeded (error paths stay cheap)
 *   reject  a pipelined burst of distinct yield requests
 *           overflowing the admission queue -> queue_full replies,
 *           every request still answered exactly once
 *   determinism  a fixed request set, serial vs. --clients
 *           concurrent pipelined connections: replies must be
 *           byte-identical (matched by id)
 *
 * With --retry every phase goes through RetryingClient instead of
 * the raw pipelined Client, which makes the harness usable against
 * a fault-injecting server (printedd --fault-plan ...): dropped and
 * truncated replies are replayed, queue_full is backed off and
 * retried to completion, and the pass criterion becomes "every call
 * returned exactly one byte-correct reply despite the chaos". The
 * hot/cold speedup gate is skipped in retry mode (injected faults
 * distort timing), and the JSON report gains retry/fault/disk-cache
 * counters.
 *
 * Exit status: 1 when the hot/cold speedup falls below 5x (non-retry
 * mode) or any concurrent reply differs from the serial one; 0
 * otherwise.
 *
 * Options: --connect HOST:PORT, --retry, --no-speedup-gate (for
 * servers whose cold phase is pre-warmed, e.g. a disk-cache warm
 * restart), --clients N, --hot-iters N, --executors N, --max-queue
 * N, --cache-cap N, --fault-plan SPEC, --disk-cache DIR (in-process
 * server only), --shutdown-after, --json PATH, --trace-out PATH.
 *
 * With --shards N the harness instead drives a sharded fleet
 * through printed-balancer (see runShardedBench below): a
 * single-shard baseline vs. an N-shard fleet on a key-affine mixed
 * workload (QPS scaling gate, byte-identical replies across
 * fleets), per-shard coalescing through the balancer, a streamed
 * sweep whose first partial must land well before the monolithic
 * reply would, per-shard admission/shed counters in the JSON
 * report, and a fleet warm-restart that must heal from the shared
 * disk cache. --connect HOST:PORT attaches to an already-running
 * balancer (CI smoke) instead of spawning; spawn-only phases and
 * the QPS comparison are skipped there.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "service/balancer.hh"
#include "service/client.hh"
#include "service/fault_plan.hh"
#include "service/protocol.hh"
#include "service/server.hh"

using namespace printed;
using namespace printed::service;

namespace
{

/** Percentile of a sample vector (sorted in place). */
double
percentile(std::vector<double> &samples, double p)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const std::size_t idx = std::size_t(
        p * double(samples.size() - 1) + 0.5);
    return samples[std::min(idx, samples.size() - 1)];
}

/**
 * A named service counter out of a metrics reply, or 0. Uses a
 * fresh connection each time: metrics replies are never
 * fault-injected, but a shared compute connection may already have
 * been chaos-killed.
 */
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

/** Fold one client's retry counters into the run-wide totals. */
void
foldStats(RetryStats &into, const RetryStats &from)
{
    into.calls += from.calls;
    into.reconnects += from.reconnects;
    into.lossReplays += from.lossReplays;
    into.timeoutReplays += from.timeoutReplays;
    into.overloadReplays += from.overloadReplays;
}

/** The retry policy the harness uses (patient, fast backoff). */
RetryPolicy
harnessPolicy()
{
    RetryPolicy policy;
    policy.maxLossRetries = 50;
    policy.maxOverloadRetries = 2000;
    policy.callTimeoutMs = 60000;
    policy.baseBackoffMs = 1;
    policy.maxBackoffMs = 50;
    policy.jitterSeed = 99;
    return policy;
}

// ----------------------------------------------------------------
// Sharded mode (--shards N): drive a printed-balancer fleet
// ----------------------------------------------------------------

/** Summed + per-shard counters out of a balancer metrics reply. */
struct MergedMetrics
{
    std::map<std::string, double> counters;  ///< fleet-wide sums
    std::map<std::string, double> balancer;  ///< balancer's own
    std::vector<std::map<std::string, double>> shards;
    std::vector<bool> down;
};

MergedMetrics
fetchMergedMetrics(const std::string &host, std::uint16_t port)
{
    Client client(host, port);
    const json::Value root = json::parse(
        client.call(adminRequest("metrics", RequestType::Metrics)));
    const json::Value *result = root.find("result");
    fatalIf(!result, "metrics reply without result");

    MergedMetrics out;
    const auto intoMap = [](const json::Value *obj,
                            std::map<std::string, double> &map) {
        if (!obj || !obj->isObject())
            return;
        for (const auto &[name, value] : obj->object)
            if (value.isNumber())
                map[name] = value.number;
    };
    intoMap(result->find("counters"), out.counters);
    intoMap(result->find("balancer"), out.balancer);
    if (const json::Value *shards = result->find("shards");
        shards && shards->isArray())
        for (const json::Value &shard : shards->array) {
            out.shards.emplace_back();
            out.down.push_back(shard.find("down") != nullptr);
            intoMap(shard.find("counters"), out.shards.back());
        }
    return out;
}

/**
 * The key-affine mixed workload: 16 distinct synth requests
 * (opcode-mask variants of one shape). With --cache-cap 8 a single
 * worker LRU-thrashes over them (every steady-state request pays a
 * fresh synthesis) while an N-shard fleet holds each shard's ~16/N
 * keys hot — which is exactly the scaling the balancer's key
 * affinity is supposed to buy, CPU cores or not.
 */
std::vector<std::string>
mixedRequests()
{
    std::vector<std::string> reqs;
    for (unsigned i = 0; i < 16; ++i) {
        CoreConfig c = CoreConfig::standard(1, 16, 2);
        c.opcodeMask = 0x3FF - i;
        reqs.push_back(synthRequest("m" + std::to_string(i), c));
    }
    return reqs;
}

/**
 * One serial pass over the mixed set. Fills `ref` (id -> reply
 * bytes) on first use; on later fleets it checks every reply
 * byte-identical against it. Returns false on any mismatch.
 */
bool
mixedPass(const std::string &host, std::uint16_t port,
          std::map<std::string, std::string> &ref)
{
    RetryingClient client(host, port, harnessPolicy());
    bool identical = true;
    for (const std::string &req : mixedRequests()) {
        const std::string raw = client.call(req);
        const Reply r = parseReply(raw);
        if (!r.ok)
            fatal("mixed request failed: " + raw);
        const auto [it, fresh] = ref.try_emplace(r.id, raw);
        if (!fresh && it->second != raw)
            identical = false;
    }
    return identical;
}

struct MixedResult
{
    double qps = 0;
    bool identical = true;         ///< every reply matched ref
    std::vector<double> latMs;     ///< per-call latencies
};

/** Timed mixed load: `threads` x `rounds` over the 16 keys. */
MixedResult
mixedLoad(const std::string &host, std::uint16_t port,
          unsigned threads, unsigned rounds,
          const std::map<std::string, std::string> &ref)
{
    const std::vector<std::string> reqs = mixedRequests();
    std::vector<std::vector<double>> lat(threads);
    std::atomic<bool> identical{true};
    const bench::WallTimer timer;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            RetryingClient client(host, port, harnessPolicy());
            for (unsigned r = 0; r < rounds; ++r)
                for (const std::string &req : reqs) {
                    const bench::WallTimer one;
                    const std::string raw = client.call(req);
                    lat[t].push_back(one.elapsedMs());
                    if (ref.at(parseReply(raw).id) != raw)
                        identical.store(false);
                }
        });
    for (std::thread &t : pool)
        t.join();

    MixedResult out;
    const double seconds = timer.elapsedMs() / 1000.0;
    out.qps = seconds > 0
                  ? double(threads * rounds * reqs.size()) / seconds
                  : 0;
    out.identical = identical.load();
    for (auto &v : lat)
        out.latMs.insert(out.latMs.end(), v.begin(), v.end());
    return out;
}

/** Spawn-mode fleet options (small cache so affinity matters). */
BalancerOptions
fleetOptions(unsigned shards, const std::string &printedd,
             std::uint64_t cacheCap, const std::string &diskDir)
{
    BalancerOptions o;
    o.spawnWorkers = shards;
    o.printeddPath = printedd;
    o.workerArgs = {"--cache-cap", std::to_string(cacheCap)};
    if (!diskDir.empty()) {
        o.workerArgs.push_back("--disk-cache");
        o.workerArgs.push_back(diskDir);
    }
    return o;
}

int
runShardedBench(int argc, char **argv, unsigned shards)
{
    const std::string jsonPath = bench::jsonPathFromArgs(argc, argv);
    const unsigned clients = unsigned(
        bench::uintFromArgs(argc, argv, "clients", 4));
    const unsigned threads = unsigned(
        bench::uintFromArgs(argc, argv, "shard-threads", 2));
    const unsigned rounds = unsigned(
        bench::uintFromArgs(argc, argv, "shard-rounds", 2));
    const std::uint64_t cacheCap =
        bench::uintFromArgs(argc, argv, "cache-cap", 8);
    const std::string connect = valueOfArg(argc, argv, "connect");
    const bool shutdownAfter =
        hasFlag(argc, argv, "shutdown-after");
    double qpsGate = 3.0;
    if (const std::string g = valueOfArg(argc, argv, "qps-gate");
        !g.empty())
        qpsGate = std::stod(g);
    // The baseline-vs-fleet comparison needs both fleets spawned
    // here; attached mode (CI smoke) has no baseline to gate on.
    const bool gateQps =
        connect.empty() && !hasFlag(argc, argv, "no-qps-gate");

    bench::banner("printed-balancer load",
                  "sharded serving: QPS scaling, key affinity, "
                  "streamed sweeps, per-shard admission");

    std::string printedd = valueOfArg(argc, argv, "printedd");
    if (connect.empty() && printedd.empty()) {
        // Sibling build layout: build/bench/bench_service next to
        // build/src/service/printedd.
        const std::string self = argv[0];
        const std::size_t slash = self.rfind('/');
        const std::string dir =
            slash == std::string::npos ? "." : self.substr(0, slash);
        printedd = dir + "/../src/service/printedd";
        if (!std::filesystem::exists(printedd))
            fatal("cannot find printedd at " + printedd +
                  " (give --printedd PATH)");
    }

    bench::JsonReport jr("bench_service");
    const bench::WallTimer total;
    bool pass = true;
    std::map<std::string, std::string> ref; // id -> reply bytes

    // ---- Phase S1: single-shard baseline (spawn mode) ----------
    double qps1 = 0;
    if (connect.empty()) {
        Balancer one(fleetOptions(1, printedd, cacheCap, ""));
        one.start();
        std::cout << "baseline: fleet of 1 on port " << one.port()
                  << "\n";
        mixedPass("127.0.0.1", one.port(), ref); // warm + reference
        const MixedResult r1 = mixedLoad("127.0.0.1", one.port(),
                                         threads, rounds, ref);
        qps1 = r1.qps;
        if (!r1.identical) {
            std::cout << "FAIL: single-shard replies differ from "
                         "reference\n";
            pass = false;
        }
        std::cout << "baseline: "
                  << TableWriter::fixed(qps1, 1) << " QPS (cache "
                  << cacheCap << " < 16 keys: every request "
                     "re-synthesizes)\n";
        // fleet drains + reaps at scope exit
    }

    // ---- The N-shard fleet (spawned or attached) ---------------
    std::optional<Balancer> fleet;
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    if (connect.empty()) {
        fleet.emplace(fleetOptions(shards, printedd, cacheCap, ""));
        fleet->start();
        port = fleet->port();
        std::cout << "fleet: " << shards << " shards on port "
                  << port << "\n";
    } else {
        const std::size_t colon = connect.rfind(':');
        fatalIf(colon == std::string::npos,
                "--connect expects HOST:PORT");
        host = connect.substr(0, colon);
        port = std::uint16_t(
            std::stoul(connect.substr(colon + 1)));
        std::cout << "attached to balancer at " << host << ":"
                  << port << "\n";

        // The balancer must actually front `shards` live workers.
        Client probe(host, port);
        const json::Value health = json::parse(probe.call(
            adminRequest("health", RequestType::Health)));
        const json::Value *result = health.find("result");
        const json::Value *up =
            result ? result->find("shards_up") : nullptr;
        const unsigned shardsUp =
            up && up->isNumber() ? unsigned(up->number) : 0;
        std::cout << "health: " << shardsUp << " shards up\n";
        if (shardsUp != shards) {
            std::cout << "FAIL: expected " << shards
                      << " shards up, found " << shardsUp << "\n";
            pass = false;
        }
    }

    // ---- Phase S2: mixed load, byte-compared across fleets -----
    const bool crossIdentical = mixedPass(host, port, ref);
    MixedResult rn = mixedLoad(host, port, threads, rounds, ref);
    const double scaling = qps1 > 0 ? rn.qps / qps1 : 0;
    const double mp50 = percentile(rn.latMs, 0.50);
    const double mp95 = percentile(rn.latMs, 0.95);
    const double mp99 = percentile(rn.latMs, 0.99);
    std::cout << "mixed: " << TableWriter::fixed(rn.qps, 1)
              << " QPS";
    if (qps1 > 0)
        std::cout << " (" << TableWriter::fixed(scaling, 2)
                  << "x vs single shard)";
    std::cout << "; latency p50 " << TableWriter::fixed(mp50, 3)
              << " p95 " << TableWriter::fixed(mp95, 3) << " p99 "
              << TableWriter::fixed(mp99, 3) << " ms\n";
    if (!crossIdentical || !rn.identical) {
        std::cout << "FAIL: sharded replies not byte-identical to "
                     "the single-shard reference\n";
        pass = false;
    }
    if (gateQps && scaling < qpsGate) {
        std::cout << "FAIL: QPS scaling "
                  << TableWriter::fixed(scaling, 2) << "x < "
                  << TableWriter::fixed(qpsGate, 1) << "x\n";
        pass = false;
    }

    // ---- Phase S3: coalescing still fires, per shard -----------
    // One fresh expensive yield from every client at once; the
    // balancer's key affinity sends all of them to one shard whose
    // coalescer dedups them — no shared memory required.
    const double coalesceBefore = fetchMergedMetrics(host, port)
                                      .counters["service.coalesce_hits"];
    {
        const std::string burstReq = yieldRequest(
            "cb", CoreConfig::standard(1, 4, 2), 600, 424242);
        std::vector<std::string> replies(clients);
        std::vector<std::thread> pool;
        for (unsigned c = 0; c < clients; ++c)
            pool.emplace_back([&, c] {
                RetryingClient burst(host, port, harnessPolicy());
                replies[c] = burst.call(burstReq);
            });
        for (std::thread &t : pool)
            t.join();
        for (unsigned c = 0; c < clients; ++c) {
            if (!parseReply(replies[c]).ok)
                fatal("coalesce burst failed: " + replies[c]);
            if (replies[c] != replies[0]) {
                std::cout << "FAIL: coalesced replies differ\n";
                pass = false;
            }
        }
    }
    const double coalesceDelta =
        fetchMergedMetrics(host, port)
            .counters["service.coalesce_hits"] -
        coalesceBefore;
    std::cout << "coalesce: " << clients
              << " identical in-flight requests -> "
              << std::uint64_t(coalesceDelta)
              << " coalesce hits on the owning shard\n";
    if (clients >= 2 && coalesceDelta < 1) {
        std::cout << "FAIL: no coalescing through the balancer\n";
        pass = false;
    }

    // ---- Phase S4: streamed sweep through the balancer ---------
    // 18 fresh points; the first partial must arrive long before
    // the sweep finishes (the whole point of streaming), and the
    // assembled bytes must equal the monolithic reply.
    SweepSpec spec;
    spec.stages = {1, 2, 3};
    spec.widths = {4, 8, 16};
    spec.bars = {2, 4};
    RetryingClient streamer(host, port, harnessPolicy());
    const bench::WallTimer streamTimer;
    double firstPartialMs = -1;
    const StreamResult sr = streamer.streamSweep(
        "sw", spec,
        [&](std::uint64_t, std::uint64_t, const std::string &) {
            if (firstPartialMs < 0)
                firstPartialMs = streamTimer.elapsedMs();
        });
    const double streamMs = streamTimer.elapsedMs();
    if (!sr.reply.ok)
        fatal("streamed sweep failed: " + sr.reply.raw);
    const std::string mono = streamer.call(sweepRequest("sw", spec));
    const bool assembledIdentical = sr.reply.raw == mono;
    const double firstFrac =
        sr.streamed && streamMs > 0 && firstPartialMs >= 0
            ? firstPartialMs / streamMs
            : 1.0;
    streamer.close();
    std::cout << "stream: " << sr.points.size()
              << " points in " << TableWriter::fixed(streamMs, 1)
              << " ms, first partial at "
              << TableWriter::fixed(100 * firstFrac, 1)
              << "% of wall-clock; assembled reply "
              << (assembledIdentical ? "== monolithic"
                                     : "DIFFERS from monolithic")
              << "\n";
    if (!sr.streamed) {
        std::cout << "FAIL: balancer did not stream (v2 expected)\n";
        pass = false;
    }
    if (!assembledIdentical)
        pass = false;
    // Gate the latency fraction only where the points are known
    // cold (spawn mode); an attached warm fleet streams so fast the
    // fraction is scheduler noise.
    if (connect.empty() && firstFrac > 0.25) {
        std::cout << "FAIL: first partial at "
                  << TableWriter::fixed(100 * firstFrac, 1)
                  << "% > 25% of wall-clock\n";
        pass = false;
    }

    // ---- Per-shard counters ------------------------------------
    const MergedMetrics mm = fetchMergedMetrics(host, port);
    for (std::size_t i = 0; i < mm.shards.size(); ++i) {
        const auto &c = mm.shards[i];
        const auto get = [&](const char *name) {
            const auto it = c.find(name);
            return it == c.end() ? 0.0 : it->second;
        };
        std::cout << "shard " << i << ": "
                  << std::uint64_t(get("service.requests"))
                  << " requests, "
                  << std::uint64_t(get("service.rejected"))
                  << " rejected, "
                  << std::uint64_t(get("service.shed_sweep"))
                  << "/"
                  << std::uint64_t(get("service.shed_yield"))
                  << " shed sweep/yield, "
                  << std::uint64_t(get("service.coalesce_hits"))
                  << " coalesce hits, "
                  << std::uint64_t(get("service.stream_partials"))
                  << " stream partials"
                  << (mm.down[i] ? " [DOWN]" : "") << "\n";
        jr.add("shards",
               {{"shard", std::uint64_t(i)},
                {"down", bool(mm.down[i])},
                {"requests",
                 std::uint64_t(get("service.requests"))},
                {"rejected",
                 std::uint64_t(get("service.rejected"))},
                {"shed_sweep",
                 std::uint64_t(get("service.shed_sweep"))},
                {"shed_yield",
                 std::uint64_t(get("service.shed_yield"))},
                {"coalesce_hits",
                 std::uint64_t(get("service.coalesce_hits"))},
                {"stream_partials",
                 std::uint64_t(get("service.stream_partials"))},
                {"replies_ok",
                 std::uint64_t(get("service.replies_ok"))}});
    }

    // ---- Phase S5: fleet warm restart heals from disk ----------
    // A disk-backed fleet synthesizes the mixed set once, is torn
    // down, and a fresh fleet on the same directory must serve the
    // same keys almost entirely from disk (>= 90% hit rate). Shard
    // assignments are identical across the two fleets (the ring is
    // deterministic), so every worker finds its own keys.
    double diskHitRate = -1;
    if (connect.empty()) {
        char tmpl[] = "/tmp/printed-bench-shards-XXXXXX";
        fatalIf(::mkdtemp(tmpl) == nullptr, "mkdtemp failed");
        const std::string diskDir = tmpl;
        {
            Balancer writer(
                fleetOptions(shards, printedd, cacheCap, diskDir));
            writer.start();
            std::map<std::string, std::string> pass1;
            mixedPass("127.0.0.1", writer.port(), pass1);
        }
        {
            Balancer reader(
                fleetOptions(shards, printedd, cacheCap, diskDir));
            reader.start();
            std::map<std::string, std::string> pass2;
            mixedPass("127.0.0.1", reader.port(), pass2);
            const MergedMetrics m2 =
                fetchMergedMetrics("127.0.0.1", reader.port());
            const auto sum = [&](const char *name) {
                const auto it = m2.counters.find(name);
                return it == m2.counters.end() ? 0.0 : it->second;
            };
            const double hits =
                sum("synth.disk_cache.netlist_hits") +
                sum("synth.disk_cache.char_hits");
            const double misses =
                sum("synth.disk_cache.netlist_misses") +
                sum("synth.disk_cache.char_misses");
            diskHitRate =
                hits + misses > 0 ? hits / (hits + misses) : 0;
        }
        std::filesystem::remove_all(diskDir);
        std::cout << "restart: fleet reboot on shared disk cache, "
                  << TableWriter::fixed(100 * diskHitRate, 1)
                  << "% hit rate\n";
        if (diskHitRate < 0.9) {
            std::cout << "FAIL: disk hit rate after restart < 90%\n";
            pass = false;
        }
    }

    // ---- Teardown + report -------------------------------------
    if (!connect.empty() && shutdownAfter) {
        Client bye(host, port);
        const Reply r = parseReply(
            bye.call(adminRequest("bye", RequestType::Shutdown)));
        if (!r.ok)
            fatal("shutdown refused: " + r.raw);
    }
    fleet.reset(); // spawn mode: drain + reap the fleet

    const double totalMs = total.elapsedMs();
    std::cout << "\nsharded: " << (pass ? "PASS" : "FAIL") << " in "
              << TableWriter::fixed(totalMs, 0) << " ms\n";

    if (!jsonPath.empty()) {
        const auto bal = [&](const char *name) {
            const auto it = mm.balancer.find(name);
            return it == mm.balancer.end()
                       ? std::uint64_t(0)
                       : std::uint64_t(it->second);
        };
        jr.meta("shards", shards);
        jr.meta("shard_threads", threads);
        jr.meta("shard_rounds", rounds);
        jr.meta("cache_cap", cacheCap);
        jr.meta("wall_ms", totalMs);
        jr.meta("single_shard_qps", qps1);
        jr.meta("mixed_qps", rn.qps);
        jr.meta("qps_scaling_x", scaling);
        jr.meta("mixed_p50_ms", mp50);
        jr.meta("mixed_p95_ms", mp95);
        jr.meta("mixed_p99_ms", mp99);
        jr.meta("mixed_replies_identical",
                crossIdentical && rn.identical);
        jr.meta("coalesce_hits", std::uint64_t(coalesceDelta));
        jr.meta("stream_points",
                std::uint64_t(sr.points.size()));
        jr.meta("stream_first_partial_frac", firstFrac);
        jr.meta("stream_assembled_identical", assembledIdentical);
        jr.meta("disk_hit_rate_after_restart", diskHitRate);
        jr.meta("balancer_routed", bal("routed"));
        jr.meta("balancer_fanouts", bal("fanouts"));
        jr.meta("balancer_partials_forwarded",
                bal("partials_forwarded"));
        jr.meta("balancer_failovers", bal("failovers"));
        jr.meta("balancer_unavailable", bal("unavailable"));
        jr.writeTo(jsonPath);
    }
    return pass ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::initObservability(argc, argv);
    if (const unsigned shards = unsigned(
            bench::uintFromArgs(argc, argv, "shards", 0));
        shards > 0) {
        // Catch here so a failure unwinds the Balancer scopes and
        // the spawned worker fleets are reaped, not orphaned.
        try {
            return runShardedBench(argc, argv, shards);
        } catch (const std::exception &e) {
            std::cerr << "bench_service: " << e.what() << "\n";
            return 1;
        }
    }
    const std::string jsonPath = bench::jsonPathFromArgs(argc, argv);
    const unsigned clients = unsigned(
        bench::uintFromArgs(argc, argv, "clients", 4));
    const unsigned hotIters = unsigned(
        bench::uintFromArgs(argc, argv, "hot-iters", 200));
    const std::string connect = valueOfArg(argc, argv, "connect");
    const bool shutdownAfter =
        hasFlag(argc, argv, "shutdown-after");
    const bool retry = hasFlag(argc, argv, "retry");
    // Injected faults distort timing, and a disk-cache warm restart
    // serves the "cold" phase at hot speed — both make the hot/cold
    // speedup gate meaningless.
    const bool speedupGate =
        !retry && !hasFlag(argc, argv, "no-speedup-gate");

    bench::banner("printedd load",
                  "service throughput, latency, coalescing, and "
                  "admission control");
    if (retry)
        std::cout << "retry mode: all calls via RetryingClient\n";

    // ---- Server (in-process unless --connect) ------------------
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::optional<Server> server;
    if (connect.empty()) {
        ServerOptions opts;
        opts.executors = unsigned(
            bench::uintFromArgs(argc, argv, "executors", 4));
        opts.maxQueue =
            bench::uintFromArgs(argc, argv, "max-queue", 64);
        opts.cacheCapacity =
            bench::uintFromArgs(argc, argv, "cache-cap", 256);
        opts.diskCacheDir = valueOfArg(argc, argv, "disk-cache");
        const std::string plan =
            valueOfArg(argc, argv, "fault-plan");
        if (!plan.empty())
            opts.faultPlan = FaultPlan::parse(plan);
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
    Client client; // raw pipelining path (non-retry mode)
    std::optional<RetryingClient> rclient;
    if (retry)
        rclient.emplace(host, port, harnessPolicy());
    else
        client.connect(host, port);
    RetryStats retryTotals;
    const auto call = [&](const std::string &line) {
        return retry ? rclient->call(line) : client.call(line);
    };
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

    const bench::WallTimer coldTimer;
    for (std::size_t i = 0; i < coldConfigs.size(); ++i) {
        const Reply r = parseReply(call(synthRequest(
            "cold" + std::to_string(i), coldConfigs[i])));
        if (!r.ok)
            fatal("cold synth failed: " + r.raw);
    }
    const double coldMs = coldTimer.elapsedMs();
    const double coldPerS =
        double(coldConfigs.size()) / (coldMs / 1000.0);
    std::cout << "cold: " << coldConfigs.size() << " requests in "
              << TableWriter::fixed(coldMs, 1) << " ms ("
              << TableWriter::fixed(coldPerS, 1) << "/s)\n";

    // ---- Phase 2: hot synth ------------------------------------
    // The same request repeated: served from the SynthCache, so
    // per-request cost is protocol + lookup only.
    const std::string hotReq =
        synthRequest("hot", coldConfigs.front());
    std::vector<double> hotLatMs;
    hotLatMs.reserve(hotIters);
    const bench::WallTimer hotTimer;
    for (unsigned i = 0; i < hotIters; ++i) {
        const bench::WallTimer one;
        const Reply r = parseReply(call(hotReq));
        hotLatMs.push_back(one.elapsedMs());
        if (!r.ok)
            fatal("hot synth failed: " + r.raw);
    }
    const double hotMs = hotTimer.elapsedMs();
    const double hotPerS = double(hotIters) / (hotMs / 1000.0);
    const double speedup =
        (coldMs / double(coldConfigs.size())) /
        (hotMs / double(hotIters));
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
              << TableWriter::fixed(p99, 3) << " ms\n";
    if (speedup < 5.0) {
        if (!speedupGate) {
            std::cout << "note: speedup gate skipped ("
                      << (retry ? "retry mode" : "--no-speedup-gate")
                      << ")\n";
        } else {
            std::cout << "FAIL: repeated-synth speedup "
                      << TableWriter::fixed(speedup, 2)
                      << "x < 5x\n";
            pass = false;
        }
    }

    // ---- Phase 3: coalesce burst -------------------------------
    // One fresh, expensive yield computation issued from every
    // client at once: duplicates dequeued while the leader runs
    // join its in-flight future instead of recomputing.
    const std::uint64_t coalesceBefore =
        serverCounter(host, port, "service.coalesce_hits");
    {
        const std::string burstReq = yieldRequest(
            "burst", coldConfigs.front(), 600, 424242);
        std::vector<std::string> replies(clients);
        std::vector<std::thread> threads;
        std::mutex statsMutex;
        for (unsigned c = 0; c < clients; ++c)
            threads.emplace_back([&, c] {
                if (retry) {
                    RetryingClient burst(host, port,
                                         harnessPolicy());
                    replies[c] = burst.call(burstReq);
                    const std::lock_guard<std::mutex> lock(
                        statsMutex);
                    foldStats(retryTotals, burst.stats());
                } else {
                    Client burst(host, port);
                    replies[c] = burst.call(burstReq);
                }
            });
        for (std::thread &t : threads)
            t.join();
        for (unsigned c = 0; c < clients; ++c) {
            if (!parseReply(replies[c]).ok)
                fatal("coalesce burst failed: " + replies[c]);
            if (replies[c] != replies[0]) {
                std::cout << "FAIL: coalesced replies differ\n";
                pass = false;
            }
        }
    }
    const std::uint64_t coalesceHits =
        serverCounter(host, port, "service.coalesce_hits") -
        coalesceBefore;
    std::cout << "coalesce: " << clients
              << " identical in-flight requests -> "
              << coalesceHits << " coalesce hits\n";

    // ---- Phase 4: error-path probes ----------------------------
    const Reply malformed =
        parseReply(call("{not json at all"));
    const bool malformedOk =
        !malformed.ok && malformed.error == errc::parseError;
    const Reply expired = parseReply(call(synthRequest(
        "exp", CoreConfig::standard(3, 32, 4), 1e-4)));
    const bool deadlineOk =
        !expired.ok && expired.error == errc::deadlineExceeded;
    std::cout << "probes: malformed -> "
              << (malformed.ok ? "OK?!" : malformed.error)
              << ", expired deadline -> "
              << (expired.ok ? "OK?!" : expired.error) << "\n";
    if (!malformedOk || !deadlineOk)
        pass = false;

    // ---- Phase 5: rejection burst ------------------------------
    // Pipeline far more distinct (uncoalescible) requests than the
    // queue holds; the overflow is answered queue_full
    // immediately, and every request gets exactly one reply.
    const unsigned burstN = 160;
    unsigned rejected = 0, accepted = 0;
    if (!retry) {
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
    } else {
        // RetryingClient turns queue_full into backoff + replay, so
        // the overload phase instead asserts that the same burst
        // (spread over --clients connections) completes to the last
        // request; the pressure shows up as overload replays.
        std::vector<std::thread> threads;
        std::mutex statsMutex;
        std::atomic<unsigned> okCount{0};
        std::atomic<unsigned> next{0};
        const std::uint64_t overloadBefore =
            retryTotals.overloadReplays;
        for (unsigned c = 0; c < clients; ++c)
            threads.emplace_back([&] {
                RetryingClient burst(host, port, harnessPolicy());
                for (unsigned i = next.fetch_add(1); i < burstN;
                     i = next.fetch_add(1)) {
                    const Reply r =
                        burst.callParsed(yieldRequest(
                            "rej" + std::to_string(i),
                            coldConfigs.front(), 20, 90000 + i));
                    if (r.ok)
                        ++okCount;
                }
                const std::lock_guard<std::mutex> lock(statsMutex);
                foldStats(retryTotals, burst.stats());
            });
        for (std::thread &t : threads)
            t.join();
        accepted = okCount.load();
        if (accepted != burstN) {
            std::cout << "FAIL: overload burst lost replies ("
                      << accepted << "/" << burstN << ")\n";
            pass = false;
        }
        std::cout << "reject: " << burstN << " retried -> "
                  << accepted << " served, "
                  << (retryTotals.overloadReplays - overloadBefore)
                  << " overload replays, 0 dropped\n";
    }

    // ---- Phase 6: determinism ----------------------------------
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
        const std::string raw = call(req);
        serial[parseReply(raw).id] = raw;
    }
    bool identical = true;
    {
        std::vector<std::thread> threads;
        std::vector<bool> same(clients, true);
        std::mutex statsMutex;
        for (unsigned c = 0; c < clients; ++c)
            threads.emplace_back([&, c] {
                if (retry) {
                    // Sequential calls (RetryingClient does not
                    // pipeline) — replays must not change bytes.
                    RetryingClient det(host, port,
                                       harnessPolicy());
                    for (const std::string &req : detReqs) {
                        const std::string raw = det.call(req);
                        if (serial.at(parseReply(raw).id) != raw)
                            same[c] = false;
                    }
                    const std::lock_guard<std::mutex> lock(
                        statsMutex);
                    foldStats(retryTotals, det.stats());
                    return;
                }
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
    const std::uint64_t faultTotal =
        serverCounter(host, port, "service.fault.drops") +
        serverCounter(host, port, "service.fault.truncates") +
        serverCounter(host, port, "service.fault.delays") +
        serverCounter(host, port, "service.fault.queue_fulls");
    const std::uint64_t diskNetlistHits = serverCounter(
        host, port, "synth.disk_cache.netlist_hits");
    const std::uint64_t diskCharHits =
        serverCounter(host, port, "synth.disk_cache.char_hits");
    const std::uint64_t diskMisses =
        serverCounter(host, port,
                      "synth.disk_cache.netlist_misses") +
        serverCounter(host, port,
                      "synth.disk_cache.char_misses");
    const std::uint64_t diskStores =
        serverCounter(host, port, "synth.disk_cache.stores");

    if (rclient) {
        foldStats(retryTotals, rclient->stats());
        std::cout << "retry totals: " << retryTotals.calls
                  << " calls, " << retryTotals.reconnects
                  << " reconnects, " << retryTotals.lossReplays
                  << " loss / " << retryTotals.timeoutReplays
                  << " timeout / " << retryTotals.overloadReplays
                  << " overload replays; " << faultTotal
                  << " server faults injected\n";
    }

    if (connect.empty() || shutdownAfter) {
        const std::string bye =
            adminRequest("bye", RequestType::Shutdown);
        const Reply r = parseReply(
            retry ? rclient->call(bye, /*idempotent=*/false)
                  : client.call(bye));
        if (!r.ok)
            fatal("shutdown refused: " + r.raw);
    }
    if (rclient)
        rclient->close();
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
        jr.meta("coalesce_hits", coalesceHits);
        jr.meta("burst_requests", burstN);
        jr.meta("burst_served", accepted);
        jr.meta("burst_rejected", rejected);
        jr.meta("malformed_rejected", malformedOk);
        jr.meta("deadline_rejected", deadlineOk);
        jr.meta("concurrent_replies_identical", identical);
        jr.meta("server_requests_total", servedTotal);
        jr.meta("server_rejected_total", rejectedTotal);
        jr.meta("server_deadline_exceeded_total", deadlineTotal);
        jr.meta("server_faults_injected", faultTotal);
        jr.meta("disk_cache_netlist_hits", diskNetlistHits);
        jr.meta("disk_cache_char_hits", diskCharHits);
        jr.meta("disk_cache_misses", diskMisses);
        jr.meta("disk_cache_stores", diskStores);
        jr.meta("retry_mode", retry);
        jr.meta("retry_calls", retryTotals.calls);
        jr.meta("retry_reconnects", retryTotals.reconnects);
        jr.meta("retry_loss_replays", retryTotals.lossReplays);
        jr.meta("retry_timeout_replays",
                retryTotals.timeoutReplays);
        jr.meta("retry_overload_replays",
                retryTotals.overloadReplays);
        jr.writeTo(jsonPath);
    }
    return pass ? 0 : 1;
}
