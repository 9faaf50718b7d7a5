/**
 * @file
 * The `serve` workload: a spawned printedd (2 executors, a 2-thread
 * compute pool, a bounded SynthCache) on an ephemeral loopback port,
 * driven from this process over 2 connections with a seeded request
 * mix. It is the only workload that runs the service layer, and it
 * mostly reads the synthesis cache, which `design` only writes.
 *
 * Phase 1 is an open loop: seeded Poisson arrivals at a fixed rate
 * well under capacity, pipelined over both connections; every
 * latency is timed from the request's due time, so a stall of the
 * daemon or of the generator shows as latency. Its latencies are
 * thread wake-ups more than work, which the load of a shared host
 * moves by tens of percent, so they are printed, not reported. Phase
 * 2 is a closed loop over the same mix (4 requests in flight per
 * connection) and measures capacity, the end-to-end number. The
 * traced run repeats phase 2 with one request in flight per
 * connection and a span per request, named by class.
 *
 * Request lines are written here from seeded templates (not with
 * the protocol's request renderers) and name no engine, balancer,
 * shard, disk-cache or fault-plan option.
 */

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <iostream>
#include <thread>
#include <unordered_map>

#include "common/json_min.hh"
#include "common/rng.hh"
#include "legacy/batch_iss.hh"
#include "legacy/cores.hh"
#include "perfbench.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "workloads/golden.hh"

extern char **environ;

namespace perfbench
{

namespace
{

using namespace printed;
using service::Client;

constexpr unsigned executors = 2;
constexpr unsigned poolThreads = 2;
constexpr unsigned connections = 2;
/** SynthCache entries per map: room for the 8 hot cores and more. */
constexpr unsigned cacheCap = 64;
/**
 * Admission queue depth. Sweeps and classifies are shed above half of
 * it, so it is deep enough that an open-loop burst queued behind a
 * stall of a shared host waits instead of failing.
 */
constexpr unsigned maxQueue = 1024;

/** Phase 1: arrivals per second, and seconds per --seconds second. */
constexpr double openRate = 600;
constexpr double openShare = 0.2;
/**
 * Phase 2: requests per --seconds second, requests in flight per
 * connection, and completions per segment of its rate.
 */
constexpr double closedPerSecond = 2600;
constexpr unsigned closedWindow = 4;
constexpr std::size_t qpsSegment = 1000;
/** Traced run: requests per --seconds second in each of its halves. */
constexpr double tracedPerSecond = 150;
/** Requests per window of a windowed summary (>= 10 beyond p99). */
constexpr std::size_t latencyWindow = 1000;

/** Latency booked for a failed or refused request (misses any limit). */
constexpr double failedLatencyMs = 1e9;

/** No reply for this long fails the run instead of hanging it. */
constexpr double replyTimeoutMs = 30000;

enum Class
{
    SynthHot,
    SynthCold,
    Yield,
    IssSweep,
    SweepStream,
    ClassifyStream,
    Admin,
    NumClasses
};

/**
 * The mix: requests of each class per deck of 200, in Class order.
 * Every deck holds exactly these counts in a seeded order, so every
 * seed sends the same number of each class.
 */
constexpr unsigned deck[NumClasses] = {140, 20, 16, 8, 8, 7, 1};
constexpr unsigned deckSize = 200;

/** Span names, in Class order. */
constexpr const char *spanNames[NumClasses] = {
    "service.synth_hot",    "service.synth_cold",
    "service.yield",        "service.iss_sweep",
    "service.sweep_stream", "service.classify_stream",
    "service.admin"};

/** A class's name: its span name without "service.". */
std::string
className(int cls)
{
    return spanNames[cls] + std::strlen("service.");
}

/** The 8 hot cores: stages {1,2} x width {8,16} x bars {2,4}. */
struct HotConfig
{
    unsigned stages, width, bars;
};

HotConfig
hotConfig(unsigned i)
{
    return {1 + (i >> 2), (i & 2) ? 16u : 8u, (i & 1) ? 4u : 2u};
}

std::string
configJson(const HotConfig &c)
{
    return "{\"stages\": " + std::to_string(c.stages) +
           ", \"width\": " + std::to_string(c.width) +
           ", \"bars\": " + std::to_string(c.bars);
}

/** A cold synthesis key: a hot core with 2 or 3 opcodes pruned. */
struct ColdKey
{
    unsigned hot;
    bool tristate;
    unsigned mask;
};

/**
 * The seeded request generator. Hot synths cycle through a seeded
 * order of the 8 hot cores and yields through the 4 8-bit ones, so
 * the cache entries they read stay recently used and a cold miss
 * never evicts one: hits, misses and evictions are then the same on
 * every run of a seed. Cold keys are drawn without repetition (the
 * 2640 keys wrap only long after each was evicted), so every cold
 * synth is a miss.
 */
class Mix
{
  public:
    explicit Mix(std::uint64_t seed) : rng_(mixSeed(seed, 0x5e7e))
    {
        for (unsigned hot = 0; hot < 8; ++hot)
            for (int tri = 0; tri < 2; ++tri)
                for (unsigned mask = 0; mask < 0x400; ++mask) {
                    const int dropped = std::popcount(0x3FFu & ~mask);
                    if (dropped == 2 || dropped == 3)
                        cold_.push_back({hot, tri == 1, mask});
                }
        shuffle(cold_);
        for (unsigned i = 0; i < 8; ++i)
            hotOrder_[i] = i;
        shuffle(hotOrder_);
        yieldOrder_ = {0, 1, 4, 5}; // the 8-bit hot cores
        shuffle(yieldOrder_);
    }

    /** The next request of the current deck. */
    ServeRequest
    next()
    {
        if (dealt_.empty()) {
            for (int cls = 0; cls < NumClasses; ++cls)
                dealt_.insert(dealt_.end(), deck[cls], cls);
            shuffle(dealt_);
        }
        const int cls = dealt_.back();
        dealt_.pop_back();
        return make(cls);
    }

    /**
     * The same request under a new id, except that a cold synth gets
     * a fresh cold key and a classify fresh seeds, so that it still
     * misses its cache: the traced phase repeats phase 2's work.
     */
    ServeRequest
    twin(const ServeRequest &r)
    {
        if (r.cls == SynthCold || r.cls == ClassifyStream)
            return make(r.cls);
        ServeRequest t = r;
        t.id = std::to_string(nextId_++);
        t.line = "{\"id\": \"" + t.id + "\"" + r.line.substr(r.line.find(','));
        return t;
    }

  private:
    ServeRequest
    make(int cls)
    {
        ServeRequest r;
        r.cls = cls;
        r.id = std::to_string(nextId_++);
        const std::string head = "{\"id\": \"" + r.id + "\", \"type\": ";
        switch (cls) {
          case SynthHot:
            r.hot = hotOrder_[hotNext_++ % 8];
            r.line = head + "\"synth\", \"config\": " +
                     configJson(hotConfig(r.hot)) + "}}";
            break;
          case SynthCold: {
            const ColdKey &k = cold_[coldNext_++ % cold_.size()];
            r.line = head + "\"synth\", \"config\": " +
                     configJson(hotConfig(k.hot)) +
                     ", \"opcode_mask\": " + std::to_string(k.mask) +
                     (k.tristate ? "" : ", \"tristate\": false") + "}}";
            break;
          }
          case Yield:
            // On the 8-bit hot cores, whose netlists the yields keep
            // recently used.
            r.line = head + "\"yield\", \"config\": " +
                     configJson(hotConfig(yieldOrder_[yieldNext_++ % 4])) +
                     "}, \"trials\": 16, \"seed\": " +
                     std::to_string(1 + rng_.below(1 << 20)) + "}";
            break;
          case IssSweep:
            r.line = head + "\"sweep\", \"iss\": {\"cores\": " +
                     pickNames(4, 2, [](unsigned i) {
                         return std::string(legacy::issCoreId(
                             legacy::allLegacyCores[i]));
                     }) +
                     ", \"kernels\": " +
                     pickNames(numKernels, 2, [](unsigned i) {
                         return std::string(kernelName(Kernel(i)));
                     }) +
                     ", \"width\": 8, \"machines\": 32, \"seed\": " +
                     std::to_string(1 + rng_.below(1 << 20)) + "}}";
            break;
          case SweepStream: {
            std::string axes;
            r.partials = 1;
            const char *names[3] = {"stages", "widths", "bars"};
            const unsigned values[3][2] = {{1, 2}, {8, 16}, {2, 4}};
            for (int a = 0; a < 3; ++a) {
                const unsigned sel = 1 + unsigned(rng_.below(3));
                std::string list;
                for (int v = 0; v < 2; ++v)
                    if (sel & (1u << v))
                        list += (list.empty() ? "" : ", ") +
                                std::to_string(values[a][v]);
                r.partials *= std::popcount(sel);
                axes += ", \"" + std::string(names[a]) + "\": [" + list + "]";
            }
            r.line = head + "\"sweep\"" + axes + ", \"stream\": true}";
            break;
          }
          case ClassifyStream:
            // Fresh seeds: every search misses the classify cache.
            r.partials = 5; // 4 generations + the front
            r.line = head + "\"classify\", \"dataset\": {\"seed\": " +
                     std::to_string(1 + rng_.below(1 << 20)) +
                     "}, \"model\": \"tree\", \"depth\": 4, "
                     "\"search\": {\"generations\": 4, \"population\": 8, "
                     "\"seed\": " +
                     std::to_string(1 + rng_.below(1 << 20)) +
                     "}, \"stream\": true}";
            break;
          default:
            r.line = head + (adminNext_++ % 2 ? "\"health\"}" : "\"metrics\"}");
            break;
        }
        return r;
    }

  public:
    /** Uniform in (0, 1], from 53 random bits. */
    double
    unit()
    {
        return double((rng_.next() >> 11) + 1) * 0x1p-53;
    }

  private:
    template <typename V>
    void
    shuffle(V &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng_.below(i)]);
    }

    /** JSON array of 1..maxPicks distinct names of n, in index order. */
    template <typename Name>
    std::string
    pickNames(unsigned n, unsigned maxPicks, Name name)
    {
        unsigned set = 0;
        const unsigned picks = 1 + unsigned(rng_.below(maxPicks));
        while (unsigned(std::popcount(set)) < picks)
            set |= 1u << rng_.below(n);
        std::string out = "[";
        for (unsigned i = 0; i < n; ++i)
            if (set & (1u << i))
                out += (out.size() > 1 ? ", \"" : "\"") + name(i) + "\"";
        return out + "]";
    }

    Rng rng_;
    std::vector<int> dealt_; ///< the rest of the current deck
    std::vector<ColdKey> cold_;
    std::size_t coldNext_ = 0;
    std::array<unsigned, 8> hotOrder_;
    std::array<unsigned, 4> yieldOrder_;
    std::uint64_t hotNext_ = 0, yieldNext_ = 0, adminNext_ = 0;
    std::uint64_t nextId_ = 0;
};

// ---------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------

/**
 * A spawned printedd. The destructor kills and reaps a daemon that
 * was not shut down, so no path leaves one running.
 */
class Daemon
{
  public:
    explicit Daemon(const std::string &binary)
    {
        int out[2];
        if (::pipe(out) != 0)
            throw std::runtime_error("pipe() failed");
        const std::string args[] = {
            binary,         "--port",        "0",
            "--executors",  std::to_string(executors),
            "--pool-threads", std::to_string(poolThreads),
            "--max-queue",  std::to_string(maxQueue),
            "--cache-cap",  std::to_string(cacheCap)};
        std::vector<char *> argv;
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        // No tracing or fault injection reaches the daemon.
        std::vector<char *> envp;
        for (char **e = environ; *e; ++e)
            if (std::strncmp(*e, "PRINTED_", 8) != 0)
                envp.push_back(*e);
        envp.push_back(nullptr);

        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork() failed");
        if (pid_ == 0) {
            // Die with the benchmark, whatever ends it.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(out[1], STDOUT_FILENO);
            ::close(out[0]);
            ::close(out[1]);
            ::execve(argv[0], argv.data(), envp.data());
            ::_exit(127);
        }
        ::close(out[1]);
        outFd_ = out[0];

        // "printedd listening on 127.0.0.1:PORT"
        std::string line;
        char c;
        while (::read(outFd_, &c, 1) == 1 && c != '\n')
            line += c;
        const auto colon = line.rfind(':');
        if (line.find("listening") == std::string::npos ||
            colon == std::string::npos) {
            reap();
            throw std::runtime_error("printedd did not start: '" + line +
                                     "'");
        }
        port_ = std::uint16_t(std::stoul(line.substr(colon + 1)));
        // Keep draining its stdout so it never blocks on a full pipe.
        drain_ = std::thread([fd = outFd_] {
            char buf[256];
            while (::read(fd, buf, sizeof buf) > 0) {
            }
        });
    }

    ~Daemon() { reap(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    std::uint16_t port() const { return port_; }
    int pid() const { return pid_; }

    /** Drain the daemon over the wire; it must exit with 0. */
    void
    shutdown(Client &c)
    {
        c.send("{\"id\": \"shutdown\", \"type\": \"shutdown\"}");
        c.readLine(replyTimeoutMs);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
              "printedd did not drain cleanly");
    }

  private:
    /** Kill and wait for a daemon still running; release the pipe. */
    void
    reap()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            pid_ = -1;
        }
        if (drain_.joinable())
            drain_.join();
        if (outFd_ >= 0)
            ::close(outFd_);
        outFd_ = -1;
    }

    int pid_ = -1;
    int outFd_ = -1;
    std::uint16_t port_ = 0;
    std::thread drain_;
};

/**
 * One read of the daemon's counters, from its metrics reply; `busyMs`,
 * when given, gets its pool busy time (the parallel.worker_busy_ms
 * sum).
 */
Counts
readCounters(Client &c, double *busyMs)
{
    const std::string line = c.call("{\"id\": \"m\", \"type\": \"metrics\"}");
    const json::Value root = json::parse(line);
    Counts out;
    const json::Value *result = root.find("result");
    const json::Value *counters = result ? result->find("counters") : nullptr;
    if (!counters)
        throw std::runtime_error("metrics reply without counters");
    for (const auto &[name, v] : counters->object)
        out[name] = std::uint64_t(v.number);
    if (busyMs) {
        const json::Value *dists = result->find("distributions");
        const json::Value *busy =
            dists ? dists->find("parallel.worker_busy_ms") : nullptr;
        const json::Value *n = busy ? busy->find("count") : nullptr;
        const json::Value *mean = busy ? busy->find("mean") : nullptr;
        *busyMs = n && mean ? n->number * mean->number : 0;
    }
    return out;
}

/**
 * The daemon's counters once they have settled. A streamed reply's
 * counters move just after its last frame is written, so a read taken
 * as soon as the client holds every reply can miss them: reads repeat,
 * 25 ms apart, until three in a row agree (a metrics request itself
 * moves only service.requests and service.requests_admin).
 */
Counts
daemonCounters(Client &c, double *busyMs = nullptr)
{
    auto work = [](Counts x) {
        x.erase("service.requests");
        x.erase("service.requests_admin");
        return x;
    };
    Counts last = readCounters(c, busyMs);
    for (int agreed = 1, reads = 1; agreed < 3 && reads < 200; ++reads) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        Counts next = readCounters(c, busyMs);
        agreed = work(next) == work(last) ? agreed + 1 : 1;
        last = std::move(next);
    }
    return last;
}

/** The reply bytes after the echoed id. */
std::string
afterId(const std::string &reply)
{
    const auto at = reply.find("\"ok\"");
    return at == std::string::npos ? reply : reply.substr(at);
}

/** One started daemon with its connections and reference replies. */
struct Served
{
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<Client>> conns;
    std::vector<std::string> hotRefs; ///< per hot core, after the id
};

/**
 * Set-up: spawn, connect, warm the 8 hot cores (capturing their
 * replies as references) and check that a streamed sweep and a
 * streamed classify reassemble to their monolithic replies.
 */
Served
startServed(const std::string &binary)
{
    Served s;
    s.daemon = std::make_unique<Daemon>(binary);
    for (unsigned i = 0; i < connections; ++i)
        s.conns.push_back(
            std::make_unique<Client>("127.0.0.1", s.daemon->port()));
    Client &c = *s.conns[0];
    for (unsigned i = 0; i < 8; ++i)
        s.hotRefs.push_back(afterId(c.call(
            "{\"id\": \"warm\", \"type\": \"synth\", \"config\": " +
            configJson(hotConfig(i)) + "}}")));

    const std::pair<service::RequestType, std::string> probes[] = {
        {service::RequestType::Sweep,
         "\"sweep\", \"stages\": [1, 2], \"widths\": [8, 16], "
         "\"bars\": [2, 4]"},
        {service::RequestType::Classify,
         "\"classify\", \"dataset\": {\"seed\": 0}, \"model\": \"tree\", "
         "\"depth\": 4, \"search\": {\"generations\": 4, "
         "\"population\": 8, \"seed\": 0}"}};
    for (const auto &[type, body] : probes) {
        const std::string whole =
            c.call("{\"id\": \"probe\", \"type\": " + body + "}");
        c.send("{\"id\": \"probe\", \"type\": " + body +
               ", \"stream\": true}");
        std::vector<std::string> points;
        for (;;) {
            const service::StreamFrame f =
                service::classifyFrame(c.readLine(replyTimeoutMs));
            if (f.kind == service::StreamFrame::Kind::Partial)
                points.push_back(f.pointBody);
            else
                break;
        }
        check(service::assembleStreamedReply("probe", type, points) == whole,
              std::string("streamed ") + service::requestTypeName(type) +
                  " does not reassemble to its monolithic reply");
    }
    return s;
}

// ---------------------------------------------------------------
// Phases
// ---------------------------------------------------------------

/** What one phase measured. */
struct PhaseResult
{
    std::vector<double> latencyMs; ///< per request, schedule order
    std::vector<double> lateMs;    ///< open loop: send - due
    double wallMs = 0;
    std::vector<Clock::time_point> doneAt; ///< closed loop: completions
};

/**
 * Tracks the frames of one request and checks its final reply (a
 * failed check counts the request as failed). onLine() returns true
 * when the exchange is complete, with `ok` set when it succeeded.
 */
struct Exchange
{
    std::uint64_t partialsSeen = 0;

    bool
    onLine(const ServeRequest &r, const std::string &line,
           const service::StreamFrame &f, const Served &s, bool &ok)
    {
        if (f.kind == service::StreamFrame::Kind::Partial) {
            ++partialsSeen;
            return false;
        }
        ok = true;
        if (f.kind == service::StreamFrame::Kind::Done) {
            ok = check(f.points == partialsSeen && f.points == r.partials,
                       "request " + r.id + ": stream of " +
                           std::to_string(partialsSeen) +
                           " partials ended in a done frame for " +
                           std::to_string(f.points) + " (expected " +
                           std::to_string(r.partials) + ")");
            return true;
        }
        const service::Reply reply = service::parseReply(line);
        if (!reply.ok) {
            fail("request " + r.id + " (" + className(r.cls) +
                 ") failed: " + reply.error + " " + reply.message);
            ok = false;
        } else if (r.partials) {
            fail("request " + r.id + ": streamed request got a "
                 "monolithic reply");
            ok = false;
        } else if (r.cls == SynthHot) {
            ok = check(afterId(line) == s.hotRefs[r.hot],
                       "request " + r.id +
                           ": hot synth reply differs from its reference");
        }
        return true;
    }
};

/** Open loop: send on schedule, read replies concurrently. */
PhaseResult
openLoop(const std::vector<ServeRequest> &reqs, Served &s)
{
    PhaseResult res;
    res.latencyMs.assign(reqs.size(), failedLatencyMs);
    res.lateMs.assign(reqs.size(), 0);
    std::unordered_map<std::string, std::size_t> byId;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        byId[reqs[i].id] = i;

    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(2 * connections);
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    auto due = [&](const ServeRequest &r) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(r.dueMs));
    };
    for (unsigned c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            // Wake at the due time, not up to 50 us later (the default
            // timer slack), so generator lag stays out of the latency.
            ::prctl(PR_SET_TIMERSLACK, 1UL);
            try {
                for (std::size_t i = c; i < reqs.size(); i += connections) {
                    std::this_thread::sleep_until(due(reqs[i]));
                    res.lateMs[i] =
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - due(reqs[i]))
                            .count();
                    s.conns[c]->send(reqs[i].line);
                }
            } catch (...) {
                errors[2 * c] = std::current_exception();
            }
        });
        threads.emplace_back([&, c] {
            try {
                std::unordered_map<std::size_t, Exchange> open;
                std::size_t remaining = 0;
                for (std::size_t i = c; i < reqs.size(); i += connections)
                    ++remaining;
                while (remaining) {
                    const std::string line =
                        s.conns[c]->readLine(replyTimeoutMs);
                    const auto now = Clock::now();
                    const service::StreamFrame head =
                        service::classifyFrame(line);
                    const auto it = byId.find(head.id);
                    if (it == byId.end())
                        throw std::runtime_error("reply for unknown id '" +
                                                 head.id + "'");
                    const std::size_t i = it->second;
                    bool ok = false;
                    if (!open[i].onLine(reqs[i], line, head, s, ok))
                        continue;
                    open.erase(i);
                    --remaining;
                    if (ok)
                        res.latencyMs[i] =
                            std::chrono::duration<double, std::milli>(
                                now - due(reqs[i]))
                                .count();
                }
            } catch (...) {
                errors[2 * c + 1] = std::current_exception();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    res.wallMs = msSince(start);
    return res;
}

/**
 * Closed loop: each connection keeps `window` requests in flight and
 * sends the next one only when one completes. Spans (traced runs use
 * a window of 1) run from a request's send to its final frame.
 */
PhaseResult
closedLoop(const std::vector<ServeRequest> &reqs, Served &s,
           unsigned window)
{
    PhaseResult res;
    res.latencyMs.assign(reqs.size(), failedLatencyMs);
    std::vector<std::vector<Clock::time_point>> doneAt(connections);
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(connections);
    const auto start = Clock::now();
    for (unsigned c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            try {
                Span conn("serve.connection");
                Client &client = *s.conns[c];
                std::unordered_map<std::string, std::size_t> byId;
                std::unordered_map<std::size_t, Exchange> open;
                std::vector<Clock::time_point> sent(reqs.size());
                std::size_t next = c, inFlight = 0;
                auto sendNext = [&] {
                    sent[next] = Clock::now();
                    byId[reqs[next].id] = next;
                    client.send(reqs[next].line);
                    next += connections;
                    ++inFlight;
                };
                while (next < reqs.size() && inFlight < window)
                    sendNext();
                while (inFlight) {
                    const std::string line = client.readLine(replyTimeoutMs);
                    const auto now = Clock::now();
                    const service::StreamFrame f = service::classifyFrame(line);
                    const std::size_t i = byId.at(f.id);
                    bool ok = false;
                    if (!open[i].onLine(reqs[i], line, f, s, ok))
                        continue;
                    open.erase(i);
                    byId.erase(f.id);
                    --inFlight;
                    ledgerRecord(spanNames[reqs[i].cls], sent[i], now);
                    doneAt[c].push_back(now);
                    if (ok)
                        res.latencyMs[i] =
                            std::chrono::duration<double, std::milli>(
                                now - sent[i])
                                .count();
                    if (next < reqs.size())
                        sendNext();
                }
            } catch (...) {
                errors[c] = std::current_exception();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    res.wallMs = msSince(start);
    for (const auto &d : doneAt)
        res.doneAt.insert(res.doneAt.end(), d.begin(), d.end());
    std::sort(res.doneAt.begin(), res.doneAt.end());
    return res;
}

/**
 * Completions per second of a closed loop: the rate of its fastest
 * tenth (p90) of consecutive segments of `segment` completions. Every
 * segment serves the same mix, so a slower one lost time to the
 * machine: other tenants of a shared host slow whole stretches of a
 * run, and its median segment with them.
 */
double
closedRate(const PhaseResult &res, std::size_t segment)
{
    std::vector<double> rates;
    for (std::size_t k = 0; (k + 1) * segment < res.doneAt.size(); ++k)
        rates.push_back(double(segment) /
                        std::chrono::duration<double>(
                            res.doneAt[(k + 1) * segment] -
                            res.doneAt[k * segment])
                            .count());
    if (rates.empty())
        return double(res.doneAt.size()) / (res.wallMs / 1e3);
    std::sort(rates.begin(), rates.end());
    return percentile(rates, 90);
}

/**
 * Exact counts a phase must move: every compute request answers ok,
 * nothing is refused, every stream partial is counted, and exactly
 * the cold synths miss the synthesis cache.
 */
void
checkPhaseCounts(const std::vector<ServeRequest> &reqs, const Counts &d,
                 const std::string &phase)
{
    std::uint64_t compute = 0, cold = 0, partials = 0;
    for (const ServeRequest &r : reqs) {
        compute += r.cls != Admin;
        cold += r.cls == SynthCold;
        partials += r.partials;
    }
    const std::pair<const char *, std::uint64_t> expected[] = {
        {"service.replies_ok", compute},
        {"service.replies_error", 0},
        {"service.rejected", 0},
        {"service.stream_partials", partials},
        {"synth.cache.netlist_misses", cold}};
    for (const auto &[name, want] : expected)
        check(countOf(d, name) == want,
              phase + ": daemon counter " + name + " moved by " +
                  std::to_string(countOf(d, name)) + ", expected " +
                  std::to_string(want));
}

/** Per-class latency summaries of a phase. */
void
printClasses(const std::vector<ServeRequest> &reqs, const PhaseResult &res)
{
    for (int cls = 0; cls < NumClasses; ++cls) {
        std::vector<double> v;
        for (std::size_t i = 0; i < reqs.size(); ++i)
            if (reqs[i].cls == cls)
                v.push_back(res.latencyMs[i]);
        if (!v.empty())
            printSummary("service.latency_ms." + className(cls),
                         summarize(v), "ms");
    }
}

} // namespace

ServeSchedule
serveSchedule(std::uint64_t seed, std::size_t openN, double openRatePerS,
              std::size_t closedN, std::size_t tracedN)
{
    Mix mix(seed);
    ServeSchedule s;
    double t = 0;
    for (std::size_t i = 0; i < openN; ++i) {
        ServeRequest r = mix.next();
        t += -std::log(mix.unit()) * 1e3 / openRatePerS;
        r.dueMs = t;
        s.open.push_back(std::move(r));
    }
    for (std::size_t i = 0; i < closedN; ++i)
        s.closed.push_back(mix.next());
    for (std::size_t i = 0; i < tracedN; ++i)
        s.base.push_back(mix.next());
    for (const ServeRequest &r : s.base)
        s.traced.push_back(mix.twin(r));
    return s;
}

Report
runServe(const Args &args)
{
    if (args.printedd.empty())
        throw std::invalid_argument("serve needs --printedd PATH");
    // Whole decks, so both phases send the mix's exact proportions.
    auto decks = [](double requests) {
        return deckSize * std::max<std::size_t>(1, std::size_t(requests) / deckSize);
    };
    const std::size_t openN = decks(args.seconds * openShare * openRate);
    const std::size_t closedN = decks(args.seconds * closedPerSecond);
    const std::size_t tracedN = decks(args.seconds * tracedPerSecond);
    const ServeSchedule sched =
        serveSchedule(args.seed, openN, openRate, closedN, tracedN);
    std::cout << "workload serve: printedd with " << executors
              << " executors, " << poolThreads << " pool threads, queue "
              << maxQueue << ", cache cap " << cacheCap << "; "
              << connections << " connections, seed "
              << args.seed << "\n  phase 1: open loop, " << openN
              << " requests at " << openRate << "/s; phase 2: closed loop, "
              << closedN << " requests, " << closedWindow
              << " in flight per connection\n";

    // The client side of the protocol: parsing the mix's lines.
    {
        const auto t0 = Clock::now();
        for (const ServeRequest &r : sched.open)
            service::parseRequest(r.line);
        std::cout << "  service.protocol.parse_us "
                  << 1e3 * msSince(t0) / double(sched.open.size())
                  << " (client-side parseRequest, mean over the mix)\n";
    }

    std::vector<double> setupS;
    Served s;
    for (int k = 0; k < setupRepeats; ++k) {
        if (s.daemon)
            s.daemon->shutdown(*s.conns[0]);
        const auto t0 = Clock::now();
        s = startServed(args.printedd);
        setupS.push_back(msSince(t0) / 1e3);
    }

    double busy0 = 0, busy2 = 0;
    const Counts c0 = daemonCounters(*s.conns[0], &busy0);
    const PhaseResult open = openLoop(sched.open, s);
    const Counts c1 = daemonCounters(*s.conns[0]);
    const PhaseResult closed = closedLoop(sched.closed, s, closedWindow);
    const Counts c2 = daemonCounters(*s.conns[0], &busy2);
    checkPhaseCounts(sched.open, counterDelta(c1, c0), "open loop");
    checkPhaseCounts(sched.closed, counterDelta(c2, c1), "closed loop");

    const Summary late = summarize(open.lateMs);
    const double qps = closedRate(closed, qpsSegment);
    std::cout << "\nPhase 1, open loop (latency from each request's due "
                 "time):\n";
    printSummary("latency_ms", summarizeWindows(open.latencyMs, latencyWindow),
                 "ms");
    printClasses(sched.open, open);
    std::cout << "  loadgen.late_ms p99 " << percentile([&] {
        std::vector<double> v = open.lateMs;
        std::sort(v.begin(), v.end());
        return v;
    }(), 99) << "  max "
              << *std::max_element(open.lateMs.begin(), open.lateMs.end())
              << " (n = " << late.n << ")\n";
    std::cout << "Phase 2, closed loop:\n  qps " << qps
              << " (p90 over segments of " << qpsSegment << "; "
              << sched.closed.size() << " requests in " << closed.wallMs
              << " ms)\n";
    printSummary("latency_ms", summarizeWindows(closed.latencyMs, latencyWindow),
                 "ms");
    printClasses(sched.closed, closed);
    std::cout << "  setup_s " << median(setupS) << "\n";

    Report r;
    r.attempted = sched.open.size() + sched.closed.size();
    if (!args.trace) {
        r.metrics = {{"throughput_per_s", qps},
                     {"setup_s", median(setupS)},
                     {"peak_rss_mb", peakRssMb(s.daemon->pid())}};
        s.daemon->shutdown(*s.conns[0]);
        return r;
    }

    // The traced run: one request in flight per connection, so each
    // connection's spans nest; first untraced, then a twin traced.
    const PhaseResult base = closedLoop(sched.base, s, 1);
    ledgerStart();
    const PhaseResult traced = closedLoop(sched.traced, s, 1);
    const Fold fold = ledgerStop();
    const Counts c3 = daemonCounters(*s.conns[0]);
    std::vector<ServeRequest> both = sched.base;
    both.insert(both.end(), sched.traced.begin(), sched.traced.end());
    checkPhaseCounts(both, counterDelta(c3, c2), "traced run");
    r.attempted += sched.base.size() + sched.traced.size();
    std::cout << "\nTraced run (closed loop, 1 in flight per connection):\n";
    printClasses(sched.traced, traced);
    reportFold(fold, 1.0, r.metrics);
    const double overhead = 100.0 * (traced.wallMs / base.wallMs - 1);
    std::cout << "  tracing overhead " << overhead
              << " % of the untraced twin's wall time\n";
    r.metrics["trace.overhead"] = overhead;

    // Request coalescing decides how many hot synths reach
    // evaluateDesignPoint(), so dse.points is timing-dependent here.
    Counts d = counterDelta(c2, c0);
    d.erase("dse.points");
    reportCounts(d, r.metrics);
    r.metrics["parallel.utilization"] =
        100.0 * (busy2 - busy0) / (poolThreads * (open.wallMs + closed.wallMs));
    s.daemon->shutdown(*s.conns[0]);
    return r;
}

} // namespace perfbench
