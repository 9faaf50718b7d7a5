#include "balancer.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/json_min.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "service/net_io.hh"

namespace printed::service
{

namespace
{

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

Clock::duration
millis(double ms)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
}

/**
 * Extract the "result" body of an ok reply line byte-exactly.
 * okReply() renders "result" as the last member, so the body is
 * everything between the marker and the final closing brace. Falls
 * back to "{}" on anything unexpected (down shards render as such).
 */
std::string
resultBody(const std::string &replyLine)
{
    constexpr const char *kMarker = ", \"result\": ";
    const std::size_t at = replyLine.find(kMarker);
    if (at == std::string::npos || replyLine.empty() ||
        replyLine.back() != '}')
        return "{}";
    const std::size_t start = at + 12; // strlen(kMarker)
    return replyLine.substr(start, replyLine.size() - start - 1);
}

/** Read one '\n'-terminated line from a pipe (EINTR-safe). */
bool
readPipeLine(int fd, std::string &out)
{
    out.clear();
    char c;
    for (;;) {
        const ssize_t n = ::read(fd, &c, 1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return !out.empty();
        if (c == '\n')
            return true;
        out.push_back(c);
    }
}

} // anonymous namespace

/** One client connection: socket, reader thread, write lock. */
struct Balancer::Connection
{
    int fd = -1;
    std::mutex writeMutex;
    std::thread reader;
    std::atomic<bool> open{true};
};

Balancer::Balancer(BalancerOptions opts) : opts_(std::move(opts)) {}

Balancer::~Balancer()
{
    beginShutdown();
    wait();
}

void
Balancer::start()
{
    started_ = Clock::now();

    if (opts_.spawnWorkers > 0) {
        for (unsigned i = 0; i < opts_.spawnWorkers; ++i)
            spawnWorker(i);
    } else {
        fatalIf(opts_.workers.empty(),
                "balancer needs at least one worker");
        for (std::size_t i = 0; i < opts_.workers.size(); ++i) {
            auto shard = std::make_unique<Shard>();
            shard->id = unsigned(i);
            shard->addr = opts_.workers[i];
            shards_.push_back(std::move(shard));
        }
    }

    ring_ = std::make_unique<ShardMap>(ShardMap::forCount(
        unsigned(shards_.size()), opts_.vnodes, opts_.ringSeed));

    if (opts_.faultPlan.enabled())
        fault_ = std::make_unique<FaultInjector>(opts_.faultPlan);

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal(std::string("socket(): ") + std::strerror(errno));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts_.port);
    if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1)
        fatal("bad listen address '" + opts_.host + "'");
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal(std::string("bind(): ") + std::strerror(errno));
    if (::listen(listenFd_, 64) != 0)
        fatal(std::string("listen(): ") + std::strerror(errno));

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                  &len);
    port_ = ntohs(bound.sin_port);

    acceptThread_ = std::thread([this] {
        trace::setThreadName("balancer-accept");
        acceptLoop();
    });
    probeThread_ = std::thread([this] {
        trace::setThreadName("balancer-probe");
        probeLoop();
    });
}

bool
Balancer::shardUp(unsigned shard) const
{
    fatalIf(shard >= shards_.size(), "no such shard");
    return shards_[shard]->up.load(std::memory_order_acquire);
}

WorkerAddress
Balancer::shardAddress(unsigned shard) const
{
    fatalIf(shard >= shards_.size(), "no such shard");
    return shards_[shard]->addr;
}

void
Balancer::beginShutdown()
{
    draining_.store(true);
    {
        std::lock_guard lk(stopMutex_);
        stopRequested_ = true;
    }
    stopCv_.notify_all();
}

void
Balancer::wait()
{
    {
        std::unique_lock lk(stopMutex_);
        stopCv_.wait(lk, [&] { return stopRequested_; });
        if (joined_)
            return;
        joined_ = true;
    }
    joinEverything();
}

void
Balancer::joinEverything()
{
    // 1. Stop accepting; unblock accept(2).
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (probeThread_.joinable())
        probeThread_.join();

    // 2. Hang up client connections; readers see EOF and exit
    //    (closing their cached worker connections with them).
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard lk(connMutex_);
        conns.swap(conns_);
    }
    for (const auto &c : conns)
        ::shutdown(c->fd, SHUT_RD);
    for (const auto &c : conns) {
        if (c->reader.joinable())
            c->reader.join();
        ::close(c->fd);
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }

    // 3. The balancer owns its fleet's lifecycle: draining the
    //    front drains the workers behind it (the CI smoke job
    //    asserts all five processes exit cleanly).
    propagateShutdown();
    reapWorkers();
}

void
Balancer::propagateShutdown()
{
    for (const auto &shard : shards_) {
        if (!shard->up.load(std::memory_order_acquire))
            continue;
        try {
            Client c(shard->addr.host, shard->addr.port);
            c.send(adminRequest("balancer-drain",
                                RequestType::Shutdown));
            (void)c.readLine(opts_.shardCallTimeoutMs);
        } catch (const std::exception &) {
            // Best effort: a dead shard has nothing to drain.
        }
    }
}

void
Balancer::spawnWorker(unsigned index)
{
    int pipeFds[2];
    if (::pipe(pipeFds) != 0)
        fatal(std::string("pipe(): ") + std::strerror(errno));

    const pid_t pid = ::fork();
    if (pid < 0)
        fatal(std::string("fork(): ") + std::strerror(errno));

    if (pid == 0) {
        // Child: stdout -> pipe, then exec printedd on an
        // ephemeral port (the parent reads the banner for it).
        ::close(pipeFds[0]);
        ::dup2(pipeFds[1], STDOUT_FILENO);
        ::close(pipeFds[1]);
        std::vector<std::string> args;
        args.push_back(opts_.printeddPath);
        args.push_back("--port");
        args.push_back("0");
        for (const std::string &a : opts_.workerArgs)
            args.push_back(a);
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execvp(argv[0], argv.data());
        ::_exit(127); // exec failed
    }

    ::close(pipeFds[1]);

    // Parse "printedd listening on HOST:PORT" from the child.
    std::string banner;
    bool found = false;
    while (readPipeLine(pipeFds[0], banner)) {
        const std::size_t at = banner.find("listening on ");
        if (at == std::string::npos)
            continue;
        const std::string hostPort = banner.substr(at + 13);
        const std::size_t colon = hostPort.rfind(':');
        if (colon == std::string::npos)
            continue;
        auto shard = std::make_unique<Shard>();
        shard->id = index;
        shard->addr.host = hostPort.substr(0, colon);
        shard->addr.port = std::uint16_t(
            std::strtoul(hostPort.c_str() + colon + 1, nullptr, 10));
        shard->pid = pid;
        shard->stdoutFd = pipeFds[0];
        // Keep draining the child's stdout so it never blocks on a
        // full pipe.
        const int drainFd = pipeFds[0];
        shard->stdoutDrain = std::thread([drainFd] {
            char buf[4096];
            while (::read(drainFd, buf, sizeof(buf)) > 0 ||
                   errno == EINTR) {
            }
        });
        shards_.push_back(std::move(shard));
        found = true;
        break;
    }
    if (!found) {
        ::close(pipeFds[0]);
        int status = 0;
        ::waitpid(pid, &status, 0);
        fatal("worker " + std::to_string(index) + " (" +
              opts_.printeddPath + ") exited before announcing its port");
    }
}

void
Balancer::reapWorkers()
{
    for (const auto &shard : shards_) {
        if (shard->pid <= 0)
            continue;
        // propagateShutdown() already asked nicely; SIGTERM covers
        // a worker that was marked down (idempotent on a draining
        // printedd).
        ::kill(shard->pid, SIGTERM);
        int status = 0;
        ::waitpid(shard->pid, &status, 0);
        if (shard->stdoutDrain.joinable())
            shard->stdoutDrain.join();
        if (shard->stdoutFd >= 0)
            ::close(shard->stdoutFd);
        shard->pid = -1;
    }
}

void
Balancer::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listen socket shut down
        }
        if (draining_.load()) {
            ::close(fd);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        metrics::counter("balancer.connections").add(1);

        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        {
            std::lock_guard lk(connMutex_);
            conns_.push_back(conn);
        }
        conn->reader = std::thread([this, conn] {
            trace::setThreadName("balancer-reader");
            readerLoop(conn);
        });
    }
}

void
Balancer::readerLoop(std::shared_ptr<Connection> conn)
{
    // One reader serves its connection's lines serially, so its
    // worker-connection cache needs no locking; concurrency comes
    // from having many client connections.
    std::map<unsigned, Client> shardConns;
    std::string buffer;
    char chunk[4096];
    for (;;) {
        const ssize_t n =
            netio::recvSome(conn->fd, chunk, sizeof(chunk));
        if (n <= 0)
            break; // EOF, error, or shutdown(SHUT_RD)
        buffer.append(chunk, std::size_t(n));
        std::size_t start = 0;
        for (;;) {
            const std::size_t nl = buffer.find('\n', start);
            if (nl == std::string::npos)
                break;
            std::string line = buffer.substr(start, nl - start);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            start = nl + 1;
            if (!line.empty())
                handleLine(conn, line, shardConns);
        }
        buffer.erase(0, start);
        if (buffer.size() > opts_.maxRequestBytes) {
            sendLine(conn,
                     errorReply("", errc::parseError,
                                "request line too long"));
            break;
        }
    }
    conn->open.store(false);
}

void
Balancer::handleLine(const std::shared_ptr<Connection> &conn,
                     const std::string &line,
                     std::map<unsigned, Client> &shardConns)
{
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("balancer.requests").add(1);

    Request req;
    try {
        req = parseRequest(line);
    } catch (const json::ParseError &e) {
        sendLine(conn, errorReply("", errc::parseError, e.what()));
        return;
    } catch (const FatalError &e) {
        sendLine(conn, errorReply("", errc::badRequest, e.what()));
        return;
    }

    switch (req.type) {
      case RequestType::Metrics:
        stats_.fanouts.fetch_add(1, std::memory_order_relaxed);
        sendLine(conn, okReply(req.id, req.type,
                               mergedMetricsBody(shardConns)));
        return;
      case RequestType::Health:
        stats_.fanouts.fetch_add(1, std::memory_order_relaxed);
        sendLine(conn, okReply(req.id, req.type,
                               mergedHealthBody(shardConns)));
        return;
      case RequestType::Shutdown:
        sendLine(conn, okReply(req.id, req.type,
                               "{\"draining\": true}"));
        beginShutdown();
        return;
      case RequestType::Synth:
      case RequestType::Yield:
      case RequestType::Sweep:
      case RequestType::Classify:
        routeCompute(conn, req, line, shardConns);
        return;
    }
}

void
Balancer::routeCompute(const std::shared_ptr<Connection> &conn,
                       const Request &req, const std::string &line,
                       std::map<unsigned, Client> &shardConns)
{
    stats_.routed.fetch_add(1, std::memory_order_relaxed);

    const std::vector<unsigned> order =
        ring_->failoverOrder(routeKey(req));
    std::uint64_t forwarded = 0;
    for (unsigned shardId : order) {
        Shard &shard = *shards_[shardId];
        if (!shard.up.load(std::memory_order_acquire))
            continue;
        const bool degraded = shardId != order.front();

        // A failover after relayed partials must not replay them:
        // ask the fallback to resume past what the client already
        // holds, so it sees one gapless stream.
        std::string wire = line;
        if (req.stream && forwarded > 0) {
            Request resumed = req;
            resumed.resumeFrom = req.resumeFrom + forwarded;
            wire = requestLine(resumed);
        }

        Client &worker = shardConns[shardId];
        if (forwardAttempt(shard, worker, conn, req, wire, degraded,
                           forwarded)) {
            if (degraded) {
                stats_.failovers.fetch_add(
                    1, std::memory_order_relaxed);
                metrics::counter("balancer.failovers").add(1);
            }
            return;
        }
        worker.close();
        markDown(shard);
    }

    stats_.unavailable.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("balancer.unavailable").add(1);
    sendLine(conn,
             errorReply(req.id, errc::unavailable,
                        "every shard for this key is down"));
}

bool
Balancer::forwardAttempt(Shard &shard, Client &worker,
                         const std::shared_ptr<Connection> &conn,
                         const Request &req,
                         const std::string &wireLine, bool degraded,
                         std::uint64_t &forwardedOut)
{
    (void)req;
    // A cached connection may be stale (the worker restarted since
    // it was opened): one clean-slate resend is allowed, but only
    // while no frame of this attempt has been relayed — resending
    // after a relayed partial would duplicate it.
    unsigned attempts = worker.connected() ? 2 : 1;
    while (attempts--) {
        std::uint64_t relayed = 0;
        try {
            if (!worker.connected())
                worker.connect(shard.addr.host, shard.addr.port);
            worker.send(wireLine);
            for (;;) {
                const std::string raw =
                    worker.readLine(opts_.shardCallTimeoutMs);
                const StreamFrame frame = classifyFrame(raw);
                if (frame.kind == StreamFrame::Kind::Partial) {
                    sendLine(conn, raw, /*faultable=*/true);
                    ++relayed;
                    ++forwardedOut;
                    stats_.partialsForwarded.fetch_add(
                        1, std::memory_order_relaxed);
                    continue;
                }
                // Done or Final: the exchange is over. Annotating
                // only these frames keeps partial bodies byte-exact
                // for reassembly.
                sendLine(conn, degraded ? markDegraded(raw) : raw,
                         /*faultable=*/true);
                return true;
            }
        } catch (const std::exception &) {
            worker.close();
            if (relayed > 0)
                return false; // mid-stream: fail over, don't resend
        }
    }
    return false;
}

void
Balancer::markDown(Shard &shard)
{
    if (!shard.up.exchange(false))
        return; // already down
    stats_.markedDown.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("balancer.marked_down").add(1);
    std::lock_guard lk(probeMutex_);
    shard.probeFailures.store(0);
    shard.nextProbe = Clock::now() + millis(opts_.probeBackoffBaseMs);
}

void
Balancer::probeLoop()
{
    for (;;) {
        {
            std::unique_lock lk(stopMutex_);
            if (stopCv_.wait_for(lk, millis(opts_.probePeriodMs),
                                 [&] { return stopRequested_; }))
                return;
        }
        for (const auto &shardPtr : shards_) {
            Shard &shard = *shardPtr;
            if (shard.up.load(std::memory_order_acquire))
                continue;
            {
                std::lock_guard lk(probeMutex_);
                if (Clock::now() < shard.nextProbe)
                    continue;
            }
            bool ok = false;
            try {
                Client probe(shard.addr.host, shard.addr.port);
                probe.send(adminRequest("balancer-probe",
                                        RequestType::Health));
                ok = parseReply(probe.readLine(1000)).ok;
            } catch (const std::exception &) {
                ok = false;
            }
            if (ok) {
                shard.up.store(true, std::memory_order_release);
                stats_.revived.fetch_add(1,
                                         std::memory_order_relaxed);
                metrics::counter("balancer.revived").add(1);
            } else {
                const unsigned failures =
                    shard.probeFailures.fetch_add(1) + 1;
                const double backoff = std::min(
                    opts_.probeBackoffMaxMs,
                    opts_.probeBackoffBaseMs *
                        double(1ULL << std::min(failures, 16u)));
                std::lock_guard lk(probeMutex_);
                shard.nextProbe = Clock::now() + millis(backoff);
            }
        }
    }
}

std::string
Balancer::balancerStatsBody() const
{
    unsigned up = 0;
    for (const auto &shard : shards_)
        if (shard->up.load(std::memory_order_acquire))
            ++up;
    std::string out = "{\"requests\": " +
                      std::to_string(stats_.requests.load());
    out += ", \"routed\": " + std::to_string(stats_.routed.load());
    out += ", \"fanouts\": " + std::to_string(stats_.fanouts.load());
    out += ", \"partials_forwarded\": " +
           std::to_string(stats_.partialsForwarded.load());
    out +=
        ", \"failovers\": " + std::to_string(stats_.failovers.load());
    out += ", \"marked_down\": " +
           std::to_string(stats_.markedDown.load());
    out += ", \"revived\": " + std::to_string(stats_.revived.load());
    out += ", \"unavailable\": " +
           std::to_string(stats_.unavailable.load());
    out += ", \"shards\": " + std::to_string(shards_.size());
    out += ", \"shards_up\": " + std::to_string(up);
    out += ", \"uptime_ms\": " + formatDouble(millisSince(started_));
    out += "}";
    return out;
}

std::string
Balancer::mergedMetricsBody(std::map<unsigned, Client> &shardConns)
{
    // Sum every shard's counters (the fleet-wide view asserted by
    // bench/CI) and keep each shard's full metrics body in a
    // per-shard array so imbalance stays visible.
    std::map<std::string, long long> summed;
    std::string shardsArr = "[";
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (i)
            shardsArr += ", ";
        Shard &shard = *shards_[i];
        std::string body = "{\"down\": true}";
        if (shard.up.load(std::memory_order_acquire)) {
            Client &worker = shardConns[shard.id];
            try {
                if (!worker.connected())
                    worker.connect(shard.addr.host,
                                   shard.addr.port);
                worker.send(adminRequest("balancer-metrics",
                                         RequestType::Metrics));
                body = resultBody(
                    worker.readLine(opts_.shardCallTimeoutMs));
                const json::Value parsed = json::parse(body);
                if (const json::Value *counters =
                        parsed.find("counters");
                    counters && counters->isObject())
                    for (const auto &[name, value] :
                         counters->object)
                        if (value.isNumber())
                            summed[name] +=
                                (long long)(value.number);
            } catch (const std::exception &) {
                worker.close();
                markDown(shard);
                body = "{\"down\": true}";
            }
        }
        shardsArr += body;
    }
    shardsArr += "]";

    std::string out = "{\"counters\": {";
    bool first = true;
    for (const auto &[name, value] : summed) {
        out += first ? "" : ", ";
        out += json::jsonQuote(name) + ": " + std::to_string(value);
        first = false;
    }
    out += "}, \"balancer\": " + balancerStatsBody();
    out += ", \"shards\": " + shardsArr;
    out += "}";
    return out;
}

std::string
Balancer::mergedHealthBody(std::map<unsigned, Client> &shardConns)
{
    std::string shardsArr = "[";
    unsigned up = 0;
    // The balancer advertises the intersection of its shards'
    // supported request types: a type is only usable through the
    // fleet if every live shard can serve it. Older (protocol-v1)
    // workers that predate the "types" field count as the v1
    // baseline set via advertisedTypes().
    std::vector<std::string> types;
    bool typesSeeded = false;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (i)
            shardsArr += ", ";
        Shard &shard = *shards_[i];
        std::string body = "{\"status\": \"down\"}";
        if (shard.up.load(std::memory_order_acquire)) {
            Client &worker = shardConns[shard.id];
            try {
                if (!worker.connected())
                    worker.connect(shard.addr.host,
                                   shard.addr.port);
                worker.send(adminRequest("balancer-health",
                                         RequestType::Health));
                body = resultBody(
                    worker.readLine(opts_.shardCallTimeoutMs));
                ++up;
                const std::vector<std::string> shardTypes =
                    advertisedTypes(body);
                if (!typesSeeded) {
                    types = shardTypes;
                    typesSeeded = true;
                } else {
                    std::erase_if(types, [&](const std::string &t) {
                        return std::find(shardTypes.begin(),
                                         shardTypes.end(),
                                         t) == shardTypes.end();
                    });
                }
            } catch (const std::exception &) {
                worker.close();
                markDown(shard);
                body = "{\"status\": \"down\"}";
            }
        }
        shardsArr += body;
    }
    shardsArr += "]";

    std::string typesArr = "[";
    for (std::size_t i = 0; i < types.size(); ++i) {
        if (i)
            typesArr += ", ";
        typesArr += json::jsonQuote(types[i]);
    }
    typesArr += "]";

    std::string out = "{\"status\": ";
    out += up == shards_.size() ? "\"ok\"" : "\"degraded\"";
    out += ", \"proto\": " + std::to_string(kProtocolVersion);
    out += ", \"role\": \"balancer\"";
    out += ", \"types\": " + typesArr;
    out += ", \"uptime_ms\": " + formatDouble(millisSince(started_));
    out += ", \"shards_up\": " + std::to_string(up);
    out += ", \"shards\": " + shardsArr;
    out += "}";
    return out;
}

void
Balancer::sendLine(const std::shared_ptr<Connection> &conn,
                   const std::string &line, bool faultable)
{
    std::string framed = line;
    framed += '\n';

    if (faultable && fault_) {
        double delayMs = 0;
        switch (fault_->onComputeReply(delayMs)) {
          case FaultInjector::SendFault::None:
            break;
          case FaultInjector::SendFault::Drop: {
            std::lock_guard lk(conn->writeMutex);
            conn->open.store(false);
            ::shutdown(conn->fd, SHUT_RDWR);
            return;
          }
          case FaultInjector::SendFault::Truncate: {
            std::lock_guard lk(conn->writeMutex);
            conn->open.store(false);
            netio::sendAll(conn->fd, framed.data(),
                           framed.size() / 2);
            ::shutdown(conn->fd, SHUT_RDWR);
            return;
          }
          case FaultInjector::SendFault::Delay:
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delayMs));
            break;
        }
    }

    std::lock_guard lk(conn->writeMutex);
    if (!netio::sendAll(conn->fd, framed.data(), framed.size()))
        conn->open.store(false); // client went away
}

} // namespace printed::service
