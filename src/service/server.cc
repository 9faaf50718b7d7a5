#include "server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <optional>

#include "common/json_min.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "dse/sweep.hh"
#include "service/net_io.hh"
#include "synth/cache.hh"

namespace printed::service
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Internal: a request's deadline expired mid-execution. */
struct DeadlineError : std::runtime_error
{
    DeadlineError() : std::runtime_error("deadline exceeded") {}
};

double
millisSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

/** Internal: a stream's client hung up mid-plan. */
struct ClientGone
{
};

/**
 * A compute request's point plan (see server.hh): its point count,
 * whether a monolithic request runs it on the shared pool, and point
 * i's body, evaluated on the plan's pool. A classify plan has no
 * evaluate; the search hands over its points.
 */
struct Plan
{
    std::uint64_t size = 1;
    bool pooled = false;
    std::function<std::string(std::uint64_t, ThreadPool &)> evaluate;
};

Plan
planOf(const Request &req)
{
    switch (req.type) {
      case RequestType::Synth:
        return {1, false, [&req](std::uint64_t, ThreadPool &) {
                    return synthBody(evaluateDesignPoint(req.config));
                }};
      case RequestType::Yield:
        return {1, true, [&req](std::uint64_t, ThreadPool &pool) {
                    FunctionalYieldConfig mc;
                    mc.fault.deviceYield = req.deviceYield;
                    mc.fault.seed = req.seed;
                    mc.trials = req.trials;
                    mc.replicas = req.replicas;
                    mc.pool = &pool;
                    const auto core = SynthCache::global().core(req.config);
                    return yieldBody(
                        req.config,
                        measureFunctionalYield(*core, req.config, mc));
                }};
      case RequestType::Sweep:
        if (req.hasIss) {
            auto grid = req.iss.grid();
            const std::uint64_t size = grid.size();
            return {size, true,
                    [&req, grid = std::move(grid)](std::uint64_t i,
                                                   ThreadPool &pool) {
                        SweepOptions opts;
                        opts.pool = &pool;
                        const auto &[core, kernel] = grid[std::size_t(i)];
                        return issPointBody(
                            evaluateIssPoint(core, kernel, req.iss, opts));
                    }};
        } else {
            auto configs = req.sweep.configs();
            const std::uint64_t size = configs.size();
            return {size, false,
                    [configs = std::move(configs)](std::uint64_t i,
                                                   ThreadPool &) {
                        return synthBody(
                            evaluateDesignPoint(configs[std::size_t(i)]));
                    }};
        }
      case RequestType::Classify:
        return {req.classify.search.generations + 1, true, nullptr};
      default:
        panic("planOf() on a request without points");
    }
}

} // anonymous namespace

/**
 * One client connection: its socket and write lock. The socket
 * closes when the last holder (its reader, a queued or running Task)
 * lets go, so a late reply never reaches a recycled descriptor.
 */
struct Server::Connection
{
    explicit Connection(int fd) : fd(fd) {}
    ~Connection() { ::close(fd); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    const int fd;
    std::mutex writeMutex;
    std::atomic<bool> open{true};
};

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      pool_(opts_.poolThreads)
{
}

Server::~Server()
{
    beginShutdown();
    wait();
}

void
Server::start()
{
    started_ = Clock::now();
    if (opts_.cacheCapacity)
        SynthCache::global().setCapacity(opts_.cacheCapacity);

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
        trace::setThreadName("service-accept");
        acceptLoop();
    });
    const unsigned executors = opts_.executors ? opts_.executors : 1;
    for (unsigned i = 0; i < executors; ++i)
        executors_.emplace_back([this, i] {
            trace::setThreadName("service-exec-" +
                                 std::to_string(i));
            executorLoop();
        });
}

void
Server::beginShutdown()
{
    {
        std::lock_guard lk(queueMutex_);
        finishing_ = true;
    }
    queueCv_.notify_all();
    {
        std::lock_guard lk(stopMutex_);
        stopRequested_ = true;
    }
    stopCv_.notify_all();
}

void
Server::wait()
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
Server::joinEverything()
{
    // 1. Stop accepting connections. shutdown() unblocks the
    //    accept(2) in acceptLoop.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();

    // 2. Drain: executors finish every admitted request (finishing_
    //    is already set, so they exit once the queue is empty).
    queueCv_.notify_all();
    for (std::thread &t : executors_)
        if (t.joinable())
            t.join();

    // 3. Hang up: readers see EOF and return, and each socket
    //    closes with its last holder.
    std::list<Reader> readers;
    {
        std::lock_guard lk(connMutex_);
        for (const Reader &r : readers_)
            if (r.conn)
                ::shutdown(r.conn->fd, SHUT_RD);
        readers.swap(readers_);
    }
    for (Reader &r : readers)
        r.thread.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

void
Server::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        reapReaders();
        bool finishing;
        {
            std::lock_guard lk(queueMutex_);
            finishing = finishing_;
        }
        if (fd < 0) {
            if (finishing)
                return; // the drain shut the listen socket down
            // EINTR, or a transient error such as EMFILE: the
            // connection stays queued, so pause and accept again.
            if (errno != EINTR)
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
        }
        if (finishing) {
            ::close(fd);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        metrics::counter("service.connections").add(1);

        auto conn = std::make_shared<Connection>(fd);
        std::lock_guard lk(connMutex_);
        const auto reader = readers_.emplace(readers_.end());
        reader->conn = conn;
        reader->thread = std::thread([this, conn, reader] {
            trace::setThreadName("service-reader");
            readerLoop(conn);
            std::lock_guard lk(connMutex_);
            reader->conn.reset(); // reapReaders() may join it now
        });
    }
}

void
Server::reapReaders()
{
    // A reader that reset its conn never takes connMutex_ again, so
    // joining it under the lock cannot deadlock.
    std::lock_guard lk(connMutex_);
    readers_.remove_if([](Reader &r) {
        if (r.conn)
            return false;
        r.thread.join();
        return true;
    });
}

void
Server::readerLoop(std::shared_ptr<Connection> conn)
{
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
            std::string line =
                buffer.substr(start, nl - start);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            start = nl + 1;
            if (!line.empty())
                handleLine(conn, line);
        }
        buffer.erase(0, start);
        if (buffer.size() > kMaxRequestBytes) {
            sendLine(conn,
                     errorReply("", errc::parseError,
                                "request line too long"));
            ::shutdown(conn->fd, SHUT_RDWR);
            break;
        }
    }
    conn->open.store(false);
}

void
Server::handleLine(const std::shared_ptr<Connection> &conn,
                   const std::string &line)
{
    metrics::counter("service.requests").add(1);

    Request req;
    try {
        req = parseRequest(line);
    } catch (const json::ParseError &e) {
        metrics::counter("service.parse_errors").add(1);
        sendLine(conn, errorReply("", errc::parseError, e.what()));
        return;
    } catch (const FatalError &e) {
        metrics::counter("service.parse_errors").add(1);
        sendLine(conn, errorReply("", errc::badRequest, e.what()));
        return;
    }

    switch (req.type) {
      case RequestType::Metrics:
        metrics::counter("service.requests_admin").add(1);
        sendLine(conn, okReply(req.id, req.type, metricsBody()));
        return;
      case RequestType::Health:
        metrics::counter("service.requests_admin").add(1);
        sendLine(conn, okReply(req.id, req.type, healthBody()));
        return;
      case RequestType::Shutdown:
        metrics::counter("service.requests_admin").add(1);
        sendLine(conn, okReply(req.id, req.type,
                               "{\"draining\": true}"));
        beginShutdown();
        return;
      case RequestType::Synth:
        metrics::counter("service.requests_synth").add(1);
        break;
      case RequestType::Yield:
        metrics::counter("service.requests_yield").add(1);
        break;
      case RequestType::Sweep:
        metrics::counter("service.requests_sweep").add(1);
        break;
      case RequestType::Classify:
        metrics::counter("service.requests_classify").add(1);
        break;
    }

    Task task;
    task.req = std::move(req);
    task.conn = conn;
    task.admitted = Clock::now();
    if (task.req.deadlineMs > 0) {
        task.hasDeadline = true;
        task.deadline =
            task.admitted +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    task.req.deadlineMs));
    }

    const std::string id = task.req.id;
    switch (admit(std::move(task))) {
      case Admit::Ok:
        return;
      case Admit::QueueFull:
        metrics::counter("service.rejected").add(1);
        sendLine(conn, errorReply(id, errc::queueFull,
                                  "admission queue is full"));
        return;
      case Admit::ShuttingDown:
        sendLine(conn, errorReply(id, errc::shuttingDown,
                                  "server is draining"));
        return;
    }
}

Server::Admit
Server::admit(Task task)
{
    {
        std::lock_guard lk(queueMutex_);
        if (finishing_)
            return Admit::ShuttingDown;
        if (queue_.size() >= opts_.maxQueue)
            return Admit::QueueFull;
        queue_.push_back(std::move(task));
    }
    queueCv_.notify_one();
    return Admit::Ok;
}

void
Server::executorLoop()
{
    for (;;) {
        Task task;
        {
            std::unique_lock lk(queueMutex_);
            queueCv_.wait(lk, [&] {
                return !queue_.empty() || finishing_;
            });
            if (queue_.empty())
                return; // finishing_ && drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        execute(task);
    }
}

void
Server::execute(Task &task)
{
    trace::Span span("service.request",
                     requestTypeName(task.req.type));
    metrics::distribution("service.queue_wait_ms")
        .record(millisSince(task.admitted));

    const Clock::time_point execStart = Clock::now();
    const Request &req = task.req;
    // The line that ends the exchange: the monolithic reply, the
    // stream's done frame, or an error.
    std::string last;
    try {
        if (req.stream) {
            // A stream runs on this executor thread alone, so the
            // shared pool stays free for queued monolithic work.
            metrics::counter("service.stream_requests").add(1);
            const std::uint64_t total = runPoints(
                task, [&](std::uint64_t i, std::uint64_t n, std::string body) {
                    sendLine(task.conn,
                             partialFrame(req.id, req.type, i, n, body));
                    metrics::counter("service.stream_partials").add(1);
                });
            last = doneFrame(req.id, req.type, total);
        } else {
            last = okReply(req.id, req.type, monolithicBody(task));
        }
        metrics::counter("service.replies_ok").add(1);
    } catch (const ClientGone &) {
        // Nobody is left to answer: stop computing, send nothing.
    } catch (const DeadlineError &) {
        metrics::counter("service.deadline_exceeded").add(1);
        metrics::counter("service.replies_error").add(1);
        last = errorReply(req.id, errc::deadlineExceeded,
                          "deadline of " + formatDouble(req.deadlineMs) +
                              " ms expired");
    } catch (const FatalError &e) {
        metrics::counter("service.replies_error").add(1);
        last = errorReply(req.id, errc::badRequest, e.what());
    } catch (const std::exception &e) {
        metrics::counter("service.replies_error").add(1);
        last = errorReply(req.id, errc::internalError, e.what());
    }
    // Recorded before the answer goes out, so a client that has read
    // it also sees the samples.
    if (task.hasDeadline)
        metrics::distribution("service.deadline_overrun_ms")
            .record(std::max(0.0, millisSince(task.deadline)));
    metrics::distribution("service.exec_ms")
        .record(millisSince(execStart));
    if (!last.empty())
        sendLine(task.conn, last);
}

std::uint64_t
Server::runPoints(const Task &task, const PointSink &emit)
{
    const Request &req = task.req;
    const Plan plan = planOf(req);

    // The one stop check: run before every point and, for a request
    // with a deadline or a stream, before every item of the pool
    // jobs inside a point.
    const auto stop = [&] {
        if (task.hasDeadline && Clock::now() > task.deadline)
            throw DeadlineError();
        if (req.stream && !task.conn->open.load())
            throw ClientGone{};
    };

    // A monolithic request's pooled plan runs on the shared pool,
    // one request at a time; any other plan runs on a one-thread
    // pool, i.e. on this thread alone. The check is removed (the
    // scope ends) before the shared pool is released.
    std::unique_lock<std::mutex> poolLock;
    std::optional<ThreadPool> inlinePool;
    ThreadPool *pool = &pool_;
    if (plan.pooled && !req.stream)
        poolLock = std::unique_lock(poolMutex_);
    else
        pool = &inlinePool.emplace(1);
    std::optional<ThreadPool::StopScope> stopScope;
    if (task.hasDeadline || req.stream)
        stopScope.emplace(*pool, stop);

    // The body of the one loop, run for every point in index order.
    const auto step = [&](std::uint64_t i, const auto &evaluate) {
        stop();
        emit(i, plan.size, evaluate());
    };

    if (req.type == RequestType::Classify) {
        // The search hands over each generation as it completes, so
        // its points are stepped from the search's callback. The
        // Pareto front is the last point.
        const auto result = ml::runClassifyCached(
            req.classify, *pool, [&](const ml::GenerationReport &gen) {
                step(gen.generation,
                     [&] { return classifyGenerationBody(gen); });
            });
        step(plan.size - 1, [&] { return classifyFrontBody(*result); });
        return plan.size;
    }

    for (std::uint64_t i = 0; i < plan.size; ++i)
        step(i, [&] { return plan.evaluate(i, *pool); });
    return plan.size;
}

std::string
Server::monolithicBody(const Task &task)
{
    std::vector<std::string> points;
    runPoints(task, [&](std::uint64_t, std::uint64_t, std::string body) {
        points.push_back(std::move(body));
    });
    return resultBody(task.req.type, points);
}

std::string
Server::metricsBody() const
{
    const metrics::Snapshot snap =
        metrics::Registry::global().snapshot();
    std::string out = "{\"counters\": {";
    bool first = true;
    for (const auto &[name, value] : snap.counters) {
        out += first ? "" : ", ";
        out += json::jsonQuote(name) + ": " +
               std::to_string(value);
        first = false;
    }
    out += "}, \"gauges\": {";
    first = true;
    for (const auto &[name, value] : snap.gauges) {
        out += first ? "" : ", ";
        out += json::jsonQuote(name) + ": " + formatDouble(value);
        first = false;
    }
    out += "}, \"distributions\": {";
    first = true;
    for (const auto &[name, s] : snap.distributions) {
        out += first ? "" : ", ";
        out += json::jsonQuote(name);
        out += ": {\"count\": " + std::to_string(s.count);
        out += ", \"mean\": " + formatDouble(s.mean);
        out += ", \"p50\": " + formatDouble(s.p50);
        out += ", \"p95\": " + formatDouble(s.p95);
        out += ", \"max\": " + formatDouble(s.max);
        out += "}";
        first = false;
    }
    out += "}}";
    return out;
}

std::string
Server::healthBody()
{
    std::size_t depth;
    bool draining;
    {
        std::lock_guard lk(queueMutex_);
        depth = queue_.size();
        draining = finishing_;
    }
    std::string out = "{\"status\": \"ok\"";
    out += ", \"proto\": " + std::to_string(kProtocolVersion);
    out += ", \"types\": " + supportedTypesJson();
    out += ", \"uptime_ms\": " +
           formatDouble(millisSince(started_));
    out += ", \"queue_depth\": " + std::to_string(depth);
    out += ", \"queue_capacity\": " +
           std::to_string(opts_.maxQueue);
    out += ", \"pool_threads\": " +
           std::to_string(pool_.threadCount());
    out += ", \"draining\": ";
    out += draining ? "true" : "false";
    out += "}";
    return out;
}

void
Server::sendLine(const std::shared_ptr<Connection> &conn,
                 const std::string &line)
{
    std::string framed = line;
    framed += '\n';
    std::lock_guard lk(conn->writeMutex);
    if (!netio::sendAll(conn->fd, framed.data(), framed.size()))
        conn->open.store(false); // client went away; drop the reply
}

} // namespace printed::service
