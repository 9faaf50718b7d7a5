/**
 * @file
 * printedd: the long-running evaluation service.
 *
 * Serves the protocol of protocol.hh over loopback TCP. The server
 * is structured as
 *
 *   accept thread -> one reader thread per connection
 *                 -> bounded request queue (admission control)
 *                 -> executor threads  -> shared compute ThreadPool
 *
 * Point plans: every compute request is an ordered list of points —
 * a synth or a yield is one point, a sweep its configs, an ISS sweep
 * its (core, kernel) grid, a classify its generation summaries and
 * then the Pareto front. One loop (runPoints) evaluates them in
 * index order from resume_from, with one deadline check per point
 * and, for a stream, one client-gone check. A stream sends each
 * point as a partial frame and then a done frame; a monolithic
 * request collects the points and wraps them with resultBody(), the
 * rule assembleStreamedReply() applies to a finished stream, so the
 * two are byte-identical by construction. Monolithic yields, ISS
 * sweeps and classify searches run on the shared pool, one request
 * at a time; synth points never touch a pool, and any other plan
 * runs on a one-thread pool, i.e. on its executor thread alone.
 *
 * Admission: compute requests enter a bounded FIFO queue; when it
 * holds maxQueue requests, any compute request is answered
 * immediately with a "queue_full" error instead of being buffered
 * without limit. Introspection (metrics/health) and admin (shutdown)
 * are answered inline by the reader thread and never queue, so the
 * control plane stays answerable no matter the load.
 *
 * Deadlines: a request's optional "deadline_ms" is relative to
 * admission and checked before each point and (as the pool's stop
 * check, with a stream's client-gone test) before every pool item
 * inside a point: one MC trial or 64-copy block, one ISS chunk, one
 * classify candidate. An expired request is answered
 * "deadline_exceeded" within one item; "service.deadline_overrun_ms"
 * records how late each request with a deadline was answered.
 *
 * Errors: a FatalError while running a plan (an invalid spec, a
 * resume_from past the last point) answers "bad_request"; any other
 * exception answers "internal_error".
 *
 * Drain: shutdown (the request type, Server::~Server, or a signal
 * via beginShutdown()) stops admission — new compute requests get
 * "shutting_down" — then lets the executors finish every admitted
 * request before the sockets close, so no accepted request is ever
 * silently dropped.
 *
 * Determinism: compute replies are byte-identical functions of the
 * request line (protocol.hh); the executors only decide *when* and
 * *by whom* a reply is computed, never its bytes. The server does
 * not dedupe requests: identical ones in flight together share a
 * core being built through the SynthCache, and a settled classify
 * search is replayed from the classify result cache. Everything else
 * the server touches (metrics, traces) is observational only.
 */

#ifndef PRINTED_SERVICE_SERVER_HH
#define PRINTED_SERVICE_SERVER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "service/protocol.hh"

namespace printed::service
{

/** Configuration of a Server. */
struct ServerOptions
{
    /** Listen address (loopback by default — printedd is local). */
    std::string host = "127.0.0.1";

    /** Listen port; 0 = ephemeral (read back via Server::port()). */
    std::uint16_t port = 0;

    /** Executor threads draining the request queue. */
    unsigned executors = 2;

    /**
     * Threads of the shared compute pool (yield trials, ISS
     * machines, classify candidates); 0 = hardware concurrency.
     */
    unsigned poolThreads = 0;

    /** Admission-queue capacity; beyond it requests are rejected. */
    std::size_t maxQueue = 64;

    /** Largest accepted request line; longer closes the client. */
    std::size_t maxRequestBytes = 1 << 20;

    /**
     * SynthCache::global() entry cap installed at start(); 0 leaves
     * the cache unbounded (the bench/test default).
     */
    std::size_t cacheCapacity = 0;
};

/** The printedd TCP server. */
class Server
{
  public:
    explicit Server(ServerOptions opts = {});
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and spawn the service threads. */
    void start();

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return port_; }

    /**
     * Request shutdown: stop admitting compute requests and wake
     * wait(). Safe from any thread, including reader threads (the
     * "shutdown" request type calls this); returns immediately.
     */
    void beginShutdown();

    /**
     * Block until shutdown is requested, then drain: finish every
     * admitted request, join all threads, close all sockets.
     */
    void wait();

  private:
    struct Connection;

    /** Admission verdicts. */
    enum class Admit
    {
        Ok,
        QueueFull,
        ShuttingDown
    };

    /** One admitted compute request. */
    struct Task
    {
        Request req;
        std::shared_ptr<Connection> conn;
        std::chrono::steady_clock::time_point admitted;
        bool hasDeadline = false;
        std::chrono::steady_clock::time_point deadline;
    };

    void acceptLoop();
    void readerLoop(std::shared_ptr<Connection> conn);
    void executorLoop();

    /** Handle one request line from a connection. */
    void handleLine(const std::shared_ptr<Connection> &conn,
                    const std::string &line);

    /** Queue a compute request unless full or draining. */
    Admit admit(Task task);
    /** Run one compute request and send its answer. */
    void execute(Task &task);

    /** Receives one evaluated point: (index, total, body). */
    using PointSink = std::function<void(std::uint64_t, std::uint64_t,
                                         std::string)>;

    /**
     * The one loop (see file comment): evaluate the task's points
     * from resume_from in index order and hand each to `emit`; a
     * monolithic yield, ISS sweep or classify holds the shared pool
     * meanwhile. Returns the plan's point count. Throws
     * DeadlineError (internal) when the deadline expires, ClientGone
     * (internal) when a stream's client hangs up (both between
     * points or before a pool item), and FatalError when
     * resume_from is past the plan.
     */
    std::uint64_t runPoints(const Task &task, const PointSink &emit);

    /** All of a monolithic request's points, wrapped. */
    std::string monolithicBody(const Task &task);

    std::string metricsBody() const;
    std::string healthBody();

    /** Send one reply line on a connection (serialized per-conn). */
    void sendLine(const std::shared_ptr<Connection> &conn,
                  const std::string &line);

    void joinEverything();

    ServerOptions opts_;
    std::uint16_t port_ = 0;
    int listenFd_ = -1;
    std::chrono::steady_clock::time_point started_;

    ThreadPool pool_;
    std::mutex poolMutex_; ///< the pool runs one job at a time

    std::thread acceptThread_;
    std::vector<std::thread> executors_;

    std::mutex connMutex_;
    std::vector<std::shared_ptr<Connection>> conns_;

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::deque<Task> queue_;
    bool finishing_ = false; ///< shutdown requested; drain mode

    std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;
    bool joined_ = false;
};

} // namespace printed::service

#endif // PRINTED_SERVICE_SERVER_HH
