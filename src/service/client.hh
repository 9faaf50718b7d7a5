/**
 * @file
 * Clients of the printedd protocol.
 *
 * Two layers:
 *
 *   Client          one blocking TCP connection + read buffer.
 *                   call() is the simple request/reply path;
 *                   send()/readLine() expose pipelining (queue many
 *                   requests, then collect the replies). readLine()
 *                   takes an optional poll-based timeout; all I/O
 *                   retries EINTR and handles partial writes
 *                   (service/net_io.hh).
 *
 *   RetryingClient  the production path: per-call deadlines,
 *                   reconnect with capped exponential backoff and
 *                   deterministic jitter, and a retry policy that
 *                   only replays *idempotent* requests — every
 *                   compute/introspection request is a pure
 *                   function of its line, so it may be replayed
 *                   when the connection is lost (before or inside
 *                   a reply: partial frames are discarded on
 *                   reconnect), when the server answers
 *                   shutting_down (a draining server is a restart
 *                   in progress; replayed on the loss budget), or
 *                   when it answers queue_full with a
 *                   retry_after_ms hint. Non-idempotent requests
 *                   (shutdown) are never replayed. One successful
 *                   call returns exactly one reply: no reply is
 *                   ever lost (the call throws instead) and none
 *                   duplicated (replays replace, never append).
 */

#ifndef PRINTED_SERVICE_CLIENT_HH
#define PRINTED_SERVICE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "service/protocol.hh"

namespace printed::service
{

/** A per-call deadline expired while waiting for the reply. */
class TimeoutError : public FatalError
{
  public:
    explicit TimeoutError(const std::string &msg) : FatalError(msg)
    {}
};

/** Parsed summary of one reply line. */
struct Reply
{
    std::string id;
    bool ok = false;
    std::string error;   ///< errc code when !ok
    std::string message; ///< human text when !ok
    double retryAfterMs = 0; ///< queue_full backoff hint (or 0)
    std::string raw;     ///< the exact reply line (no newline)
};

/** Parse a reply line (throws json::ParseError / FatalError). */
Reply parseReply(const std::string &line);

/** One blocking connection to a printedd server. */
class Client
{
  public:
    Client() = default;

    /** Connect immediately (throws FatalError on failure). */
    Client(const std::string &host, std::uint16_t port);

    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;

    /** Connect (closing any previous connection first). */
    void connect(const std::string &host, std::uint16_t port);

    bool connected() const { return fd_ >= 0; }

    /** Send one request line (newline appended). */
    void send(const std::string &line);

    /**
     * Read the next reply line. Throws FatalError if the server
     * hangs up before a full line arrives, TimeoutError when
     * timeoutMs > 0 expires first (the connection is then left with
     * a stale in-flight reply: close it before reusing).
     */
    std::string readLine(double timeoutMs = 0);

    /** send() + readLine(): one request/reply round trip. */
    std::string call(const std::string &line);

    void close();

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** Knobs of RetryingClient (defaults suit loopback serving). */
struct RetryPolicy
{
    /** Replay budget for lost connections / expired deadlines. */
    unsigned maxLossRetries = 5;

    /** Replay budget for queue_full overload rejections. */
    unsigned maxOverloadRetries = 64;

    /** Per-call reply deadline; 0 = wait forever. */
    double callTimeoutMs = 30000;

    /** Backoff base/cap; delay = min(base * 2^n, max) * jitter. */
    double baseBackoffMs = 5;
    double maxBackoffMs = 250;

    /** Seed of the deterministic jitter stream. */
    std::uint64_t jitterSeed = 1;
};

/** Monotonic counters of one RetryingClient. */
struct RetryStats
{
    std::uint64_t calls = 0;
    std::uint64_t reconnects = 0;       ///< successful (re)connects
    std::uint64_t lossReplays = 0;      ///< replays after lost conn
    std::uint64_t timeoutReplays = 0;   ///< replays after deadline
    std::uint64_t overloadReplays = 0;  ///< replays after queue_full
    std::uint64_t streamResumes = 0;    ///< mid-stream resume replays
};

/**
 * Outcome of a streamed call: `points` holds every point body in
 * index order and `reply` is the assembled monolithic equivalent —
 * byte-identical to the monolithic reply. An error reply
 * (deadline_exceeded, bad_request; exhausted budgets surface as
 * throws instead) lands in `reply` with ok == false.
 */
struct StreamResult
{
    Reply reply;
    std::vector<std::string> points; ///< point bodies, index order
    std::uint64_t partials = 0;      ///< partial frames consumed
};

/**
 * Called for each partial as it arrives: (index, total, pointBody).
 * Replays after a mid-stream disconnect resume from the last
 * received index, so the callback fires exactly once per point.
 */
using PointCallback = std::function<void(
    std::uint64_t, std::uint64_t, const std::string &)>;

/** Self-healing request/reply client (see file comment). */
class RetryingClient
{
  public:
    RetryingClient(std::string host, std::uint16_t port,
                   RetryPolicy policy = {});

    /**
     * One request -> exactly one reply line. Transient failures
     * (lost connection, per-call timeout, shutting_down,
     * queue_full) are retried within the policy's budgets when
     * `idempotent`; a non-idempotent call is never replayed once
     * its bytes may have reached the server. Throws FatalError when
     * the budgets are exhausted.
     */
    std::string call(const std::string &line,
                     bool idempotent = true);

    /** call() + parseReply(). */
    Reply callParsed(const std::string &line,
                     bool idempotent = true);

    /**
     * Streamed sweep: partial frames invoke `onPoint` in strict
     * index order; a lost connection, timeout or shutting_down
     * mid-stream replays with "resume_from" set to the first
     * missing index, so no point is ever duplicated or dropped.
     * Streams are compute requests, hence idempotent, hence always
     * replayable.
     */
    StreamResult streamSweep(const std::string &id,
                             const SweepSpec &spec,
                             const PointCallback &onPoint = {},
                             double deadlineMs = 0);

    /**
     * Streamed classify: points 0..G-1 are per-generation search
     * summaries, point G is the Pareto front (same resume rules as
     * streamSweep, so a mid-search disconnect resumes without
     * replaying generations already in hand).
     */
    StreamResult streamClassify(const std::string &id,
                                const ml::ClassifySpec &spec,
                                const PointCallback &onPoint = {},
                                double deadlineMs = 0);

    const RetryStats &stats() const { return stats_; }

    void close();

  private:
    void ensureConnected();
    double nextBackoffMs(unsigned attempt);
    void backoff(unsigned attempt, double floorMs = 0);

    /**
     * Shared streamed-call engine: `lineAt(resumeFrom)` renders the
     * request to (re)send when `resumeFrom` points are already in
     * hand.
     */
    StreamResult streamCall(
        const std::string &id, RequestType type,
        const std::function<std::string(std::uint64_t)> &lineAt,
        const PointCallback &onPoint);

    std::string host_;
    std::uint16_t port_;
    RetryPolicy policy_;
    Client client_;
    Rng jitter_;
    RetryStats stats_;
};

} // namespace printed::service

#endif // PRINTED_SERVICE_CLIENT_HH
