#include "client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/json_min.hh"
#include "common/logging.hh"
#include "service/net_io.hh"
#include "service/protocol.hh"

namespace printed::service
{

Reply
parseReply(const std::string &line)
{
    const json::Value root = json::parse(line);
    fatalIf(!root.isObject(), "reply must be a JSON object");
    Reply reply;
    reply.raw = line;
    if (const json::Value *id = root.find("id");
        id && id->isString())
        reply.id = id->string;
    const json::Value *ok = root.find("ok");
    fatalIf(!ok || !ok->isBool(),
            "reply needs a boolean 'ok' field");
    reply.ok = ok->boolean;
    if (!reply.ok) {
        if (const json::Value *e = root.find("error");
            e && e->isString())
            reply.error = e->string;
        if (const json::Value *m = root.find("message");
            m && m->isString())
            reply.message = m->string;
        if (const json::Value *r = root.find("retry_after_ms");
            r && r->isNumber() && r->number >= 0)
            reply.retryAfterMs = r->number;
    }
    return reply;
}

Client::Client(const std::string &host, std::uint16_t port)
{
    connect(host, port);
}

Client::~Client()
{
    close();
}

Client::Client(Client &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_))
{
}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
        buffer_ = std::move(other.buffer_);
    }
    return *this;
}

void
Client::connect(const std::string &host, std::uint16_t port)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        fatal(std::string("socket(): ") + std::strerror(errno));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        fatal("bad server address '" + host + "'");
    for (;;) {
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            break;
        if (errno == EINTR)
            continue;
        const std::string err = std::strerror(errno);
        close();
        fatal("connect(" + host + ":" + std::to_string(port) +
              "): " + err);
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void
Client::send(const std::string &line)
{
    fatalIf(fd_ < 0, "client is not connected");
    std::string framed = line;
    framed += '\n';
    fatalIf(!netio::sendAll(fd_, framed.data(), framed.size()),
            "send(): server closed the connection");
}

std::string
Client::readLine(double timeoutMs)
{
    fatalIf(fd_ < 0, "client is not connected");
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        const std::size_t nl = buffer_.find('\n');
        if (nl != std::string::npos) {
            std::string line = buffer_.substr(0, nl);
            buffer_.erase(0, nl + 1);
            return line;
        }
        double waitMs = 0;
        if (timeoutMs > 0) {
            const double elapsedMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            waitMs = timeoutMs - elapsedMs;
            if (waitMs <= 0 ||
                !netio::waitReadable(fd_, waitMs))
                throw TimeoutError(
                    "no reply within " + std::to_string(timeoutMs) +
                    " ms");
        }
        char chunk[4096];
        const ssize_t n = netio::recvSome(fd_, chunk, sizeof(chunk));
        fatalIf(n <= 0,
                "server closed the connection mid-reply");
        buffer_.append(chunk, std::size_t(n));
    }
}

std::string
Client::call(const std::string &line)
{
    send(line);
    return readLine();
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
}

// ---------------------------------------------------------------
// RetryingClient
// ---------------------------------------------------------------

RetryingClient::RetryingClient(std::string host, std::uint16_t port,
                               RetryPolicy policy)
    : host_(std::move(host)),
      port_(port),
      policy_(policy),
      jitter_(policy.jitterSeed)
{
}

void
RetryingClient::ensureConnected()
{
    if (client_.connected())
        return;
    client_.connect(host_, port_);
    ++stats_.reconnects;
}

double
RetryingClient::nextBackoffMs(unsigned attempt)
{
    double delay = policy_.baseBackoffMs;
    for (unsigned i = 0; i < attempt && delay < policy_.maxBackoffMs;
         ++i)
        delay *= 2;
    delay = std::min(delay, policy_.maxBackoffMs);
    // Deterministic jitter in [0.5, 1.5) * delay avoids replayed
    // thundering herds while keeping tests reproducible.
    const double u =
        double(jitter_.next() >> 11) * 0x1.0p-53;
    return delay * (0.5 + u);
}

void
RetryingClient::backoff(unsigned attempt, double floorMs)
{
    const double ms = std::max(nextBackoffMs(attempt), floorMs);
    if (ms > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
}

std::string
RetryingClient::call(const std::string &line, bool idempotent)
{
    ++stats_.calls;
    unsigned lossTries = 0;
    unsigned overloadTries = 0;
    for (;;) {
        bool sent = false;
        try {
            ensureConnected();
            client_.send(line);
            sent = true;
            std::string raw =
                client_.readLine(policy_.callTimeoutMs);
            // queue_full is a transient overload rejection, not an
            // answer — honor the server's backoff hint and replay.
            Reply parsed;
            try {
                parsed = parseReply(raw);
            } catch (const std::exception &) {
                return raw; // not our reply shape; caller's problem
            }
            if (!parsed.ok && parsed.error == errc::queueFull &&
                idempotent) {
                if (overloadTries >= policy_.maxOverloadRetries)
                    fatal("request rejected queue_full " +
                          std::to_string(overloadTries + 1) +
                          " times; giving up");
                ++overloadTries;
                ++stats_.overloadReplays;
                backoff(overloadTries - 1, parsed.retryAfterMs);
                continue;
            }
            // A draining server is a restart in progress: replay an
            // idempotent request as if the connection were lost.
            if (!parsed.ok && parsed.error == errc::shuttingDown &&
                idempotent)
                fatal("server is draining");
            return raw;
        } catch (const TimeoutError &) {
            // A late reply may still be in flight on this
            // connection; drop it so a replay can't read a stale
            // frame and mismatch ids.
            client_.close();
            if (!idempotent || lossTries >= policy_.maxLossRetries)
                throw;
            ++lossTries;
            ++stats_.timeoutReplays;
            backoff(lossTries - 1);
        } catch (const FatalError &) {
            client_.close();
            // A non-idempotent request may only be replayed while
            // we know its bytes never reached the server.
            if ((sent && !idempotent) ||
                lossTries >= policy_.maxLossRetries)
                throw;
            ++lossTries;
            ++stats_.lossReplays;
            backoff(lossTries - 1);
        }
    }
}

Reply
RetryingClient::callParsed(const std::string &line, bool idempotent)
{
    return parseReply(call(line, idempotent));
}

StreamResult
RetryingClient::streamCall(
    const std::string &id, RequestType type,
    const std::function<std::string(std::uint64_t)> &lineAt,
    const PointCallback &onPoint)
{
    ++stats_.calls;
    StreamResult out;
    unsigned lossTries = 0;
    unsigned overloadTries = 0;
    for (;;) {
        try {
            ensureConnected();
            // Replays ask only for what is missing: every point
            // already in hand stays in hand, so the callback fires
            // exactly once per index no matter how many resumes it
            // takes.
            client_.send(lineAt(out.points.size()));
            for (;;) {
                const std::string raw =
                    client_.readLine(policy_.callTimeoutMs);
                StreamFrame frame;
                try {
                    frame = classifyFrame(raw);
                } catch (const std::exception &) {
                    out.reply.raw = raw;
                    return out; // not our reply shape
                }
                if (!frame.id.empty() && frame.id != id)
                    fatal("stream frame for id '" + frame.id +
                          "' while waiting on '" + id + "'");

                if (frame.kind == StreamFrame::Kind::Partial) {
                    if (frame.index != out.points.size())
                        fatal("stream point " + std::to_string(frame.index) +
                              " arrived with " +
                              std::to_string(out.points.size()) +
                              " points in hand");
                    out.points.push_back(frame.pointBody);
                    ++out.partials;
                    if (onPoint)
                        onPoint(frame.index, frame.total,
                                out.points.back());
                    continue;
                }

                if (frame.kind == StreamFrame::Kind::Done) {
                    if (frame.points != out.points.size())
                        fatal("stream done after " +
                              std::to_string(frame.points) + " points but " +
                              std::to_string(out.points.size()) +
                              " are in hand");
                    out.reply = parseReply(
                        assembleStreamedReply(id, type, out.points));
                    return out;
                }

                // Final frame: an error (or a reply that is not a
                // stream frame) ends the exchange.
                Reply parsed;
                try {
                    parsed = parseReply(raw);
                } catch (const std::exception &) {
                    out.reply.raw = raw;
                    return out;
                }
                if (!parsed.ok && parsed.error == errc::queueFull) {
                    if (overloadTries >= policy_.maxOverloadRetries)
                        fatal("stream rejected " + parsed.error + " " +
                              std::to_string(overloadTries + 1) +
                              " times; giving up");
                    ++overloadTries;
                    ++stats_.overloadReplays;
                    backoff(overloadTries - 1, parsed.retryAfterMs);
                    break; // resend, resuming past held points
                }
                // Draining: reconnect and resume, as after a loss.
                if (!parsed.ok && parsed.error == errc::shuttingDown)
                    fatal("server is draining");
                out.reply = parsed;
                return out;
            }
        } catch (const TimeoutError &) {
            client_.close();
            if (lossTries >= policy_.maxLossRetries)
                throw;
            ++lossTries;
            ++stats_.timeoutReplays;
            if (!out.points.empty())
                ++stats_.streamResumes;
            backoff(lossTries - 1);
        } catch (const FatalError &) {
            client_.close();
            if (lossTries >= policy_.maxLossRetries)
                throw;
            ++lossTries;
            ++stats_.lossReplays;
            if (!out.points.empty())
                ++stats_.streamResumes;
            backoff(lossTries - 1);
        }
    }
}

StreamResult
RetryingClient::streamSweep(const std::string &id,
                            const SweepSpec &spec,
                            const PointCallback &onPoint,
                            double deadlineMs)
{
    return streamCall(
        id, RequestType::Sweep,
        [&](std::uint64_t resumeFrom) {
            return sweepStreamRequest(id, spec, resumeFrom,
                                      deadlineMs);
        },
        onPoint);
}

StreamResult
RetryingClient::streamClassify(const std::string &id,
                               const ml::ClassifySpec &spec,
                               const PointCallback &onPoint,
                               double deadlineMs)
{
    return streamCall(
        id, RequestType::Classify,
        [&](std::uint64_t resumeFrom) {
            return classifyStreamRequest(id, spec, resumeFrom,
                                         deadlineMs);
        },
        onPoint);
}

void
RetryingClient::close()
{
    client_.close();
}

} // namespace printed::service
