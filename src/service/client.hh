/**
 * @file
 * Client of the printedd protocol: one blocking TCP connection and
 * its read buffer. call() is the simple request/reply path;
 * send()/readLine() expose pipelining (queue many requests, then
 * collect the replies) and streams (read partial frames until the
 * done frame; protocol.hh's classifyFrame() and
 * assembleStreamedReply() turn them into the monolithic reply).
 * readLine() takes an optional poll-based timeout; all I/O retries
 * EINTR and handles partial writes (service/net_io.hh).
 */

#ifndef PRINTED_SERVICE_CLIENT_HH
#define PRINTED_SERVICE_CLIENT_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"

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

} // namespace printed::service

#endif // PRINTED_SERVICE_CLIENT_HH
