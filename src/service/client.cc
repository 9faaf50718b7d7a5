#include "client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/json_min.hh"
#include "common/logging.hh"
#include "service/net_io.hh"

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

} // namespace printed::service
