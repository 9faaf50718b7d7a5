/**
 * @file
 * printedd: the evaluation daemon. Binds, prints the listen
 * address on stdout (scripts parse that line to find the ephemeral
 * port), and serves until a "shutdown" request or SIGINT/SIGTERM,
 * then drains admitted requests and exits 0.
 */

#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>

#include "common/logging.hh"
#include "common/trace.hh"
#include "service/server.hh"

namespace
{

int gSignalPipe[2] = {-1, -1};

void
onSignal(int)
{
    const char byte = 1;
    // Best effort; the pipe is only ever written once meaningfully.
    (void)!::write(gSignalPipe[1], &byte, 1);
}

/** A numeric flag's value: all of it, unsigned, in T's range. */
template <typename T>
T
numberArg(int argc, char **argv, int &i, const char *flag)
{
    if (i + 1 >= argc)
        printed::fatal(std::string(flag) + " needs a value");
    const std::string_view text = argv[++i];
    T value{};
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size())
        printed::fatal(std::string(flag) + " needs a whole number from "
                       "0 to " +
                       std::to_string(std::numeric_limits<T>::max()) +
                       ", not '" + std::string(text) + "'");
    return value;
}

void
usage()
{
    std::fputs(
        "usage: printedd [options]\n"
        "  --host ADDR       listen address (default 127.0.0.1)\n"
        "  --port N          listen port (default 0 = ephemeral)\n"
        "  --executors N     request executor threads (default 2)\n"
        "  --pool-threads N  shared compute pool size (default\n"
        "                    0 = hardware concurrency)\n"
        "  --max-queue N     admission queue capacity (default 64)\n"
        "  --cache-cap N     SynthCache entry cap, 0 = unbounded\n"
        "                    (default 256)\n"
        "  --trace-out PATH  write a Chrome trace on exit\n"
        "\n"
        "A request's deadline_ms is checked between its points and\n"
        "before every item of its compute (one Monte Carlo trial or\n"
        "block, one ISS chunk, one classify candidate).\n",
        stderr);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using printed::service::Server;
    using printed::service::ServerOptions;

    ServerOptions opts;
    opts.cacheCapacity = 256;
    std::string traceOut;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        try {
            if (arg == "--host") {
                printed::fatalIf(i + 1 >= argc,
                                 "--host needs a value");
                opts.host = argv[++i];
            } else if (arg == "--port") {
                opts.port = numberArg<std::uint16_t>(argc, argv, i,
                                                     "--port");
            } else if (arg == "--executors") {
                opts.executors =
                    numberArg<unsigned>(argc, argv, i, "--executors");
            } else if (arg == "--pool-threads") {
                opts.poolThreads = numberArg<unsigned>(
                    argc, argv, i, "--pool-threads");
            } else if (arg == "--max-queue") {
                opts.maxQueue = numberArg<std::size_t>(argc, argv, i,
                                                       "--max-queue");
            } else if (arg == "--cache-cap") {
                opts.cacheCapacity = numberArg<std::size_t>(
                    argc, argv, i, "--cache-cap");
            } else if (arg == "--trace-out") {
                printed::fatalIf(i + 1 >= argc,
                                 "--trace-out needs a value");
                traceOut = argv[++i];
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else {
                std::fprintf(stderr, "unknown option '%s'\n",
                             arg.c_str());
                usage();
                return 2;
            }
        } catch (const printed::FatalError &e) {
            std::fprintf(stderr, "printedd: %s\n", e.what());
            return 2;
        }
    }

    if (!traceOut.empty())
        printed::trace::enable(traceOut);
    printed::trace::setThreadName("main");

    try {
        Server server(opts);
        server.start();

        // Signal -> self-pipe -> watcher thread -> beginShutdown.
        // (beginShutdown takes locks, so it can't run in the
        // handler itself.)
        printed::fatalIf(::pipe(gSignalPipe) != 0,
                         "pipe() failed");
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        std::thread watcher([&server] {
            char byte;
            if (::read(gSignalPipe[0], &byte, 1) > 0)
                server.beginShutdown();
        });

        std::printf("printedd listening on %s:%u\n",
                    opts.host.c_str(), unsigned(server.port()));
        std::fflush(stdout);

        server.wait();

        // Unblock the watcher if shutdown came over the wire.
        onSignal(0);
        watcher.join();
        ::close(gSignalPipe[0]);
        ::close(gSignalPipe[1]);
    } catch (const printed::FatalError &e) {
        std::fprintf(stderr, "printedd: %s\n", e.what());
        return 1;
    }

    if (!traceOut.empty())
        printed::trace::flush();
    return 0;
}
