/**
 * @file
 * printed-balancer: the sharded front of a printedd fleet. Routes
 * by consistent-hashed request key over N workers — either spawned
 * here (--shards N) or externally managed (--worker H:P, repeated).
 * Prints its listen address on stdout like printedd, serves until a
 * "shutdown" request or SIGINT/SIGTERM, then drains (propagating
 * the drain to its workers) and exits 0.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>

#include "common/logging.hh"
#include "common/trace.hh"
#include "service/balancer.hh"

namespace
{

int gSignalPipe[2] = {-1, -1};

void
onSignal(int)
{
    const char byte = 1;
    (void)!::write(gSignalPipe[1], &byte, 1);
}

unsigned long
numberArg(int argc, char **argv, int &i, const char *flag)
{
    if (i + 1 >= argc)
        printed::fatal(std::string(flag) + " needs a value");
    return std::strtoul(argv[++i], nullptr, 10);
}

/** "HOST:PORT" -> WorkerAddress (throws on a missing colon). */
printed::service::WorkerAddress
parseWorker(const std::string &spec)
{
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0)
        printed::fatal("--worker needs HOST:PORT, got '" + spec + "'");
    printed::service::WorkerAddress addr;
    addr.host = spec.substr(0, colon);
    addr.port = std::uint16_t(
        std::strtoul(spec.c_str() + colon + 1, nullptr, 10));
    return addr;
}

/** Sibling printedd binary of this executable (spawn default). */
std::string
siblingPrintedd(const char *argv0)
{
    std::string path = argv0;
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos)
        return "printedd"; // rely on PATH
    return path.substr(0, slash + 1) + "printedd";
}

void
usage()
{
    std::fputs(
        "usage: printed-balancer [options]\n"
        "  --host ADDR       listen address (default 127.0.0.1)\n"
        "  --port N          listen port (default 0 = ephemeral)\n"
        "  --worker H:P      an externally managed printedd worker\n"
        "                    (repeat once per shard)\n"
        "  --shards N        spawn N printedd workers instead\n"
        "  --printedd PATH   printedd binary for --shards (default:\n"
        "                    next to this executable)\n"
        "  --worker-arg ARG  extra argv passed to spawned workers\n"
        "                    (repeatable, e.g. --worker-arg\n"
        "                    --disk-cache --worker-arg DIR)\n"
        "  --cache-cap N     shorthand: per-worker SynthCache cap\n"
        "  --disk-cache DIR  shorthand: shared persistent cache\n"
        "                    directory for every spawned worker\n"
        "  --vnodes N        ring vnodes per shard (default 128)\n"
        "  --fault-plan SPEC seeded faults on relayed compute\n"
        "                    frames (same spec as printedd)\n"
        "  --trace-out PATH  write a Chrome trace on exit\n",
        stderr);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using printed::service::Balancer;
    using printed::service::BalancerOptions;

    BalancerOptions opts;
    opts.printeddPath = siblingPrintedd(argv[0]);
    std::string traceOut;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        try {
            if (arg == "--host") {
                printed::fatalIf(i + 1 >= argc,
                                 "--host needs a value");
                opts.host = argv[++i];
            } else if (arg == "--port") {
                opts.port = std::uint16_t(
                    numberArg(argc, argv, i, "--port"));
            } else if (arg == "--worker") {
                printed::fatalIf(i + 1 >= argc,
                                 "--worker needs a value");
                opts.workers.push_back(parseWorker(argv[++i]));
            } else if (arg == "--shards") {
                opts.spawnWorkers = unsigned(
                    numberArg(argc, argv, i, "--shards"));
            } else if (arg == "--printedd") {
                printed::fatalIf(i + 1 >= argc,
                                 "--printedd needs a value");
                opts.printeddPath = argv[++i];
            } else if (arg == "--worker-arg") {
                printed::fatalIf(i + 1 >= argc,
                                 "--worker-arg needs a value");
                opts.workerArgs.push_back(argv[++i]);
            } else if (arg == "--cache-cap") {
                opts.workerArgs.push_back("--cache-cap");
                opts.workerArgs.push_back(std::to_string(
                    numberArg(argc, argv, i, "--cache-cap")));
            } else if (arg == "--disk-cache") {
                printed::fatalIf(i + 1 >= argc,
                                 "--disk-cache needs a value");
                opts.workerArgs.push_back("--disk-cache");
                opts.workerArgs.push_back(argv[++i]);
            } else if (arg == "--vnodes") {
                opts.vnodes = unsigned(
                    numberArg(argc, argv, i, "--vnodes"));
            } else if (arg == "--fault-plan") {
                printed::fatalIf(i + 1 >= argc,
                                 "--fault-plan needs a value");
                opts.faultPlan =
                    printed::service::FaultPlan::parse(argv[++i]);
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
            std::fprintf(stderr, "printed-balancer: %s\n", e.what());
            return 2;
        }
    }

    if (opts.spawnWorkers == 0 && opts.workers.empty()) {
        std::fprintf(stderr, "printed-balancer: give --shards N or "
                             "at least one --worker H:P\n");
        usage();
        return 2;
    }
    if (opts.spawnWorkers > 0 && !opts.workers.empty()) {
        std::fprintf(stderr, "printed-balancer: --shards and "
                             "--worker are mutually exclusive\n");
        return 2;
    }

    if (!traceOut.empty())
        printed::trace::enable(traceOut);
    printed::trace::setThreadName("main");

    if (opts.faultPlan.enabled())
        std::fprintf(stderr, "printed-balancer: fault plan %s\n",
                     opts.faultPlan.describe().c_str());

    try {
        const std::string host = opts.host;
        Balancer balancer(std::move(opts));
        balancer.start();

        printed::fatalIf(::pipe(gSignalPipe) != 0, "pipe() failed");
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        std::thread watcher([&balancer] {
            char byte;
            if (::read(gSignalPipe[0], &byte, 1) > 0)
                balancer.beginShutdown();
        });

        std::printf("printed-balancer listening on %s:%u (%u "
                    "shards)\n",
                    host.c_str(), unsigned(balancer.port()),
                    unsigned(balancer.shardCount()));
        std::fflush(stdout);

        balancer.wait();

        onSignal(0);
        watcher.join();
        ::close(gSignalPipe[0]);
        ::close(gSignalPipe[1]);
    } catch (const printed::FatalError &e) {
        std::fprintf(stderr, "printed-balancer: %s\n", e.what());
        return 1;
    }

    if (!traceOut.empty())
        printed::trace::flush();
    return 0;
}
