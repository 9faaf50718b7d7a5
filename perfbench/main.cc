/**
 * @file
 * perfbench: the repository's benchmark program.
 *
 *   perfbench --workload design|simulate|serve --seed N --seconds N
 *             --trace 0|1 [--printedd PATH]
 *   perfbench --self-test
 *
 * Prints a human-readable report and, as the last line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end metrics; with --trace 1
 * they are the per-layer metrics of a traced run. A failed output
 * check prints "FAIL: ..." and makes the exit code 1.
 */

#include <charconv>
#include <cmath>
#include <cstring>
#include <iostream>
#include <stdexcept>

#include "perfbench.hh"

namespace
{

using namespace perfbench;

std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

void
printResult(const Report &r, std::uint64_t failed, bool trace)
{
    const auto &names = trace ? perLayerMetrics() : endToEndMetrics();
    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto it = r.metrics.find(names[i]);
        const double v = it == r.metrics.end() ? 0.0 : it->second;
        out += (i ? ", \"" : "\"") + names[i] + "\": {\"value\": " +
               number(v) + ", \"unit\": \"" + metricUnits().at(names[i]) +
               "\"}";
    }
    out += "}}";
    std::cout << out << std::endl;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + arg);
        const std::string val = argv[++i];
        if (arg == "--workload") {
            a.workload = val;
            haveWorkload = true;
        } else if (arg == "--seed") {
            a.seed = std::stoull(val);
        } else if (arg == "--seconds") {
            a.seconds = unsigned(std::stoul(val));
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            a.trace = val == "1";
        } else if (arg == "--printedd") {
            a.printedd = val;
        } else {
            throw std::invalid_argument("unknown option " + arg);
        }
    }
    if (!haveWorkload || a.seconds == 0)
        throw std::invalid_argument("need --workload and --seconds > 0");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0)
        return runSelfTest();
    try {
        const Args args = parseArgs(argc, argv);
        if (runSelfTest() != 0)
            return 1;
        Report r;
        if (args.workload == "design")
            r = runDesign(args);
        else if (args.workload == "simulate")
            r = runSimulate(args);
        else if (args.workload == "serve")
            r = runServe(args);
        else
            throw std::invalid_argument("unknown workload " + args.workload);
        for (auto &[name, value] : r.metrics)
            if (!std::isfinite(value)) {
                fail("metric " + name + " is not a finite number");
                value = 0;
            }
        const std::uint64_t failed = failures();
        r.attempted = std::max(r.attempted, failed);
        std::cout << "failed_frac " << double(failed) / double(r.attempted)
                  << " (" << failed << " of " << r.attempted
                  << " operations)\n";
        printResult(r, failed, args.trace);
        return failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cout << "FAIL: " << e.what() << std::endl;
        return 1;
    }
}
