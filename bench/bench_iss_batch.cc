/**
 * @file
 * Fleet-scale ISS throughput per legacy core (Table 4 cores,
 * Section 8 workloads).
 *
 * For each core, M machines of the 8-bit multiply kernel (machine m
 * seeded with defaultInputs(mult, 8, 1 + m)) run on the core's
 * interpreter over one pool of --threads T threads. The run is
 * repeated --reps times and the best wall-clock is kept (shared
 * machines stall; the best rep is the least-disturbed one). Every
 * rep, and with T > 1 an untimed run on a 1-thread pool, must be
 * bit-identical — instruction and cycle totals, per-machine
 * statuses, outputs, and the order-sensitive FNV fingerprint; any
 * mismatch prints FAIL and exits 1.
 *
 *   bench_iss_batch [--machines N] [--threads T] [--reps R]
 *                   [--max-steps S] [--json out.json]
 *
 * The --json report carries the CI perf-gate key "iss.insns_per_s"
 * (aggregate instructions/s across all cores) plus per-core counts,
 * throughput and output fingerprints (bench_compare gates the
 * median of 3 against bench/baselines/BENCH_iss.json).
 */

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "legacy/batch_iss.hh"
#include "legacy/cores.hh"
#include "legacy/ir.hh"
#include "workloads/kernels.hh"

using namespace printed;
using namespace printed::bench;

namespace
{

struct CoreResult
{
    legacy::LegacyCore core = legacy::LegacyCore::OpenMsp430;
    std::uint64_t instructions = 0; ///< total over all machines
    std::uint64_t cycles = 0;
    double ms = 0;
    std::uint64_t fnv = 0;
    bool identical = false;
};

/** Bit-exact comparison of two fleet results. */
bool
resultsAgree(const legacy::IssBatchResult &a,
             const legacy::IssBatchResult &b)
{
    if (a.codeBytes != b.codeBytes || a.dataBytes != b.dataBytes ||
        a.totalInstructions != b.totalInstructions ||
        a.totalCycles != b.totalCycles ||
        a.status != b.status ||
        legacy::issResultFnv(a) != legacy::issResultFnv(b))
        return false;
    for (std::size_t m = 0; m < a.runs.size(); ++m)
        if (a.runs[m].instructions != b.runs[m].instructions ||
            a.runs[m].cycles != b.runs[m].cycles ||
            a.runs[m].outputs != b.runs[m].outputs)
            return false;
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    initObservability(argc, argv);
    const std::size_t machines =
        uintFromArgs<std::size_t>(argc, argv, "machines", 1000);
    const unsigned threads =
        uintFromArgs<unsigned>(argc, argv, "threads", 1);
    const unsigned reps =
        std::max(1u, uintFromArgs<unsigned>(argc, argv, "reps", 3));
    const std::uint64_t maxSteps =
        uintFromArgs(argc, argv, "max-steps", 50'000'000);
    const std::string jsonPath =
        jsonPathFromArgs(argc, argv, "BENCH_iss.json");

    banner("Fleet ISS throughput",
           "M machines of the 8-bit multiply kernel per legacy "
           "core (best of " +
               std::to_string(reps) + " reps, " +
               std::to_string(threads) + " thread(s), M=" +
               std::to_string(machines) + ")");

    const legacy::IrProgram prog = legacy::irKernel(Kernel::Mult, 8);
    std::vector<std::vector<std::uint64_t>> inputs;
    inputs.reserve(machines);
    for (std::size_t m = 0; m < machines; ++m)
        inputs.push_back(defaultInputs(Kernel::Mult, 8, 1 + m));

    ThreadPool pool(threads);
    legacy::IssBatchOptions opts;
    opts.maxSteps = maxSteps;
    opts.pool = &pool;

    bool allIdentical = true;
    std::uint64_t totalInsns = 0;
    double totalMs = 0;
    std::vector<CoreResult> rows;
    for (legacy::LegacyCore core : legacy::allLegacyCores) {
        CoreResult row;
        row.core = core;
        row.identical = true;
        legacy::IssBatchResult first;
        for (unsigned r = 0; r < reps; ++r) {
            WallTimer timer;
            legacy::IssBatchResult res =
                legacy::runLegacyBatch(core, prog, inputs, opts);
            const double ms = timer.elapsedMs();
            if (r == 0) {
                row.ms = ms;
                first = std::move(res);
                continue;
            }
            row.ms = std::min(row.ms, ms);
            row.identical = row.identical && resultsAgree(first, res);
        }
        if (pool.threadCount() != 1) {
            ThreadPool one(1);
            legacy::IssBatchOptions serial = opts;
            serial.pool = &one;
            row.identical =
                row.identical &&
                resultsAgree(first, legacy::runLegacyBatch(
                                        core, prog, inputs, serial));
        }
        row.instructions = first.totalInstructions;
        row.cycles = first.totalCycles;
        row.fnv = legacy::issResultFnv(first);
        allIdentical = allIdentical && row.identical;
        totalInsns += row.instructions;
        totalMs += row.ms;
        rows.push_back(row);
    }

    std::cout << std::left << std::setw(12) << "core"
              << std::right << std::setw(14) << "insns"
              << std::setw(14) << "cycles"
              << std::setw(16) << "ins/s"
              << std::setw(11) << "identical" << "\n";
    for (const CoreResult &row : rows)
        std::cout << std::left << std::setw(12)
                  << legacy::issCoreId(row.core) << std::right
                  << std::setw(14) << row.instructions
                  << std::setw(14) << row.cycles
                  << std::setw(16) << std::setprecision(4)
                  << std::scientific
                  << row.instructions / (row.ms / 1e3)
                  << std::defaultfloat << std::setw(11)
                  << (row.identical ? "yes" : "FAIL") << "\n";
    const double aggregatePs =
        totalMs > 0 ? totalInsns / (totalMs / 1e3) : 0;
    std::cout << "\naggregate throughput "
              << std::setprecision(4) << std::scientific
              << aggregatePs << std::defaultfloat
              << " insns/s over " << rows.size() << " cores\n";

    if (!allIdentical)
        std::cout << "\nFAIL: runs differ across reps or thread "
                     "counts\n";

    if (!jsonPath.empty()) {
        JsonReport report("iss_batch");
        report.meta("machines", std::uint64_t(machines));
        report.meta("threads", threads);
        report.meta("reps", reps);
        report.meta("kernel", "mult");
        report.meta("width", 8);
        // The CI perf-gate key: aggregate instructions/s.
        report.meta("iss.insns_per_s", aggregatePs);
        for (const CoreResult &row : rows) {
            char fnv[19];
            std::snprintf(fnv, sizeof(fnv), "0x%016llx",
                          static_cast<unsigned long long>(row.fnv));
            report.add(
                "cores",
                {{"core", legacy::issCoreId(row.core)},
                 {"instructions", row.instructions},
                 {"cycles", row.cycles},
                 {"batch_insns_per_s",
                  row.instructions / (row.ms / 1e3)},
                 {"outputs_fnv", fnv}});
        }
        report.writeTo(jsonPath);
    }
    return allIdentical ? 0 : 1;
}
