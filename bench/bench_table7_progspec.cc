/**
 * @file
 * Reproduces Table 7: size and number of architectural registers
 * in the program-specific (application-specific) TP-ISA variants,
 * computed by static analysis of our actual benchmark programs
 * (8-bit variants written for the 2-BAR ISA, as in the paper).
 *
 * A second, *dynamic* table runs every Table 7 benchmark on a
 * legacy-core ISS — M machines with distinct inputs — and reports
 * golden-validated instruction/cycle counts. Everything printed to
 * stdout is thread-count-invariant, so `--threads 1` and
 * `--threads 4` must be byte-identical (the thread count goes to
 * stderr).
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "progspec/analyze.hh"
#include "progspec/profile.hh"
#include "workloads/kernels.hh"

namespace
{

std::string
argString(int argc, char **argv, const std::string &name,
          const std::string &fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (name == argv[i])
            return argv[i + 1];
    return fallback;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    printed::bench::initObservability(argc, argv);
    using namespace printed;
    bench::banner("Table 7",
                  "Architectural state of program-specific TP-ISA "
                  "variants (our programs | paper values)");

    struct PaperRow
    {
        Kernel kind;
        unsigned pc, bars, flags, instr;
    };
    // Table 7 of the paper (BAR size collapsed into the note).
    const PaperRow paper[] = {
        {Kernel::Crc8, 5, 0, 1, 16},  {Kernel::Div, 5, 0, 2, 20},
        {Kernel::DTree, 8, 0, 1, 24}, {Kernel::InSort, 5, 1, 2, 18},
        {Kernel::IntAvg, 6, 0, 0, 18}, {Kernel::Mult, 4, 0, 1, 20},
        {Kernel::THold, 5, 1, 1, 20},
    };

    TableWriter t({"Benchmark", "PC Size", "BAR Size", "# of BARs",
                   "# of flags", "Instruction Size"});
    for (const PaperRow &row : paper) {
        const Workload wl = makeWorkload(row.kind, 8, 8);
        const ProgSpecAnalysis a =
            analyzeProgram(wl.program, wl.dmemWords);
        auto cell = [](unsigned ours, unsigned theirs) {
            return std::to_string(ours) + " | " +
                   std::to_string(theirs);
        };
        t.addRow({kernelName(row.kind), cell(a.pcBits, row.pc),
                  a.writableBars ? std::to_string(a.barBits)
                                 : std::string("N/A"),
                  cell(a.writableBars, row.bars),
                  cell(a.flagCount, row.flags),
                  cell(a.instructionBits(), row.instr)});
    }
    t.print(std::cout);

    std::cout << "\nEvery benchmark leaves most of the standard "
                 "ISA's architectural state unused - the "
                 "opportunity program-specific printing exploits "
                 "(Section 7). Differences of a flag or a bit "
                 "reflect our re-implementations of the kernels.\n";

    // Dynamic leg: golden-validated execution profiles on a legacy
    // ISS fleet. The table is a pure function of (core, machines),
    // never of the thread count.
    const std::size_t machines =
        bench::uintFromArgs<std::size_t>(argc, argv, "machines", 64);
    const std::string coreId =
        argString(argc, argv, "--core", "msp430");
    const auto core = legacy::issCoreFromId(coreId);
    if (!core)
        fatal("unknown --core " + coreId);

    const auto threads =
        bench::uintFromArgs<unsigned>(argc, argv, "threads", 1);
    ThreadPool pool(threads);
    legacy::IssBatchOptions opts;
    opts.pool = &pool;
    std::cerr << "[dynamic leg: " << threads << " thread(s)]\n";

    std::cout << "\nDynamic profile on " << coreId << " ("
              << machines << " machines per benchmark, outputs "
              << "validated against the golden models):\n";
    TableWriter dyn({"Benchmark", "Insns total", "Cycles total",
                     "CPI", "Golden", "Outputs FNV"});
    bool allGolden = true;
    for (const KernelDynProfile &p :
         profileTable7Dynamic(*core, machines, opts)) {
        char cpi[32], fnv[32];
        std::snprintf(cpi, sizeof cpi, "%.2f",
                      double(p.cycles) /
                          double(p.instructions ? p.instructions
                                                : 1));
        std::snprintf(fnv, sizeof fnv, "0x%016llx",
                      (unsigned long long)p.outputsFnv);
        dyn.addRow({kernelName(p.kind),
                    std::to_string(p.instructions),
                    std::to_string(p.cycles), cpi,
                    p.outputsMatchGolden ? "yes" : "NO", fnv});
        allGolden = allGolden && p.outputsMatchGolden;
    }
    dyn.print(std::cout);
    if (!allGolden) {
        std::cout << "\nFAIL: some machine diverged from the "
                     "golden model\n";
        return 1;
    }
    return 0;
}
