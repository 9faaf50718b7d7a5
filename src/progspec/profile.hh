/**
 * @file
 * Dynamic leg of the Table 7 study: while analyze.hh measures the
 * *static* architectural state each benchmark needs, this module
 * measures its *dynamic* cost by actually running the benchmark's
 * IR form on a legacy core's instruction-set simulator — M machines
 * with distinct inputs at once, as a fleet of legacy/batch_iss.hh.
 * Every machine's outputs are validated against the golden models,
 * so the numbers a report prints are known-correct, and the result
 * carries the fleet's FNV fingerprint (every thread count must
 * render byte-identical tables).
 */

#ifndef PRINTED_PROGSPEC_PROFILE_HH
#define PRINTED_PROGSPEC_PROFILE_HH

#include <vector>

#include "legacy/batch_iss.hh"
#include "workloads/golden.hh"

namespace printed
{

/** Dynamic profile of one Table 7 benchmark on one legacy core. */
struct KernelDynProfile
{
    Kernel kind = Kernel::Mult;
    unsigned width = 8;
    std::size_t machines = 0;
    std::size_t codeBytes = 0;       ///< compiled program size
    std::uint64_t instructions = 0;  ///< total over all machines
    std::uint64_t cycles = 0;        ///< total over all machines
    bool outputsMatchGolden = false; ///< every machine, every output
    std::uint64_t outputsFnv = 0;    ///< thread-count invariant
};

/** The seven Table 7 benchmarks, in the table's row order. */
const std::vector<Kernel> &table7Kernels();

/**
 * Profile one benchmark: compile its 8-bit IR form for `core`, run
 * `machines` machines (machine m gets defaultInputs(kind, 8,
 * 1 + m)) under `opts`, validate every machine against the golden
 * model, and aggregate the dynamic counts.
 */
KernelDynProfile
profileKernelDynamic(legacy::LegacyCore core, Kernel kind,
                     std::size_t machines,
                     const legacy::IssBatchOptions &opts = {});

/** profileKernelDynamic over all of table7Kernels(), in order. */
std::vector<KernelDynProfile>
profileTable7Dynamic(legacy::LegacyCore core, std::size_t machines,
                     const legacy::IssBatchOptions &opts = {});

} // namespace printed

#endif // PRINTED_PROGSPEC_PROFILE_HH
