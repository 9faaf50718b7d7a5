/**
 * @file
 * Common interface for the legacy-ISA backends.
 *
 * Each backend compiles the portable IR (legacy/ir.hh) to real
 * machine code for its target and executes it on a matching
 * instruction-set simulator, returning code size (Table 5) and
 * dynamic counts (Section 8). See the per-target headers for the
 * documented instruction subsets and timing models.
 */

#ifndef PRINTED_LEGACY_BACKEND_HH
#define PRINTED_LEGACY_BACKEND_HH

#include <cstdint>
#include <vector>

#include "legacy/ir.hh"

namespace printed
{
class ThreadPool;
}

namespace printed::legacy
{

/** Result of compiling and running an IR program on a target. */
struct LegacyRun
{
    std::size_t codeBytes = 0;      ///< program size (Table 5)
    std::size_t dataBytes = 0;      ///< data segment size
    std::uint64_t instructions = 0; ///< dynamic instruction count
    std::uint64_t cycles = 0;       ///< dynamic cycles (ISA timing)
    std::uint64_t fusedOps = 0;     ///< IR operations retired fused
    std::uint64_t steppedInstructions = 0; ///< retired one at a time
    std::vector<std::uint64_t> outputs;
};

/** Static code size without executing (for Table 5 sweeps). */
struct LegacySize
{
    std::size_t codeBytes = 0;
    std::size_t dataBytes = 0;
};

/** How a simulated machine finished. */
enum class MachineStatus : std::uint8_t
{
    Halted = 0,       ///< executed its halt instruction
    OutOfBudget = 1,  ///< hit the step budget before halting
    Killed = 2,       ///< trapped: bad opcode, PC or access fault
};

/**
 * Options for a fleet ISS run.
 *
 * Results are a pure function of (program, inputs, maxSteps,
 * timing): the pool size never changes counts, outputs, or
 * statuses, only throughput.
 */
struct IssBatchOptions
{
    std::uint64_t maxSteps = 50'000'000;
    /** The caller's pool; null = the calling thread alone. */
    ThreadPool *pool = nullptr;
};

/** Result of running M machines of one program. */
struct IssBatchResult
{
    std::size_t codeBytes = 0;
    std::size_t dataBytes = 0;
    std::vector<LegacyRun> runs;             ///< per machine
    std::vector<MachineStatus> status;       ///< per machine
    std::uint64_t totalInstructions = 0;
    std::uint64_t totalCycles = 0;
};

} // namespace printed::legacy

#endif // PRINTED_LEGACY_BACKEND_HH
