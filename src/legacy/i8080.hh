/**
 * @file
 * Intel 8080 backend + instruction-set simulator (light8080 and
 * Z80 stand-ins).
 *
 * The backend lowers the portable IR with a naive accumulator
 * strategy (virtual registers live in RAM, every operation goes
 * through A and an HL memory pointer), matching the code-size
 * regime of sdcc at low optimization - the toolchain the paper
 * used for the Z80 and light8080 rows of Table 5.
 *
 * The simulator implements the genuine 8080 encodings and flag
 * semantics for the emitted subset (MVI/LDA/STA/LXI/MOV via M,
 * INX, ADD/ADC/SUB/SBB/ANA/ORA/XRA on M and A, RAR, STC/CMC,
 * conditional jumps, HLT). Timing comes from the published
 * per-opcode state counts: the 8080 table for light8080, the Z80
 * T-state table for the Z80 (same binary - the Z80 is binary
 * compatible with the 8080).
 */

#ifndef PRINTED_LEGACY_I8080_HH
#define PRINTED_LEGACY_I8080_HH

#include "legacy/backend.hh"

namespace printed::legacy
{

/** Which timing table to apply to the 8080-compatible binary. */
enum class I8080Timing
{
    I8080, ///< light8080 (Intel 8080 state counts)
    Z80,   ///< Zilog Z80 T-states
};

/** Default step budget of the public run entry points. */
constexpr std::uint64_t i8080DefaultMaxSteps = 50'000'000;

/** Compile only: code size for Table 5. */
LegacySize size8080(const IrProgram &prog);

/**
 * Compile and execute.
 * @param prog IR program
 * @param inputs logical input values (written to prog.inputAddrs)
 * @param timing which cycle table to use
 * @param max_steps step budget; a program that executes its HLT
 *        as exactly the max_steps-th instruction still counts as
 *        halted (the budget is only exhausted if the machine would
 *        have to fetch *beyond* it), otherwise FatalError
 */
LegacyRun run8080(const IrProgram &prog,
                  const std::vector<std::uint64_t> &inputs,
                  I8080Timing timing = I8080Timing::I8080,
                  std::uint64_t max_steps = i8080DefaultMaxSteps);

/** Outcome of executing one raw machine-code image. */
struct I8080ImageRun
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    MachineStatus status = MachineStatus::Halted;
};

/**
 * Execute one raw 8080 image on M machines (no compiler, no IR):
 * machine m starts with data_pages[m] copied to the start of its
 * data page (0x9000). Used by the cycle-accounting and trap tests.
 */
std::vector<I8080ImageRun> run8080Image(
    const std::vector<std::uint8_t> &code,
    const std::vector<std::vector<std::uint8_t>> &data_pages,
    I8080Timing timing = I8080Timing::I8080,
    std::uint64_t max_steps = i8080DefaultMaxSteps);

/** Fleet entry: compile once, run one machine per input set. */
IssBatchResult batchRun8080(
    const IrProgram &prog,
    const std::vector<std::vector<std::uint64_t>> &inputs,
    I8080Timing timing, const IssBatchOptions &opts);

} // namespace printed::legacy

#endif // PRINTED_LEGACY_I8080_HH
