/**
 * @file
 * ZPU backend + instruction-set simulator (Zylin ZPU-small
 * stand-in, the paper's stack-based comparison ISA).
 *
 * The backend lowers the portable IR to ZPU-style stack code:
 * one-byte opcodes, IM immediate chains, absolute loads/stores for
 * the virtual-register slots, and NEQBRANCH/POPPC control flow.
 * Branch targets always use fixed three-byte IM chains so labels
 * can be backpatched. Values narrower than 32 bits are masked
 * after arithmetic, as compiled C with uint8/16 types would be -
 * this is exactly why the paper finds stack-ISA code bloated for
 * printed targets (Table 5's ZPU rows).
 *
 * Simplifications vs. the real ZPU (documented): LOADSP offsets
 * are not bit-4-inverted; SUB/XOR/ULESSTHAN/EQ/LSHIFTRIGHT/
 * NEQBRANCH execute natively but are taxed with a 32-cycle
 * emulation penalty each, modeling zpu_small's microcoded
 * EMULATE vectors; NEQBRANCH takes an absolute target. The base
 * CPI is 4 (Table 4).
 */

#ifndef PRINTED_LEGACY_ZPU_HH
#define PRINTED_LEGACY_ZPU_HH

#include "legacy/backend.hh"

namespace printed::legacy
{

/** Cycles per (native) instruction: Table 4 lists CPI 4. */
constexpr unsigned zpuBaseCpi = 4;

/** Extra cycles per EMULATE-class instruction. */
constexpr unsigned zpuEmulatePenalty = 32;

/** Default step budget of the public run entry points. */
constexpr std::uint64_t zpuDefaultMaxSteps = 100'000'000;

/** Compile only: code size for Table 5. */
LegacySize sizeZpu(const IrProgram &prog);

/** Compile and execute. */
LegacyRun runZpu(const IrProgram &prog,
                 const std::vector<std::uint64_t> &inputs,
                 std::uint64_t max_steps = zpuDefaultMaxSteps);

/** Fleet entry: compile once, run one machine per input set. */
IssBatchResult batchRunZpu(
    const IrProgram &prog,
    const std::vector<std::vector<std::uint64_t>> &inputs,
    const IssBatchOptions &opts);

} // namespace printed::legacy

#endif // PRINTED_LEGACY_ZPU_HH
