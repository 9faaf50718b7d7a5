/**
 * @file
 * MSP430 backend + instruction-set simulator (openMSP430 stand-in).
 *
 * The backend lowers the portable IR to genuine MSP430 format-I /
 * format-II / jump encodings, keeping virtual registers in RAM and
 * addressing them with absolute (&addr) mode - the code-size
 * regime of msp430-gcc at low optimization, which the paper used
 * for the openMSP430 row of Table 5. IR-level branches emit an
 * inverted short jump over a `BR #target` pair so arbitrarily far
 * targets work (the dTree program exceeds the +-511-word range of
 * conditional jumps).
 *
 * The simulator implements the emitted subset with real MSP430
 * semantics: double-operand MOV/ADD/ADDC/SUB/SUBC/CMP/BIS/BIC/
 * XOR/AND with register, absolute, indexed, and immediate modes
 * (plus the R3 constant generator for #0/#1), RRC/RRA, emulated
 * CLRC, byte/word forms, and the standard per-addressing-mode
 * cycle counts (openMSP430's CPI of 1-6 in Table 4 comes from
 * exactly this table).
 */

#ifndef PRINTED_LEGACY_MSP430_HH
#define PRINTED_LEGACY_MSP430_HH

#include <array>

#include "legacy/backend.hh"

namespace printed::legacy
{

/** Default step budget of the public run entry points. */
constexpr std::uint64_t msp430DefaultMaxSteps = 50'000'000;

/** Size of the writable RAM window of each simulated machine. */
constexpr std::uint16_t msp430RamWindow = 0x2000;

/** Compile only: code size for Table 5. */
LegacySize sizeMsp430(const IrProgram &prog);

/** Compile and execute. */
LegacyRun runMsp430(const IrProgram &prog,
                    const std::vector<std::uint64_t> &inputs,
                    std::uint64_t max_steps = msp430DefaultMaxSteps);

/**
 * A raw machine for the differential-fuzz harness: code words
 * (loaded at the code base), an initial register file (PC is
 * forced to the code base), and an initial image of the low RAM
 * window (at most msp430RamWindow bytes).
 */
struct Msp430RawState
{
    std::vector<std::uint16_t> code;
    std::array<std::uint16_t, 16> regs{};
    std::vector<std::uint8_t> ram;
};

/** Full post-run state of a raw machine. */
struct Msp430RawRun
{
    std::array<std::uint16_t, 16> regs{};
    std::vector<std::uint8_t> ram; ///< same size as the init image
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    MachineStatus status = MachineStatus::Halted;
};

/**
 * Execute one raw machine and return its complete architectural
 * state - the probe the MSP430 status-register regression tests
 * and the raw-fuzz golden use.
 */
Msp430RawRun runMsp430Raw(const Msp430RawState &init,
                          std::uint64_t max_steps = 100'000);

/** Fleet entry: compile once, run one machine per input set. */
IssBatchResult batchRunMsp430(
    const IrProgram &prog,
    const std::vector<std::vector<std::uint64_t>> &inputs,
    const IssBatchOptions &opts);

} // namespace printed::legacy

#endif // PRINTED_LEGACY_MSP430_HH
