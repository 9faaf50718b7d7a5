/**
 * @file
 * TP-ISA: the Tiny Printed ISA of Section 5.1 / Figure 6.
 *
 * A two-operand, memory-memory ISA with 24-bit instructions:
 *
 *   [23:20] opcode
 *   [19]    W  - write the result back to memory
 *   [18]    C  - carry-coupled variant (ADC/SBB/RLC/RRC)
 *   [17]    A  - alternate operation (SUB/CMP/RRA, branch-negate)
 *   [16]    B  - branch-format marker
 *   [15:8]  operand1 (MSBs select a BAR, LSBs are the offset)
 *   [7:0]   operand2 (same layout; immediate for S-type)
 *
 * Architectural state: an 8-bit PC, one or more 8-bit base address
 * registers (BAR[0] hardwired to zero), and a 4-bit flags register
 * S/Z/C/V. Data memory holds up to 256 words of the core datawidth;
 * instructions live in a separate (Harvard) instruction ROM.
 *
 * SET-BAR loads a base address register from data memory: operand1
 * is the "ptr address" of Figure 6 (the memory word holding the
 * pointer) and operand2 is the immediate index of the BAR to load.
 * Keeping pointers in data memory is what gives the ISA dynamic
 * array indexing without indexed addressing modes - the idiom the
 * looping kernels (inSort, intAvg, tHold, crc8) rely on.
 */

#ifndef PRINTED_ISA_ISA_HH
#define PRINTED_ISA_ISA_HH

#include <cstdint>
#include <optional>
#include <string>

namespace printed
{

/** Primary opcodes (instruction bits [23:20]). */
enum class Opcode : std::uint8_t
{
    ADD = 0,   ///< add family (ADD/ADC/SUB/CMP/SBB)
    AND = 1,   ///< and family (AND/TEST)
    OR = 2,
    XOR = 3,
    NOT = 4,
    RL = 5,    ///< rotate-left family (RL/RLC)
    RR = 6,    ///< rotate-right family (RR/RRC/RRA)
    STORE = 7, ///< store immediate to memory
    BAR = 8,   ///< SET-BAR
    BR = 9,    ///< branch family (BR/BRN)
};

/** Number of distinct primary opcodes. */
constexpr unsigned numOpcodes = 10;

/** The 19 TP-ISA mnemonics of Figure 6. */
enum class Mnemonic : std::uint8_t
{
    ADD, ADC, SUB, CMP, SBB,
    AND, TEST,
    OR,
    XOR,
    NOT,
    RL, RLC,
    RR, RRC, RRA,
    STORE, SETBAR,
    BR, BRN,
    NumMnemonics
};

constexpr unsigned numMnemonics =
    static_cast<unsigned>(Mnemonic::NumMnemonics);

/** The four control bits W/C/A/B of bits [19:16]. */
struct ControlBits
{
    bool w = false; ///< writeback
    bool c = false; ///< carry-coupled
    bool a = false; ///< alternate op
    bool b = false; ///< branch format

    bool operator==(const ControlBits &) const = default;
};

/** Primary opcode of a mnemonic. */
Opcode opcodeOf(Mnemonic m);

/** Control-bit pattern of a mnemonic (the rows of Figure 6). */
ControlBits controlsOf(Mnemonic m);

/** Assembly name, e.g. "ADC", "SET-BAR". */
std::string mnemonicName(Mnemonic m);

/** Parse an assembly name (case-insensitive); accepts "SETBAR". */
std::optional<Mnemonic> mnemonicFromName(const std::string &name);

// ----------------------------------------------------------------
// Classification helpers used by the simulator and core generator
// ----------------------------------------------------------------

/** M-type ALU op with two memory operands (ADD..RRA). */
bool isMType(Mnemonic m);

/** Two-source ALU ops: dst = mem[a1] op mem[a2]. */
bool isBinaryAlu(Mnemonic m);

/** One-source ALU ops: dst = op(mem[a2]) (NOT and the rotates). */
bool isUnaryAlu(Mnemonic m);

/** Branches (BR/BRN). */
bool isBranch(Mnemonic m);

/** Reads the carry flag (ADC/SBB/RLC/RRC). */
bool readsCarry(Mnemonic m);

/** Writes a result to data memory (W bit set and not S/B-type). */
bool writesMemory(Mnemonic m);

// ----------------------------------------------------------------
// Flags
// ----------------------------------------------------------------

/** The S/Z/C/V flags register (Section 5.1). */
struct Flags
{
    bool s = false; ///< sign (MSB of result)
    bool z = false; ///< zero
    bool c = false; ///< carry out / not-borrow / rotated-out bit
    bool v = false; ///< signed overflow

    bool operator==(const Flags &) const = default;

    /** Pack as a 4-bit mask: bit3=S, bit2=Z, bit1=C, bit0=V. */
    unsigned toMask() const
    {
        return (s ? 8u : 0) | (z ? 4u : 0) | (c ? 2u : 0) |
               (v ? 1u : 0);
    }

    static Flags
    fromMask(unsigned mask)
    {
        return {(mask & 8) != 0, (mask & 4) != 0, (mask & 2) != 0,
                (mask & 1) != 0};
    }
};

/** Flag-mask bit positions (for bmask encoding). */
constexpr unsigned flagBitS = 3;
constexpr unsigned flagBitZ = 2;
constexpr unsigned flagBitC = 1;
constexpr unsigned flagBitV = 0;

// ----------------------------------------------------------------
// ISA configuration and instructions
// ----------------------------------------------------------------

/**
 * Parameters of a TP-ISA variant. The datawidth and BAR count are
 * the design-space knobs of Section 5.2; the width fields may be
 * shrunk by program-specific specialization (Section 7).
 */
struct IsaConfig
{
    unsigned datawidth = 8;  ///< ALU/memory word width: 4/8/16/32
    unsigned barCount = 2;   ///< number of BARs incl. BAR[0]==0: 2/4
    unsigned pcBits = 8;     ///< program counter width
    unsigned operandBits = 8;///< width of each operand field
    unsigned flagCount = 4;  ///< live flags (always S,Z,C,V order)

    /** Bits of an operand used to select a BAR. */
    unsigned barSelBits() const;

    /** Bits of an operand used as address offset. */
    unsigned offsetBits() const { return operandBits - barSelBits(); }

    /** Total instruction width in bits (Table 7 rightmost column). */
    unsigned instructionBits() const
    {
        return 4 + 4 + 2 * operandBits;
    }

    /** Validate ranges; fatal() on nonsense. */
    void check() const;

    bool operator==(const IsaConfig &) const = default;
};

/** One decoded TP-ISA instruction. */
struct Instruction
{
    Mnemonic mnemonic = Mnemonic::ADD;
    std::uint8_t op1 = 0; ///< raw operand1 byte
    std::uint8_t op2 = 0; ///< raw operand2 byte (imm / bmask)

    bool operator==(const Instruction &) const = default;
};

/** Encode to the 24-bit instruction word of Figure 6. */
std::uint32_t encode(const Instruction &inst);

/**
 * Encode into the (possibly narrowed) instruction layout of an ISA
 * variant: [op2 | op1 | B A C W | opcode], with operand fields of
 * config.operandBits bits. The standard 8-bit-operand configuration
 * reproduces the Figure 6 layout exactly. Operand values must fit
 * the narrowed fields (program-specific encodings are produced by
 * printed::specializeProgram, which re-packs them first).
 */
std::uint32_t encode(const Instruction &inst,
                     const IsaConfig &config);

/** Decode a 24-bit word; fatal() on an illegal pattern. */
Instruction decode(std::uint32_t word);

/**
 * Resolve the BAR-select and offset of a raw operand under a
 * configuration.
 */
struct OperandFields
{
    unsigned barSel = 0;
    unsigned offset = 0;
};

OperandFields splitOperand(std::uint8_t operand,
                           const IsaConfig &config);

/** Compose an operand byte from BAR-select and offset. */
std::uint8_t makeOperand(unsigned bar_sel, unsigned offset,
                         const IsaConfig &config);

} // namespace printed

#endif // PRINTED_ISA_ISA_HH
