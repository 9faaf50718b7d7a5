#include "isa.hh"

#include <algorithm>
#include <array>
#include <cctype>

#include "common/bits.hh"
#include "common/logging.hh"

namespace printed
{

namespace
{

struct MnemonicRow
{
    Mnemonic mnemonic;
    const char *name;
    Opcode opcode;
    ControlBits controls;
};

/** The instruction table of Figure 6. */
constexpr std::array<MnemonicRow, numMnemonics> mnemonicTable = {{
    {Mnemonic::ADD, "ADD", Opcode::ADD, {true, false, false, false}},
    {Mnemonic::ADC, "ADC", Opcode::ADD, {true, true, false, false}},
    {Mnemonic::SUB, "SUB", Opcode::ADD, {true, false, true, false}},
    {Mnemonic::CMP, "CMP", Opcode::ADD, {false, false, true, false}},
    {Mnemonic::SBB, "SBB", Opcode::ADD, {true, true, true, false}},
    {Mnemonic::AND, "AND", Opcode::AND, {true, false, false, false}},
    {Mnemonic::TEST, "TEST", Opcode::AND,
     {false, false, false, false}},
    {Mnemonic::OR, "OR", Opcode::OR, {true, false, false, false}},
    {Mnemonic::XOR, "XOR", Opcode::XOR, {true, false, false, false}},
    {Mnemonic::NOT, "NOT", Opcode::NOT, {true, false, false, false}},
    {Mnemonic::RL, "RL", Opcode::RL, {true, false, false, false}},
    {Mnemonic::RLC, "RLC", Opcode::RL, {true, true, false, false}},
    {Mnemonic::RR, "RR", Opcode::RR, {true, false, false, false}},
    {Mnemonic::RRC, "RRC", Opcode::RR, {true, true, false, false}},
    {Mnemonic::RRA, "RRA", Opcode::RR, {true, false, true, false}},
    {Mnemonic::STORE, "STORE", Opcode::STORE,
     {true, false, false, false}},
    {Mnemonic::SETBAR, "SET-BAR", Opcode::BAR,
     {false, false, false, false}},
    {Mnemonic::BR, "BR", Opcode::BR, {false, false, false, true}},
    {Mnemonic::BRN, "BRN", Opcode::BR, {false, false, true, true}},
}};

const MnemonicRow &
row(Mnemonic m)
{
    const auto idx = static_cast<std::size_t>(m);
    panicIf(idx >= numMnemonics, "bad Mnemonic");
    panicIf(mnemonicTable[idx].mnemonic != m,
            "mnemonicTable out of order");
    return mnemonicTable[idx];
}

} // anonymous namespace

Opcode
opcodeOf(Mnemonic m)
{
    return row(m).opcode;
}

ControlBits
controlsOf(Mnemonic m)
{
    return row(m).controls;
}

std::string
mnemonicName(Mnemonic m)
{
    return row(m).name;
}

std::optional<Mnemonic>
mnemonicFromName(const std::string &name)
{
    std::string upper = name;
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    if (upper == "SETBAR")
        upper = "SET-BAR";
    for (const auto &r : mnemonicTable)
        if (upper == r.name)
            return r.mnemonic;
    return std::nullopt;
}

bool
isMType(Mnemonic m)
{
    const Opcode op = opcodeOf(m);
    return op != Opcode::STORE && op != Opcode::BAR &&
           op != Opcode::BR;
}

bool
isBinaryAlu(Mnemonic m)
{
    const Opcode op = opcodeOf(m);
    return op == Opcode::ADD || op == Opcode::AND ||
           op == Opcode::OR || op == Opcode::XOR;
}

bool
isUnaryAlu(Mnemonic m)
{
    const Opcode op = opcodeOf(m);
    return op == Opcode::NOT || op == Opcode::RL || op == Opcode::RR;
}

bool
isBranch(Mnemonic m)
{
    return opcodeOf(m) == Opcode::BR;
}

bool
readsCarry(Mnemonic m)
{
    return controlsOf(m).c;
}

bool
writesMemory(Mnemonic m)
{
    return controlsOf(m).w && opcodeOf(m) != Opcode::BAR;
}

unsigned
IsaConfig::barSelBits() const
{
    return ceilLog2(barCount);
}

void
IsaConfig::check() const
{
    fatalIf(datawidth != 4 && datawidth != 8 && datawidth != 16 &&
            datawidth != 32,
            "IsaConfig: datawidth must be 4, 8, 16, or 32");
    fatalIf(barCount < 1 || barCount > 4 || (barCount == 3),
            "IsaConfig: barCount must be 1, 2, or 4");
    fatalIf(pcBits == 0 || pcBits > 8, "IsaConfig: pcBits in 1..8");
    fatalIf(operandBits > 8 || operandBits < barSelBits(),
            "IsaConfig: operandBits in barSelBits..8");
    fatalIf(flagCount > 4, "IsaConfig: at most 4 flags");
}

std::uint32_t
encode(const Instruction &inst)
{
    return encode(inst, IsaConfig{});
}

std::uint32_t
encode(const Instruction &inst, const IsaConfig &config)
{
    const ControlBits cb = controlsOf(inst.mnemonic);
    const unsigned ob = config.operandBits;
    if (inst.op1 >= (1u << ob) || inst.op2 >= (1u << ob))
        fatal("encode: operand does not fit a " + std::to_string(ob) +
              "-bit field");
    std::uint32_t word = 0;
    word = std::uint32_t(insertBits(word, 0, ob, inst.op2));
    word = std::uint32_t(insertBits(word, ob, ob, inst.op1));
    word = std::uint32_t(insertBits(word, 2 * ob + 0, 1, cb.b));
    word = std::uint32_t(insertBits(word, 2 * ob + 1, 1, cb.a));
    word = std::uint32_t(insertBits(word, 2 * ob + 2, 1, cb.c));
    word = std::uint32_t(insertBits(word, 2 * ob + 3, 1, cb.w));
    word = std::uint32_t(insertBits(
        word, 2 * ob + 4, 4,
        static_cast<unsigned>(opcodeOf(inst.mnemonic))));
    return word;
}

Instruction
decode(std::uint32_t word)
{
    fatalIf(word >> 24, "decode: word wider than 24 bits");
    const auto opcode_bits = unsigned(extractBits(word, 20, 4));
    if (opcode_bits >= numOpcodes)
        fatal("decode: illegal opcode " + std::to_string(opcode_bits));
    const auto opcode = static_cast<Opcode>(opcode_bits);
    const ControlBits cb = {bit(word, 19) != 0, bit(word, 18) != 0,
                            bit(word, 17) != 0, bit(word, 16) != 0};

    for (const auto &r : mnemonicTable) {
        if (r.opcode == opcode && r.controls == cb) {
            Instruction inst;
            inst.mnemonic = r.mnemonic;
            inst.op1 = std::uint8_t(extractBits(word, 8, 8));
            inst.op2 = std::uint8_t(extractBits(word, 0, 8));
            return inst;
        }
    }
    fatal("decode: illegal control bits for opcode " +
          std::to_string(opcode_bits));
}

OperandFields
splitOperand(std::uint8_t operand, const IsaConfig &config)
{
    OperandFields fields;
    const unsigned sel_bits = config.barSelBits();
    const unsigned off_bits = config.offsetBits();
    fields.offset = unsigned(extractBits(operand, 0, off_bits));
    fields.barSel = unsigned(extractBits(operand, off_bits, sel_bits));
    return fields;
}

std::uint8_t
makeOperand(unsigned bar_sel, unsigned offset,
            const IsaConfig &config)
{
    const unsigned sel_bits = config.barSelBits();
    const unsigned off_bits = config.offsetBits();
    if (bar_sel >= config.barCount)
        fatal("makeOperand: BAR index " + std::to_string(bar_sel) +
              " out of range for " + std::to_string(config.barCount) +
              "-BAR ISA");
    if (offset >= (1u << off_bits))
        fatal("makeOperand: offset " + std::to_string(offset) +
              " does not fit in " + std::to_string(off_bits) +
              " offset bits");
    std::uint64_t v = offset;
    v = insertBits(v, off_bits, sel_bits, bar_sel);
    return std::uint8_t(v);
}

} // namespace printed
