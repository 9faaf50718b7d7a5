#include "program.hh"

#include <sstream>

#include "common/bits.hh"
#include "common/logging.hh"

namespace printed
{

std::vector<std::uint32_t>
Program::words() const
{
    std::vector<std::uint32_t> out;
    out.reserve(code.size());
    for (const Instruction &inst : code)
        out.push_back(encode(inst, isa));
    return out;
}

void
Program::check() const
{
    isa.check();
    if (code.empty())
        fatal("Program '" + name + "' is empty");
    if (code.size() > (std::size_t(1) << isa.pcBits))
        fatal("Program '" + name + "': " + std::to_string(code.size()) +
              " instructions exceed the " + std::to_string(isa.pcBits) +
              "-bit PC range");
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
        const Instruction &inst = code[pc];
        if (isBranch(inst.mnemonic)) {
            if (inst.op1 >= code.size())
                fatal("Program '" + name + "': branch at " +
                      std::to_string(pc) + " targets address " +
                      std::to_string(inst.op1) + " past the end");
        } else if (inst.mnemonic == Mnemonic::SETBAR) {
            if (inst.op2 == 0 || inst.op2 >= isa.barCount)
                fatal("Program '" + name + "': SET-BAR of register " +
                      std::to_string(inst.op2));
        }
    }
}

namespace
{

std::string
operandText(std::uint8_t operand, const IsaConfig &config)
{
    const OperandFields f = splitOperand(operand, config);
    std::ostringstream ss;
    ss << "[";
    if (f.barSel != 0)
        ss << "b" << f.barSel << "+";
    ss << f.offset << "]";
    return ss.str();
}

std::string
bmaskText(std::uint8_t bmask)
{
    std::string s;
    if (bmask & (1u << flagBitS))
        s += 'S';
    if (bmask & (1u << flagBitZ))
        s += 'Z';
    if (bmask & (1u << flagBitC))
        s += 'C';
    if (bmask & (1u << flagBitV))
        s += 'V';
    return s.empty() ? "#0" : s;
}

} // anonymous namespace

std::string
disassemble(const Instruction &inst, const IsaConfig &config)
{
    std::ostringstream ss;
    ss << mnemonicName(inst.mnemonic) << " ";
    switch (opcodeOf(inst.mnemonic)) {
      case Opcode::STORE:
        ss << operandText(inst.op1, config) << ", #"
           << unsigned(inst.op2);
        break;
      case Opcode::BAR:
        ss << operandText(inst.op1, config) << ", #"
           << unsigned(inst.op2);
        break;
      case Opcode::BR:
        ss << unsigned(inst.op1) << ", " << bmaskText(inst.op2);
        break;
      default:
        ss << operandText(inst.op1, config) << ", "
           << operandText(inst.op2, config);
        break;
    }
    return ss.str();
}

std::string
disassemble(const Program &program)
{
    // Invert the label map for printing.
    std::map<unsigned, std::string> by_addr;
    for (const auto &[label, addr] : program.labels)
        by_addr[addr] = label;

    std::ostringstream ss;
    ss << "; program: " << program.name << " ("
       << program.code.size() << " instructions, "
       << program.isa.datawidth << "-bit, " << program.isa.barCount
       << " BARs)\n";
    for (std::size_t pc = 0; pc < program.code.size(); ++pc) {
        auto it = by_addr.find(unsigned(pc));
        if (it != by_addr.end())
            ss << it->second << ":\n";
        ss << "    " << disassemble(program.code[pc], program.isa)
           << "\n";
    }
    return ss.str();
}

} // namespace printed
