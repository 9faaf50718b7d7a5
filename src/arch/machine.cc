#include "machine.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace printed
{

TpIsaMachine::TpIsaMachine(const Program &program,
                           std::size_t dmem_words)
    : program_(program), dmem_(dmem_words, 0)
{
    program_.check();
    fatalIf(dmem_words == 0 || dmem_words > 256,
            "TpIsaMachine: data memory must be 1..256 words");
    reset();
}

void
TpIsaMachine::reset()
{
    pc_ = 0;
    flags_ = Flags{};
    bars_.fill(0);
    std::fill(dmem_.begin(), dmem_.end(), 0);
    stats_ = ExecutionStats{};
    lastWriteAddr_ = -1;
    curReadsLastWrite_ = false;
    streamPos_ = 0;
}

void
TpIsaMachine::setMem(std::size_t addr, std::uint64_t value)
{
    fatalIf(addr >= dmem_.size(), "setMem: address out of range");
    dmem_[addr] = value & maskBits(program_.isa.datawidth);
}

std::uint64_t
TpIsaMachine::mem(std::size_t addr) const
{
    fatalIf(addr >= dmem_.size(), "mem: address out of range");
    return dmem_[addr];
}

unsigned
TpIsaMachine::bar(unsigned index) const
{
    fatalIf(index >= program_.isa.barCount, "bar: index out of range");
    return bars_[index];
}

unsigned
TpIsaMachine::effectiveAddress(std::uint8_t operand) const
{
    const OperandFields f = splitOperand(operand, program_.isa);
    return (bars_[f.barSel] + f.offset) & 0xff;
}

void
TpIsaMachine::setStreamPort(std::size_t addr,
                            std::vector<std::uint64_t> values)
{
    fatalIf(addr >= dmem_.size(),
            "setStreamPort: address out of range");
    fatalIf(values.empty(), "setStreamPort: empty stream");
    streamAddr_ = long(addr);
    streamValues_ = std::move(values);
    streamPos_ = 0;
}

std::uint64_t
TpIsaMachine::readMem(unsigned addr)
{
    if (addr >= dmem_.size())
        fatal("TP-ISA read of address " + std::to_string(addr) +
              " beyond the " + std::to_string(dmem_.size()) +
              "-word data memory (program '" + program_.name + "')");
    ++stats_.memReads;
    if (lastWriteAddr_ >= 0 && addr == unsigned(lastWriteAddr_))
        curReadsLastWrite_ = true;
    if (streamAddr_ >= 0 && addr == unsigned(streamAddr_)) {
        const std::uint64_t v =
            streamValues_[std::min(streamPos_,
                                   streamValues_.size() - 1)] &
            maskBits(program_.isa.datawidth);
        ++streamPos_;
        return v;
    }
    return dmem_[addr];
}

void
TpIsaMachine::writeMem(unsigned addr, std::uint64_t value)
{
    if (addr >= dmem_.size())
        fatal("TP-ISA write of address " + std::to_string(addr) +
              " beyond the " + std::to_string(dmem_.size()) +
              "-word data memory (program '" + program_.name + "')");
    ++stats_.memWrites;
    dmem_[addr] = value & maskBits(program_.isa.datawidth);
}

void
TpIsaMachine::step()
{
    if (halted())
        return;

    panicIf(pc_ >= program_.code.size(),
            "TpIsaMachine: PC out of range while running");
    const Instruction inst = program_.code[pc_];
    const unsigned width = program_.isa.datawidth;
    const std::uint64_t mask = maskBits(width);
    const std::uint64_t msb = std::uint64_t(1) << (width - 1);

    curReadsLastWrite_ = false;
    long this_write = -1;

    ++stats_.instructions;
    ++stats_.perMnemonic[static_cast<std::size_t>(inst.mnemonic)];

    unsigned next_pc = (pc_ + 1) & unsigned(
        maskBits(program_.isa.pcBits));

    auto set_sz = [&](std::uint64_t result) {
        flags_.s = (result & msb) != 0;
        flags_.z = (result & mask) == 0;
    };

    switch (inst.mnemonic) {
      case Mnemonic::ADD:
      case Mnemonic::ADC:
      case Mnemonic::SUB:
      case Mnemonic::CMP:
      case Mnemonic::SBB: {
        const unsigned a1 = effectiveAddress(inst.op1);
        const unsigned a2 = effectiveAddress(inst.op2);
        const std::uint64_t a = readMem(a1);
        const std::uint64_t b = readMem(a2);
        const ControlBits cb = controlsOf(inst.mnemonic);
        // Shared-adder convention: for subtraction the operand is
        // complemented and carry-in is the not-borrow (1 for plain
        // SUB, the C flag for SBB).
        const std::uint64_t beff = cb.a ? (~b & mask) : b;
        const std::uint64_t cin =
            cb.c ? (flags_.c ? 1 : 0) : (cb.a ? 1 : 0);
        const std::uint64_t full = a + beff + cin;
        const std::uint64_t result = full & mask;

        flags_.c = (full >> width) & 1;
        const bool sa = (a & msb) != 0;
        const bool sb = (beff & msb) != 0;
        const bool sr = (result & msb) != 0;
        flags_.v = (sa == sb) && (sr != sa);
        set_sz(result);
        if (cb.w) {
            writeMem(a1, result);
            this_write = long(a1);
        }
        break;
      }

      case Mnemonic::AND:
      case Mnemonic::TEST:
      case Mnemonic::OR:
      case Mnemonic::XOR: {
        const unsigned a1 = effectiveAddress(inst.op1);
        const unsigned a2 = effectiveAddress(inst.op2);
        const std::uint64_t a = readMem(a1);
        const std::uint64_t b = readMem(a2);
        std::uint64_t result = 0;
        switch (opcodeOf(inst.mnemonic)) {
          case Opcode::AND: result = a & b; break;
          case Opcode::OR:  result = a | b; break;
          case Opcode::XOR: result = a ^ b; break;
          default: panic("unreachable");
        }
        set_sz(result);
        flags_.c = false;
        flags_.v = false;
        if (controlsOf(inst.mnemonic).w) {
            writeMem(a1, result);
            this_write = long(a1);
        }
        break;
      }

      case Mnemonic::NOT:
      case Mnemonic::RL:
      case Mnemonic::RLC:
      case Mnemonic::RR:
      case Mnemonic::RRC:
      case Mnemonic::RRA: {
        // Unary ops read operand2 and write operand1, giving a
        // combined move+op idiom for free.
        const unsigned a1 = effectiveAddress(inst.op1);
        const unsigned a2 = effectiveAddress(inst.op2);
        const std::uint64_t src = readMem(a2);
        std::uint64_t result = 0;
        switch (inst.mnemonic) {
          case Mnemonic::NOT:
            result = ~src & mask;
            flags_.c = false;
            flags_.v = false;
            break;
          case Mnemonic::RL:
            result = ((src << 1) | (src >> (width - 1))) & mask;
            flags_.c = (src & msb) != 0;
            flags_.v = false;
            break;
          case Mnemonic::RLC:
            result = ((src << 1) | (flags_.c ? 1 : 0)) & mask;
            flags_.c = (src & msb) != 0;
            flags_.v = false;
            break;
          case Mnemonic::RR:
            result = ((src >> 1) | ((src & 1) << (width - 1))) & mask;
            flags_.c = (src & 1) != 0;
            flags_.v = false;
            break;
          case Mnemonic::RRC:
            result = ((src >> 1) |
                      ((flags_.c ? std::uint64_t(1) : 0)
                       << (width - 1))) & mask;
            flags_.c = (src & 1) != 0;
            flags_.v = false;
            break;
          case Mnemonic::RRA:
            result = ((src >> 1) | (src & msb)) & mask;
            flags_.c = (src & 1) != 0;
            flags_.v = false;
            break;
          default:
            panic("unreachable");
        }
        set_sz(result);
        writeMem(a1, result);
        this_write = long(a1);
        break;
      }

      case Mnemonic::STORE: {
        const unsigned a1 = effectiveAddress(inst.op1);
        writeMem(a1, inst.op2);
        this_write = long(a1);
        break;
      }

      case Mnemonic::SETBAR: {
        // BAR[op2] = mem[EA(op1)] - the pointer lives in memory.
        panicIf(inst.op2 == 0 || inst.op2 >= program_.isa.barCount,
                "SET-BAR index checked at assembly");
        const unsigned a1 = effectiveAddress(inst.op1);
        bars_[inst.op2] = unsigned(readMem(a1)) & 0xff;
        break;
      }

      case Mnemonic::BR:
      case Mnemonic::BRN: {
        ++stats_.branches;
        const unsigned hit = flags_.toMask() & inst.op2;
        const bool negate = controlsOf(inst.mnemonic).a;
        const bool taken = negate ? (hit == 0) : (hit != 0);
        if (taken) {
            ++stats_.takenBranches;
            if (inst.op1 == pc_) {
                stats_.halt = HaltReason::SelfBranch;
                return;
            }
            next_pc = inst.op1;
        }
        break;
      }

      default:
        panic("TpIsaMachine: unhandled mnemonic");
    }

    if (curReadsLastWrite_)
        ++stats_.rawAdjacent;
    lastWriteAddr_ = this_write;

    pc_ = next_pc;
    if (pc_ >= program_.code.size())
        stats_.halt = HaltReason::FellOffEnd;
}

const ExecutionStats &
TpIsaMachine::run(std::uint64_t max_steps)
{
    while (!halted()) {
        if (stats_.instructions >= max_steps) {
            stats_.halt = HaltReason::MaxSteps;
            break;
        }
        step();
    }
    return stats_;
}

} // namespace printed
