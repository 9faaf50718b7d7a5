#include "ir.hh"

#include <map>

#include "common/bits.hh"
#include "common/logging.hh"

namespace printed::legacy
{

IrBuilder::IrBuilder(std::string name, unsigned width)
{
    prog_.name = std::move(name);
    prog_.width = width;
}

Reg
IrBuilder::reg()
{
    return nextReg_++;
}

unsigned
IrBuilder::allocWords(std::size_t n)
{
    const unsigned base = unsigned(prog_.dataWords);
    prog_.dataWords += n;
    return base;
}

void
IrBuilder::emit(IrInst inst)
{
    prog_.code.push_back(std::move(inst));
}

void IrBuilder::li(Reg d, std::uint64_t imm)
{
    emit({IrOp::Li, d, 0, imm, {}});
}
void IrBuilder::mov(Reg d, Reg s) { emit({IrOp::Mov, d, s, 0, {}}); }
void IrBuilder::add(Reg d, Reg s) { emit({IrOp::Add, d, s, 0, {}}); }
void IrBuilder::sub(Reg d, Reg s) { emit({IrOp::Sub, d, s, 0, {}}); }
void IrBuilder::and_(Reg d, Reg s) { emit({IrOp::And, d, s, 0, {}}); }
void IrBuilder::or_(Reg d, Reg s) { emit({IrOp::Or, d, s, 0, {}}); }
void IrBuilder::xor_(Reg d, Reg s) { emit({IrOp::Xor, d, s, 0, {}}); }
void IrBuilder::shl(Reg d) { emit({IrOp::Shl, d, 0, 0, {}}); }
void IrBuilder::shr(Reg d) { emit({IrOp::Shr, d, 0, 0, {}}); }
void IrBuilder::ld(Reg d, Reg addr)
{
    emit({IrOp::Ld, d, addr, 0, {}});
}
void IrBuilder::st(Reg addr, Reg s)
{
    emit({IrOp::St, s, addr, 0, {}});
}

std::string
IrBuilder::newLabel(const std::string &hint)
{
    return hint + "_" + std::to_string(nextLabel_++);
}

void IrBuilder::label(const std::string &l)
{
    emit({IrOp::Label, 0, 0, 0, l});
}
void IrBuilder::jmp(const std::string &l)
{
    emit({IrOp::Jmp, 0, 0, 0, l});
}
void IrBuilder::beqz(Reg r, const std::string &l)
{
    emit({IrOp::Beqz, r, 0, 0, l});
}
void IrBuilder::bnez(Reg r, const std::string &l)
{
    emit({IrOp::Bnez, r, 0, 0, l});
}
void IrBuilder::bltu(Reg a, Reg b, const std::string &l)
{
    emit({IrOp::Bltu, a, b, 0, l});
}
void IrBuilder::bgeu(Reg a, Reg b, const std::string &l)
{
    emit({IrOp::Bgeu, a, b, 0, l});
}
void IrBuilder::halt() { emit({IrOp::Halt, 0, 0, 0, {}}); }

IrProgram
IrBuilder::take()
{
    prog_.regCount = nextReg_;
    return std::move(prog_);
}

std::vector<std::uint64_t>
interpretIr(const IrProgram &prog,
            const std::vector<std::uint64_t> &init_data,
            std::uint64_t max_steps)
{
    const std::uint64_t mask = maskBits(prog.width);
    std::vector<std::uint64_t> regs(prog.regCount, 0);
    std::vector<std::uint64_t> mem(prog.dataWords, 0);
    for (std::size_t i = 0; i < init_data.size() && i < mem.size();
         ++i)
        mem[i] = init_data[i] & mask;

    std::map<std::string, std::size_t> labels;
    for (std::size_t i = 0; i < prog.code.size(); ++i)
        if (prog.code[i].op == IrOp::Label)
            labels[prog.code[i].label] = i;

    auto target = [&](const std::string &l) {
        auto it = labels.find(l);
        if (it == labels.end())
            fatal("interpretIr: undefined label " + l);
        return it->second;
    };

    std::uint64_t steps = 0;
    std::size_t pc = 0;
    while (pc < prog.code.size()) {
        fatalIf(++steps > max_steps, "interpretIr: step budget");
        const IrInst &in = prog.code[pc];
        std::size_t next = pc + 1;
        switch (in.op) {
          case IrOp::Li: regs[in.dst] = in.imm & mask; break;
          case IrOp::Mov: regs[in.dst] = regs[in.src]; break;
          case IrOp::Add:
            regs[in.dst] = (regs[in.dst] + regs[in.src]) & mask;
            break;
          case IrOp::Sub:
            regs[in.dst] = (regs[in.dst] - regs[in.src]) & mask;
            break;
          case IrOp::And: regs[in.dst] &= regs[in.src]; break;
          case IrOp::Or: regs[in.dst] |= regs[in.src]; break;
          case IrOp::Xor: regs[in.dst] ^= regs[in.src]; break;
          case IrOp::Shl:
            regs[in.dst] = (regs[in.dst] << 1) & mask;
            break;
          case IrOp::Shr: regs[in.dst] >>= 1; break;
          case IrOp::Ld:
            fatalIf(regs[in.src] >= mem.size(),
                    "interpretIr: load out of range");
            regs[in.dst] = mem[regs[in.src]];
            break;
          case IrOp::St:
            fatalIf(regs[in.src] >= mem.size(),
                    "interpretIr: store out of range");
            mem[regs[in.src]] = regs[in.dst];
            break;
          case IrOp::Label: break;
          case IrOp::Jmp: next = target(in.label); break;
          case IrOp::Beqz:
            if (regs[in.dst] == 0)
                next = target(in.label);
            break;
          case IrOp::Bnez:
            if (regs[in.dst] != 0)
                next = target(in.label);
            break;
          case IrOp::Bltu:
            if (regs[in.dst] < regs[in.src])
                next = target(in.label);
            break;
          case IrOp::Bgeu:
            if (regs[in.dst] >= regs[in.src])
                next = target(in.label);
            break;
          case IrOp::Halt: return mem;
        }
        pc = next;
    }
    return mem;
}

} // namespace printed::legacy
