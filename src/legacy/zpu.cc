#include "zpu.hh"

#include <array>
#include <map>

#include "common/bits.hh"
#include "common/logging.hh"
#include "legacy/batch_iss.hh"

namespace printed::legacy
{

namespace
{

// One-byte opcodes (ZPU encoding space).
enum Op : std::uint8_t
{
    BREAK = 0x00,
    POPPC = 0x04,
    ADD = 0x05,
    AND = 0x06,
    OR = 0x07,
    LOAD = 0x08,
    NOT = 0x09,
    FLIP = 0x0A,
    NOP = 0x0B,
    STORE = 0x0C,
    // EMULATE space (0x20..0x3F): taxed with zpuEmulatePenalty.
    ULESSTHAN = 0x25,
    LSHIFTRIGHT = 0x2A,
    EQ = 0x2E,
    SUB = 0x32,
    XOR = 0x33,
    NEQBRANCH = 0x38,
    // LOADSP 0 (dup).
    LOADSP0 = 0x60,
    // IM: 0x80 | 7-bit payload.
};

bool
isEmulate(std::uint8_t op)
{
    return op >= 0x20 && op < 0x40;
}

// Memory map (byte addresses, word-aligned): virtual registers at
// 0, data array at 0x80, stack grows down from the top.
constexpr std::uint32_t dataBase = 0x80;
constexpr std::uint32_t ramBytes = 0x1000;

/** No fused record (an index past every image's records). */
constexpr std::uint32_t noOp = ~std::uint32_t(0);

/**
 * One IR operation's template, fused: the byte range [start, next)
 * Compiler::lower emitted for it, its operands and, for a branch or
 * jump, its patched target. The Image adds the range's instruction
 * and cycle totals and the record indices of both successors.
 */
struct Fused
{
    IrOp op = IrOp::Halt;
    std::uint32_t dst = 0, src = 0; ///< RAM words of the vreg slots
    std::uint32_t imm = 0; ///< Li: the value; Add/Sub/Shl: width mask
    std::uint32_t start = 0, next = 0, target = 0;
    std::uint32_t insns = 0, cycles = 0;
    std::uint32_t nextOp = noOp, targetOp = noOp;
};

class Compiler
{
  public:
    explicit Compiler(const IrProgram &prog) : prog_(prog)
    {
        fatalIf(prog.regCount * 4 > dataBase,
                "zpu: too many virtual registers");
        for (const IrInst &in : prog_.code)
            lower(in);
        patch();
    }

    std::vector<std::uint8_t> take() { return std::move(code_); }
    std::vector<Fused> takeOps() { return std::move(ops_); }

  private:
    std::uint32_t slot(Reg r) const { return r * 4; }

    void byte(std::uint8_t b) { code_.push_back(b); }

    /** Shortest IM chain for a value. */
    void
    im(std::uint32_t value)
    {
        // Collect 7-bit groups, most significant first.
        std::vector<std::uint8_t> groups;
        std::int64_t v = std::int64_t(std::int32_t(value));
        while (true) {
            groups.insert(groups.begin(),
                          std::uint8_t(v & 0x7f));
            v >>= 7;
            // Sign-extension of the first IM reproduces the rest.
            const std::int64_t sign =
                (groups.front() & 0x40) ? -1 : 0;
            if (v == sign)
                break;
        }
        for (std::uint8_t g : groups)
            byte(std::uint8_t(0x80 | g));
    }

    /** Fixed-width 3-byte IM chain, backpatched with a label. */
    void
    imLabel(const std::string &label)
    {
        fixups_.emplace_back(code_.size(), label);
        byte(0x80);
        byte(0x80);
        byte(0x80);
    }

    void
    patch()
    {
        for (const auto &[pos, label] : fixups_) {
            auto it = labels_.find(label);
            if (it == labels_.end())
                fatal("zpu: undefined label " + label);
            const std::uint32_t t = std::uint32_t(it->second);
            fatalIf(t >= (1u << 21), "zpu: target out of IM range");
            code_[pos] = std::uint8_t(0x80 | ((t >> 14) & 0x7f));
            code_[pos + 1] = std::uint8_t(0x80 | ((t >> 7) & 0x7f));
            code_[pos + 2] = std::uint8_t(0x80 | (t & 0x7f));
        }
        for (const auto &[i, label] : opLabels_)
            ops_[i].target = std::uint32_t(labels_.at(label));
    }

    void
    pushReg(Reg r)
    {
        im(slot(r));
        byte(LOAD);
    }

    void
    popToReg(Reg r)
    {
        im(slot(r));
        byte(STORE);
    }

    /** Mask the top of stack to the IR width (no-op for 32-bit). */
    void
    maskTop()
    {
        if (prog_.width == 32)
            return;
        im(std::uint32_t(maskBits(prog_.width)));
        byte(AND);
    }

    void
    binop(std::uint8_t op, Reg dst, Reg src, bool needs_mask)
    {
        pushReg(dst);
        pushReg(src);
        byte(op);
        if (needs_mask)
            maskTop();
        popToReg(dst);
    }

    void
    lower(const IrInst &in)
    {
        const std::size_t start = code_.size();
        emit(in);
        // Every template but the halt's becomes a fused record.
        if (in.op == IrOp::Label || in.op == IrOp::Halt)
            return;
        Fused f;
        f.op = in.op;
        f.dst = in.dst;
        f.src = in.src;
        f.imm = in.op == IrOp::Li ? std::uint32_t(in.imm)
                                  : std::uint32_t(maskBits(prog_.width));
        f.start = std::uint32_t(start);
        f.next = std::uint32_t(code_.size());
        if (!in.label.empty())
            opLabels_.emplace_back(ops_.size(), in.label);
        ops_.push_back(f);
    }

    void
    emit(const IrInst &in)
    {
        switch (in.op) {
          case IrOp::Li:
            im(std::uint32_t(in.imm));
            byte(NOP); // break the IM chain before the slot address
            popToReg(in.dst);
            break;
          case IrOp::Mov:
            pushReg(in.src);
            popToReg(in.dst);
            break;
          case IrOp::Add: binop(ADD, in.dst, in.src, true); break;
          case IrOp::Sub: binop(SUB, in.dst, in.src, true); break;
          case IrOp::And: binop(AND, in.dst, in.src, false); break;
          case IrOp::Or: binop(OR, in.dst, in.src, false); break;
          case IrOp::Xor: binop(XOR, in.dst, in.src, false); break;
          case IrOp::Shl:
            pushReg(in.dst);
            byte(LOADSP0); // dup
            byte(ADD);
            maskTop();
            popToReg(in.dst);
            break;
          case IrOp::Shr:
            pushReg(in.dst);
            im(1);
            byte(LSHIFTRIGHT);
            popToReg(in.dst);
            break;
          case IrOp::Ld:
          case IrOp::St: {
            if (in.op == IrOp::St)
                pushReg(in.dst); // value under the address
            // byte address = dataBase + idx * 4
            pushReg(in.src);
            byte(LOADSP0);
            byte(ADD);
            byte(LOADSP0);
            byte(ADD);
            im(dataBase);
            byte(ADD);
            if (in.op == IrOp::Ld) {
                byte(LOAD);
                popToReg(in.dst);
            } else {
                byte(STORE);
            }
            break;
          }
          case IrOp::Label:
            labels_[in.label] = code_.size();
            break;
          case IrOp::Jmp:
            imLabel(in.label);
            byte(POPPC);
            break;
          case IrOp::Beqz:
            pushReg(in.dst);
            im(0);
            byte(EQ);
            imLabel(in.label);
            byte(NEQBRANCH);
            break;
          case IrOp::Bnez:
            pushReg(in.dst);
            imLabel(in.label);
            byte(NEQBRANCH);
            break;
          case IrOp::Bltu:
            pushReg(in.dst);
            pushReg(in.src);
            byte(ULESSTHAN);
            imLabel(in.label);
            byte(NEQBRANCH);
            break;
          case IrOp::Bgeu:
            pushReg(in.dst);
            pushReg(in.src);
            byte(ULESSTHAN);
            im(0);
            byte(EQ);
            imLabel(in.label);
            byte(NEQBRANCH);
            break;
          case IrOp::Halt:
            byte(BREAK);
            break;
        }
    }

    const IrProgram &prog_;
    std::vector<std::uint8_t> code_;
    std::map<std::string, std::size_t> labels_;
    std::vector<std::pair<std::size_t, std::string>> fixups_;
    std::vector<Fused> ops_;
    std::vector<std::pair<std::size_t, std::string>> opLabels_;
};

/**
 * Per-byte predecode record of the shared image: the opcode and its
 * full cycle charge, so dispatch skips the EMULATE test.
 */
struct ZDec
{
    std::uint8_t op;   ///< raw opcode; bit 7 flags an IM byte
    std::uint32_t cyc; ///< cycles for one dispatch
};

/**
 * A program's code, decoded once and shared by every machine, with
 * the fused records of a compiled program (none for other images).
 */
class Image
{
  public:
    explicit Image(std::vector<std::uint8_t> code,
                   std::vector<Fused> ops = {})
        : code_(std::move(code)), dec_(code_.size()),
          ops_(std::move(ops)), opAt_(code_.size(), noOp)
    {
        for (std::size_t a = 0; a < code_.size(); ++a) {
            const std::uint8_t op = code_[a];
            dec_[a] = {op, zpuBaseCpi +
                               (isEmulate(op) ? zpuEmulatePenalty : 0)};
        }
        // One instruction per byte: a range's totals are its length
        // and the sum of its bytes' charges.
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            Fused &f = ops_[i];
            panicIf(f.start >= f.next || f.next > code_.size(),
                    "zpu: fused range outside the image");
            opAt_[f.start] = std::uint32_t(i);
            f.insns = f.next - f.start;
            for (std::uint32_t a = f.start; a < f.next; ++a)
                f.cycles += dec_[a].cyc;
        }
        for (Fused &f : ops_) {
            f.nextOp = opAt(f.next);
            f.targetOp = opAt(f.target);
        }
    }

    std::size_t size() const { return code_.size(); }
    const ZDec *dec() const { return dec_.data(); }
    const Fused *ops() const { return ops_.data(); }

    /** The record starting at pc, or noOp. */
    std::uint32_t
    opAt(std::uint32_t pc) const
    {
        return pc < opAt_.size() ? opAt_[pc] : noOp;
    }

  private:
    std::vector<std::uint8_t> code_;
    std::vector<ZDec> dec_;
    std::vector<Fused> ops_;
    std::vector<std::uint32_t> opAt_;
};

/**
 * One ZPU machine over a shared Image: its word RAM. Trap contract:
 * a PC outside the code image kills the machine before the fetch;
 * a misaligned or out-of-range RAM access, or an unimplemented
 * opcode, kills it after the instruction was counted and charged
 * (the ZPU counts and charges at fetch). A bad access reads as zero
 * and the instruction still runs to completion (later valid
 * accesses land) before the kill is observed.
 */
class alignas(64) Machine
{
  public:
    explicit Machine(const Image &image) : image_(&image) {}

    /** Power-on state: RAM zeroed. */
    void reset() { ram_.fill(0); }

    std::uint32_t *ram() { return ram_.data(); }

    /** Run from PC 0 until halt, trap or max_steps instructions. */
    MachineStatus run(std::uint64_t max_steps);

    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t fusedOps = 0;            ///< records retired
    std::uint64_t steppedInstructions = 0; ///< retired one at a time

  private:
    static constexpr std::uint32_t ramWords = ramBytes / 4;

    const Image *image_;
    std::array<std::uint32_t, ramWords> ram_{};
};

/**
 * SP is always word-aligned (only push/pop move it, by whole
 * words), so the run tracks it in word units and the stack
 * accesses drop the alignment test.
 *
 * A fused record retires its whole IR operation in one dispatch
 * when the PC is at its start, SP is at ramWords (every template is
 * stack-balanced, and a live machine whose last instruction was an
 * IM holds a pushed word, so the IM flag is clear), the budget
 * covers the range and its data access, if any, stays inside RAM.
 * It leaves what single steps would: the vreg it writes, SP, a
 * clear IM flag, and the stack words below SP that the template's
 * pushes wrote (s1 = ram[ramWords - 1], s2, s3 below it). Otherwise
 * the machine single-steps, so every kill and budget cut-off lands
 * on the same instruction.
 */
MachineStatus
Machine::run(std::uint64_t max_steps)
{
    std::uint32_t *const ram = ram_.data();
    std::uint32_t &s1 = ram[ramWords - 1], &s2 = ram[ramWords - 2],
                  &s3 = ram[ramWords - 3];
    const ZDec *const dec = image_->dec();
    const Fused *const ops = image_->ops();
    const std::size_t codeSize = image_->size();
    std::uint32_t spw = ramWords, pc = 0;
    bool idim = false;
    std::uint64_t insns = 0, cyc = 0, fused = 0, stepped = 0;

    // The byte address of data word idx, as the template's
    // LOADSP/ADD chain computes it.
    const auto dataAddr = [](std::uint32_t idx) {
        return 4 * idx + dataBase;
    };

    MachineStatus status;
    for (;;) {
        if (spw == ramWords)
            for (std::uint32_t i = image_->opAt(pc); i != noOp;) {
                const Fused &f = ops[i];
                if (insns + f.insns > max_steps ||
                    ((f.op == IrOp::Ld || f.op == IrOp::St) &&
                     dataAddr(ram[f.src]) >= ramBytes))
                    break;
                const std::uint32_t a = ram[f.dst], b = ram[f.src];
                // Most templates end in "push value; push slot;
                // STORE": s1 holds the value, s2 the slot address.
                const auto store = [&](std::uint32_t v) {
                    s1 = v;
                    s2 = 4 * f.dst;
                    ram[f.dst] = v;
                };
                // NEQBRANCH pops the target, then the condition.
                bool taken = false;
                const auto branch = [&](std::uint32_t cond) {
                    s1 = cond;
                    s2 = f.target;
                    taken = cond != 0;
                };
                switch (f.op) {
                  case IrOp::Li: store(f.imm); break;
                  case IrOp::Mov: store(b); break;
                  case IrOp::Add: store((a + b) & f.imm); break;
                  case IrOp::Sub: store((a - b) & f.imm); break;
                  case IrOp::And: store(a & b); break;
                  case IrOp::Or: store(a | b); break;
                  case IrOp::Xor: store(a ^ b); break;
                  case IrOp::Shl: store((a + a) & f.imm); break;
                  case IrOp::Shr: store(a >> 1); break;
                  case IrOp::Ld: {
                    // The LOAD reads with s1 = address, s2 = base.
                    const std::uint32_t addr = dataAddr(b);
                    s1 = addr;
                    s2 = dataBase;
                    store(ram[addr / 4]);
                    break;
                  }
                  case IrOp::St: {
                    // STORE pops the address, then the value.
                    const std::uint32_t addr = dataAddr(b);
                    s1 = a;
                    s2 = addr;
                    s3 = dataBase;
                    ram[addr / 4] = a;
                    break;
                  }
                  case IrOp::Jmp:
                    s1 = f.target;
                    taken = true;
                    break;
                  case IrOp::Beqz: branch(a == 0); break;
                  case IrOp::Bnez: branch(a); break;
                  case IrOp::Bltu: branch(a < b); break;
                  case IrOp::Bgeu: branch(a >= b); break;
                  default: panic("zpu: unfused IR operation");
                }
                insns += f.insns;
                cyc += f.cycles;
                ++fused;
                pc = taken ? f.target : f.next;
                i = taken ? f.targetOp : f.nextOp;
            }

        if (insns >= max_steps) {
            status = MachineStatus::OutOfBudget;
            break;
        }
        if (pc >= codeSize) {
            status = MachineStatus::Killed;
            break;
        }
        const ZDec d = dec[pc];

        bool dead = false;
        const auto rd = [&](std::uint32_t a) -> std::uint32_t {
            if (a % 4 || a / 4 >= ramWords) {
                dead = true;
                return 0;
            }
            return ram[a / 4];
        };
        const auto wr = [&](std::uint32_t a, std::uint32_t v) {
            if (a % 4 || a / 4 >= ramWords) {
                dead = true;
                return;
            }
            ram[a / 4] = v;
        };
        const auto push = [&](std::uint32_t v) {
            --spw;
            if (spw >= ramWords)
                dead = true;
            else
                ram[spw] = v;
        };
        const auto pop = [&]() -> std::uint32_t {
            std::uint32_t v = 0;
            if (spw >= ramWords)
                dead = true;
            else
                v = ram[spw];
            ++spw;
            return v;
        };

        ++pc;
        ++insns;
        ++stepped;
        cyc += d.cyc;
        if (d.op & 0x80) { // IM: one 7-bit group of an immediate
            const std::uint32_t payload = d.op & 0x7f;
            if (idim)
                push((pop() << 7) | payload);
            else
                push(std::uint32_t(signExtend(payload, 7)));
            idim = true;
            if (dead) {
                status = MachineStatus::Killed;
                break;
            }
            continue;
        }

        idim = false;
        bool bad_op = false;
        bool halted = false;
        switch (d.op) {
          case BREAK: halted = true; break;
          case NOP: break;
          case POPPC: pc = pop(); break;
          case ADD: { const auto b = pop(); push(pop() + b);
            break; }
          case SUB: { const auto b = pop(); push(pop() - b);
            break; }
          case AND: { const auto b = pop(); push(pop() & b);
            break; }
          case OR: { const auto b = pop(); push(pop() | b);
            break; }
          case XOR: { const auto b = pop(); push(pop() ^ b);
            break; }
          case NOT: push(~pop()); break;
          case FLIP: {
            std::uint32_t v = pop(), r = 0;
            for (int i = 0; i < 32; ++i)
                r |= ((v >> i) & 1) << (31 - i);
            push(r);
            break;
          }
          case LOAD: push(rd(pop())); break;
          case STORE: {
            const auto addr = pop();
            wr(addr, pop());
            break;
          }
          case ULESSTHAN: {
            const auto b = pop();
            const auto a = pop();
            push(a < b ? 1 : 0);
            break;
          }
          case EQ: {
            const auto b = pop();
            push(pop() == b ? 1 : 0);
            break;
          }
          case LSHIFTRIGHT: {
            const auto amount = pop() & 31;
            push(pop() >> amount);
            break;
          }
          case NEQBRANCH: {
            const auto target = pop();
            const auto cond = pop();
            if (cond != 0)
                pc = target;
            break;
          }
          case LOADSP0: {
            std::uint32_t v = 0;
            if (spw >= ramWords)
                dead = true;
            else
                v = ram[spw];
            push(v);
            break;
          }
          default:
            bad_op = true;
            break;
        }

        if (dead || bad_op) {
            status = MachineStatus::Killed;
            break;
        }
        if (halted) {
            status = MachineStatus::Halted;
            break;
        }
    }
    instructions = insns;
    cycles = cyc;
    fusedOps = fused;
    steppedInstructions = stepped;
    return status;
}

} // anonymous namespace

LegacySize
sizeZpu(const IrProgram &prog)
{
    Compiler c(prog);
    LegacySize sz;
    sz.codeBytes = c.take().size();
    // ZPU stores every logical word in a 32-bit RAM word.
    sz.dataBytes = prog.dataWords * 4;
    return sz;
}

LegacyRun
runZpu(const IrProgram &prog,
       const std::vector<std::uint64_t> &inputs,
       std::uint64_t max_steps)
{
    IssBatchOptions opts;
    opts.maxSteps = max_steps;
    IssBatchResult res = batchRunZpu(prog, {inputs}, opts);
    fatalIf(res.status[0] == MachineStatus::OutOfBudget,
            "zpu: step budget exhausted");
    fatalIf(res.status[0] == MachineStatus::Killed,
            "zpu: machine killed (bad pc, address, or opcode)");
    return std::move(res.runs[0]);
}

IssBatchResult
batchRunZpu(const IrProgram &prog,
            const std::vector<std::vector<std::uint64_t>> &inputs,
            const IssBatchOptions &opts)
{
    Compiler compiler(prog);
    const Image image(compiler.take(), compiler.takeOps());
    IssBatchResult res =
        issNewResult(inputs.size(), image.size(), prog.dataWords * 4);
    for (const auto &in : inputs)
        fatalIf(in.size() != prog.inputAddrs.size(),
                "zpu: input count mismatch");
    fatalIf(dataBase + std::size_t(prog.dataWords) * 4 > ramBytes,
            "zpu: data array exceeds RAM");

    issRunFleet(opts, inputs.size(), Machine(image),
                [&](Machine &mach, std::size_t m) {
        mach.reset();
        std::uint32_t *const ram = mach.ram();
        for (std::size_t i = 0; i < inputs[m].size(); ++i)
            ram[dataBase / 4 + prog.inputAddrs[i]] =
                std::uint32_t(inputs[m][i]);
        res.status[m] = mach.run(opts.maxSteps);
        LegacyRun &run = res.runs[m];
        run.instructions = mach.instructions;
        run.cycles = mach.cycles;
        run.fusedOps = mach.fusedOps;
        run.steppedInstructions = mach.steppedInstructions;
        for (unsigned addr : prog.outputAddrs)
            run.outputs.push_back(ram[dataBase / 4 + addr] &
                                  maskBits(prog.width));
    });
    return res;
}

} // namespace printed::legacy
