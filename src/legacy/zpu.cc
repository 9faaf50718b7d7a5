#include "zpu.hh"

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
};

/**
 * ZPU core state + interpreter. Scalar oracle of the batch engine:
 * both engines share the trap contract (PC outside the code image
 * kills the machine before the fetch; any access to a misaligned
 * or out-of-range RAM word, or an unimplemented opcode, kills it
 * after the instruction was counted and charged - ZPU counts and
 * charges at fetch) and must agree bit for bit.
 */
class Machine
{
  public:
    explicit Machine(std::vector<std::uint8_t> code)
        : code_(std::move(code)), ram_(ramBytes / 4, 0),
          sp_(ramBytes)
    {}

    /** Unchecked accessors for the run harness's I/O words. */
    std::uint32_t
    ramWord(std::uint32_t byte_addr) const
    {
        panicIf(byte_addr % 4 || byte_addr / 4 >= ram_.size(),
                "zpu: bad word address");
        return ram_[byte_addr / 4];
    }

    void
    setRamWord(std::uint32_t byte_addr, std::uint32_t v)
    {
        panicIf(byte_addr % 4 || byte_addr / 4 >= ram_.size(),
                "zpu: bad word address");
        ram_[byte_addr / 4] = v;
    }

    MachineStatus
    run(std::uint64_t max_steps, std::uint64_t &instructions,
        std::uint64_t &cycles)
    {
        instructions = 0;
        cycles = 0;
        while (!halted_) {
            if (instructions >= max_steps)
                return MachineStatus::OutOfBudget;
            if (pc_ >= code_.size())
                return MachineStatus::Killed;
            const std::uint8_t op = code_[pc_++];
            ++instructions;
            cycles += zpuBaseCpi;
            if (isEmulate(op))
                cycles += zpuEmulatePenalty;

            if (op & 0x80) { // IM
                const std::uint32_t payload = op & 0x7f;
                if (idim_) {
                    push((pop() << 7) | payload);
                } else {
                    push(std::uint32_t(signExtend(payload, 7)));
                }
                idim_ = true;
                if (dead_)
                    return MachineStatus::Killed;
                continue;
            }
            idim_ = false;

            switch (op) {
              case BREAK: halted_ = true; break;
              case NOP: break;
              case POPPC: pc_ = pop(); break;
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
                    pc_ = target;
                break;
              }
              case LOADSP0:
                push(rd(sp_));
                break;
              default:
                return MachineStatus::Killed;
            }
            if (dead_)
                return MachineStatus::Killed;
        }
        return MachineStatus::Halted;
    }

  private:
    /**
     * Checked word access: a bad address marks the machine dead
     * and reads as zero; the instruction still runs to completion
     * (later valid accesses land) before the kill is observed -
     * the batch engine replays this sequence exactly.
     */
    std::uint32_t
    rd(std::uint32_t byte_addr)
    {
        if (byte_addr % 4 || byte_addr / 4 >= ram_.size()) {
            dead_ = true;
            return 0;
        }
        return ram_[byte_addr / 4];
    }

    void
    wr(std::uint32_t byte_addr, std::uint32_t v)
    {
        if (byte_addr % 4 || byte_addr / 4 >= ram_.size()) {
            dead_ = true;
            return;
        }
        ram_[byte_addr / 4] = v;
    }

    void
    push(std::uint32_t v)
    {
        sp_ -= 4;
        wr(sp_, v);
    }

    std::uint32_t
    pop()
    {
        const std::uint32_t v = rd(sp_);
        sp_ += 4;
        return v;
    }

    std::vector<std::uint8_t> code_;
    std::vector<std::uint32_t> ram_;
    std::uint32_t sp_;
    std::uint32_t pc_ = 0;
    bool halted_ = false;
    bool idim_ = false;
    bool dead_ = false;
};

/**
 * Struct-of-arrays ZPU batch engine: one shared read-only code
 * image, per-machine RAM/SP/PC/IM-chain columns. Mirrors the
 * scalar Machine bit for bit, including the dead-flag semantics
 * of bad accesses mid-instruction.
 */
class BatchZpu
{
  public:
    BatchZpu(std::vector<std::uint8_t> code, std::size_t machines)
        : code_(std::move(code)),
          ram_(machines * ramWords, 0),
          sp_(machines, ramBytes),
          pc_(machines, 0),
          idim_(machines, 0),
          status_(machines, MachineStatus::Halted),
          insns_(machines, 0),
          cycles_(machines, 0)
    {
        predecode();
    }

    std::uint32_t *ram(std::size_t m) { return &ram_[m * ramWords]; }
    MachineStatus status(std::size_t m) const { return status_[m]; }
    std::uint64_t instructions(std::size_t m) const { return insns_[m]; }
    std::uint64_t cycles(std::size_t m) const { return cycles_[m]; }

    /**
     * Lock-step rounds of up to issQuantum instructions per
     * still-active machine (quantum-invariant — machines never
     * interact; the quantum keeps one machine's SP/PC/IM-chain and
     * counters in locals and its RAM hot in cache).
     */
    void
    runBlock(std::size_t begin, std::size_t end,
             std::uint64_t max_steps)
    {
        std::uint64_t active = 0;
        for (std::size_t m = begin; m < end; ++m)
            active |= std::uint64_t(1) << (m - begin);
        while (active) {
            for (std::uint64_t w = active; w; w &= w - 1) {
                const unsigned b =
                    unsigned(__builtin_ctzll(w));
                const int st = runQuantum(begin + b, max_steps);
                if (st >= 0) {
                    status_[begin + b] = MachineStatus(st);
                    active &= ~(std::uint64_t(1) << b);
                }
            }
        }
    }

  private:
    static constexpr std::size_t ramWords = ramBytes / 4;

    /**
     * Per-byte predecode record for the shared image. An address
     * whose byte starts an IM chain folds the *whole* maximal run
     * from that address into one immediate (the fold an empty-chain
     * entry would compute — a branch target mid-run simply uses its
     * own record); other bytes carry the opcode and its full cycle
     * charge so dispatch skips the EMULATE test.
     */
    struct ZDec
    {
        std::uint8_t op;  ///< raw opcode; 0x80 flags an IM run
        std::uint8_t len; ///< bytes (= instructions) in the run
        std::uint32_t imm; ///< folded IM value (empty-chain entry)
        std::uint32_t cyc; ///< cycles for one non-IM dispatch
    };

    void
    predecode()
    {
        dec_.resize(code_.size());
        for (std::size_t a = 0; a < code_.size(); ++a) {
            const std::uint8_t op = code_[a];
            if (op & 0x80) {
                std::size_t end = a + 1;
                while (end < code_.size() &&
                       (code_[end] & 0x80) && end - a < 255)
                    ++end;
                std::uint32_t v = std::uint32_t(
                    signExtend(op & 0x7f, 7));
                for (std::size_t i = a + 1; i < end; ++i)
                    v = (v << 7) | (code_[i] & 0x7f);
                dec_[a] = {0x80, std::uint8_t(end - a), v,
                           zpuBaseCpi};
            } else {
                dec_[a] = {op, 1, 0,
                           zpuBaseCpi + (isEmulate(op)
                                             ? zpuEmulatePenalty
                                             : 0)};
            }
        }
    }

    /**
     * Up to issQuantum scalar-oracle iterations for machine m: -1
     * while still running, otherwise its final MachineStatus. SP is
     * always word-aligned (only push/pop move it, by whole words),
     * so the quantum tracks it in word units and the stack accesses
     * drop the alignment test the scalar rd/wr perform.
     */
    int
    runQuantum(std::size_t m, std::uint64_t max_steps)
    {
        std::uint32_t *const ram = &ram_[m * ramWords];
        const std::uint8_t *const code = code_.data();
        const ZDec *const dec = dec_.data();
        const std::size_t codeSize = code_.size();
        std::uint32_t spw = sp_[m] >> 2, pc = pc_[m];
        bool idim = idim_[m] != 0;
        std::uint64_t insns = insns_[m], cycles = cycles_[m];

        int result = -1;
        for (unsigned q = 0; q < issQuantum && result < 0; ++q) {
            if (insns >= max_steps) {
                result = int(MachineStatus::OutOfBudget);
                break;
            }
            if (pc >= codeSize) {
                result = int(MachineStatus::Killed);
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

            if (d.op & 0x80) { // IM chain
                if (!idim && insns + d.len <= max_steps) {
                    // Entered with an empty chain and inside the
                    // step budget: one push of the folded value
                    // retires the whole run. A trapping push kills
                    // on the run's first byte, exactly like the
                    // byte-wise engine.
                    push(d.imm);
                    idim = true;
                    const unsigned n = dead ? 1 : d.len;
                    pc += n;
                    insns += n;
                    cycles += std::uint64_t(zpuBaseCpi) * n;
                    if (dead)
                        result = int(MachineStatus::Killed);
                    continue;
                }
                // Mid-chain entry or the budget expires inside the
                // run: byte-wise, the exact scalar sequence.
                const std::uint32_t payload = code[pc] & 0x7f;
                ++pc;
                ++insns;
                cycles += zpuBaseCpi;
                if (idim)
                    push((pop() << 7) | payload);
                else
                    push(std::uint32_t(signExtend(payload, 7)));
                idim = true;
                if (dead)
                    result = int(MachineStatus::Killed);
                continue;
            }

            ++pc;
            ++insns;
            cycles += d.cyc;
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

            if (dead || bad_op)
                result = int(MachineStatus::Killed);
            else if (halted)
                result = int(MachineStatus::Halted);
        }

        sp_[m] = spw << 2;
        pc_[m] = pc;
        idim_[m] = idim ? 1 : 0;
        insns_[m] = insns;
        cycles_[m] = cycles;
        return result;
    }

    std::vector<std::uint8_t> code_; ///< shared, read-only
    std::vector<ZDec> dec_;          ///< shared predecode of code_
    std::vector<std::uint32_t> ram_; ///< ramWords per machine
    std::vector<std::uint32_t> sp_;
    std::vector<std::uint32_t> pc_;
    std::vector<std::uint8_t> idim_; ///< mid-IM-chain flag
    std::vector<MachineStatus> status_;
    std::vector<std::uint64_t> insns_;
    std::vector<std::uint64_t> cycles_;
};

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
    Compiler c(prog);
    auto code = c.take();

    LegacyRun result;
    result.codeBytes = code.size();
    result.dataBytes = prog.dataWords * 4;

    Machine m(std::move(code));
    fatalIf(inputs.size() != prog.inputAddrs.size(),
            "runZpu: input count mismatch");
    for (std::size_t i = 0; i < inputs.size(); ++i)
        m.setRamWord(dataBase + prog.inputAddrs[i] * 4,
                     std::uint32_t(inputs[i]));

    const MachineStatus st =
        m.run(max_steps, result.instructions, result.cycles);
    fatalIf(st == MachineStatus::OutOfBudget,
            "zpu: step budget exhausted");
    fatalIf(st == MachineStatus::Killed,
            "zpu: machine killed (bad pc, address, or opcode)");

    for (unsigned addr : prog.outputAddrs)
        result.outputs.push_back(m.ramWord(dataBase + addr * 4) &
                                 maskBits(prog.width));
    return result;
}

IssBatchResult
batchRunZpu(const IrProgram &prog,
            const std::vector<std::vector<std::uint64_t>> &inputs,
            const IssBatchOptions &opts)
{
    Compiler c(prog);
    auto code = c.take();
    const std::size_t machines = inputs.size();

    IssBatchResult res;
    res.codeBytes = code.size();
    res.dataBytes = prog.dataWords * 4;
    res.runs.resize(machines);
    res.status.resize(machines, MachineStatus::Halted);
    for (std::size_t m = 0; m < machines; ++m) {
        fatalIf(inputs[m].size() != prog.inputAddrs.size(),
                "batchRunZpu: input count mismatch");
        res.runs[m].codeBytes = res.codeBytes;
        res.runs[m].dataBytes = res.dataBytes;
    }
    fatalIf(dataBase + std::size_t(prog.dataWords) * 4 > ramBytes,
            "batchRunZpu: data array exceeds RAM");

    if (opts.engine == IssEngine::Scalar) {
        issForEachBlock(opts, machines, [&](std::size_t begin,
                                            std::size_t end) {
            for (std::size_t m = begin; m < end; ++m) {
                Machine mach(code); // per-machine copy: baseline
                for (std::size_t i = 0;
                     i < prog.inputAddrs.size(); ++i)
                    mach.setRamWord(
                        dataBase + prog.inputAddrs[i] * 4,
                        std::uint32_t(inputs[m][i]));
                res.status[m] =
                    mach.run(opts.maxSteps,
                             res.runs[m].instructions,
                             res.runs[m].cycles);
                for (unsigned addr : prog.outputAddrs)
                    res.runs[m].outputs.push_back(
                        mach.ramWord(dataBase + addr * 4) &
                        maskBits(prog.width));
            }
        });
    } else {
        BatchZpu b(std::move(code), machines);
        for (std::size_t m = 0; m < machines; ++m)
            for (std::size_t i = 0; i < prog.inputAddrs.size(); ++i)
                b.ram(m)[(dataBase + prog.inputAddrs[i] * 4) / 4] =
                    std::uint32_t(inputs[m][i]);
        issForEachBlock(opts, machines, [&](std::size_t begin,
                                            std::size_t end) {
            b.runBlock(begin, end, opts.maxSteps);
        });
        for (std::size_t m = 0; m < machines; ++m) {
            res.status[m] = b.status(m);
            res.runs[m].instructions = b.instructions(m);
            res.runs[m].cycles = b.cycles(m);
            for (unsigned addr : prog.outputAddrs)
                res.runs[m].outputs.push_back(
                    b.ram(m)[(dataBase + addr * 4) / 4] &
                    maskBits(prog.width));
        }
    }

    issFinishResult(res, opts.engine);
    return res;
}

} // namespace printed::legacy
