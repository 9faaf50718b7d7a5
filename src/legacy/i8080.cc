#include "i8080.hh"

#include <array>
#include <map>

#include "common/bits.hh"
#include "common/logging.hh"
#include "legacy/batch_iss.hh"

namespace printed::legacy
{

namespace
{

// Memory map: code at 0, virtual-register file and data array on
// separate 256-byte pages so address arithmetic never carries. The
// stack (used only by CALL/RET code) lives on the top page.
constexpr std::uint16_t regBase = 0x8000;
constexpr std::uint16_t dataBase = 0x9000;

/**
 * Writable-window contract shared by both engines: the register,
 * data, and stack pages. Returns the arena page index, or -1 when
 * the address is not writable (writes there trap the machine).
 */
int
pageOf(std::uint16_t addr)
{
    switch (addr >> 8) {
      case 0x80: return 0;
      case 0x90: return 1;
      case 0xFF: return 2;
    }
    return -1;
}

// The 8080 opcodes the backend emits (plus the CALL/RET family,
// which hand-written test images use).
enum Op : std::uint8_t
{
    NOP = 0x00,
    LXI_H = 0x21,
    INX_H = 0x23,
    MVI_H = 0x26,
    LXI_SP = 0x31,
    STA = 0x32,
    MVI_A = 0x3E,
    MOV_L_A = 0x6F,
    HLT = 0x76,
    MOV_M_A = 0x77,
    MOV_A_M = 0x7E,
    ADD_M = 0x86,
    ADD_A = 0x87,
    ADC_M = 0x8E,
    ADC_A = 0x8F,
    SUB_M = 0x96,
    SBB_M = 0x9E,
    ANA_M = 0xA6,
    ANA_A = 0xA7,
    ORA_M = 0xB6,
    ORA_A = 0xB7,
    XRA_M = 0xAE,
    RAR = 0x1F,
    JNZ = 0xC2,
    JMP = 0xC3,
    JZ = 0xCA,
    JC = 0xDA,
    JNC = 0xD2,
    RET = 0xC9,
    CALL = 0xCD,
};

constexpr std::uint8_t LDA = 0x3A;

/** Register codes of the 8080 MOV/ALU matrices. */
constexpr unsigned regB = 0, regC = 1, regD = 2, regE = 3,
                   regHc = 4, regL = 5, regM = 6, regA = 7;

/**
 * Per-opcode state counts, taken-aware. cyc is the cost when a
 * conditional transfer is not taken (and the only cost of every
 * other opcode); taken is the cost when it is taken. The real
 * parts differ here: a conditional CALL costs 11/17 (8080) or
 * 10/17 (Z80) for not-taken/taken, a conditional RET 5/11 on
 * both, while conditional jumps cost a flat 10 on both. known is
 * false for opcodes outside the implemented subset (executing one
 * traps the machine on both engines).
 */
struct OpCost
{
    std::uint8_t cyc[2] = {0, 0};   ///< {8080, Z80} not-taken
    std::uint8_t taken[2] = {0, 0}; ///< {8080, Z80} taken
    bool known = false;
};

OpCost
makeCost(unsigned c8080, unsigned cz80)
{
    OpCost c;
    c.cyc[0] = c.taken[0] = std::uint8_t(c8080);
    c.cyc[1] = c.taken[1] = std::uint8_t(cz80);
    c.known = true;
    return c;
}

OpCost
makeCondCost(unsigned n8080, unsigned t8080, unsigned nz80,
             unsigned tz80)
{
    OpCost c;
    c.cyc[0] = std::uint8_t(n8080);
    c.taken[0] = std::uint8_t(t8080);
    c.cyc[1] = std::uint8_t(nz80);
    c.taken[1] = std::uint8_t(tz80);
    c.known = true;
    return c;
}

/** Condition field ccc of Jcc/Ccc/Rcc; we model NZ/Z/NC/C. */
bool
condImplemented(unsigned ccc)
{
    return ccc < 4;
}

OpCost
opCycles(std::uint8_t op)
{
    // MOV matrix (0x40-0x7F except HLT).
    if (op >= 0x40 && op <= 0x7F && op != HLT) {
        const bool mem = ((op >> 3) & 7) == regM || (op & 7) == regM;
        return mem ? makeCost(7, 7) : makeCost(5, 4);
    }
    // ALU matrix (0x80-0xBF).
    if (op >= 0x80 && op <= 0xBF)
        return (op & 7) == regM ? makeCost(7, 7) : makeCost(4, 4);
    // MVI r (00rrr110).
    if ((op & 0xC7) == 0x06)
        return ((op >> 3) & 7) == regM ? makeCost(10, 10)
                                       : makeCost(7, 7);
    // Jcc (11ccc010): 10 states taken or not, on both parts.
    if ((op & 0xC7) == 0xC2)
        return condImplemented((op >> 3) & 7) ? makeCost(10, 10)
                                              : OpCost{};
    // Ccc (11ccc100): the 8080 spends 11/17 not-taken/taken, the
    // Z80 10/17 - the first timing in the emitted subset that
    // depends on the branch outcome.
    if ((op & 0xC7) == 0xC4)
        return condImplemented((op >> 3) & 7)
                   ? makeCondCost(11, 17, 10, 17)
                   : OpCost{};
    // Rcc (11ccc000): 5/11 on both parts.
    if ((op & 0xC7) == 0xC0)
        return condImplemented((op >> 3) & 7)
                   ? makeCondCost(5, 11, 5, 11)
                   : OpCost{};

    switch (op) {
      case NOP: return makeCost(4, 4);
      case LXI_H:
      case LXI_SP: return makeCost(10, 10);
      case INX_H: return makeCost(5, 6);
      case STA: return makeCost(13, 13);
      case LDA: return makeCost(13, 13);
      case HLT: return makeCost(7, 4);
      case RAR: return makeCost(4, 4);
      case JMP: return makeCost(10, 10);
      case CALL: return makeCost(17, 17);
      case RET: return makeCost(10, 10);
      default: return OpCost{}; // unimplemented: traps
    }
}

/** Evaluate condition ccc (NZ/Z/NC/C) against the flags. */
bool
evalCond(unsigned ccc, bool z, bool cy)
{
    switch (ccc) {
      case 0: return !z;
      case 1: return z;
      case 2: return !cy;
      case 3: return cy;
    }
    panic("i8080: bad condition code");
}

/**
 * Backend: IR -> 8080 machine code.
 *
 * For 8-bit programs the first four virtual registers live in
 * B/C/D/E (the sdcc-style allocation that makes 8080 code dense);
 * the rest - and all wider programs - use RAM slots through the
 * accumulator.
 */
class Compiler
{
  public:
    explicit Compiler(const IrProgram &prog)
        : prog_(prog), bpw_((prog.width + 7) / 8),
          reg8_(prog.width == 8)
    {
        fatalIf(prog_.dataWords * bpw_ > 256,
                "compile8080: data exceeds one page");
        fatalIf(prog_.regCount * bpw_ > 256,
                "compile8080: registers exceed one page");
        for (const IrInst &in : prog_.code)
            lower(in);
        patch();
    }

    std::vector<std::uint8_t> take() { return std::move(code_); }

  private:
    std::uint16_t slot(Reg r, unsigned k) const
    {
        return std::uint16_t(regBase + r * bpw_ + k);
    }

    void byte(std::uint8_t b) { code_.push_back(b); }
    void word(std::uint16_t w)
    {
        byte(std::uint8_t(w & 0xff));
        byte(std::uint8_t(w >> 8));
    }

    void op_imm(std::uint8_t op, std::uint8_t imm)
    {
        byte(op);
        byte(imm);
    }
    void op_addr(std::uint8_t op, std::uint16_t addr)
    {
        byte(op);
        word(addr);
    }

    void
    jump(std::uint8_t op, const std::string &label)
    {
        byte(op);
        fixups_.emplace_back(code_.size(), label);
        word(0);
    }

    void
    patch()
    {
        for (const auto &[pos, label] : fixups_) {
            auto it = labels_.find(label);
            if (it == labels_.end())
                fatal("compile8080: undefined label " + label);
            code_[pos] = std::uint8_t(it->second & 0xff);
            code_[pos + 1] = std::uint8_t(it->second >> 8);
        }
    }

    /** True when the vreg lives in a hardware register (B..E). */
    bool inHw(Reg r) const { return reg8_ && r < 4; }

    /** A = vreg (MOV A,r or LDA slot). */
    void
    loadA(Reg r, unsigned k = 0)
    {
        if (inHw(r))
            byte(std::uint8_t(0x78 | r)); // MOV A,r
        else
            op_addr(LDA, slot(r, k));
    }

    /** vreg = A (MOV r,A or STA slot). */
    void
    storeA(Reg r, unsigned k = 0)
    {
        if (inHw(r))
            byte(std::uint8_t(0x40 | (r << 3) | regA)); // MOV r,A
        else
            op_addr(STA, slot(r, k));
    }

    /** A = A <alu_base> vreg (register form or LXI H + M form). */
    void
    aluWith(std::uint8_t alu_base, Reg src, unsigned k = 0)
    {
        if (inHw(src)) {
            byte(std::uint8_t(alu_base | src));
        } else {
            op_addr(LXI_H, slot(src, k));
            byte(std::uint8_t(alu_base | regM));
        }
    }

    /** HL = &data[idx_reg * bpw] (data page-aligned, no carries). */
    void
    pointerFromIndex(Reg idx)
    {
        if (inHw(idx) && bpw_ == 1) {
            byte(std::uint8_t(0x40 | (regL << 3) | idx)); // MOV L,r
        } else {
            loadA(idx);
            for (unsigned s = 1; s < bpw_; s <<= 1)
                byte(ADD_A); // A *= 2
            byte(MOV_L_A);
        }
        op_imm(MVI_H, dataBase >> 8);
    }

    void
    memBinop(std::uint8_t first, std::uint8_t rest, Reg dst, Reg src)
    {
        if (bpw_ == 1) {
            loadA(dst);
            aluWith(first & 0xB8, src); // base row of the ALU matrix
            storeA(dst);
            return;
        }
        for (unsigned k = 0; k < bpw_; ++k) {
            op_addr(LDA, slot(dst, k));
            op_addr(LXI_H, slot(src, k));
            byte(k == 0 ? first : rest);
            op_addr(STA, slot(dst, k));
        }
    }

    void
    lower(const IrInst &in)
    {
        switch (in.op) {
          case IrOp::Li:
            if (bpw_ == 1 && inHw(in.dst)) {
                // MVI r, imm.
                op_imm(std::uint8_t(0x06 | (in.dst << 3)),
                       std::uint8_t(in.imm));
                break;
            }
            for (unsigned k = 0; k < bpw_; ++k) {
                op_imm(MVI_A, std::uint8_t(in.imm >> (8 * k)));
                op_addr(STA, slot(in.dst, k));
            }
            break;
          case IrOp::Mov:
            if (bpw_ == 1) {
                loadA(in.src);
                storeA(in.dst);
                break;
            }
            for (unsigned k = 0; k < bpw_; ++k) {
                op_addr(LDA, slot(in.src, k));
                op_addr(STA, slot(in.dst, k));
            }
            break;
          case IrOp::Add: memBinop(ADD_M, ADC_M, in.dst, in.src);
            break;
          case IrOp::Sub: memBinop(SUB_M, SBB_M, in.dst, in.src);
            break;
          case IrOp::And: memBinop(ANA_M, ANA_M, in.dst, in.src);
            break;
          case IrOp::Or: memBinop(ORA_M, ORA_M, in.dst, in.src);
            break;
          case IrOp::Xor: memBinop(XRA_M, XRA_M, in.dst, in.src);
            break;
          case IrOp::Shl:
            if (bpw_ == 1) {
                loadA(in.dst);
                byte(ADD_A);
                storeA(in.dst);
                break;
            }
            for (unsigned k = 0; k < bpw_; ++k) {
                op_addr(LDA, slot(in.dst, k));
                byte(k == 0 ? ADD_A : ADC_A);
                op_addr(STA, slot(in.dst, k));
            }
            break;
          case IrOp::Shr:
            if (bpw_ == 1) {
                loadA(in.dst);
                byte(ORA_A); // clears CY, A unchanged
                byte(RAR);
                storeA(in.dst);
                break;
            }
            for (unsigned k = bpw_; k-- > 0;) {
                op_addr(LDA, slot(in.dst, k));
                if (k == bpw_ - 1)
                    byte(ORA_A);
                byte(RAR);
                op_addr(STA, slot(in.dst, k));
            }
            break;
          case IrOp::Ld:
            pointerFromIndex(in.src);
            for (unsigned k = 0; k < bpw_; ++k) {
                byte(MOV_A_M);
                storeA(in.dst, k);
                if (k + 1 < bpw_)
                    byte(INX_H);
            }
            break;
          case IrOp::St:
            pointerFromIndex(in.src);
            for (unsigned k = 0; k < bpw_; ++k) {
                loadA(in.dst, k);
                byte(MOV_M_A);
                if (k + 1 < bpw_)
                    byte(INX_H);
            }
            break;
          case IrOp::Label:
            labels_[in.label] = std::uint16_t(code_.size());
            break;
          case IrOp::Jmp:
            jump(JMP, in.label);
            break;
          case IrOp::Beqz:
          case IrOp::Bnez:
            loadA(in.dst);
            if (bpw_ == 1) {
                byte(ORA_A); // MOV/LDA do not set flags on the 8080
            } else {
                for (unsigned k = 1; k < bpw_; ++k) {
                    op_addr(LXI_H, slot(in.dst, k));
                    byte(ORA_M);
                }
            }
            jump(in.op == IrOp::Beqz ? JZ : JNZ, in.label);
            break;
          case IrOp::Bltu:
          case IrOp::Bgeu:
            if (bpw_ == 1) {
                loadA(in.dst);
                aluWith(0xB8, in.src); // CMP: A - src, CY = borrow
            } else {
                for (unsigned k = 0; k < bpw_; ++k) {
                    op_addr(LDA, slot(in.dst, k));
                    op_addr(LXI_H, slot(in.src, k));
                    byte(k == 0 ? SUB_M : SBB_M);
                }
            }
            jump(in.op == IrOp::Bltu ? JC : JNC, in.label);
            break;
          case IrOp::Halt:
            byte(HLT);
            break;
        }
    }

    const IrProgram &prog_;
    unsigned bpw_;
    bool reg8_;
    std::vector<std::uint8_t> code_;
    std::map<std::string, std::uint16_t> labels_;
    std::vector<std::pair<std::size_t, std::string>> fixups_;
};

/**
 * The scalar 8080 simulator (emitted subset, genuine flag
 * semantics). This is the batch engine's bit-exact oracle: both
 * share the opCycles tables, the pageOf writable-window contract,
 * and the trap rules (undecodable opcode or PC out of code kill
 * the machine before it is charged; a bad write kills it after).
 */
class Machine
{
  public:
    explicit Machine(std::vector<std::uint8_t> code)
        : mem_(0x10000, 0), codeSize_(code.size())
    {
        std::copy(code.begin(), code.end(), mem_.begin());
    }

    std::uint8_t &at(std::uint16_t addr) { return mem_[addr]; }

    MachineStatus
    run(I8080Timing timing, std::uint64_t max_steps,
        std::uint64_t &instructions, std::uint64_t &cycles)
    {
        instructions = 0;
        cycles = 0;
        // A program that halts as exactly the max_steps-th
        // instruction is Halted, not OutOfBudget: the halt flag
        // wins whenever no further fetch is needed.
        while (!halted_) {
            if (instructions >= max_steps)
                return MachineStatus::OutOfBudget;
            if (pc_ >= codeSize_ || !step(timing, cycles))
                return MachineStatus::Killed;
            ++instructions;
        }
        return MachineStatus::Halted;
    }

  private:
    std::uint16_t
    fetch16()
    {
        const std::uint16_t lo = mem_[pc_++];
        const std::uint16_t hi = mem_[pc_++];
        return std::uint16_t(lo | (hi << 8));
    }

    void
    setSz(std::uint8_t v)
    {
        z_ = v == 0;
        s_ = (v & 0x80) != 0;
    }

    /** Checked write: only the mapped pages are writable. */
    [[nodiscard]] bool
    wr(std::uint16_t addr, std::uint8_t v)
    {
        if (pageOf(addr) < 0)
            return false;
        mem_[addr] = v;
        return true;
    }

    /** @return false when the instruction trapped (machine dies). */
    bool
    step(I8080Timing timing, std::uint64_t &cycles)
    {
        const std::uint8_t op = mem_[pc_];
        const OpCost cost = opCycles(op);
        if (!cost.known)
            return false;
        ++pc_;
        const unsigned t = timing == I8080Timing::I8080 ? 0 : 1;
        cycles += cost.cyc[t];

        auto hl = [&] { return std::uint16_t((h_ << 8) | l_); };
        auto get_reg = [&](unsigned code) -> std::uint8_t {
            switch (code) {
              case regB: return b_;
              case regC: return c_;
              case regD: return d_;
              case regE: return e_;
              case regHc: return h_;
              case regL: return l_;
              case regM: return mem_[hl()];
              case regA: return a_;
            }
            panic("i8080: bad register code");
        };

        // MOV matrix (01 ddd sss), excluding HLT.
        if (op >= 0x40 && op <= 0x7F && op != HLT) {
            const std::uint8_t v = get_reg(op & 7);
            switch ((op >> 3) & 7) {
              case regB: b_ = v; return true;
              case regC: c_ = v; return true;
              case regD: d_ = v; return true;
              case regE: e_ = v; return true;
              case regHc: h_ = v; return true;
              case regL: l_ = v; return true;
              case regM: return wr(hl(), v);
              case regA: a_ = v; return true;
            }
        }
        // ALU matrix (10 ooo sss).
        if (op >= 0x80 && op <= 0xBF) {
            const std::uint8_t v = get_reg(op & 7);
            switch ((op >> 3) & 7) {
              case 0: alu_add(v, false); break;       // ADD
              case 1: alu_add(v, cy_); break;         // ADC
              case 2: alu_sub(v, false); break;       // SUB
              case 3: alu_sub(v, cy_); break;         // SBB
              case 4: a_ &= v; cy_ = false; setSz(a_); break; // ANA
              case 5: a_ ^= v; cy_ = false; setSz(a_); break; // XRA
              case 6: a_ |= v; cy_ = false; setSz(a_); break; // ORA
              case 7: {                               // CMP
                const std::uint8_t saved = a_;
                alu_sub(v, false);
                a_ = saved;
                break;
              }
            }
            return true;
        }
        // MVI r (00 rrr 110).
        if ((op & 0xC7) == 0x06) {
            const std::uint8_t v = mem_[pc_++];
            switch ((op >> 3) & 7) {
              case regB: b_ = v; return true;
              case regC: c_ = v; return true;
              case regD: d_ = v; return true;
              case regE: e_ = v; return true;
              case regHc: h_ = v; return true;
              case regL: l_ = v; return true;
              case regM: return wr(hl(), v);
              case regA: a_ = v; return true;
            }
        }
        // Jcc (11 ccc 010).
        if ((op & 0xC7) == 0xC2 && op != JMP) {
            const std::uint16_t target = fetch16();
            if (evalCond((op >> 3) & 7, z_, cy_)) {
                pc_ = target;
                cycles += cost.taken[t] - cost.cyc[t];
            }
            return true;
        }
        // Ccc (11 ccc 100).
        if ((op & 0xC7) == 0xC4) {
            const std::uint16_t target = fetch16();
            if (evalCond((op >> 3) & 7, z_, cy_)) {
                cycles += cost.taken[t] - cost.cyc[t];
                return callTo(target);
            }
            return true;
        }
        // Rcc (11 ccc 000).
        if ((op & 0xC7) == 0xC0) {
            if (evalCond((op >> 3) & 7, z_, cy_)) {
                cycles += cost.taken[t] - cost.cyc[t];
                returnFromCall();
            }
            return true;
        }

        switch (op) {
          case NOP: break;
          case LXI_H: l_ = mem_[pc_++]; h_ = mem_[pc_++]; break;
          case LXI_SP: sp_ = fetch16(); break;
          case INX_H: {
            const std::uint16_t v = std::uint16_t(hl() + 1);
            h_ = std::uint8_t(v >> 8);
            l_ = std::uint8_t(v & 0xff);
            break;
          }
          case STA: return wr(fetch16(), a_);
          case LDA: a_ = mem_[fetch16()]; break;
          case RAR: {
            const bool new_cy = a_ & 1;
            a_ = std::uint8_t((a_ >> 1) | (cy_ ? 0x80 : 0));
            cy_ = new_cy;
            break;
          }
          case JMP: pc_ = fetch16(); break;
          case CALL: return callTo(fetch16());
          case RET: returnFromCall(); break;
          case HLT: halted_ = true; break;
          default:
            // opCycles already rejected everything unimplemented.
            panic("i8080: unimplemented opcode " +
                  std::to_string(op));
        }
        return true;
    }

    [[nodiscard]] bool
    callTo(std::uint16_t target)
    {
        --sp_;
        if (!wr(sp_, std::uint8_t(pc_ >> 8)))
            return false;
        --sp_;
        if (!wr(sp_, std::uint8_t(pc_ & 0xff)))
            return false;
        pc_ = target;
        return true;
    }

    void
    returnFromCall()
    {
        const std::uint16_t lo = mem_[sp_++];
        const std::uint16_t hi = mem_[sp_++];
        pc_ = std::uint16_t(lo | (hi << 8));
    }

    void
    alu_add(std::uint8_t v, bool carry_in)
    {
        const unsigned full = unsigned(a_) + v + (carry_in ? 1 : 0);
        a_ = std::uint8_t(full);
        cy_ = full > 0xff;
        setSz(a_);
    }

    void
    alu_sub(std::uint8_t v, bool borrow_in)
    {
        const int full = int(a_) - v - (borrow_in ? 1 : 0);
        a_ = std::uint8_t(full);
        cy_ = full < 0; // 8080: CY is the borrow flag
        setSz(a_);
    }

    std::vector<std::uint8_t> mem_;
    std::size_t codeSize_;
    std::uint16_t pc_ = 0;
    std::uint16_t sp_ = 0;
    std::uint8_t a_ = 0, h_ = 0, l_ = 0;
    std::uint8_t b_ = 0, c_ = 0, d_ = 0, e_ = 0;
    bool z_ = false, s_ = false, cy_ = false;
    bool halted_ = false;
};

/** Micro-op kinds of the predecoded batch engine. */
enum DecKind : std::uint8_t
{
    KBad = 0,
    KNop,
    KMovRR, ///< a = dst code, b = src code (neither is M)
    KMovRM, ///< a = dst code
    KMovMR, ///< b = src code
    KAluR,  ///< a = ALU row, b = src code
    KAluM,  ///< a = ALU row
    KMviR,  ///< a = dst code, imm = value
    KMviM,  ///< imm = value
    KLxiH,
    KLxiSp,
    KInxH,
    KSta,
    KLda,
    KRar,
    KJmp,
    KJcc, ///< a = ccc
    KCall,
    KCcc, ///< a = ccc
    KRet,
    KRcc, ///< a = ccc
    KHlt,
};

/** One predecoded instruction slot (indexed by PC). */
struct Dec
{
    std::uint8_t kind = KBad;
    std::uint8_t a = 0;
    std::uint8_t b = 0;
    std::uint8_t len = 1;
    std::uint16_t imm = 0;
    std::uint8_t cyc[2] = {0, 0};
    std::uint8_t taken[2] = {0, 0};
};

/**
 * The struct-of-arrays batch engine: M machines in lock-step over
 * one shared, predecoded code image. Decode happens once per code
 * byte instead of once per dynamic instruction - the big win that
 * sharing a read-only image buys - and each machine's writable
 * state is a compact 3-page arena instead of a private 64 KiB.
 */
class Batch8080
{
  public:
    Batch8080(std::vector<std::uint8_t> code, std::size_t machines)
        : code_(std::move(code)), m_(machines), pc_(machines, 0),
          sp_(machines, 0), a_(machines, 0), h_(machines, 0),
          l_(machines, 0), b_(machines, 0), c_(machines, 0),
          d_(machines, 0), e_(machines, 0), z_(machines, 0),
          s_(machines, 0), cy_(machines, 0),
          status_(machines, MachineStatus::Halted),
          insns_(machines, 0), cycles_(machines, 0),
          arena_(machines * 3 * 256, 0)
    {
        predecode();
    }

    /** The 256-byte data page (0x9000) of machine m. */
    std::uint8_t *dataPage(std::size_t m)
    {
        return &arena_[(m * 3 + 1) * 256];
    }

    std::uint64_t insns(std::size_t m) const { return insns_[m]; }
    std::uint64_t cycles(std::size_t m) const { return cycles_[m]; }
    MachineStatus status(std::size_t m) const { return status_[m]; }

    void
    run(I8080Timing timing, std::uint64_t max_steps,
        const IssBatchOptions &opts)
    {
        issForEachBlock(opts, m_, [&](std::size_t lo, std::size_t hi) {
            runBlock(lo, hi, timing, max_steps);
        });
    }

  private:
    void
    predecode()
    {
        dec_.resize(code_.size());
        for (std::size_t pc = 0; pc < code_.size(); ++pc)
            dec_[pc] = decodeAt(pc);
    }

    std::uint8_t
    codeByte(std::size_t pc) const
    {
        // Operand bytes past the end read as zero, matching the
        // scalar machine's zero-filled memory.
        return pc < code_.size() ? code_[pc] : 0;
    }

    Dec
    decodeAt(std::size_t pc) const
    {
        const std::uint8_t op = codeByte(pc);
        Dec d;
        const OpCost cost = opCycles(op);
        if (!cost.known)
            return d;
        d.cyc[0] = cost.cyc[0];
        d.cyc[1] = cost.cyc[1];
        d.taken[0] = cost.taken[0];
        d.taken[1] = cost.taken[1];
        const std::uint8_t imm8 = codeByte(pc + 1);
        const std::uint16_t imm16 =
            std::uint16_t(codeByte(pc + 1) | (codeByte(pc + 2) << 8));

        if (op >= 0x40 && op <= 0x7F && op != HLT) {
            const unsigned dst = (op >> 3) & 7, src = op & 7;
            if (dst == regM) {
                d.kind = KMovMR;
                d.b = std::uint8_t(src);
            } else if (src == regM) {
                d.kind = KMovRM;
                d.a = std::uint8_t(dst);
            } else {
                d.kind = KMovRR;
                d.a = std::uint8_t(dst);
                d.b = std::uint8_t(src);
            }
            return d;
        }
        if (op >= 0x80 && op <= 0xBF) {
            d.a = (op >> 3) & 7;
            if ((op & 7) == regM) {
                d.kind = KAluM;
            } else {
                d.kind = KAluR;
                d.b = op & 7;
            }
            return d;
        }
        if ((op & 0xC7) == 0x06) {
            const unsigned dst = (op >> 3) & 7;
            d.len = 2;
            d.imm = imm8;
            if (dst == regM) {
                d.kind = KMviM;
            } else {
                d.kind = KMviR;
                d.a = std::uint8_t(dst);
            }
            return d;
        }
        if ((op & 0xC7) == 0xC2 && op != JMP) {
            d.kind = KJcc;
            d.a = (op >> 3) & 7;
            d.len = 3;
            d.imm = imm16;
            return d;
        }
        if ((op & 0xC7) == 0xC4) {
            d.kind = KCcc;
            d.a = (op >> 3) & 7;
            d.len = 3;
            d.imm = imm16;
            return d;
        }
        if ((op & 0xC7) == 0xC0 && op != RET) {
            d.kind = KRcc;
            d.a = (op >> 3) & 7;
            return d;
        }

        switch (op) {
          case NOP: d.kind = KNop; break;
          case LXI_H: d.kind = KLxiH; d.len = 3; d.imm = imm16;
            break;
          case LXI_SP: d.kind = KLxiSp; d.len = 3; d.imm = imm16;
            break;
          case INX_H: d.kind = KInxH; break;
          case STA: d.kind = KSta; d.len = 3; d.imm = imm16; break;
          case LDA: d.kind = KLda; d.len = 3; d.imm = imm16; break;
          case RAR: d.kind = KRar; break;
          case JMP: d.kind = KJmp; d.len = 3; d.imm = imm16; break;
          case CALL: d.kind = KCall; d.len = 3; d.imm = imm16;
            break;
          case RET: d.kind = KRet; break;
          case HLT: d.kind = KHlt; break;
          default: break; // stays KBad
        }
        return d;
    }

    std::uint8_t
    rd(std::size_t m, std::uint16_t addr) const
    {
        const int p = pageOf(addr);
        if (p >= 0)
            return arena_[(m * 3 + unsigned(p)) * 256 +
                          (addr & 0xff)];
        if (addr < code_.size())
            return code_[addr];
        return 0;
    }

    [[nodiscard]] bool
    wr(std::size_t m, std::uint16_t addr, std::uint8_t v)
    {
        const int p = pageOf(addr);
        if (p < 0)
            return false;
        arena_[(m * 3 + unsigned(p)) * 256 + (addr & 0xff)] = v;
        return true;
    }

    std::uint8_t
    getReg(std::size_t m, unsigned code) const
    {
        switch (code) {
          case regB: return b_[m];
          case regC: return c_[m];
          case regD: return d_[m];
          case regE: return e_[m];
          case regHc: return h_[m];
          case regL: return l_[m];
          case regA: return a_[m];
        }
        return rd(m, std::uint16_t((h_[m] << 8) | l_[m]));
    }

    void
    setSz(std::size_t m, std::uint8_t v)
    {
        z_[m] = v == 0;
        s_[m] = (v & 0x80) != 0;
    }

    void
    aluOp(std::size_t m, unsigned row, std::uint8_t v)
    {
        switch (row) {
          case 0: aluAdd(m, v, false); break;
          case 1: aluAdd(m, v, cy_[m]); break;
          case 2: aluSub(m, v, false); break;
          case 3: aluSub(m, v, cy_[m]); break;
          case 4: a_[m] &= v; cy_[m] = 0; setSz(m, a_[m]); break;
          case 5: a_[m] ^= v; cy_[m] = 0; setSz(m, a_[m]); break;
          case 6: a_[m] |= v; cy_[m] = 0; setSz(m, a_[m]); break;
          case 7: {
            const std::uint8_t saved = a_[m];
            aluSub(m, v, false);
            a_[m] = saved;
            break;
          }
        }
    }

    void
    aluAdd(std::size_t m, std::uint8_t v, bool cin)
    {
        const unsigned full = unsigned(a_[m]) + v + (cin ? 1 : 0);
        a_[m] = std::uint8_t(full);
        cy_[m] = full > 0xff;
        setSz(m, a_[m]);
    }

    void
    aluSub(std::size_t m, std::uint8_t v, bool bin)
    {
        const int full = int(a_[m]) - v - (bin ? 1 : 0);
        a_[m] = std::uint8_t(full);
        cy_[m] = full < 0;
        setSz(m, a_[m]);
    }

    [[nodiscard]] bool
    callTo(std::size_t m, std::uint16_t target)
    {
        --sp_[m];
        if (!wr(m, sp_[m], std::uint8_t(pc_[m] >> 8)))
            return false;
        --sp_[m];
        if (!wr(m, sp_[m], std::uint8_t(pc_[m] & 0xff)))
            return false;
        pc_[m] = target;
        return true;
    }

    void
    returnFromCall(std::size_t m)
    {
        const std::uint16_t lo = rd(m, sp_[m]++);
        const std::uint16_t hi = rd(m, sp_[m]++);
        pc_[m] = std::uint16_t(lo | (hi << 8));
    }

    /**
     * Lock-step over [lo, hi): every round steps each machine
     * whose retirement-mask bit is still set by a quantum of up to
     * issQuantum instructions. The quantum is what makes the batch
     * engine fast: the machine's whole architectural state lives in
     * locals (registers) for its duration and is written back to
     * the columns once, and the machine's arena stays hot in L1.
     * Results are independent of the quantum size — machines never
     * interact — so any quantum is bit-identical to single-step
     * rounds.
     */
    void
    runBlock(std::size_t lo, std::size_t hi, I8080Timing timing,
             std::uint64_t max_steps)
    {
        const unsigned t = timing == I8080Timing::I8080 ? 0 : 1;
        std::uint64_t active =
            hi - lo == 64 ? ~std::uint64_t(0)
                          : (std::uint64_t(1) << (hi - lo)) - 1;
        while (active) {
            for (std::uint64_t w = active; w; w &= w - 1) {
                const unsigned i =
                    unsigned(__builtin_ctzll(w));
                const std::size_t m = lo + i;
                const int st = runQuantum(m, t, max_steps);
                if (st >= 0) {
                    status_[m] = MachineStatus(st);
                    active &= ~(std::uint64_t(1) << i);
                }
            }
        }
    }

    /**
     * Run machine m for up to issQuantum instructions: -1 while the
     * machine is still running, otherwise its final MachineStatus
     * (the machine retires from the block).
     */
    int
    runQuantum(std::size_t m, unsigned t, std::uint64_t max_steps)
    {
        // Hot architectural state in locals for the whole quantum.
        std::uint16_t pc = pc_[m], sp = sp_[m];
        std::uint8_t ra = a_[m], rh = h_[m], rl = l_[m];
        std::uint8_t rb = b_[m], rc = c_[m], rd8 = d_[m],
                     re = e_[m];
        std::uint8_t fz = z_[m], fs = s_[m], fcy = cy_[m];
        std::uint64_t insns = insns_[m], cycles = cycles_[m];
        std::uint8_t *const ar = &arena_[m * 3 * 256];
        const Dec *const dec = dec_.data();
        const std::size_t codeSize = code_.size();

        const auto load = [&](std::uint16_t addr) -> std::uint8_t {
            const int p = pageOf(addr);
            if (p >= 0)
                return ar[unsigned(p) * 256 + (addr & 0xff)];
            return addr < codeSize ? code_[addr] : 0;
        };
        const auto store = [&](std::uint16_t addr, std::uint8_t v) {
            const int p = pageOf(addr);
            if (p < 0)
                return false;
            ar[unsigned(p) * 256 + (addr & 0xff)] = v;
            return true;
        };
        const auto reg = [&](unsigned code) -> std::uint8_t {
            switch (code) {
              case regB: return rb;
              case regC: return rc;
              case regD: return rd8;
              case regE: return re;
              case regHc: return rh;
              case regL: return rl;
              case regA: return ra;
            }
            return load(std::uint16_t((rh << 8) | rl));
        };
        const auto setReg = [&](unsigned code, std::uint8_t v) {
            switch (code) {
              case regB: rb = v; return;
              case regC: rc = v; return;
              case regD: rd8 = v; return;
              case regE: re = v; return;
              case regHc: rh = v; return;
              case regL: rl = v; return;
              case regA: ra = v; return;
            }
            panic("i8080 batch: bad register code");
        };
        const auto setSz = [&](std::uint8_t v) {
            fz = v == 0;
            fs = (v & 0x80) != 0;
        };
        const auto aluAdd = [&](std::uint8_t v, bool cin) {
            const unsigned full = unsigned(ra) + v + (cin ? 1 : 0);
            ra = std::uint8_t(full);
            fcy = full > 0xff;
            setSz(ra);
        };
        const auto aluSub = [&](std::uint8_t v, bool bin) {
            const int full = int(ra) - v - (bin ? 1 : 0);
            ra = std::uint8_t(full);
            fcy = full < 0;
            setSz(ra);
        };
        const auto aluOp = [&](unsigned row, std::uint8_t v) {
            switch (row) {
              case 0: aluAdd(v, false); break;
              case 1: aluAdd(v, fcy); break;
              case 2: aluSub(v, false); break;
              case 3: aluSub(v, fcy); break;
              case 4: ra &= v; fcy = 0; setSz(ra); break;
              case 5: ra ^= v; fcy = 0; setSz(ra); break;
              case 6: ra |= v; fcy = 0; setSz(ra); break;
              case 7: {
                const std::uint8_t saved = ra;
                aluSub(v, false);
                ra = saved;
                break;
              }
            }
        };
        const auto callTo = [&](std::uint16_t target) {
            --sp;
            if (!store(sp, std::uint8_t(pc >> 8)))
                return false;
            --sp;
            if (!store(sp, std::uint8_t(pc & 0xff)))
                return false;
            pc = target;
            return true;
        };
        const auto ret = [&] {
            const std::uint16_t lo8 = load(sp++);
            const std::uint16_t hi8 = load(sp++);
            pc = std::uint16_t(lo8 | (hi8 << 8));
        };

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

            const Dec d = dec[pc];
            if (d.kind == KBad) {
                result = int(MachineStatus::Killed);
                break;
            }
            cycles += d.cyc[t];
            pc = std::uint16_t(pc + d.len);

            switch (d.kind) {
              case KNop: break;
              case KMovRR: setReg(d.a, reg(d.b)); break;
              case KMovRM: setReg(d.a, reg(regM)); break;
              case KMovMR:
                if (!store(std::uint16_t((rh << 8) | rl), reg(d.b)))
                    result = int(MachineStatus::Killed);
                break;
              case KAluR: aluOp(d.a, reg(d.b)); break;
              case KAluM: aluOp(d.a, reg(regM)); break;
              case KMviR: setReg(d.a, std::uint8_t(d.imm)); break;
              case KMviM:
                if (!store(std::uint16_t((rh << 8) | rl),
                           std::uint8_t(d.imm)))
                    result = int(MachineStatus::Killed);
                break;
              case KLxiH:
                rl = std::uint8_t(d.imm & 0xff);
                rh = std::uint8_t(d.imm >> 8);
                break;
              case KLxiSp: sp = d.imm; break;
              case KInxH: {
                const std::uint16_t v =
                    std::uint16_t(((rh << 8) | rl) + 1);
                rh = std::uint8_t(v >> 8);
                rl = std::uint8_t(v & 0xff);
                break;
              }
              case KSta:
                if (!store(d.imm, ra))
                    result = int(MachineStatus::Killed);
                break;
              case KLda: ra = load(d.imm); break;
              case KRar: {
                const bool new_cy = ra & 1;
                ra = std::uint8_t((ra >> 1) | (fcy ? 0x80 : 0));
                fcy = new_cy;
                break;
              }
              case KJmp: pc = d.imm; break;
              case KJcc:
                if (evalCond(d.a, fz, fcy)) {
                    pc = d.imm;
                    cycles += std::uint64_t(d.taken[t]) - d.cyc[t];
                }
                break;
              case KCall:
                if (!callTo(d.imm))
                    result = int(MachineStatus::Killed);
                break;
              case KCcc:
                if (evalCond(d.a, fz, fcy)) {
                    cycles += std::uint64_t(d.taken[t]) - d.cyc[t];
                    if (!callTo(d.imm))
                        result = int(MachineStatus::Killed);
                }
                break;
              case KRet: ret(); break;
              case KRcc:
                if (evalCond(d.a, fz, fcy)) {
                    cycles += std::uint64_t(d.taken[t]) - d.cyc[t];
                    ret();
                }
                break;
              case KHlt:
                ++insns;
                result = int(MachineStatus::Halted);
                break;
              default:
                result = int(MachineStatus::Killed);
                break;
            }
            if (result < 0)
                ++insns;
        }

        pc_[m] = pc;
        sp_[m] = sp;
        a_[m] = ra;
        h_[m] = rh;
        l_[m] = rl;
        b_[m] = rb;
        c_[m] = rc;
        d_[m] = rd8;
        e_[m] = re;
        z_[m] = fz;
        s_[m] = fs;
        cy_[m] = fcy;
        insns_[m] = insns;
        cycles_[m] = cycles;
        return result;
    }

    std::vector<std::uint8_t> code_;
    std::vector<Dec> dec_;
    std::size_t m_;
    std::vector<std::uint16_t> pc_, sp_;
    std::vector<std::uint8_t> a_, h_, l_, b_, c_, d_, e_;
    std::vector<std::uint8_t> z_, s_, cy_;
    std::vector<MachineStatus> status_;
    std::vector<std::uint64_t> insns_, cycles_;
    std::vector<std::uint8_t> arena_;
};

} // anonymous namespace

LegacySize
size8080(const IrProgram &prog)
{
    Compiler c(prog);
    LegacySize sz;
    sz.codeBytes = c.take().size();
    sz.dataBytes = prog.dataWords * ((prog.width + 7) / 8);
    return sz;
}

LegacyRun
run8080(const IrProgram &prog,
        const std::vector<std::uint64_t> &inputs, I8080Timing timing,
        std::uint64_t max_steps)
{
    const unsigned bpw = (prog.width + 7) / 8;
    Compiler c(prog);
    auto code = c.take();

    LegacyRun result;
    result.codeBytes = code.size();
    result.dataBytes = prog.dataWords * bpw;

    Machine m(std::move(code));
    fatalIf(inputs.size() != prog.inputAddrs.size(),
            "run8080: input count mismatch");
    for (std::size_t i = 0; i < inputs.size(); ++i)
        for (unsigned k = 0; k < bpw; ++k)
            m.at(std::uint16_t(dataBase + prog.inputAddrs[i] * bpw +
                               k)) =
                std::uint8_t(inputs[i] >> (8 * k));

    const MachineStatus st =
        m.run(timing, max_steps, result.instructions, result.cycles);
    fatalIf(st == MachineStatus::OutOfBudget,
            "i8080: step budget exhausted");
    fatalIf(st == MachineStatus::Killed, "i8080: machine trapped");

    for (unsigned addr : prog.outputAddrs) {
        std::uint64_t v = 0;
        for (unsigned k = 0; k < bpw; ++k)
            v |= std::uint64_t(
                     m.at(std::uint16_t(dataBase + addr * bpw + k)))
                 << (8 * k);
        result.outputs.push_back(v & maskBits(prog.width));
    }
    return result;
}

std::vector<I8080ImageRun>
run8080Image(const std::vector<std::uint8_t> &code,
             const std::vector<std::vector<std::uint8_t>> &data_pages,
             I8080Timing timing, IssEngine engine,
             std::uint64_t max_steps)
{
    const std::size_t machines = data_pages.size();
    std::vector<I8080ImageRun> out(machines);
    for (const auto &page : data_pages)
        fatalIf(page.size() > 256,
                "run8080Image: data page too large");

    if (engine == IssEngine::Scalar) {
        for (std::size_t m = 0; m < machines; ++m) {
            Machine mach(code);
            for (std::size_t k = 0; k < data_pages[m].size(); ++k)
                mach.at(std::uint16_t(dataBase + k)) =
                    data_pages[m][k];
            out[m].status =
                mach.run(timing, max_steps, out[m].instructions,
                         out[m].cycles);
        }
        return out;
    }

    Batch8080 batch(code, machines);
    for (std::size_t m = 0; m < machines; ++m)
        std::copy(data_pages[m].begin(), data_pages[m].end(),
                  batch.dataPage(m));
    IssBatchOptions opts;
    batch.run(timing, max_steps, opts);
    for (std::size_t m = 0; m < machines; ++m) {
        out[m].instructions = batch.insns(m);
        out[m].cycles = batch.cycles(m);
        out[m].status = batch.status(m);
    }
    return out;
}

IssBatchResult
batchRun8080(const IrProgram &prog,
             const std::vector<std::vector<std::uint64_t>> &inputs,
             I8080Timing timing, const IssBatchOptions &opts)
{
    const unsigned bpw = (prog.width + 7) / 8;
    Compiler c(prog);
    const std::vector<std::uint8_t> code = c.take();
    const std::size_t machines = inputs.size();

    IssBatchResult result;
    result.codeBytes = code.size();
    result.dataBytes = prog.dataWords * bpw;
    result.runs.resize(machines);
    result.status.resize(machines, MachineStatus::Halted);
    for (std::size_t m = 0; m < machines; ++m)
        fatalIf(inputs[m].size() != prog.inputAddrs.size(),
                "batchRun8080: input count mismatch");

    auto finishMachine = [&](std::size_t m, auto &&byte_at) {
        LegacyRun &run = result.runs[m];
        run.codeBytes = result.codeBytes;
        run.dataBytes = result.dataBytes;
        for (unsigned addr : prog.outputAddrs) {
            std::uint64_t v = 0;
            for (unsigned k = 0; k < bpw; ++k)
                v |= std::uint64_t(byte_at(addr * bpw + k))
                     << (8 * k);
            run.outputs.push_back(v & maskBits(prog.width));
        }
    };

    if (opts.engine == IssEngine::Scalar) {
        issForEachBlock(opts, machines,
                        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t m = lo; m < hi; ++m) {
                Machine mach(code);
                for (std::size_t i = 0; i < inputs[m].size(); ++i)
                    for (unsigned k = 0; k < bpw; ++k)
                        mach.at(std::uint16_t(
                            dataBase + prog.inputAddrs[i] * bpw +
                            k)) =
                            std::uint8_t(inputs[m][i] >> (8 * k));
                result.status[m] = mach.run(
                    timing, opts.maxSteps,
                    result.runs[m].instructions,
                    result.runs[m].cycles);
                finishMachine(m, [&](unsigned off) {
                    return mach.at(std::uint16_t(dataBase + off));
                });
            }
        });
    } else {
        Batch8080 batch(code, machines);
        for (std::size_t m = 0; m < machines; ++m) {
            std::uint8_t *page = batch.dataPage(m);
            for (std::size_t i = 0; i < inputs[m].size(); ++i)
                for (unsigned k = 0; k < bpw; ++k)
                    page[prog.inputAddrs[i] * bpw + k] =
                        std::uint8_t(inputs[m][i] >> (8 * k));
        }
        batch.run(timing, opts.maxSteps, opts);
        for (std::size_t m = 0; m < machines; ++m) {
            result.status[m] = batch.status(m);
            result.runs[m].instructions = batch.insns(m);
            result.runs[m].cycles = batch.cycles(m);
            finishMachine(m, [&](unsigned off) {
                return batch.dataPage(m)[off];
            });
        }
    }

    issFinishResult(result, opts.engine);
    return result;
}

} // namespace printed::legacy
