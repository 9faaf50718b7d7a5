#include "i8080.hh"

#include <algorithm>
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
 * Writable-window contract: the register, data, and stack pages.
 * Returns the machine's page index, or -1 when the address is not
 * writable (writes there trap the machine).
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
 * traps the machine).
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

/** No fused record (an index past every image's records). */
constexpr std::uint32_t noOp = ~std::uint32_t(0);

/**
 * Where a machine keeps a byte: registers by their 8080 codes at
 * 0..7 (B C D E H L, an unused M slot, A), then the three writable
 * pages from stateRam on.
 */
constexpr unsigned stateRam = 8;

/**
 * One IR operation's template, fused: the byte range [start, next)
 * Compiler::lower emitted for it, where its vregs live (state
 * locations), its immediate and, for a branch or jump, its patched
 * target. The Image adds the range's instruction count, its cycle
 * total per timing column and the record indices of both
 * successors.
 */
struct Fused
{
    IrOp op = IrOp::Halt;
    std::uint16_t dst = 0, src = 0; ///< state locations of the vregs
    std::uint16_t hl = 0; ///< LXI H value of a RAM source, else 0
    std::uint8_t imm = 0; ///< Li: the value
    std::uint16_t start = 0, next = 0, target = 0;
    std::uint32_t insns = 0, cycles[2] = {0, 0};
    std::uint32_t nextOp = noOp, targetOp = noOp;
};

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
    std::vector<Fused> takeOps() { return std::move(ops_); }

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
        for (const auto &[i, label] : opLabels_)
            ops_[i].target = labels_.at(label);
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

    /** Where a one-byte vreg lives in a machine's state. */
    std::uint16_t
    location(Reg r) const
    {
        return std::uint16_t(inHw(r) ? r : stateRam + slot(r, 0) - regBase);
    }

    void
    lower(const IrInst &in)
    {
        const std::size_t start = code_.size();
        emit(in);
        // One-byte programs fuse every template but the halt's;
        // wider ones step singly.
        if (bpw_ != 1 || in.op == IrOp::Label || in.op == IrOp::Halt)
            return;
        Fused f;
        f.op = in.op;
        f.dst = location(in.dst);
        f.src = location(in.src);
        // ALU operations and compares read a RAM source through HL.
        if (!inHw(in.src) &&
            (in.op == IrOp::Add || in.op == IrOp::Sub ||
             in.op == IrOp::And || in.op == IrOp::Or ||
             in.op == IrOp::Xor || in.op == IrOp::Bltu ||
             in.op == IrOp::Bgeu))
            f.hl = slot(in.src, 0);
        f.imm = std::uint8_t(in.imm);
        f.start = std::uint16_t(start);
        f.next = std::uint16_t(code_.size());
        if (!in.label.empty())
            opLabels_.emplace_back(ops_.size(), in.label);
        ops_.push_back(f);
    }

    void
    emit(const IrInst &in)
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
    std::vector<Fused> ops_;
    std::vector<std::pair<std::size_t, std::string>> opLabels_;
};

/** Micro-op kinds of the predecoded image. */
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
 * A program's code, decoded once: one Dec per code byte, with the
 * fused records of a compiled program (none for a raw image), shared
 * read-only by every machine that runs it. Decoding happens once
 * per code byte instead of once per dynamic instruction.
 */
class Image
{
  public:
    explicit Image(std::vector<std::uint8_t> code,
                   std::vector<Fused> ops = {})
        : code_(std::move(code)), dec_(code_.size()),
          ops_(std::move(ops)), opAt_(code_.size(), noOp)
    {
        for (std::size_t pc = 0; pc < code_.size(); ++pc)
            dec_[pc] = decodeAt(pc);
        // The emitted conditional jumps cost the same taken or not,
        // so each timing column has one total per range.
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            Fused &f = ops_[i];
            panicIf(f.start >= f.next || f.next > code_.size(),
                    "i8080: fused range outside the image");
            opAt_[f.start] = std::uint32_t(i);
            std::size_t pc = f.start;
            for (; pc < f.next; pc += dec_[pc].len) {
                const Dec &d = dec_[pc];
                panicIf(d.kind == KBad || d.cyc[0] != d.taken[0] ||
                            d.cyc[1] != d.taken[1],
                        "i8080: unfusable instruction in a range");
                ++f.insns;
                f.cycles[0] += d.cyc[0];
                f.cycles[1] += d.cyc[1];
            }
            panicIf(pc != f.next,
                    "i8080: fused range splits an instruction");
        }
        for (Fused &f : ops_) {
            f.nextOp = opAt(f.next);
            f.targetOp = opAt(f.target);
        }
    }

    std::size_t size() const { return code_.size(); }
    const Dec *dec() const { return dec_.data(); }
    const Fused *ops() const { return ops_.data(); }

    /** The record starting at pc, or noOp. */
    std::uint32_t
    opAt(std::uint16_t pc) const
    {
        return pc < opAt_.size() ? opAt_[pc] : noOp;
    }

    /** A code byte; operand bytes past the end read as zero. */
    std::uint8_t
    byte(std::size_t pc) const
    {
        return pc < code_.size() ? code_[pc] : 0;
    }

  private:
    Dec
    decodeAt(std::size_t pc) const
    {
        const std::uint8_t op = byte(pc);
        Dec d;
        const OpCost cost = opCycles(op);
        if (!cost.known)
            return d;
        d.cyc[0] = cost.cyc[0];
        d.cyc[1] = cost.cyc[1];
        d.taken[0] = cost.taken[0];
        d.taken[1] = cost.taken[1];
        const std::uint8_t imm8 = byte(pc + 1);
        const std::uint16_t imm16 =
            std::uint16_t(byte(pc + 1) | (byte(pc + 2) << 8));

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
        if ((op & 0xC7) == 0xC2) {
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
        if ((op & 0xC7) == 0xC0) {
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

    std::vector<std::uint8_t> code_;
    std::vector<Dec> dec_;
    std::vector<Fused> ops_;
    std::vector<std::uint32_t> opAt_;
};

/**
 * One 8080 machine over a shared Image: the emitted subset with
 * genuine flag semantics (S and P are never tested, so they are
 * not kept). Its state is the register file and the writable
 * window's three pages; reads elsewhere see the code image, then
 * zeros. Trap contract: an undecodable opcode or a PC outside the
 * code kills the machine before it is charged; a write outside the
 * window kills it after it was charged but before it is counted.
 */
class alignas(64) Machine
{
  public:
    explicit Machine(const Image &image) : image_(&image) {}

    /** Power-on state: every page zeroed. */
    void reset() { state_ = {}; }

    /** The 256-byte data page (0x9000). */
    std::uint8_t *dataPage() { return &state_[stateRam + 256]; }

    /** Run from PC 0 until halt, trap or max_steps instructions. */
    MachineStatus run(I8080Timing timing, std::uint64_t max_steps);

    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t fusedOps = 0;            ///< records retired
    std::uint64_t steppedInstructions = 0; ///< retired one at a time

  private:
    const Image *image_;
    std::array<std::uint8_t, stateRam + 3 * 256> state_{};
};

/**
 * A fused record retires its IR operation in one dispatch when the
 * PC is at its start and the budget covers the range (the emitted
 * templates never write outside the window: stores go to a vreg
 * slot or, through H = 0x90, to the data page). It leaves B-E, H, L,
 * A, Z, CY and every writable byte as single steps would; otherwise
 * the machine single-steps.
 */
MachineStatus
Machine::run(I8080Timing timing, std::uint64_t max_steps)
{
    const unsigned t = timing == I8080Timing::I8080 ? 0 : 1;
    const Image &image = *image_;
    const Dec *const dec = image.dec();
    const Fused *const ops = image.ops();
    const std::size_t codeSize = image.size();
    // Registers by their 8080 codes (B C D E H L - A); predecode
    // routes every M operand to load/store, so slot regM is unused.
    std::uint8_t *const r = state_.data();
    std::uint8_t *const mem = r + stateRam;
    std::uint16_t pc = 0, sp = 0;
    std::fill_n(r, stateRam, 0);
    std::uint8_t &ra = r[regA], &rh = r[regHc], &rl = r[regL];
    bool fz = false, fcy = false;
    std::uint64_t insns = 0, cyc = 0, fused = 0, stepped = 0;

    const auto load = [&](std::uint16_t addr) -> std::uint8_t {
        const int p = pageOf(addr);
        if (p >= 0)
            return mem[unsigned(p) * 256 + (addr & 0xff)];
        return image.byte(addr);
    };
    const auto store = [&](std::uint16_t addr, std::uint8_t v) {
        const int p = pageOf(addr);
        if (p < 0)
            return false;
        mem[unsigned(p) * 256 + (addr & 0xff)] = v;
        return true;
    };
    const auto hl = [&] { return std::uint16_t((rh << 8) | rl); };
    const auto aluAdd = [&](std::uint8_t v, bool cin) {
        const unsigned full = unsigned(ra) + v + (cin ? 1 : 0);
        ra = std::uint8_t(full);
        fcy = full > 0xff;
        fz = ra == 0;
    };
    const auto aluSub = [&](std::uint8_t v, bool bin) {
        const int full = int(ra) - v - (bin ? 1 : 0);
        ra = std::uint8_t(full);
        fcy = full < 0; // 8080: CY is the borrow flag
        fz = ra == 0;
    };
    // Inlined, so a fused record's constant row is just that op.
    const auto aluOp = [&] [[gnu::always_inline]] (unsigned row,
                                                   std::uint8_t v) {
        switch (row) {
          case 0: aluAdd(v, false); break;      // ADD
          case 1: aluAdd(v, fcy); break;        // ADC
          case 2: aluSub(v, false); break;      // SUB
          case 3: aluSub(v, fcy); break;        // SBB
          case 4: ra &= v; fcy = false; fz = ra == 0; break; // ANA
          case 5: ra ^= v; fcy = false; fz = ra == 0; break; // XRA
          case 6: ra |= v; fcy = false; fz = ra == 0; break; // ORA
          case 7: {                             // CMP
            const std::uint8_t saved = ra;
            aluSub(v, false);
            ra = saved;
            break;
          }
        }
    };
    const auto rar = [&] {
        const bool new_cy = ra & 1;
        ra = std::uint8_t((ra >> 1) | (fcy ? 0x80 : 0));
        fcy = new_cy;
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
        const std::uint16_t lo = load(sp++);
        const std::uint16_t hi = load(sp++);
        pc = std::uint16_t(lo | (hi << 8));
    };

    // A program that halts as exactly the max_steps-th instruction
    // is Halted: the budget is only exhausted by a further fetch.
    MachineStatus status = MachineStatus::Halted;
    for (bool running = true; running;) {
        for (std::uint32_t i = image.opAt(pc); i != noOp;) {
            const Fused &f = ops[i];
            if (insns + f.insns > max_steps)
                break;
            // A = dst; [LXI H, src slot;] ALU src; dst = A.
            const auto alu = [&](unsigned row) {
                ra = r[f.dst];
                if (f.hl) {
                    rh = std::uint8_t(f.hl >> 8);
                    rl = std::uint8_t(f.hl & 0xff);
                }
                aluOp(row, r[f.src]);
            };
            bool taken = false;
            switch (f.op) {
              case IrOp::Li: // MVI r or MVI A; STA
                if (f.dst >= stateRam)
                    ra = f.imm;
                r[f.dst] = f.imm;
                break;
              case IrOp::Mov: ra = r[f.src]; r[f.dst] = ra; break;
              case IrOp::Add: alu(0); r[f.dst] = ra; break;
              case IrOp::Sub: alu(2); r[f.dst] = ra; break;
              case IrOp::And: alu(4); r[f.dst] = ra; break;
              case IrOp::Xor: alu(5); r[f.dst] = ra; break;
              case IrOp::Or: alu(6); r[f.dst] = ra; break;
              case IrOp::Shl: // A = dst; ADD A; dst = A
                ra = r[f.dst];
                aluOp(0, ra);
                r[f.dst] = ra;
                break;
              case IrOp::Shr: // A = dst; ORA A; RAR; dst = A
                ra = r[f.dst];
                aluOp(6, ra);
                rar();
                r[f.dst] = ra;
                break;
              case IrOp::Ld: // L = idx; MVI H; MOV A,M; dst = A
                rl = r[f.src];
                rh = std::uint8_t(dataBase >> 8);
                ra = mem[256 + rl];
                r[f.dst] = ra;
                break;
              case IrOp::St: // L = idx; MVI H; A = value; MOV M,A
                rl = r[f.src];
                rh = std::uint8_t(dataBase >> 8);
                ra = r[f.dst];
                mem[256 + rl] = ra;
                break;
              case IrOp::Jmp: taken = true; break;
              case IrOp::Beqz: // A = reg; ORA A; JZ
                ra = r[f.dst];
                aluOp(6, ra);
                taken = fz;
                break;
              case IrOp::Bnez: // A = reg; ORA A; JNZ
                ra = r[f.dst];
                aluOp(6, ra);
                taken = !fz;
                break;
              case IrOp::Bltu: alu(7); taken = fcy; break;  // CMP; JC
              case IrOp::Bgeu: alu(7); taken = !fcy; break; // CMP; JNC
              default: panic("i8080: unfused IR operation");
            }
            insns += f.insns;
            cyc += f.cycles[t];
            ++fused;
            pc = taken ? f.target : f.next;
            i = taken ? f.targetOp : f.nextOp;
        }

        if (insns >= max_steps) {
            status = MachineStatus::OutOfBudget;
            break;
        }
        if (pc >= codeSize || dec[pc].kind == KBad) {
            status = MachineStatus::Killed;
            break;
        }
        const Dec d = dec[pc];
        cyc += d.cyc[t];
        pc = std::uint16_t(pc + d.len);

        bool ok = true;
        switch (d.kind) {
          case KNop: break;
          case KMovRR: r[d.a] = r[d.b]; break;
          case KMovRM: r[d.a] = load(hl()); break;
          case KMovMR: ok = store(hl(), r[d.b]); break;
          case KAluR: aluOp(d.a, r[d.b]); break;
          case KAluM: aluOp(d.a, load(hl())); break;
          case KMviR: r[d.a] = std::uint8_t(d.imm); break;
          case KMviM: ok = store(hl(), std::uint8_t(d.imm)); break;
          case KLxiH:
            rl = std::uint8_t(d.imm & 0xff);
            rh = std::uint8_t(d.imm >> 8);
            break;
          case KLxiSp: sp = d.imm; break;
          case KInxH: {
            const std::uint16_t v = std::uint16_t(hl() + 1);
            rh = std::uint8_t(v >> 8);
            rl = std::uint8_t(v & 0xff);
            break;
          }
          case KSta: ok = store(d.imm, ra); break;
          case KLda: ra = load(d.imm); break;
          case KRar: rar(); break;
          case KJmp: pc = d.imm; break;
          case KJcc:
            if (evalCond(d.a, fz, fcy)) {
                pc = d.imm;
                cyc += std::uint64_t(d.taken[t]) - d.cyc[t];
            }
            break;
          case KCall: ok = callTo(d.imm); break;
          case KCcc:
            if (evalCond(d.a, fz, fcy)) {
                cyc += std::uint64_t(d.taken[t]) - d.cyc[t];
                ok = callTo(d.imm);
            }
            break;
          case KRet: ret(); break;
          case KRcc:
            if (evalCond(d.a, fz, fcy)) {
                cyc += std::uint64_t(d.taken[t]) - d.cyc[t];
                ret();
            }
            break;
          case KHlt: running = false; break;
          default: panic("i8080: undecoded kind");
        }
        if (!ok) {
            status = MachineStatus::Killed;
            break;
        }
        ++insns;
        ++stepped;
    }
    instructions = insns;
    cycles = cyc;
    fusedOps = fused;
    steppedInstructions = stepped;
    return status;
}

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
    IssBatchOptions opts;
    opts.maxSteps = max_steps;
    IssBatchResult res = batchRun8080(prog, {inputs}, timing, opts);
    fatalIf(res.status[0] == MachineStatus::OutOfBudget,
            "i8080: step budget exhausted");
    fatalIf(res.status[0] == MachineStatus::Killed,
            "i8080: machine trapped");
    return std::move(res.runs[0]);
}

std::vector<I8080ImageRun>
run8080Image(const std::vector<std::uint8_t> &code,
             const std::vector<std::vector<std::uint8_t>> &data_pages,
             I8080Timing timing, std::uint64_t max_steps)
{
    for (const auto &page : data_pages)
        fatalIf(page.size() > 256,
                "run8080Image: data page too large");
    const Image image(code);
    std::vector<I8080ImageRun> out(data_pages.size());
    issRunFleet(IssBatchOptions{}, out.size(), Machine(image),
                [&](Machine &mach, std::size_t m) {
        mach.reset();
        std::copy(data_pages[m].begin(), data_pages[m].end(),
                  mach.dataPage());
        out[m].status = mach.run(timing, max_steps);
        out[m].instructions = mach.instructions;
        out[m].cycles = mach.cycles;
    });
    return out;
}

IssBatchResult
batchRun8080(const IrProgram &prog,
             const std::vector<std::vector<std::uint64_t>> &inputs,
             I8080Timing timing, const IssBatchOptions &opts)
{
    const unsigned bpw = (prog.width + 7) / 8;
    Compiler compiler(prog);
    const Image image(compiler.take(), compiler.takeOps());
    IssBatchResult res = issNewResult(inputs.size(), image.size(),
                                      prog.dataWords * bpw);
    for (const auto &in : inputs)
        fatalIf(in.size() != prog.inputAddrs.size(),
                "i8080: input count mismatch");

    issRunFleet(opts, inputs.size(), Machine(image),
                [&](Machine &mach, std::size_t m) {
        mach.reset();
        std::uint8_t *const page = mach.dataPage();
        for (std::size_t i = 0; i < inputs[m].size(); ++i)
            for (unsigned k = 0; k < bpw; ++k)
                page[prog.inputAddrs[i] * bpw + k] =
                    std::uint8_t(inputs[m][i] >> (8 * k));
        res.status[m] = mach.run(timing, opts.maxSteps);
        LegacyRun &run = res.runs[m];
        run.instructions = mach.instructions;
        run.cycles = mach.cycles;
        run.fusedOps = mach.fusedOps;
        run.steppedInstructions = mach.steppedInstructions;
        for (unsigned addr : prog.outputAddrs) {
            std::uint64_t v = 0;
            for (unsigned k = 0; k < bpw; ++k)
                v |= std::uint64_t(page[addr * bpw + k]) << (8 * k);
            run.outputs.push_back(v & maskBits(prog.width));
        }
    });
    return res;
}

} // namespace printed::legacy
