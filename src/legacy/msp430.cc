#include "msp430.hh"

#include <array>
#include <map>

#include "common/bits.hh"
#include "common/logging.hh"
#include "legacy/batch_iss.hh"

namespace printed::legacy
{

namespace
{

// Memory map (word-aligned): data array, then virtual registers.
constexpr std::uint16_t dataBase = 0x0200;
constexpr std::uint16_t regsBase = 0x1000;
constexpr std::uint16_t codeBase = 0x4000;

// Format-I opcodes (bits 15:12).
enum class Op2 : std::uint16_t
{
    MOV = 0x4, ADD = 0x5, ADDC = 0x6, SUBC = 0x7, SUB = 0x8,
    CMP = 0x9, BIT = 0xA, BIC = 0xB, BIS = 0xC, XOR = 0xD,
    AND = 0xF,
};

// Jump conditions (bits 12:10 of the 001x opcode).
enum class Jcc : std::uint16_t
{
    JNE = 0, JEQ = 1, JNC = 2, JC = 3, JN = 4, JGE = 5, JL = 6,
    JMP = 7,
};

// SR flag bits.
constexpr std::uint16_t flagC = 1 << 0;
constexpr std::uint16_t flagZ = 1 << 1;
constexpr std::uint16_t flagN = 1 << 2;
constexpr std::uint16_t flagV = 1 << 8;

/** No fused record (an index past every image's records). */
constexpr std::uint32_t noOp = ~std::uint32_t(0);

/**
 * One IR operation's template, fused: the word range [start, next)
 * (byte addresses) Compiler::lower emitted for it, its hardware
 * registers and immediate and, for a branch or jump, its patched
 * target. An IR branch lowers to an inverted short jump over
 * `BR #target`, so its path depends on the outcome: the Image adds
 * one instruction and cycle total per outcome (0: on to next, 1: to
 * target) and the record indices of both successors.
 */
struct Fused
{
    IrOp op = IrOp::Halt;
    std::uint8_t dst = 0, src = 0; ///< hardware registers
    std::uint16_t imm = 0;         ///< Li: the value
    std::uint16_t flag = 0;  ///< branch: the SR flag it tests, else 0
    bool whenSet = false;    ///< branch: taken when flag is set
    std::uint16_t start = 0, next = 0, target = 0;
    std::uint32_t insns[2] = {0, 0}, cycles[2] = {0, 0};
    std::uint32_t nextOp = noOp, targetOp = noOp;
};

/** Compiler: IR -> MSP430 machine code (vector of 16-bit words). */
class Compiler
{
  public:
    explicit Compiler(const IrProgram &prog)
        : prog_(prog),
          byteMode_(prog.width == 8),
          chunks_(prog.width <= 16 ? 1 : prog.width / 16),
          bytesPerWord_(prog.width <= 8 ? 1 : prog.width / 8),
          // Register allocation: like msp430-gcc, virtual registers
          // live in R4..R11 when they fit (R12 stays the indexing
          // scratch); wide (32-bit) or register-hungry programs
          // spill to RAM with absolute addressing.
          // R4..R11 plus R13..R15 (R12 stays the indexing scratch).
          regMode_(chunks_ == 1 && prog.regCount <= 11)
    {
        for (const IrInst &in : prog_.code)
            lower(in);
        patch();
    }

    std::vector<std::uint16_t> take() { return std::move(code_); }
    std::vector<Fused> takeOps() { return std::move(ops_); }

  private:
    std::uint16_t
    slot(Reg r, unsigned chunk) const
    {
        return std::uint16_t(regsBase + (r * chunks_ + chunk) * 2);
    }

    void word(std::uint16_t w) { code_.push_back(w); }

    std::uint16_t
    fmt1(Op2 op, unsigned sreg, unsigned ad, bool byte_mode,
         unsigned as, unsigned dreg)
    {
        return std::uint16_t((unsigned(op) << 12) | (sreg << 8) |
                             (ad << 7) | ((byte_mode ? 1u : 0u) << 6) |
                             (as << 4) | dreg);
    }

    // abs -> abs (src = &saddr, dst = &daddr); SR(R2) As=01/Ad=1
    // with a following address word selects absolute mode.
    void
    absAbs(Op2 op, std::uint16_t saddr, std::uint16_t daddr)
    {
        word(fmt1(op, 2, 1, byteMode_, 1, 2));
        word(saddr);
        word(daddr);
    }

    void
    immAbs(Op2 op, std::uint16_t imm, std::uint16_t daddr)
    {
        word(fmt1(op, 0, 1, byteMode_, 3, 2)); // src @PC+ (imm)
        word(imm);
        word(daddr);
    }

    void
    absReg(Op2 op, std::uint16_t saddr, unsigned dreg)
    {
        word(fmt1(op, 2, 0, false, 1, dreg));
        word(saddr);
    }

    void
    regReg(Op2 op, unsigned sreg, unsigned dreg)
    {
        word(fmt1(op, sreg, 0, false, 0, dreg));
    }

    /** MOV base+off(R12), &daddr or the reverse. */
    void
    indexedToAbs(std::uint16_t off, std::uint16_t daddr)
    {
        word(fmt1(Op2::MOV, 12, 1, byteMode_, 1, 2));
        word(std::uint16_t(dataBase + off));
        word(daddr);
    }

    void
    absToIndexed(std::uint16_t saddr, std::uint16_t off)
    {
        word(fmt1(Op2::MOV, 2, 1, byteMode_, 1, 12));
        word(saddr);
        word(std::uint16_t(dataBase + off));
    }

    void
    rrc(std::uint16_t addr)
    {
        // Format II: 000100 | 000 | B/W | Ad=01 (absolute via SR).
        word(std::uint16_t(0x1000 | ((byteMode_ ? 1 : 0) << 6) |
                           (1 << 4) | 2));
        word(addr);
    }

    void
    clrc()
    {
        // Emulated CLRC = BIC #1, SR (R3 As=01 is constant +1).
        word(fmt1(Op2::BIC, 3, 0, false, 1, 2));
    }

    /** Short conditional jump by a word offset (local hops only). */
    void
    jcc(Jcc cond, int offset_words)
    {
        panicIf(offset_words < -512 || offset_words > 511,
                "msp430: short jump out of range");
        word(std::uint16_t(0x2000 | (unsigned(cond) << 10) |
                           (unsigned(offset_words) & 0x3ff)));
    }

    /** BR #label (MOV #addr, PC), patched later. */
    void
    brFar(const std::string &label)
    {
        word(fmt1(Op2::MOV, 0, 0, false, 3, 0)); // MOV @PC+, PC
        fixups_.emplace_back(code_.size(), label);
        word(0);
    }

    /** Inverted-short-jump-over-BR idiom for far cond branches. */
    void
    condFar(Jcc inverted, const std::string &label)
    {
        jcc(inverted, 2); // skip the 2-word BR
        brFar(label);
    }

    void
    patch()
    {
        for (const auto &[pos, label] : fixups_) {
            auto it = labels_.find(label);
            if (it == labels_.end())
                fatal("msp430: undefined label " + label);
            code_[pos] =
                std::uint16_t(codeBase + it->second * 2);
        }
        for (const auto &[i, label] : opLabels_)
            ops_[i].target =
                std::uint16_t(codeBase + labels_.at(label) * 2);
    }

    unsigned
    hwReg(Reg r) const
    {
        // R4..R11, then R13..R15 (skipping the R12 scratch).
        return r < 8 ? 4 + r : 13 + (r - 8);
    }

    void
    immReg(Op2 op, std::uint16_t imm, unsigned dreg)
    {
        word(fmt1(op, 0, 0, byteMode_, 3, dreg)); // src @PC+
        word(imm);
    }

    /** MOV base+off(R12) <-> Rn. */
    void
    indexedToReg(std::uint16_t off, unsigned dreg)
    {
        word(fmt1(Op2::MOV, 12, 0, byteMode_, 1, dreg));
        word(std::uint16_t(dataBase + off));
    }

    void
    regToIndexed(unsigned sreg, std::uint16_t off)
    {
        word(fmt1(Op2::MOV, sreg, 1, byteMode_, 0, 12));
        word(std::uint16_t(dataBase + off));
    }

    void
    rrcReg(unsigned reg)
    {
        word(std::uint16_t(0x1000 | ((byteMode_ ? 1 : 0) << 6) |
                           reg));
    }

    void
    chunkOp(Op2 first, Op2 rest, Reg dst, Reg src)
    {
        if (regMode_) {
            word(fmt1(first, hwReg(src), 0, byteMode_, 0,
                      hwReg(dst)));
            return;
        }
        for (unsigned c = 0; c < chunks_; ++c)
            absAbs(c == 0 ? first : rest, slot(src, c),
                   slot(dst, c));
    }

    void
    lower(const IrInst &in)
    {
        const std::size_t start = code_.size();
        emit(in);
        // Byte-mode register programs (width 8) fuse every template
        // but the halt's; wider ones step singly.
        if (!regMode_ || !byteMode_ || in.op == IrOp::Label ||
            in.op == IrOp::Halt)
            return;
        Fused f;
        f.op = in.op;
        f.dst = std::uint8_t(hwReg(in.dst));
        f.src = std::uint8_t(hwReg(in.src));
        f.imm = std::uint16_t(in.imm);
        switch (in.op) {
          case IrOp::Beqz: f.flag = flagZ; f.whenSet = true; break;
          case IrOp::Bnez: f.flag = flagZ; break;
          case IrOp::Bltu: f.flag = flagC; break;
          case IrOp::Bgeu: f.flag = flagC; f.whenSet = true; break;
          default: break;
        }
        f.start = std::uint16_t(codeBase + 2 * start);
        f.next = std::uint16_t(codeBase + 2 * code_.size());
        if (!in.label.empty())
            opLabels_.emplace_back(ops_.size(), in.label);
        ops_.push_back(f);
    }

    void
    emit(const IrInst &in)
    {
        switch (in.op) {
          case IrOp::Li:
            if (regMode_) {
                immReg(Op2::MOV, std::uint16_t(in.imm),
                       hwReg(in.dst));
                break;
            }
            for (unsigned c = 0; c < chunks_; ++c)
                immAbs(Op2::MOV,
                       std::uint16_t(in.imm >> (16 * c)),
                       slot(in.dst, c));
            break;
          case IrOp::Mov:
            chunkOp(Op2::MOV, Op2::MOV, in.dst, in.src);
            break;
          case IrOp::Add:
            chunkOp(Op2::ADD, Op2::ADDC, in.dst, in.src);
            break;
          case IrOp::Sub:
            chunkOp(Op2::SUB, Op2::SUBC, in.dst, in.src);
            break;
          case IrOp::And:
            chunkOp(Op2::AND, Op2::AND, in.dst, in.src);
            break;
          case IrOp::Or:
            chunkOp(Op2::BIS, Op2::BIS, in.dst, in.src);
            break;
          case IrOp::Xor:
            chunkOp(Op2::XOR, Op2::XOR, in.dst, in.src);
            break;
          case IrOp::Shl:
            if (regMode_) {
                // RLA Rn = ADD Rn, Rn.
                word(fmt1(Op2::ADD, hwReg(in.dst), 0, byteMode_, 0,
                          hwReg(in.dst)));
                break;
            }
            for (unsigned c = 0; c < chunks_; ++c)
                absAbs(c == 0 ? Op2::ADD : Op2::ADDC,
                       slot(in.dst, c), slot(in.dst, c));
            break;
          case IrOp::Shr:
            clrc();
            if (regMode_) {
                rrcReg(hwReg(in.dst));
                break;
            }
            for (unsigned c = chunks_; c-- > 0;)
                rrc(slot(in.dst, c));
            break;
          case IrOp::Ld:
          case IrOp::St: {
            // R12 = byte offset of the indexed word.
            const Reg addr_reg = in.src;
            if (regMode_)
                regReg(Op2::MOV, hwReg(addr_reg), 12);
            else
                absReg(Op2::MOV, slot(addr_reg, 0), 12);
            for (unsigned s = 1; s < bytesPerWord_; s <<= 1)
                regReg(Op2::ADD, 12, 12); // R12 *= 2
            if (regMode_) {
                if (in.op == IrOp::Ld)
                    indexedToReg(0, hwReg(in.dst));
                else
                    regToIndexed(hwReg(in.dst), 0);
                break;
            }
            for (unsigned c = 0; c < chunks_; ++c) {
                if (in.op == IrOp::Ld)
                    indexedToAbs(std::uint16_t(2 * c),
                                 slot(in.dst, c));
                else
                    absToIndexed(slot(in.dst, c),
                                 std::uint16_t(2 * c));
            }
            break;
          }
          case IrOp::Label:
            labels_[in.label] = code_.size();
            break;
          case IrOp::Jmp:
            brFar(in.label);
            break;
          case IrOp::Beqz:
          case IrOp::Bnez:
            if (regMode_) {
                // TST Rn = CMP #0, Rn (R3 As=00 is constant 0).
                word(fmt1(Op2::CMP, 3, 0, byteMode_, 0,
                          hwReg(in.dst)));
            } else {
                // OR the chunks into R12, test for zero.
                absReg(Op2::MOV, slot(in.dst, 0), 12);
                for (unsigned c = 1; c < chunks_; ++c)
                    absReg(Op2::BIS, slot(in.dst, c), 12);
                word(fmt1(Op2::CMP, 3, 0, false, 0, 12));
            }
            condFar(in.op == IrOp::Beqz ? Jcc::JNE : Jcc::JEQ,
                    in.label);
            break;
          case IrOp::Bltu:
          case IrOp::Bgeu: {
            if (regMode_) {
                word(fmt1(Op2::CMP, hwReg(in.src), 0, byteMode_, 0,
                          hwReg(in.dst)));
            } else {
                // CMP high chunk; on equality fall through to the
                // low chunk; then branch on carry.
                if (chunks_ == 2) {
                    absAbs(Op2::CMP, slot(in.src, 1),
                           slot(in.dst, 1));
                    jcc(Jcc::JNE, 3); // skip the 3-word low CMP
                }
                absAbs(Op2::CMP, slot(in.src, 0), slot(in.dst, 0));
            }
            condFar(in.op == IrOp::Bltu ? Jcc::JC : Jcc::JNC,
                    in.label);
            break;
          }
          case IrOp::Halt:
            word(0xFFFF); // reserved: treated as HALT by our ISS
            break;
        }
    }

    const IrProgram &prog_;
    bool byteMode_;
    unsigned chunks_;
    unsigned bytesPerWord_;
    bool regMode_;
    std::vector<std::uint16_t> code_;
    std::map<std::string, std::size_t> labels_;
    std::vector<std::pair<std::size_t, std::string>> fixups_;
    std::vector<Fused> ops_;
    std::vector<std::pair<std::size_t, std::string>> opLabels_;
};

/** Predecoded instruction kinds. */
enum Kind430 : std::uint8_t
{
    K430Bad = 0, ///< killed right after the instruction fetch
    K430Halt,
    K430Jump,
    K430RrcReg,
    K430RrcAbs,
    K430Fmt1,
};

/**
 * One predecoded code word. Operand extension words live in the
 * read-only image, so they are cached here too (ext1/ext2) whenever
 * every word the instruction consumes is inside the image
 * (fastExt); an instruction whose PC legally runs off the end
 * mid-instruction falls back to the general memory view.
 */
struct Dec430
{
    std::uint8_t kind = K430Bad;
    std::uint8_t cond = 0;  ///< K430Jump: Jcc index
    std::uint8_t op = 0;    ///< K430Fmt1: Op2 value
    std::uint8_t sreg = 0;
    std::uint8_t dreg = 0;  ///< also the K430RrcReg register
    std::uint8_t as = 0;
    bool ad = false;
    bool byteMode = false;
    bool srcOk = false; ///< source mode implemented (kill pre-fetch)
    bool opOk = false;  ///< opcode implemented (kill post-operands)
    std::int16_t off = 0; ///< K430Jump: word offset
    std::uint8_t cyc = 0;   ///< cycles charged when it completes
    std::uint8_t words = 1; ///< words consumed, extensions included
    bool fastExt = false; ///< all consumed words inside the image
    std::uint16_t ext1 = 0, ext2 = 0; ///< cached extension words
};

Dec430
decode430(std::uint16_t iw)
{
    Dec430 d;
    if (iw == 0xFFFF) {
        d.kind = K430Halt;
        d.cyc = 1;
        return d;
    }
    if ((iw >> 13) == 1) { // 001x: jumps
        const auto cond = Jcc((iw >> 10) & 7);
        switch (cond) {
          case Jcc::JNE:
          case Jcc::JEQ:
          case Jcc::JNC:
          case Jcc::JC:
          case Jcc::JMP:
            break;
          default:
            return d; // JN/JGE/JL are not emitted: killed
        }
        d.kind = K430Jump;
        d.cyc = 2;
        d.cond = std::uint8_t(cond);
        d.off = std::int16_t(int(signExtend(iw & 0x3ff, 10)));
        return d;
    }
    if ((iw >> 10) == 0b000100) { // format II
        const unsigned opc = (iw >> 7) & 7;
        const unsigned ad = (iw >> 4) & 3;
        const unsigned reg = iw & 0xf;
        d.byteMode = (iw >> 6) & 1;
        if (opc != 0)
            return d; // only RRC is emitted
        if (ad == 0) {
            d.kind = K430RrcReg;
            d.cyc = 1;
            d.dreg = std::uint8_t(reg);
            return d;
        }
        if (ad != 1 || reg != 2)
            return d; // only the absolute (&addr) memory form
        d.kind = K430RrcAbs;
        d.cyc = 4;
        return d;
    }
    d.kind = K430Fmt1;
    d.op = std::uint8_t(iw >> 12);
    d.sreg = std::uint8_t((iw >> 8) & 0xf);
    d.ad = (iw >> 7) & 1;
    d.byteMode = (iw >> 6) & 1;
    d.as = std::uint8_t((iw >> 4) & 3);
    d.dreg = std::uint8_t(iw & 0xf);
    d.srcOk = d.sreg == 3 || d.as == 0 || d.as == 1 ||
              (d.as == 3 && d.sreg == 0);
    // Standard format-I costs: 1, plus 3 for an absolute or indexed
    // source (2 for an immediate) and 3 for a memory destination.
    const unsigned srcCyc =
        d.sreg == 3 || d.as == 0 ? 0 : d.as == 1 ? 3 : 2;
    d.cyc = std::uint8_t(1 + srcCyc + (d.ad ? 3 : 0));
    switch (Op2(d.op)) {
      case Op2::MOV:
      case Op2::ADD:
      case Op2::ADDC:
      case Op2::SUB:
      case Op2::SUBC:
      case Op2::CMP:
      case Op2::BIS:
      case Op2::BIC:
      case Op2::XOR:
      case Op2::AND:
        d.opOk = true;
        break;
      default:
        d.opOk = false; // BIT and friends: killed
    }
    return d;
}

/**
 * A program's code words at codeBase, decoded once into one Dec430
 * per word, with the fused records of a compiled program (none for
 * a raw image), shared read-only by every machine that runs it.
 */
class Image
{
  public:
    explicit Image(std::vector<std::uint16_t> code,
                   std::vector<Fused> ops = {})
        : code_(std::move(code)),
          codeEnd_(std::uint16_t(codeBase + 2 * code_.size())),
          dec_(code_.size()), ops_(std::move(ops)),
          opAt_(code_.size(), noOp)
    {
        for (std::size_t i = 0; i < code_.size(); ++i) {
            Dec430 d = decode430(code_[i]);
            // Cache the extension words an implemented instruction
            // consumes. The count is unused when srcOk is false: the
            // machine dies before any operand fetch.
            unsigned ext = 0;
            if (d.kind == K430RrcAbs) {
                ext = 1;
            } else if (d.kind == K430Fmt1 && d.srcOk) {
                if (d.sreg != 3 && (d.as == 1 || d.as == 3))
                    ++ext; // absolute / indexed / immediate
                if (d.ad)
                    ++ext; // absolute or indexed destination
            }
            if (ext >= 1 && i + 1 < code_.size())
                d.ext1 = code_[i + 1];
            if (ext >= 2 && i + 2 < code_.size())
                d.ext2 = code_[i + 2];
            d.fastExt = i + ext < code_.size();
            d.words = std::uint8_t(1 + ext);
            dec_[i] = d;
        }
        // Walk each range once per outcome: outcome 0 takes the
        // inverted short jump over the BR to next, outcome 1 falls
        // through it into the BR (which ends the range).
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            Fused &f = ops_[i];
            panicIf(f.start >= f.next || f.next > codeEnd_,
                    "msp430: fused range outside the image");
            opAt_[(f.start - codeBase) >> 1] = std::uint32_t(i);
            for (unsigned o = 0; o < 2; ++o) {
                std::uint16_t a = f.start;
                while (a >= f.start && a < f.next) {
                    const Dec430 &d = dec(a);
                    ++f.insns[o];
                    f.cycles[o] += d.cyc;
                    const int words = d.kind == K430Jump && o == 0
                                          ? 1 + d.off
                                          : d.words;
                    a = std::uint16_t(a + 2 * words);
                }
                panicIf(a != f.next, "msp430: fused path leaves its range");
            }
        }
        for (Fused &f : ops_) {
            f.nextOp = opAt(f.next);
            f.targetOp = opAt(f.target);
        }
    }

    std::size_t words() const { return code_.size(); }
    std::uint16_t codeEnd() const { return codeEnd_; }
    const Dec430 &dec(std::uint16_t pc) const
    {
        return dec_[(pc - codeBase) >> 1];
    }
    const Fused *ops() const { return ops_.data(); }

    /** The record starting at pc, or noOp. */
    std::uint32_t
    opAt(std::uint16_t pc) const
    {
        if (pc < codeBase || pc >= codeEnd_ || (pc & 1))
            return noOp;
        return opAt_[(pc - codeBase) >> 1];
    }

    /** A byte of the code region; zero outside it. */
    std::uint8_t
    byte(std::uint16_t a) const
    {
        if (a < codeBase || a >= codeEnd_)
            return 0;
        const std::uint16_t w = code_[(a - codeBase) >> 1];
        return std::uint8_t((a & 1) ? (w >> 8) : (w & 0xff));
    }

  private:
    std::vector<std::uint16_t> code_;
    std::uint16_t codeEnd_;
    std::vector<Dec430> dec_;
    std::vector<Fused> ops_;
    std::vector<std::uint32_t> opAt_;
};

/**
 * A format-I operation on its operands: returns the result and
 * updates the C/Z/N/V bits of sr as the real part does (MOV, BIS and
 * BIC leave them; CMP sets SUB's flags and its result is dropped).
 * Always inlined, so a call with a constant op is just that op.
 */
[[gnu::always_inline]] inline std::uint16_t
alu430(Op2 op, std::uint16_t src, std::uint16_t dst, bool byte_mode,
       std::uint16_t &sr)
{
    const std::uint16_t mask = byte_mode ? 0xff : 0xffff;
    const std::uint16_t msb = byte_mode ? 0x80 : 0x8000;
    // The flags every arithmetic and logic operation sets.
    const auto flags = [&](std::uint16_t result, bool c, bool v) {
        sr = std::uint16_t((sr & ~(flagC | flagZ | flagN | flagV)) |
                           (c ? flagC : 0) | (result == 0 ? flagZ : 0) |
                           (result & msb ? flagN : 0) | (v ? flagV : 0));
    };
    std::uint16_t result = 0;
    switch (op) {
      case Op2::MOV:
        result = src;
        break;
      case Op2::ADD:
      case Op2::ADDC: {
        const unsigned cin =
            (op == Op2::ADDC && (sr & flagC)) ? 1 : 0;
        const unsigned full = (dst & mask) + (src & mask) + cin;
        result = std::uint16_t(full & mask);
        flags(result, full > mask, (dst ^ result) & (src ^ result) & msb);
        break;
      }
      case Op2::SUB:
      case Op2::SUBC:
      case Op2::CMP: {
        const unsigned cin =
            op == Op2::SUBC ? ((sr & flagC) ? 1 : 0) : 1;
        const unsigned full = (dst & mask) + ((~src) & mask) + cin;
        result = std::uint16_t(full & mask);
        flags(result, full > mask, (dst ^ src) & (dst ^ result) & msb);
        break;
      }
      case Op2::AND:
        result = dst & src & mask;
        flags(result, result != 0, false);
        break;
      case Op2::XOR:
        result = (dst ^ src) & mask;
        // SLAU049: XOR sets V when both operands are negative.
        flags(result, result != 0, dst & src & msb);
        break;
      case Op2::BIS:
        result = (dst | src) & mask;
        break;
      default: // BIC (decode admits nothing else here)
        result = dst & std::uint16_t(~src) & mask;
        break;
    }
    return result;
}

/**
 * One MSP430 machine over a shared Image: the register file and the
 * writable RAM window. Reads see the RAM window, then the code
 * image, then zeros. Trap contract: an undecodable or unimplemented
 * instruction word or a PC leaving the code region kills the
 * machine before it is charged; a write outside the RAM window
 * kills it after (a word straddling the window edge lands its low
 * byte first).
 */
class alignas(64) Machine
{
  public:
    explicit Machine(const Image &image) : image_(&image) { reset(); }

    /** Power-on state: RAM and registers zeroed, PC at codeBase. */
    void
    reset()
    {
        ram_.fill(0);
        regs = {};
        regs[0] = codeBase;
    }

    std::uint8_t *ram() { return ram_.data(); }

    /** Run from regs until halt, trap or max_steps instructions. */
    MachineStatus run(std::uint64_t max_steps);

    std::array<std::uint16_t, 16> regs{}; ///< R0 = PC, R2 = SR
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t fusedOps = 0;            ///< records retired
    std::uint64_t steppedInstructions = 0; ///< retired one at a time

  private:
    std::uint8_t
    read8(std::uint16_t a) const
    {
        return a < msp430RamWindow ? ram_[a] : image_->byte(a);
    }

    std::uint16_t
    read16(std::uint16_t a) const
    {
        return std::uint16_t(read8(a) |
                             (read8(std::uint16_t(a + 1)) << 8));
    }

    [[nodiscard]] bool
    write8(std::uint16_t a, std::uint8_t v)
    {
        if (a >= msp430RamWindow)
            return false;
        ram_[a] = v;
        return true;
    }

    [[nodiscard]] bool
    write16(std::uint16_t a, std::uint16_t v)
    {
        return write8(a, std::uint8_t(v & 0xff)) &&
               write8(std::uint16_t(a + 1), std::uint8_t(v >> 8));
    }

    std::uint16_t
    fetch16(std::uint16_t *R)
    {
        const std::uint16_t w = read16(R[0]);
        R[0] = std::uint16_t(R[0] + 2);
        return w;
    }

    static std::uint16_t
    rrcValue(std::uint16_t *R, std::uint16_t v, bool byte_mode)
    {
        // SLAU049: byte-mode RRC rotates the low byte only, and RRC
        // always resets V.
        v &= byte_mode ? 0xff : 0xffff;
        const std::uint16_t msb = byte_mode ? 0x80 : 0x8000;
        const auto out =
            std::uint16_t((v >> 1) | ((R[2] & flagC) ? msb : 0));
        R[2] = std::uint16_t((R[2] & ~(flagC | flagZ | flagN | flagV)) |
                             (v & 1 ? flagC : 0) |
                             (out == 0 ? flagZ : 0) |
                             (out & msb ? flagN : 0));
        return out;
    }

    /** One instruction; false when it trapped. */
    bool step(std::uint16_t *R, std::uint64_t &cycles, bool &halted);

    const Image *image_;
    std::array<std::uint8_t, msp430RamWindow> ram_{};
};

/**
 * A fused record retires its IR operation in one dispatch when the
 * PC is at its start, the budget covers the path the operation
 * takes (a branch evaluates its compare first) and a store stays
 * inside the RAM window. It leaves R0-R15 (SR and the R12 scratch
 * included) and RAM as single steps would; otherwise the machine
 * single-steps, so every kill and budget cut-off lands on the same
 * instruction.
 */
MachineStatus
Machine::run(std::uint64_t max_steps)
{
    std::uint16_t *const R = regs.data();
    const std::uint16_t codeEnd = image_->codeEnd();
    const Fused *const ops = image_->ops();
    std::uint64_t insns = 0, cyc = 0, fused = 0, stepped = 0;
    // The halt flag wins at the boundary: a program whose HALT is
    // exactly the max_steps-th instruction is Halted.
    MachineStatus status;
    for (;;) {
        // No template reads R0, so it is stored once the records stop.
        std::uint16_t pc = R[0];
        for (std::uint32_t i = image_->opAt(pc); i != noOp;) {
            const Fused &f = ops[i];
            // A branch's compare (TST is CMP #0) picks its path; a
            // jump's single path has the same totals either way.
            std::uint16_t sr = R[2];
            bool taken = false;
            if (f.flag) {
                alu430(Op2::CMP, f.op == IrOp::Beqz || f.op == IrOp::Bnez
                                     ? 0
                                     : R[f.src],
                       R[f.dst], true, sr);
                taken = bool(sr & f.flag) == f.whenSet;
            }
            if (insns + f.insns[taken] > max_steps ||
                (f.op == IrOp::St &&
                 std::uint16_t(dataBase + R[f.src]) >= msp430RamWindow))
                break;
            const auto alu = [&](Op2 op, std::uint16_t src) {
                R[f.dst] = alu430(op, src, R[f.dst], true, sr) & 0xff;
                R[2] = sr;
            };
            switch (f.op) {
              case IrOp::Li: R[f.dst] = f.imm & 0xff; break;
              case IrOp::Mov: R[f.dst] = R[f.src] & 0xff; break;
              case IrOp::Add: alu(Op2::ADD, R[f.src]); break;
              case IrOp::Sub: alu(Op2::SUB, R[f.src]); break;
              case IrOp::And: alu(Op2::AND, R[f.src]); break;
              case IrOp::Or: alu(Op2::BIS, R[f.src]); break;
              case IrOp::Xor: alu(Op2::XOR, R[f.src]); break;
              case IrOp::Shl: alu(Op2::ADD, R[f.dst]); break;
              case IrOp::Shr: // CLRC; RRC.B Rd
                R[2] &= std::uint16_t(~flagC);
                R[f.dst] = rrcValue(R, R[f.dst], true);
                break;
              case IrOp::Ld: // MOV Rs, R12; MOV.B base(R12), Rd
                R[12] = R[f.src];
                R[f.dst] = read8(std::uint16_t(dataBase + R[12]));
                break;
              case IrOp::St: // MOV Rs, R12; MOV.B Rv, base(R12)
                R[12] = R[f.src];
                ram_[std::uint16_t(dataBase + R[12])] =
                    std::uint8_t(R[f.dst]);
                break;
              case IrOp::Jmp: taken = true; break;
              case IrOp::Beqz:
              case IrOp::Bnez:
              case IrOp::Bltu:
              case IrOp::Bgeu: R[2] = sr; break;
              default: panic("msp430: unfused IR operation");
            }
            insns += f.insns[taken];
            cyc += f.cycles[taken];
            ++fused;
            pc = taken ? f.target : f.next;
            i = taken ? f.targetOp : f.nextOp;
        }
        R[0] = pc;

        if (insns >= max_steps) {
            status = MachineStatus::OutOfBudget;
            break;
        }
        bool halted = false;
        if (pc < codeBase || pc >= codeEnd || (pc & 1) ||
            !step(R, cyc, halted)) {
            status = MachineStatus::Killed;
            break;
        }
        ++insns;
        ++stepped;
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

bool
Machine::step(std::uint16_t *R, std::uint64_t &cycles, bool &halted)
{
    const Dec430 &d = image_->dec(R[0]);
    R[0] = std::uint16_t(R[0] + 2); // instruction-word fetch

    switch (d.kind) {
      case K430Bad:
        return false;
      case K430Halt:
        halted = true;
        cycles += d.cyc;
        return true;
      case K430Jump: {
        bool take = false;
        switch (Jcc(d.cond)) {
          case Jcc::JNE: take = !(R[2] & flagZ); break;
          case Jcc::JEQ: take = R[2] & flagZ; break;
          case Jcc::JNC: take = !(R[2] & flagC); break;
          case Jcc::JC: take = R[2] & flagC; break;
          default: take = true; break; // JMP
        }
        if (take)
            R[0] = std::uint16_t(R[0] + 2 * d.off);
        cycles += d.cyc;
        return true;
      }
      case K430RrcReg:
        R[d.dreg] = rrcValue(R, R[d.dreg], d.byteMode);
        cycles += d.cyc;
        return true;
      case K430RrcAbs: {
        std::uint16_t addr;
        if (d.fastExt) {
            addr = d.ext1;
            R[0] = std::uint16_t(R[0] + 2);
        } else {
            addr = fetch16(R);
        }
        const std::uint16_t v = d.byteMode ? read8(addr) : read16(addr);
        const std::uint16_t out = rrcValue(R, v, d.byteMode);
        if (!(d.byteMode ? write8(addr, std::uint8_t(out))
                         : write16(addr, out)))
            return false;
        cycles += d.cyc;
        return true;
      }
      case K430Fmt1:
        break;
    }

    // Format I: source operand first. Extension words come from the
    // cached copy when the whole instruction is inside the image;
    // the PC advances identically either way, so X(R0) addressing
    // sees the post-fetch PC.
    unsigned extIdx = 0;
    const auto fetchExt = [&]() -> std::uint16_t {
        if (d.fastExt) {
            const std::uint16_t w = extIdx++ ? d.ext2 : d.ext1;
            R[0] = std::uint16_t(R[0] + 2);
            return w;
        }
        return fetch16(R);
    };
    if (!d.srcOk)
        return false;
    std::uint16_t src = 0;
    if (d.sreg == 3) { // constant generator R3
        static constexpr std::uint16_t constants[4] = {0, 1, 2, 0xffff};
        src = constants[d.as];
    } else if (d.as == 0) {
        src = R[d.sreg];
    } else if (d.as == 1) { // absolute (&addr via SR) or indexed
        const std::uint16_t off = fetchExt();
        const std::uint16_t a =
            d.sreg == 2 ? off : std::uint16_t(off + R[d.sreg]);
        src = d.byteMode ? read8(a) : read16(a);
    } else { // immediate @PC+
        src = fetchExt();
    }

    std::uint16_t daddr = 0;
    std::uint16_t dst = 0;
    if (!d.ad) {
        dst = R[d.dreg];
    } else {
        const std::uint16_t off = fetchExt();
        daddr = d.dreg == 2 ? off : std::uint16_t(off + R[d.dreg]);
        dst = d.byteMode ? read8(daddr) : read16(daddr);
    }

    if (!d.opOk)
        return false; // after operand evaluation

    // The new SR is stored before the write-back (which may itself
    // target SR).
    std::uint16_t sr = R[2];
    const std::uint16_t result =
        alu430(Op2(d.op), src, dst, d.byteMode, sr);
    R[2] = sr;

    if (Op2(d.op) != Op2::CMP) {
        if (d.ad) {
            if (!(d.byteMode ? write8(daddr, std::uint8_t(result))
                             : write16(daddr, result)))
                return false;
        } else {
            R[d.dreg] =
                d.byteMode ? std::uint16_t(result & 0xff) : result;
        }
    }

    cycles += d.cyc;
    return true;
}

unsigned
bytesPerLogicalWord(const IrProgram &prog)
{
    return prog.width <= 8 ? 1 : prog.width / 8;
}

} // anonymous namespace

LegacySize
sizeMsp430(const IrProgram &prog)
{
    Compiler c(prog);
    LegacySize sz;
    sz.codeBytes = c.take().size() * 2;
    sz.dataBytes = prog.dataWords * bytesPerLogicalWord(prog);
    return sz;
}

LegacyRun
runMsp430(const IrProgram &prog,
          const std::vector<std::uint64_t> &inputs,
          std::uint64_t max_steps)
{
    IssBatchOptions opts;
    opts.maxSteps = max_steps;
    IssBatchResult res = batchRunMsp430(prog, {inputs}, opts);
    fatalIf(res.status[0] == MachineStatus::OutOfBudget,
            "msp430: step budget exhausted");
    fatalIf(res.status[0] == MachineStatus::Killed,
            "msp430: machine killed (bad pc or trap)");
    return std::move(res.runs[0]);
}

Msp430RawRun
runMsp430Raw(const Msp430RawState &init, std::uint64_t max_steps)
{
    fatalIf(init.ram.size() > msp430RamWindow,
            "runMsp430Raw: RAM image exceeds the writable window");
    const Image image(init.code);
    Machine m(image);
    for (unsigned r = 1; r < 16; ++r)
        m.regs[r] = init.regs[r];
    std::copy(init.ram.begin(), init.ram.end(), m.ram());

    Msp430RawRun out;
    out.status = m.run(max_steps);
    out.instructions = m.instructions;
    out.cycles = m.cycles;
    out.regs = m.regs;
    out.ram.assign(m.ram(), m.ram() + init.ram.size());
    return out;
}

IssBatchResult
batchRunMsp430(const IrProgram &prog,
               const std::vector<std::vector<std::uint64_t>> &inputs,
               const IssBatchOptions &opts)
{
    const unsigned bpw = bytesPerLogicalWord(prog);
    Compiler compiler(prog);
    const Image image(compiler.take(), compiler.takeOps());
    IssBatchResult res = issNewResult(inputs.size(), image.words() * 2,
                                      prog.dataWords * bpw);
    for (const auto &in : inputs)
        fatalIf(in.size() != prog.inputAddrs.size(),
                "msp430: input count mismatch");
    fatalIf(dataBase + std::size_t(prog.dataWords) * bpw >
                msp430RamWindow,
            "msp430: data array exceeds the RAM window");

    issRunFleet(opts, inputs.size(), Machine(image),
                [&](Machine &mach, std::size_t m) {
        mach.reset();
        std::uint8_t *const ram = mach.ram();
        for (std::size_t i = 0; i < inputs[m].size(); ++i)
            for (unsigned k = 0; k < bpw; ++k)
                ram[dataBase + prog.inputAddrs[i] * bpw + k] =
                    std::uint8_t(inputs[m][i] >> (8 * k));
        res.status[m] = mach.run(opts.maxSteps);
        LegacyRun &run = res.runs[m];
        run.instructions = mach.instructions;
        run.cycles = mach.cycles;
        run.fusedOps = mach.fusedOps;
        run.steppedInstructions = mach.steppedInstructions;
        for (unsigned addr : prog.outputAddrs) {
            std::uint64_t v = 0;
            for (unsigned k = 0; k < bpw; ++k)
                v |= std::uint64_t(ram[dataBase + addr * bpw + k])
                     << (8 * k);
            run.outputs.push_back(v & maskBits(prog.width));
        }
    });
    return res;
}

} // namespace printed::legacy
