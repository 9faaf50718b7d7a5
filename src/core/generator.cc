#include "generator.hh"

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "synth/blocks.hh"
#include "synth/opt.hh"

namespace printed
{

using namespace synth;

namespace
{

/** Decoded instruction fields (combinational, from a word bus). */
struct DecodeSignals
{
    Bus opcode; ///< 4-bit primary opcode
    NetId w = invalidNet;
    NetId c = invalidNet;
    NetId a = invalidNet;
    NetId b = invalidNet;
    std::vector<NetId> hot; ///< one-hot opcode lines (numOpcodes)
    Bus op1;
    Bus op2;

    NetId hotOf(Opcode op) const
    {
        return hot[static_cast<std::size_t>(op)];
    }
};

DecodeSignals
decodeFields(Netlist &nl, const Bus &word, const IsaConfig &isa)
{
    const unsigned ob = isa.operandBits;
    panicIf(word.size() != isa.instructionBits(),
            "decodeFields: word width mismatch");
    DecodeSignals d;
    d.op2 = busSlice(word, 0, ob);
    d.op1 = busSlice(word, ob, ob);
    d.b = word[2 * ob + 0];
    d.a = word[2 * ob + 1];
    d.c = word[2 * ob + 2];
    d.w = word[2 * ob + 3];
    d.opcode = busSlice(word, 2 * ob + 4, 4);
    d.hot = binaryDecoder(nl, d.opcode, numOpcodes);
    return d;
}

/** Bitwise bus equality: XNOR per bit + AND reduce. */
NetId
equalsBus(Netlist &nl, const Bus &a, const Bus &b)
{
    panicIf(a.size() != b.size(), "equalsBus: width mismatch");
    Bus eq;
    eq.reserve(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        eq.push_back(nl.addGate(CellKind::XNOR2X1, a[i], b[i]));
    return andReduce(nl, eq);
}

/**
 * Effective-address unit for one operand: BAR[sel] + offset
 * (Section 5.1). Degenerates to plain wiring when only BAR[0]
 * exists - the logic the paper notes program-specific cores can
 * drop entirely.
 */
Bus
addressUnit(Netlist &nl, const Bus &operand,
            const std::vector<Bus> &bar_vals, const CoreConfig &cfg)
{
    const IsaConfig &isa = cfg.isa;
    const Bus offset = busSlice(operand, 0, isa.offsetBits());
    const Bus off_ext = busExtend(nl, offset, cfg.addrBits);
    if (isa.barCount == 1)
        return off_ext;
    const Bus sel =
        busSlice(operand, isa.offsetBits(), isa.barSelBits());
    const auto hot = binaryDecoder(nl, sel, isa.barCount);
    const Bus bar = busMuxOneHot(nl, hot, bar_vals);
    return rippleAdder(nl, bar, off_ext, nl.constZero()).sum;
}

/** ALU outputs: the result bus plus next carry/overflow values. */
struct AluOut
{
    Bus result;
    NetId cNext = invalidNet;
    NetId vNext = invalidNet;
};

/**
 * The TP-ISA ALU: shared add/sub, bitwise logic, single-bit
 * rotators (no barrel shifter - Section 5.1), and the store-
 * immediate path, combined by a one-hot AND-OR mux.
 */
AluOut
buildAlu(Netlist &nl, const DecodeSignals &d, const Bus &a,
         const Bus &b, NetId flag_c, const CoreConfig &cfg)
{
    const unsigned width = cfg.isa.datawidth;

    // Only the blocks of implemented opcodes are elaborated:
    // program-specific cores prune the rest (ASIP-style, Section 7).
    std::vector<NetId> sels;
    std::vector<Bus> choices;
    std::vector<NetId> c_sels;
    std::vector<Bus> c_choices;

    AluOut out;

    if (cfg.implements(Opcode::ADD)) {
        // Carry-in: ADD -> 0, SUB/CMP -> 1 (not-borrow),
        // ADC/SBB -> C.
        const NetId cin = mux2(nl, d.c, d.a, flag_c);
        const AddResult addsub = rippleAddSub(nl, a, b, d.a, cin);
        sels.push_back(d.hotOf(Opcode::ADD));
        choices.push_back(addsub.sum);
        c_sels.push_back(d.hotOf(Opcode::ADD));
        c_choices.push_back({addsub.carryOut});
        const Bus v_next = busMuxOneHot(nl, {d.hotOf(Opcode::ADD)},
                                        {{addsub.overflow}});
        out.vNext = v_next[0];
    } else {
        out.vNext = nl.constZero();
    }

    if (cfg.implements(Opcode::AND)) {
        sels.push_back(d.hotOf(Opcode::AND));
        choices.push_back(busAnd(nl, a, b));
    }
    if (cfg.implements(Opcode::OR)) {
        sels.push_back(d.hotOf(Opcode::OR));
        choices.push_back(busOr(nl, a, b));
    }
    if (cfg.implements(Opcode::XOR)) {
        sels.push_back(d.hotOf(Opcode::XOR));
        choices.push_back(busXor(nl, a, b));
    }
    if (cfg.implements(Opcode::NOT)) {
        sels.push_back(d.hotOf(Opcode::NOT));
        choices.push_back(busNot(nl, b));
    }

    // Rotates operate on the second operand (unary ops read op2).
    if (cfg.implements(Opcode::RL)) {
        const RotateResult rl = rotateLeft1(b);
        const RotateResult rlc = rotateLeft1Carry(b, flag_c);
        sels.push_back(d.hotOf(Opcode::RL));
        choices.push_back(busMux2(nl, d.c, rl.data, rlc.data));
        c_sels.push_back(d.hotOf(Opcode::RL));
        c_choices.push_back({rl.carryOut});
    }
    if (cfg.implements(Opcode::RR)) {
        const RotateResult rr = rotateRight1(b);
        const RotateResult rrc = rotateRight1Carry(b, flag_c);
        const RotateResult rra = shiftRightArith1(b);
        const Bus rr_plain = busMux2(nl, d.a, rr.data, rra.data);
        sels.push_back(d.hotOf(Opcode::RR));
        choices.push_back(busMux2(nl, d.c, rr_plain, rrc.data));
        c_sels.push_back(d.hotOf(Opcode::RR));
        c_choices.push_back({rr.carryOut});
    }
    if (cfg.implements(Opcode::STORE)) {
        sels.push_back(d.hotOf(Opcode::STORE));
        choices.push_back(busExtend(nl, d.op2, width));
    }

    fatalIf(choices.empty(),
            "buildAlu: the opcode mask implements no result-"
            "producing instruction");

    // Tri-state result bus: one TSBUF per source per bit, driven by
    // the one-hot opcode lines (the printed library's TSBUFX1 idiom;
    // an AND-OR mux would roughly double the cell count here - see
    // bench_ablation_printed).
    out.result = cfg.tristateResultMux
                     ? busMuxTristate(nl, sels, choices)
                     : busMuxOneHot(nl, sels, choices);

    // Next carry: adder carry-out, or the bit rotated out. Logic
    // ops clear carry (the one-hot mux yields 0 for them).
    if (c_sels.empty()) {
        out.cNext = nl.constZero();
    } else {
        const Bus c_next = busMuxOneHot(nl, c_sels, c_choices);
        out.cNext = c_next[0];
    }
    return out;
}

} // anonymous namespace

Netlist
elaborateCore(const CoreConfig &cfg)
{
    cfg.check();
    trace::Span span("synth.elaborateCore", cfg.label());
    const IsaConfig &isa = cfg.isa;
    const unsigned width = isa.datawidth;
    const unsigned iw_bits = isa.instructionBits();

    Netlist nl(cfg.label());

    // Per-block gate accounting: record the gates each major block
    // of the core contributes (pre-optimization) into
    // "synth.block.<name>.gates". Deterministic counters — pure
    // functions of the configs synthesized.
    std::size_t blockMark = 0;
    auto countBlock = [&](const char *block) {
        metrics::counter(std::string("synth.block.") + block +
                         ".gates")
            .add(nl.gateCount() - blockMark);
        blockMark = nl.gateCount();
    };

    // ------------------------------------------------------------
    // Ports
    // ------------------------------------------------------------
    const Bus instr = busInputs(nl, "instr", iw_bits);
    const Bus rdata1 = busInputs(nl, "rdata1", width);
    const Bus rdata2 = busInputs(nl, "rdata2", width);
    const NetId rstn = nl.addInput("rstn");

    // ------------------------------------------------------------
    // Forward references (resolved once the registers exist)
    // ------------------------------------------------------------
    const bool live_s = (cfg.flagMask >> flagBitS) & 1;
    const bool live_z = (cfg.flagMask >> flagBitZ) & 1;
    const bool live_c = (cfg.flagMask >> flagBitC) & 1;
    const bool live_v = (cfg.flagMask >> flagBitV) & 1;

    const NetId flag_s_fb = live_s ? nl.makeFeedback() : invalidNet;
    const NetId flag_z_fb = live_z ? nl.makeFeedback() : invalidNet;
    const NetId flag_c_fb = live_c ? nl.makeFeedback() : invalidNet;
    const NetId flag_v_fb = live_v ? nl.makeFeedback() : invalidNet;
    const NetId flag_c_use =
        live_c ? flag_c_fb : nl.constZero();

    Bus pc_fb;
    for (unsigned i = 0; i < isa.pcBits; ++i)
        pc_fb.push_back(nl.makeFeedback());

    const NetId taken_fb = nl.makeFeedback();
    const NetId stall_fb =
        cfg.stages == 3 ? nl.makeFeedback() : nl.constZero();
    NetId stall_sig = invalidNet; // P3: resolved after the PC logic

    // ------------------------------------------------------------
    // Fetch stage: IR and stage-valid bits
    // ------------------------------------------------------------
    Bus ex_word;          // instruction word feeding decode/execute
    NetId v_ex = invalidNet; // validity of the execute instruction
    Bus d3_latched;       // P3: stage-2->3 pipeline register contents
    DecodeSignals dec2;   // P3: stage-2 decode (address generation)
    Bus ea1_s2, ea2_s2;   // P3: stage-2 effective addresses

    // BAR registers are shared state; build them against a decode
    // stage chosen per pipeline depth, so declare storage here.
    std::vector<Bus> bar_vals; // addrBits-wide values, [0] == 0

    if (cfg.stages == 1) {
        ex_word = instr;
        v_ex = nl.constOne();
    } else if (cfg.stages == 2) {
        // IR: plain pipeline register; a taken branch flushes the
        // just-fetched instruction via the valid bit.
        ex_word = registerBankReset(nl, instr, rstn);
        const NetId v_next = inv(nl, taken_fb);
        v_ex = nl.addFlopReset(v_next, rstn);
    }

    // ------------------------------------------------------------
    // Decode + BAR file + address generation
    // ------------------------------------------------------------
    // For p1/p2 everything below happens in the execute stage; for
    // p3 addresses are generated in stage 2 and the decoded
    // controls latched into stage 3.
    DecodeSignals dec;

    // SET-BAR loads BAR[k] from data memory: the pointer word
    // arrives on rdata1 (read at the operand-1 effective address),
    // and operand 2 is the immediate BAR index.
    auto build_bars = [&](const DecodeSignals &d, NetId valid) {
        bar_vals.clear();
        bar_vals.push_back(busConst(nl, cfg.addrBits, 0));
        const Bus bar_d = busExtend(nl, rdata1, cfg.barBits);
        for (unsigned k = 1; k < isa.barCount; ++k) {
            const NetId is_k = equalsConst(nl, d.op2, k);
            NetId en = nl.addGate(CellKind::AND2X1,
                                  d.hotOf(Opcode::BAR), is_k);
            if (valid != invalidNet)
                en = nl.addGate(CellKind::AND2X1, en, valid);
            const Bus q = registerEnable(nl, bar_d, en, rstn);
            bar_vals.push_back(busExtend(nl, q, cfg.addrBits));
        }
    };

    if (cfg.stages <= 2) {
        dec = decodeFields(nl, ex_word, isa);
        build_bars(dec, cfg.stages == 2 ? v_ex : invalidNet);
        ea1_s2 = addressUnit(nl, dec.op1, bar_vals, cfg);
        ea2_s2 = addressUnit(nl, dec.op2, bar_vals, cfg);
    } else {
        // P3 stage 1: IR with hold (stall) + flush (taken).
        const NetId not_stall = inv(nl, stall_fb);
        const Bus ir = registerEnable(nl, instr, not_stall, rstn);
        // v2_next = !taken & (stall ? v2 : 1)
        const NetId v2_fb = nl.makeFeedback();
        const NetId keep = mux2(nl, stall_fb, nl.constOne(), v2_fb);
        const NetId v2_next =
            nl.addGate(CellKind::AND2X1, inv(nl, taken_fb), keep);
        const NetId v2 = nl.addFlopReset(v2_next, rstn);
        nl.resolveFeedback(v2_fb, v2);

        // P3 stage 2: decode + address generation. SET-BAR executes
        // in stage 2; its write is squashed when the stage is
        // invalid, when an older branch is being taken in stage 3
        // this very cycle, and during a stall (the stalled SET-BAR
        // re-reads its pointer word after the conflicting stage-3
        // write commits; committing the stale word here would also
        // corrupt its own re-computed effective address).
        dec2 = decodeFields(nl, ir, isa);
        const NetId bar_live =
            nl.addGate(CellKind::AND2X1, v2, inv(nl, taken_fb));
        const NetId bar_ok = nl.addGate(CellKind::AND2X1, bar_live,
                                        inv(nl, stall_fb));
        build_bars(dec2, bar_ok);
        ea1_s2 = addressUnit(nl, dec2.op1, bar_vals, cfg);
        ea2_s2 = addressUnit(nl, dec2.op2, bar_vals, cfg);

        // Stage-2 -> stage-3 pipeline register: opcode + W/C/A/B +
        // operands + write address + read data + valid. The data
        // RAM reads combinationally at the stage-2 addresses, so
        // the operand words must ride into stage 3 with the rest of
        // the instruction: the execute-stage rdata1/rdata2 port
        // values belong to the *younger* instruction in stage 2.
        Bus to_latch = dec2.opcode;
        to_latch.push_back(dec2.b);
        to_latch.push_back(dec2.a);
        to_latch.push_back(dec2.c);
        to_latch.push_back(dec2.w);
        to_latch = busConcat(to_latch, dec2.op1);
        to_latch = busConcat(to_latch, dec2.op2);
        to_latch = busConcat(to_latch, ea1_s2);
        to_latch = busConcat(to_latch, rdata1);
        to_latch = busConcat(to_latch, rdata2);
        d3_latched = registerBankReset(nl, to_latch, rstn);

        // v3_next = v2 & !stall & !taken
        const NetId t0 = nl.addGate(CellKind::AND2X1, v2,
                                    inv(nl, stall_fb));
        const NetId v3_next =
            nl.addGate(CellKind::AND2X1, t0, inv(nl, taken_fb));
        v_ex = nl.addFlopReset(v3_next, rstn);

        // Reconstruct the execute-stage decode from the latch.
        dec.opcode = busSlice(d3_latched, 0, 4);
        dec.b = d3_latched[4];
        dec.a = d3_latched[5];
        dec.c = d3_latched[6];
        dec.w = d3_latched[7];
        dec.op1 = busSlice(d3_latched, 8, isa.operandBits);
        dec.op2 =
            busSlice(d3_latched, 8 + isa.operandBits, isa.operandBits);
        dec.hot = binaryDecoder(nl, dec.opcode, numOpcodes);

        // Hazard: stage-3 write vs stage-2 reads of the same word.
        const Bus ea1_s3 =
            busSlice(d3_latched, 8 + 2 * isa.operandBits,
                     cfg.addrBits);
        const NetId m1 = equalsBus(nl, ea1_s2, ea1_s3);
        const NetId m2 = equalsBus(nl, ea2_s2, ea1_s3);
        const NetId any = nl.addGate(CellKind::OR2X1, m1, m2);
        const NetId wr3 =
            nl.addGate(CellKind::AND2X1, dec.w, v_ex);
        const NetId both =
            nl.addGate(CellKind::AND2X1, wr3, v2);
        stall_sig = nl.addGate(CellKind::AND2X1, both, any);
        // NOTE: stall_fb is resolved only after the PC logic below;
        // resolveFeedback() retires the placeholder, so resolving
        // here would leave the later-built PC hold mux reading a
        // dead net (stuck at 0) and the PC would run past the
        // stalled instruction.
    }

    countBlock("fetch_decode");

    // Execute-stage effective addresses / write-back address.
    Bus waddr;
    if (cfg.stages == 3)
        waddr = busSlice(d3_latched, 8 + 2 * isa.operandBits,
                         cfg.addrBits);
    else
        waddr = ea1_s2;

    // ------------------------------------------------------------
    // ALU
    // ------------------------------------------------------------
    // Execute-stage operand data: p1/p2 read the RAM in the same
    // stage that executes; p3 executes on the words latched with
    // the instruction (see the stage-2 -> stage-3 register above).
    Bus ex_rdata1 = rdata1;
    Bus ex_rdata2 = rdata2;
    if (cfg.stages == 3) {
        const unsigned data_at =
            8 + 2 * isa.operandBits + cfg.addrBits;
        ex_rdata1 = busSlice(d3_latched, data_at, width);
        ex_rdata2 = busSlice(d3_latched, data_at + width, width);
    }
    const AluOut alu =
        buildAlu(nl, dec, ex_rdata1, ex_rdata2, flag_c_use, cfg);
    countBlock("alu");

    // ------------------------------------------------------------
    // Flags
    // ------------------------------------------------------------
    // M-type = anything but STORE / SET-BAR / BR.
    const NetId is_sb = nl.addGate(CellKind::OR2X1,
                                   dec.hotOf(Opcode::STORE),
                                   dec.hotOf(Opcode::BAR));
    const NetId is_ctl =
        nl.addGate(CellKind::OR2X1, is_sb, dec.hotOf(Opcode::BR));
    const NetId is_mtype = inv(nl, is_ctl);
    NetId flag_en = is_mtype;
    if (cfg.stages >= 2)
        flag_en = nl.addGate(CellKind::AND2X1, flag_en, v_ex);

    Bus flag_d; // in [V, C, Z, S] bit order
    std::vector<unsigned> flag_bits;
    if (live_v) {
        flag_d.push_back(alu.vNext);
        flag_bits.push_back(flagBitV);
    }
    if (live_c) {
        flag_d.push_back(alu.cNext);
        flag_bits.push_back(flagBitC);
    }
    if (live_z) {
        flag_d.push_back(isZero(nl, alu.result));
        flag_bits.push_back(flagBitZ);
    }
    if (live_s) {
        flag_d.push_back(alu.result.back());
        flag_bits.push_back(flagBitS);
    }

    Bus flag_q;
    if (!flag_d.empty())
        flag_q = registerEnable(nl, flag_d, flag_en, rstn);
    for (std::size_t i = 0; i < flag_bits.size(); ++i) {
        switch (flag_bits[i]) {
          case flagBitV: nl.resolveFeedback(flag_v_fb, flag_q[i]);
            break;
          case flagBitC: nl.resolveFeedback(flag_c_fb, flag_q[i]);
            break;
          case flagBitZ: nl.resolveFeedback(flag_z_fb, flag_q[i]);
            break;
          case flagBitS: nl.resolveFeedback(flag_s_fb, flag_q[i]);
            break;
        }
    }

    countBlock("flags");

    // ------------------------------------------------------------
    // Branch resolution
    // ------------------------------------------------------------
    // hit = OR over live flags of (flag & bmask bit). The bmask is
    // compacted: bit i selects the i-th live flag in V,C,Z,S order,
    // which for a full-flag core coincides with the standard
    // bmask bit positions and lets program-specific cores carry a
    // flagCount-bit mask (Section 7).
    Bus hit_terms;
    for (std::size_t i = 0; i < flag_bits.size(); ++i) {
        if (i < dec.op2.size())
            hit_terms.push_back(nl.addGate(CellKind::AND2X1,
                                           flag_q[i],
                                           dec.op2[i]));
    }
    const NetId hit = orReduce(nl, hit_terms);
    // BR: taken when hit; BRN (A=1): taken when !hit.
    const NetId cond = nl.addGate(CellKind::XOR2X1, hit, dec.a);
    NetId taken = nl.addGate(CellKind::AND2X1,
                             dec.hotOf(Opcode::BR), cond);
    if (cfg.stages >= 2)
        taken = nl.addGate(CellKind::AND2X1, taken, v_ex);
    nl.resolveFeedback(taken_fb, taken);

    // ------------------------------------------------------------
    // Program counter
    // ------------------------------------------------------------
    const Bus target = busExtend(nl, dec.op1, isa.pcBits);
    const Bus pc_inc = incrementer(nl, pc_fb);
    Bus pc_next = busMux2(nl, taken, pc_inc, target);
    if (cfg.stages == 3)
        pc_next = busMux2(nl, stall_fb, pc_next, pc_fb);
    const Bus pc_q = registerBankReset(nl, pc_next, rstn);
    for (unsigned i = 0; i < isa.pcBits; ++i)
        nl.resolveFeedback(pc_fb[i], pc_q[i]);

    // The PC hold mux above is the last consumer of the stall
    // placeholder; it is safe to retire it only now.
    if (cfg.stages == 3)
        nl.resolveFeedback(stall_fb, stall_sig);

    // ------------------------------------------------------------
    // Outputs
    // ------------------------------------------------------------
    NetId wen = dec.w;
    if (cfg.stages >= 2)
        wen = nl.addGate(CellKind::AND2X1, wen, v_ex);

    busOutputs(nl, "pc", pc_q);
    busOutputs(nl, "addr1", ea1_s2);
    busOutputs(nl, "addr2", ea2_s2);
    busOutputs(nl, "waddr", waddr);
    busOutputs(nl, "wdata", alu.result);
    nl.addOutput("wen", wen);
    countBlock("branch_pc");
    return nl;
}

Netlist
buildCore(const CoreConfig &cfg)
{
    trace::Span span("synth.buildCore", cfg.label());
    Netlist nl = elaborateCore(cfg);
    metrics::counter("synth.core.gates_pre_opt").add(nl.gateCount());
    synth::optimize(nl); // ends with seal()
    metrics::counter("synth.cores_built").add(1);
    metrics::counter("synth.core.gates").add(nl.gateCount());
    return nl;
}

CorePorts
corePorts(const Netlist &nl, const CoreConfig &cfg)
{
    CorePorts p;
    auto bus_of = [&](const std::string &name, unsigned width,
                      bool input) {
        Bus bus;
        for (unsigned i = 0; i < width; ++i) {
            const std::string n = name + "[" + std::to_string(i) +
                                  "]";
            bus.push_back(input ? nl.inputNet(n) : nl.outputNet(n));
        }
        return bus;
    };
    p.instr = bus_of("instr", cfg.isa.instructionBits(), true);
    p.rdata1 = bus_of("rdata1", cfg.isa.datawidth, true);
    p.rdata2 = bus_of("rdata2", cfg.isa.datawidth, true);
    p.rstn = nl.inputNet("rstn");
    p.pc = bus_of("pc", cfg.isa.pcBits, false);
    p.addr1 = bus_of("addr1", cfg.addrBits, false);
    p.addr2 = bus_of("addr2", cfg.addrBits, false);
    p.waddr = bus_of("waddr", cfg.addrBits, false);
    p.wdata = bus_of("wdata", cfg.isa.datawidth, false);
    p.wen = nl.outputNet("wen");
    return p;
}

} // namespace printed
