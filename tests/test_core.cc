/**
 * @file
 * Tests for the gate-level TP-ISA core generator: structural
 * properties across the design space, and full program equivalence
 * between the instruction-set simulator and the synthesized
 * single-cycle cores (gate-level co-simulation).
 */

#include <gtest/gtest.h>

#include "analysis/characterize.hh"
#include "arch/machine.hh"
#include "core/batch_cosim.hh"
#include "core/cosim.hh"
#include "core/generator.hh"
#include "isa/assembler.hh"

namespace printed
{
namespace
{

TEST(CoreConfig, Labels)
{
    EXPECT_EQ(CoreConfig::standard(1, 8, 2).label(), "p1_8_2");
    EXPECT_EQ(CoreConfig::standard(3, 32, 4).label(), "p3_32_4");
}

TEST(CoreGen, BuildsAndValidates)
{
    for (unsigned stages : {1u, 2u, 3u}) {
        const CoreConfig cfg = CoreConfig::standard(stages, 8, 2);
        const Netlist nl = buildCore(cfg);
        EXPECT_GT(nl.gateCount(), 100u) << cfg.label();
        EXPECT_NO_THROW(nl.validate());
        EXPECT_NO_THROW(nl.levelize());
    }
}

TEST(CoreGen, FlopCountGrowsWithPipelineDepth)
{
    const auto f1 = buildCore(CoreConfig::standard(1, 8, 2))
                        .flopCount();
    const auto f2 = buildCore(CoreConfig::standard(2, 8, 2))
                        .flopCount();
    const auto f3 = buildCore(CoreConfig::standard(3, 8, 2))
                        .flopCount();
    EXPECT_LT(f1, f2);
    EXPECT_LT(f2, f3);
    // p1 architectural state: PC(8) + flags(4) + BAR1(8) = 20.
    EXPECT_EQ(f1, 20u);
    // p2 adds the 24-bit IR and a valid bit; the optimizer sweeps
    // the IR flop for the B control bit (redundant with the opcode
    // field), leaving 23 + 1.
    EXPECT_EQ(f2, 20u + 23u + 1u);
}

TEST(CoreGen, AreaGrowsWithDatawidth)
{
    double prev = 0;
    for (unsigned width : {4u, 8u, 16u, 32u}) {
        const CoreConfig cfg = CoreConfig::standard(1, width, 2);
        const Characterization ch =
            characterize(buildCore(cfg), egfetLibrary());
        EXPECT_GT(ch.areaCm2(), prev) << cfg.label();
        prev = ch.areaCm2();
    }
}

TEST(CoreGen, FourBarsCostMoreThanTwo)
{
    const auto two = characterize(
        buildCore(CoreConfig::standard(1, 8, 2)), egfetLibrary());
    const auto four = characterize(
        buildCore(CoreConfig::standard(1, 8, 4)), egfetLibrary());
    EXPECT_GT(four.areaCm2(), two.areaCm2());
    EXPECT_GT(four.stats.seqGates, two.stats.seqGates);
}

TEST(CoreGen, EgfetFrequenciesInPaperBand)
{
    // Printed circuits run from a few Hz to a few kHz (Section 2);
    // Figure 7 shows TP-ISA EGFET cores in the tens of Hz.
    for (unsigned width : {4u, 8u, 16u, 32u}) {
        const CoreConfig cfg = CoreConfig::standard(1, width, 2);
        const Characterization ch =
            characterize(buildCore(cfg), egfetLibrary());
        EXPECT_GT(ch.fmaxHz(), 1.0) << cfg.label();
        EXPECT_LT(ch.fmaxHz(), 100.0) << cfg.label();
    }
}

TEST(CoreGen, CntOrdersOfMagnitudeFaster)
{
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const Netlist nl = buildCore(cfg);
    const auto egfet = characterize(nl, egfetLibrary());
    const auto cnt = characterize(nl, cntLibrary());
    // Worst-case rise/fall STA narrows CNT's advantage relative to
    // the paper's typical-case numbers, but the gap stays two to
    // three orders of magnitude.
    EXPECT_GT(cnt.fmaxHz(), 100 * egfet.fmaxHz());
    EXPECT_LT(cnt.areaCm2(), egfet.areaCm2() / 50);
}

// ----------------------------------------------------------------
// Gate-level co-simulation vs. the instruction-set simulator
// ----------------------------------------------------------------

/** Run a program on both simulators and compare all of memory. */
void
expectEquivalence(const Program &program, std::size_t dmem_words,
                  const CoreConfig &cfg)
{
    TpIsaMachine iss(program, dmem_words);
    iss.run();
    ASSERT_NE(iss.stats().halt, HaltReason::MaxSteps);

    const Netlist nl = buildCore(cfg);
    CoreCosim cosim(nl, cfg, program, dmem_words);
    cosim.run();

    for (std::size_t a = 0; a < dmem_words; ++a)
        EXPECT_EQ(cosim.mem(a), iss.mem(a))
            << cfg.label() << " mem[" << a << "]";
}

TEST(CoreCosimTest, ArithmeticAndFlags)
{
    const IsaConfig isa; // 8-bit, 2 BARs
    const Program p = assemble(R"(
        STORE [0], #200
        STORE [1], #100
        ADD [0], [1]       ; 44, C=1
        ADC [2], [1]       ; 0 + 100 + 1 = 101
        STORE [3], #5
        SUB [3], [1]       ; 5-100 borrow
        SBB [4], [1]       ; 0-100-1
        CMP [0], [0]       ; Z=1
        halt: BRN halt, #0
    )", isa, "arith");
    expectEquivalence(p, 8, CoreConfig::standard(1, 8, 2));
}

TEST(CoreCosimTest, LogicAndRotates)
{
    const IsaConfig isa;
    const Program p = assemble(R"(
        STORE [0], #0xA5
        STORE [1], #0x0F
        AND [2], [0]       ; 0
        OR  [2], [0]       ; A5
        XOR [2], [1]       ; AA
        NOT [3], [2]       ; 55
        RL  [4], [0]       ; 4B, C=1
        RLC [5], [1]       ; 1F
        RR  [6], [0]       ; D2, C=1
        RRC [7], [1]       ; 87
        RRA [2], [0]       ; D2
        TEST [0], [1]
        halt: BRN halt, #0
    )", isa, "logic");
    expectEquivalence(p, 8, CoreConfig::standard(1, 8, 2));
}

TEST(CoreCosimTest, LoopWithBranches)
{
    const IsaConfig isa;
    // 5 * 9 by repeated addition.
    const Program p = assemble(R"(
        STORE [0], #0      ; acc
        STORE [1], #9      ; addend
        STORE [2], #5      ; count
        STORE [3], #1      ; one
        loop:
            ADD [0], [1]
            SUB [2], [3]
            BRN loop, Z
        halt: BRN halt, #0
    )", isa, "mul5x9");
    expectEquivalence(p, 4, CoreConfig::standard(1, 8, 2));
}

TEST(CoreCosimTest, BarAddressing)
{
    const IsaConfig isa;
    const Program p = assemble(R"(
        STORE [0], #4
        SETBAR [0], #1
        STORE [b1+0], #11
        STORE [b1+1], #22
        ADD [b1+0], [b1+1]
        STORE [0], #6
        SETBAR [0], #1
        STORE [b1+0], #33
        halt: BRN halt, #0
    )", isa, "bars");
    expectEquivalence(p, 8, CoreConfig::standard(1, 8, 2));
}

TEST(CoreCosimTest, FourBarCore)
{
    IsaConfig isa;
    isa.barCount = 4;
    const Program p = assemble(R"(
        STORE [0], #2
        SETBAR [0], #1
        STORE [0], #4
        SETBAR [0], #2
        STORE [0], #6
        SETBAR [0], #3
        STORE [b1+0], #1
        STORE [b2+0], #2
        STORE [b3+0], #3
        ADD [b3+0], [b2+0]
        ADD [b3+0], [b1+0]
        halt: BRN halt, #0
    )", isa, "four_bars");
    expectEquivalence(p, 8, CoreConfig::standard(1, 8, 4));
}

TEST(CoreCosimTest, SixteenBitCore)
{
    IsaConfig isa;
    isa.datawidth = 16;
    const Program p = assemble(R"(
        STORE [0], #255
        STORE [1], #255
        ADD [0], [1]       ; 510, no carry in 16 bits
        RL [0], [0]
        halt: BRN halt, #0
    )", isa, "w16");
    expectEquivalence(p, 4, CoreConfig::standard(1, 16, 2));
}

TEST(CoreCosimTest, FourBitCore)
{
    IsaConfig isa;
    isa.datawidth = 4;
    const Program p = assemble(R"(
        STORE [0], #15
        STORE [1], #1
        ADD [0], [1]       ; wraps to 0, C=1
        ADC [2], [1]       ; 0+1+1 = 2
        halt: BRN halt, #0
    )", isa, "w4");
    expectEquivalence(p, 4, CoreConfig::standard(1, 4, 2));
}

TEST(CoreCosimTest, ThirtyTwoBitCoalescingChain)
{
    IsaConfig isa;
    isa.datawidth = 32;
    const Program p = assemble(R"(
        STORE [0], #255
        STORE [1], #255
        ADD [0], [1]
        ADD [0], [0]
        ADD [0], [0]       ; 2040
        SUB [0], [1]       ; 1785
        halt: BRN halt, #0
    )", isa, "w32");
    expectEquivalence(p, 4, CoreConfig::standard(1, 32, 2));
}

TEST(CoreCosimTest, TwoStagePipelineExecutesPrograms)
{
    // The 2-stage core (fetch | execute) must produce identical
    // results: the IR + valid-bit flush logic is exercised by the
    // taken branches of the loop.
    const IsaConfig isa;
    const Program p = assemble(R"(
        STORE [0], #0
        STORE [1], #7
        STORE [2], #6
        STORE [3], #1
        loop:
            ADD [0], [1]
            SUB [2], [3]
            BRN loop, Z
        halt: BRN halt, #0
    )", isa, "p2_loop");
    expectEquivalence(p, 4, CoreConfig::standard(2, 8, 2));
}

TEST(CoreCosimTest, TwoStageSetbarAndRotates)
{
    const IsaConfig isa;
    const Program p = assemble(R"(
        STORE [0], #4
        SETBAR [0], #1
        STORE [b1+0], #0x81
        RL [b1+1], [b1+0]
        RRC [b1+2], [b1+0]
        CMP [b1+1], [b1+2]
        BRN skip, Z
        STORE [3], #99
        skip:
        halt: BRN halt, #0
    )", isa, "p2_bars");
    expectEquivalence(p, 8, CoreConfig::standard(2, 8, 2));
}

TEST(CoreCosimTest, ThreeStagePipelineExecutesPrograms)
{
    // The 3-stage core (fetch | decode/address | execute) redirects
    // two fetches behind a taken branch; the loop exercises flush,
    // refetch, and the flag path across the extra stage.
    const IsaConfig isa;
    const Program p = assemble(R"(
        STORE [0], #0
        STORE [1], #7
        STORE [2], #6
        STORE [3], #1
        loop:
            ADD [0], [1]
            SUB [2], [3]
            BRN loop, Z
        halt: BRN halt, #0
    )", isa, "p3_loop");
    expectEquivalence(p, 4, CoreConfig::standard(3, 8, 2));
}

TEST(CoreCosimTest, ThreeStageMemoryRawHazardStalls)
{
    // Back-to-back read-after-write on the same word: the stage-3
    // write must be visible to the stage-2 operand read of the next
    // instruction (the interlock stalls fetch, holds the PC, and
    // replays the read).
    const IsaConfig isa;
    const Program p = assemble(R"(
        STORE [2], #7
        ADD [2], [2]
        ADD [2], [2]
        ADD [3], [2]
        SUB [3], [2]
        halt: BRN halt, #0
    )", isa, "p3_raw");
    expectEquivalence(p, 8, CoreConfig::standard(3, 8, 2));
}

TEST(CoreCosimTest, ThreeStageSetbarPointerChain)
{
    // SET-BAR reads its pointer word in stage 2 immediately after
    // the STORE that produced it retires from stage 3 (stall), and
    // the following instruction addresses through the just-written
    // BAR (no hazard: BARs commit a stage ahead of execute).
    const IsaConfig isa;
    const Program p = assemble(R"(
        STORE [4], #9
        SETBAR [4], #1
        STORE [b1+0], #3
        STORE [4], #12
        SETBAR [4], #1
        ADD [b1+0], [9]
        halt: BRN halt, #0
    )", isa, "p3_bars");
    expectEquivalence(p, 16, CoreConfig::standard(3, 8, 2));
}

TEST(CoreCosimTest, MeasuredActivityIsPlausible)
{
    const IsaConfig isa;
    const Program p = assemble(R"(
        STORE [0], #0
        STORE [1], #1
        STORE [2], #40
        loop:
            ADD [0], [1]
            SUB [2], [1]
            BRN loop, Z
        halt: BRN halt, #0
    )", isa, "activity");
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const Netlist nl = buildCore(cfg);
    CoreCosim cosim(nl, cfg, p, 4);
    cosim.run();
    // The paper's reported average activity is 0.88 toggles per
    // gate per cycle; ours should land in the same regime.
    EXPECT_GT(cosim.activityFactor(), 0.05);
    EXPECT_LT(cosim.activityFactor(), 2.0);
}

// ----------------------------------------------------------------
// 64-lane harness: loop retirement
// ----------------------------------------------------------------

TEST(BatchCoreCosimTest, RetiresLanesCaughtInALoop)
{
    // A single-cycle core's spin detector catches only a pinned PC,
    // so this fault-free two-instruction loop never halts. Every
    // lane is back in an earlier state after a few cycles, and run()
    // retires it as looped instead of running out the budget.
    const IsaConfig isa;
    const Program p = assemble(R"(
        STORE [0], #1
        loop:
            STORE [1], #2
            BRN loop, #0
    )", isa, "spin2");
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const Netlist nl = buildCore(cfg);
    BatchCoreCosim cs(nl, cfg, p, 4);
    const std::uint64_t cycles = cs.run(10000);
    EXPECT_LT(cycles, 40u);
    EXPECT_EQ(cs.loopedLanes(), BatchGateSimulator::allLanes);
    EXPECT_EQ(cs.haltedLanes(), 0u);
    EXPECT_EQ(cs.killedLanes(), 0u);
    EXPECT_EQ(cs.simulator().observedLanes(), 0u);
    EXPECT_EQ(cs.mem(63, 1), 2u);
}

TEST(BatchCoreCosimTest, CountingLoopIsNotRetiredEarly)
{
    // The loop bumps a data-RAM word. The STORE drives the result
    // bus with a constant, so after each STORE and BRN the
    // simulator's words repeat from one iteration to the next and
    // only the RAM tells the states apart. The whole state repeats
    // once the 8-bit counter wraps, every 256 iterations of three
    // cycles each, and not before.
    const IsaConfig isa;
    const Program p = assemble(R"(
        STORE [1], #1
        loop:
            ADD [3], [1]
            STORE [2], #0
            BRN loop, #0
    )", isa, "count");
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const Netlist nl = buildCore(cfg);
    constexpr std::uint64_t wrap = 3 * 256;

    BatchCoreCosim shortRun(nl, cfg, p, 4);
    EXPECT_EQ(shortRun.run(wrap - 8), wrap - 8);
    EXPECT_EQ(shortRun.loopedLanes(), 0u);
    EXPECT_EQ(shortRun.haltedLanes(), 0u);

    // Brent's detection catches a loop of tail mu and period lambda
    // by cycle 2 max(mu, lambda) + lambda.
    BatchCoreCosim longRun(nl, cfg, p, 4);
    const std::uint64_t cycles = longRun.run(10 * wrap);
    EXPECT_GT(cycles, wrap);
    EXPECT_LE(cycles, 3 * wrap);
    EXPECT_EQ(longRun.loopedLanes(), BatchGateSimulator::allLanes);
    EXPECT_EQ(longRun.haltedLanes(), 0u);
    EXPECT_EQ(longRun.killedLanes(), 0u);
}

} // anonymous namespace
} // namespace printed
