/**
 * @file
 * Tests for the TP-ISA functional simulator and pipeline cycle
 * model: per-instruction semantics, flags, BAR addressing, halting,
 * data coalescing (multi-word arithmetic via ADC/RRC), and hazard
 * statistics.
 */

#include <gtest/gtest.h>

#include "arch/machine.hh"
#include "arch/pipeline.hh"
#include "common/logging.hh"
#include "isa/assembler.hh"

namespace printed
{
namespace
{

Program
prog(const std::string &src, unsigned width = 8, unsigned bars = 2)
{
    IsaConfig cfg;
    cfg.datawidth = width;
    cfg.barCount = bars;
    return assemble(src, cfg, "test");
}

TEST(Machine, StoreAndAdd)
{
    const Program p = prog(R"(
        STORE [0], #7
        STORE [1], #35
        ADD [0], [1]
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 4);
    m.run();
    EXPECT_EQ(m.mem(0), 42u);
    EXPECT_EQ(m.stats().halt, HaltReason::SelfBranch);
    EXPECT_EQ(m.stats().instructions, 4u);
}

TEST(Machine, SubAndFlags)
{
    const Program p = prog(R"(
        STORE [0], #5
        STORE [1], #5
        SUB [0], [1]
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 2);
    m.run();
    EXPECT_EQ(m.mem(0), 0u);
    EXPECT_TRUE(m.flags().z);
    EXPECT_FALSE(m.flags().s);
    EXPECT_TRUE(m.flags().c); // no borrow -> carry set
}

TEST(Machine, SubBorrowClearsCarry)
{
    const Program p = prog(R"(
        STORE [0], #3
        STORE [1], #5
        SUB [0], [1]
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 2);
    m.run();
    EXPECT_EQ(m.mem(0), 254u); // 3 - 5 mod 256
    EXPECT_FALSE(m.flags().c); // borrow
    EXPECT_TRUE(m.flags().s);
}

TEST(Machine, CmpDoesNotWrite)
{
    const Program p = prog(R"(
        STORE [0], #9
        STORE [1], #9
        CMP [0], [1]
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 2);
    m.run();
    EXPECT_EQ(m.mem(0), 9u);
    EXPECT_TRUE(m.flags().z);
}

TEST(Machine, AddCarryAndOverflow)
{
    const Program p = prog(R"(
        STORE [0], #200
        STORE [1], #100
        ADD [0], [1]
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 2);
    m.run();
    EXPECT_EQ(m.mem(0), 44u); // 300 mod 256
    EXPECT_TRUE(m.flags().c);
    EXPECT_FALSE(m.flags().v); // unsigned wrap, no signed overflow

    const Program p2 = prog(R"(
        STORE [0], #100
        STORE [1], #100
        ADD [0], [1]
        halt: BRN halt, #0
    )");
    TpIsaMachine m2(p2, 2);
    m2.run();
    EXPECT_EQ(m2.mem(0), 200u);
    EXPECT_FALSE(m2.flags().c);
    EXPECT_TRUE(m2.flags().v); // 100+100 overflows signed 8-bit
    EXPECT_TRUE(m2.flags().s);
}

TEST(Machine, DataCoalescing16BitAddOn8BitCore)
{
    // The paper's coalescing scheme: ADD low words, ADC high words.
    // 0x01F0 + 0x0220 = 0x0410 split across two 8-bit words.
    const Program p = prog(R"(
        STORE [0], #0xF0   ; a.lo
        STORE [1], #0x01   ; a.hi
        STORE [2], #0x20   ; b.lo
        STORE [3], #0x02   ; b.hi
        ADD [0], [2]
        ADC [1], [3]
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 4);
    m.run();
    EXPECT_EQ(m.mem(0), 0x10u);
    EXPECT_EQ(m.mem(1), 0x04u);
}

TEST(Machine, LogicOpsClearCarry)
{
    const Program p = prog(R"(
        STORE [0], #0xF0
        STORE [1], #0x0F
        ADD [0], [1]       ; sets C=0 but result 0xFF sets S
        STORE [0], #0xFF
        STORE [1], #0xFF
        ADD [0], [1]       ; C=1
        AND [0], [1]       ; C cleared
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 2);
    m.run();
    EXPECT_FALSE(m.flags().c);
    EXPECT_EQ(m.mem(0), 0xFEu & 0xFFu);
}

TEST(Machine, UnaryOpsReadOp2WriteOp1)
{
    // NOT acts as move+invert: mem[0] = ~mem[1].
    const Program p = prog(R"(
        STORE [1], #0x0F
        NOT [0], [1]
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 2);
    m.run();
    EXPECT_EQ(m.mem(0), 0xF0u);
    EXPECT_EQ(m.mem(1), 0x0Fu);
}

TEST(Machine, RotatesAndCarryChain)
{
    const Program p = prog(R"(
        STORE [0], #0x81
        RL [0], [0]        ; 0x03, C=1
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 1);
    m.run();
    EXPECT_EQ(m.mem(0), 0x03u);
    EXPECT_TRUE(m.flags().c);

    // RRC through carry: multi-word right shift.
    const Program p2 = prog(R"(
        STORE [0], #0x01   ; hi
        STORE [1], #0x00   ; lo
        RR [0], [0]        ; hi >>= 1 (rotate), C = old bit0 = 1
        RRC [1], [1]       ; lo = C:lo>>1 = 0x80
        halt: BRN halt, #0
    )");
    TpIsaMachine m2(p2, 2);
    m2.run();
    EXPECT_EQ(m2.mem(1), 0x80u);
}

TEST(Machine, RraKeepsSign)
{
    const Program p = prog(R"(
        STORE [0], #0x82
        RRA [0], [0]
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 1);
    m.run();
    EXPECT_EQ(m.mem(0), 0xC1u);
}

TEST(Machine, BarAddressing)
{
    // SET-BAR loads the BAR from a pointer held in data memory.
    const Program p = prog(R"(
        STORE [0], #16     ; pointer value
        SETBAR [0], #1     ; BAR1 = mem[0] = 16
        STORE [b1+2], #99
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 32);
    m.run();
    EXPECT_EQ(m.bar(1), 16u);
    EXPECT_EQ(m.mem(18), 99u);
}

TEST(Machine, DynamicIndexingViaSetbar)
{
    // Walk an array by incrementing the pointer word: the idiom
    // that lets TP-ISA kernels loop over arrays (Section 5.1).
    const Program p = prog(R"(
        STORE [0], #4      ; ptr = &arr[0]
        STORE [1], #1      ; one
        STORE [2], #3      ; count
        STORE [4], #10
        STORE [5], #20
        STORE [6], #30
        STORE [3], #0      ; sum
        loop:
            SETBAR [0], #1
            ADD [3], [b1+0] ; sum += *ptr
            ADD [0], [1]    ; ptr++
            SUB [2], [1]
            BRN loop, Z
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 8);
    m.run();
    EXPECT_EQ(m.mem(3), 60u);
}

TEST(Machine, BranchLoop)
{
    // Count down from 5: loop body runs 5 times.
    const Program p = prog(R"(
        STORE [0], #5
        STORE [1], #1
        STORE [2], #0
        loop:
            ADD [2], [1]   ; counter++
            SUB [0], [1]
            BRN loop, Z    ; while not zero
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 3);
    m.run();
    EXPECT_EQ(m.mem(2), 5u);
    EXPECT_EQ(m.stats().branches, 6u); // 5 loop + 1 halt
    EXPECT_EQ(m.stats().takenBranches, 5u); // 4 back + 1 halt
}

TEST(Machine, FellOffEndHalts)
{
    const Program p = prog("STORE [0], #1\nSTORE [1], #2");
    TpIsaMachine m(p, 2);
    m.run();
    EXPECT_EQ(m.stats().halt, HaltReason::FellOffEnd);
    EXPECT_EQ(m.stats().instructions, 2u);
}

TEST(Machine, MaxStepsGuard)
{
    const Program p = prog(R"(
        loop: STORE [0], #1
        BRN loop, #0
    )");
    TpIsaMachine m(p, 1);
    m.run(100);
    EXPECT_EQ(m.stats().halt, HaltReason::MaxSteps);
}

TEST(Machine, FourBitDatawidthMasks)
{
    const Program p = prog(R"(
        STORE [0], #15
        STORE [1], #1
        ADD [0], [1]
        halt: BRN halt, #0
    )", 4);
    TpIsaMachine m(p, 2);
    m.run();
    EXPECT_EQ(m.mem(0), 0u);
    EXPECT_TRUE(m.flags().c);
    EXPECT_TRUE(m.flags().z);
}

TEST(Machine, RawAdjacentTracked)
{
    const Program p = prog(R"(
        STORE [0], #1
        ADD [1], [0]   ; reads [0] written by previous -> RAW
        ADD [2], [3]   ; independent
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 4);
    m.run();
    EXPECT_EQ(m.stats().rawAdjacent, 1u);
}

TEST(Machine, MemoryBoundsEnforced)
{
    const Program p = prog(R"(
        STORE [10], #1
        halt: BRN halt, #0
    )");
    TpIsaMachine m(p, 4); // only 4 words
    EXPECT_THROW(m.run(), FatalError);

    const Program read = prog(R"(
        ADD [0], [10]
        halt: BRN halt, #0
    )");
    TpIsaMachine r(read, 4);
    try {
        r.run();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "TP-ISA read of address 10 beyond the "
                               "4-word data memory (program 'test')");
    }
}

// ----------------------------------------------------------------
// Pipeline cycle model
// ----------------------------------------------------------------

TEST(Pipeline, SingleStageCpiIsOne)
{
    ExecutionStats s;
    s.instructions = 100;
    s.branches = 10;
    s.takenBranches = 7;
    s.rawAdjacent = 5;
    EXPECT_EQ(pipelineCycles(s, 1), 100u);
    EXPECT_DOUBLE_EQ(pipelineCpi(s, 1), 1.0);
}

TEST(Pipeline, TwoStageChargesBranches)
{
    ExecutionStats s;
    s.instructions = 100;
    s.branches = 10;
    s.rawAdjacent = 5;
    EXPECT_EQ(pipelineCycles(s, 2), 110u);
}

TEST(Pipeline, ThreeStageChargesBranchesAndRaw)
{
    ExecutionStats s;
    s.instructions = 100;
    s.branches = 10;
    s.rawAdjacent = 5;
    EXPECT_EQ(pipelineCycles(s, 3), 100u + 20u + 5u);
}

TEST(Pipeline, WorstCaseCpiEqualsStages)
{
    // Paper, Section 5.2: worst-case CPI equals the stage count.
    // A program of only branches with every pair RAW-adjacent:
    ExecutionStats s;
    s.instructions = 50;
    s.branches = 50;
    s.rawAdjacent = 0;
    EXPECT_LE(pipelineCpi(s, 2), worstCaseCpi(2));
    EXPECT_LE(pipelineCpi(s, 3), worstCaseCpi(3));
    EXPECT_EQ(worstCaseCpi(3), 3u);
}

} // anonymous namespace
} // namespace printed
