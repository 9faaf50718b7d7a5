/**
 * @file
 * Fleet ISS determinism battery: a machine's result depends only on
 * its program, inputs and step budget — never on the thread count,
 * the fleet size or its chunk — on every legacy core, including
 * mid-fleet halts, budgets that expire inside a fused IR operation
 * (a ZPU IM chain among them), and input-dependent kills. The absolute counts these runs produce
 * (recorded from the scalar reference interpreter while it agreed
 * with the predecoded engine) are pinned by Golden.LegacyIssCounts
 * in test_golden.cc. Plus pinned regressions for the SLAU049 MSP430
 * flag fixes.
 */

#include <gtest/gtest.h>

#include "common/metrics.hh"
#include "common/parallel.hh"
#include "legacy/batch_iss.hh"
#include "legacy/cores.hh"
#include "legacy/i8080.hh"
#include "legacy/ir.hh"
#include "legacy/msp430.hh"
#include "workloads/kernels.hh"

namespace printed
{
namespace
{

using namespace legacy;

/**
 * Run a fleet on `pool`. A test builds one pool per tested size and
 * passes it to every run.
 */
IssBatchResult
runFleet(ThreadPool &pool, LegacyCore core, const IrProgram &prog,
         const std::vector<std::vector<std::uint64_t>> &inputs,
         std::uint64_t max_steps = 50'000'000)
{
    IssBatchOptions opts;
    opts.pool = &pool;
    opts.maxSteps = max_steps;
    return runLegacyBatch(core, prog, inputs, opts);
}

void
expectIdentical(const IssBatchResult &a, const IssBatchResult &b)
{
    EXPECT_EQ(a.codeBytes, b.codeBytes);
    EXPECT_EQ(a.dataBytes, b.dataBytes);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    ASSERT_EQ(a.status.size(), b.status.size());
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t m = 0; m < a.runs.size(); ++m) {
        EXPECT_EQ(a.status[m], b.status[m]) << "machine " << m;
        EXPECT_EQ(a.runs[m].instructions, b.runs[m].instructions)
            << "machine " << m;
        EXPECT_EQ(a.runs[m].cycles, b.runs[m].cycles)
            << "machine " << m;
        EXPECT_EQ(a.runs[m].outputs, b.runs[m].outputs)
            << "machine " << m;
    }
    EXPECT_EQ(issResultFnv(a), issResultFnv(b));
}

std::vector<std::vector<std::uint64_t>>
fleetInputs(Kernel kind, unsigned width, std::size_t machines)
{
    std::vector<std::vector<std::uint64_t>> inputs(machines);
    for (std::size_t m = 0; m < machines; ++m)
        inputs[m] = defaultInputs(kind, width, 1 + unsigned(m));
    return inputs;
}

// ----------------------------------------------------------------
// Every core x machine count x thread count
// ----------------------------------------------------------------

TEST(IssBatch, BatchMatchesScalarForAllCoresCountsAndThreads)
{
    // The 64-machine totals are the mult/8 rows of
    // Golden.LegacyIssCounts; here every machine must also match the
    // golden model, whatever the fleet size and thread count.
    const IrProgram prog = irKernel(Kernel::Mult, 8);
    ThreadPool one(1), four(4), sixteen(16);
    for (const LegacyCore core : allLegacyCores) {
        const auto big = fleetInputs(Kernel::Mult, 8, 1000);
        const auto ref = runFleet(one, core, prog, big);
        for (std::size_t m = 0; m < big.size(); ++m) {
            ASSERT_EQ(ref.status[m], MachineStatus::Halted)
                << issCoreId(core) << " machine " << m;
            EXPECT_EQ(ref.runs[m].outputs,
                      goldenOutputs(Kernel::Mult, 8, big[m]))
                << issCoreId(core) << " machine " << m;
        }
        for (const std::size_t machines : {1u, 64u, 1000u}) {
            const auto inputs = fleetInputs(Kernel::Mult, 8, machines);
            const auto serial = runFleet(one, core, prog, inputs);
            for (std::size_t m = 0; m < machines; ++m)
                EXPECT_EQ(serial.runs[m].cycles, ref.runs[m].cycles)
                    << issCoreId(core) << " machine " << m;
            for (ThreadPool *pool : {&four, &sixteen})
                expectIdentical(serial,
                                runFleet(*pool, core, prog, inputs));
        }
    }
}

TEST(IssBatch, FleetCountsTheSameJobOnEveryPool)
{
    // The determinism rule for parallel.jobs/items: a multi-chunk
    // fleet is one pool job of one item per chunk, with no pool (a
    // one-thread pool local to the call), a 1-thread pool and a
    // 4-thread pool alike.
    const IrProgram prog = irKernel(Kernel::Mult, 8);
    const auto inputs =
        fleetInputs(Kernel::Mult, 8, 4 * issChunkMachines);
    metrics::Counter &jobs = metrics::counter("parallel.jobs");
    metrics::Counter &items = metrics::counter("parallel.items");
    ThreadPool one(1), four(4);
    for (ThreadPool *pool : {static_cast<ThreadPool *>(nullptr), &one,
                             &four}) {
        SCOPED_TRACE(pool ? std::to_string(pool->threadCount()) +
                                "-thread pool"
                          : std::string("no pool"));
        IssBatchOptions opts;
        opts.pool = pool;
        const std::uint64_t jobs0 = jobs.value();
        const std::uint64_t items0 = items.value();
        const IssBatchResult r =
            runLegacyBatch(LegacyCore::ZpuSmall, prog, inputs, opts);
        EXPECT_EQ(jobs.value() - jobs0, 1u);
        EXPECT_EQ(items.value() - items0, 4u);
        EXPECT_EQ(issResultFnv(r), 0x3eea328f78c7bed5ull);
    }
}

// ----------------------------------------------------------------
// Mid-fleet halts: some machines halt, others exhaust the budget
// ----------------------------------------------------------------

TEST(IssBatch, MidBatchHaltAndBudgetMixAgrees)
{
    // Golden.LegacyIssCounts pins the full runs (the div/8 rows).
    const IrProgram prog = irKernel(Kernel::Div, 8);
    const auto inputs = fleetInputs(Kernel::Div, 8, 200);
    ThreadPool one(1), four(4), sixteen(16);
    for (const LegacyCore core : allLegacyCores) {
        // Full run first, to find a budget that splits the fleet.
        const auto full = runFleet(one, core, prog, inputs);
        std::uint64_t lo = UINT64_MAX, hi = 0;
        for (const LegacyRun &r : full.runs) {
            lo = std::min(lo, r.instructions);
            hi = std::max(hi, r.instructions);
        }
        ASSERT_LT(lo, hi) << issCoreId(core);
        const std::uint64_t budget = (lo + hi) / 2;
        const auto cut = runFleet(one, core, prog, inputs, budget);
        unsigned halted = 0, out = 0;
        for (std::size_t m = 0; m < inputs.size(); ++m) {
            if (cut.status[m] == MachineStatus::Halted) {
                ++halted;
                EXPECT_EQ(cut.runs[m].instructions,
                          full.runs[m].instructions);
                EXPECT_EQ(cut.runs[m].cycles, full.runs[m].cycles);
                EXPECT_EQ(cut.runs[m].outputs, full.runs[m].outputs);
            } else {
                ++out;
                EXPECT_EQ(cut.status[m], MachineStatus::OutOfBudget);
                EXPECT_EQ(cut.runs[m].instructions, budget);
                EXPECT_GT(full.runs[m].instructions, budget);
            }
        }
        EXPECT_GT(halted, 0u) << issCoreId(core);
        EXPECT_GT(out, 0u) << issCoreId(core);
        for (ThreadPool *pool : {&four, &sixteen})
            expectIdentical(cut,
                            runFleet(*pool, core, prog, inputs, budget));
    }
}

// ----------------------------------------------------------------
// Budget sweep across fused IR operations and ZPU IM chains
// ----------------------------------------------------------------

TEST(IssBatch, TightBudgetSweepAgreesInstructionByInstruction)
{
    // Budgets 1..60 cross every instruction boundary of the early
    // program, including budgets that expire in the middle of an IR
    // operation's template or a ZPU IM immediate chain (a fused
    // record retires its template only when the whole range fits
    // the remaining budget). A budget of b retires exactly
    // min(b, full) instructions; Golden.LegacyIssCounts pins these
    // runs' counts and outputs for the first four machines.
    const IrProgram prog = irKernel(Kernel::Mult, 8);
    const auto inputs = fleetInputs(Kernel::Mult, 8, 130);
    ThreadPool one(1), four(4), sixteen(16);
    for (const LegacyCore core : allLegacyCores) {
        const auto full = runFleet(one, core, prog, inputs);
        std::vector<std::uint64_t> lastCycles(inputs.size(), 0);
        for (std::uint64_t budget = 1; budget <= 60; ++budget) {
            const auto cut = runFleet(one, core, prog, inputs, budget);
            for (std::size_t m = 0; m < inputs.size(); ++m) {
                const std::uint64_t want =
                    std::min(budget, full.runs[m].instructions);
                EXPECT_EQ(cut.runs[m].instructions, want)
                    << issCoreId(core) << " budget " << budget;
                EXPECT_EQ(cut.status[m],
                          want < full.runs[m].instructions
                              ? MachineStatus::OutOfBudget
                              : MachineStatus::Halted);
                EXPECT_GE(cut.runs[m].cycles, lastCycles[m]);
                lastCycles[m] = cut.runs[m].cycles;
            }
            for (ThreadPool *pool : {&four, &sixteen})
                expectIdentical(
                    cut, runFleet(*pool, core, prog, inputs, budget));
        }
    }
}

// ----------------------------------------------------------------
// Fused records: every width-8 IR operation but the halt
// ----------------------------------------------------------------

TEST(IssBatch, FullWidth8RunsStepOnlyTheirHalt)
{
    // Width 8 fuses every template but the halt's, so a full run
    // steps one instruction per machine. The same machine cut one
    // instruction short steps none, so its instruction count is the
    // full run's fused instruction count; with the full run's
    // stepped instructions it makes up the full run's
    // iss.instructions.
    const auto count = [](const char *name) {
        return metrics::counter(name).value();
    };
    ThreadPool one(1);
    for (const LegacyCore core : allLegacyCores)
        for (unsigned k = 0; k < numKernels; ++k) {
            const Kernel kernel = Kernel(k);
            const IrProgram prog = irKernel(kernel, 8);
            const auto inputs = fleetInputs(kernel, 8, 70);
            const std::string label = std::string(issCoreId(core)) +
                                      "/" + kernelName(kernel);

            const std::uint64_t fused0 = count("iss.fused_ops"),
                                stepped0 =
                                    count("iss.stepped_instructions"),
                                insns0 = count("iss.instructions");
            const auto full = runFleet(one, core, prog, inputs);
            const std::uint64_t fused = count("iss.fused_ops") - fused0,
                                stepped =
                                    count("iss.stepped_instructions") -
                                    stepped0,
                                insns = count("iss.instructions") - insns0;
            EXPECT_GT(fused, 0u) << label;
            EXPECT_EQ(insns, full.totalInstructions) << label;

            std::uint64_t fusedInsns = 0, fusedOps = 0, steppedSum = 0;
            for (std::size_t m = 0; m < inputs.size(); ++m) {
                const LegacyRun &run = full.runs[m];
                ASSERT_EQ(full.status[m], MachineStatus::Halted) << label;
                EXPECT_LE(run.steppedInstructions, 1u) << label;
                const auto cut =
                    runFleet(one, core, prog, {inputs[m]},
                             run.instructions - 1);
                EXPECT_EQ(cut.status[0], MachineStatus::OutOfBudget)
                    << label;
                EXPECT_EQ(cut.runs[0].steppedInstructions, 0u) << label;
                EXPECT_EQ(cut.runs[0].fusedOps, run.fusedOps) << label;
                fusedInsns += cut.runs[0].instructions;
                fusedOps += run.fusedOps;
                steppedSum += run.steppedInstructions;
            }
            EXPECT_EQ(fusedOps, fused) << label;
            EXPECT_EQ(steppedSum, stepped) << label;
            EXPECT_EQ(fusedInsns + stepped, insns) << label;
        }
}

// ----------------------------------------------------------------
// Input-dependent kill masks
// ----------------------------------------------------------------

TEST(IssBatch, InputDependentKillMaskAgrees)
{
    // A raw 8080 image whose store target page comes from machine
    // data: page 0x90 halts, page 0x20 traps on the MOV M,A.
    //
    //   0: LDA 9000h   A = data[0]      13
    //   3: MOV H,A                       5
    //   4: MVI L, 0                      7
    //   6: MOV M,A     writes (HL)       7 - kills when H is not
    //                                        writable
    //   7: HLT                           7
    const std::vector<std::uint8_t> image = {
        0x3A, 0x00, 0x90, // LDA 0x9000
        0x67,             // MOV H,A
        0x2E, 0x00,       // MVI L,0
        0x77,             // MOV M,A
        0x76,             // HLT
    };
    std::vector<std::vector<std::uint8_t>> pages;
    for (std::size_t m = 0; m < 70; ++m)
        pages.push_back({std::uint8_t(m % 3 ? 0x90 : 0x20)});

    const auto runs = run8080Image(image, pages, I8080Timing::I8080);
    ASSERT_EQ(runs.size(), pages.size());
    for (std::size_t m = 0; m < pages.size(); ++m) {
        const bool writable = m % 3 != 0;
        EXPECT_EQ(runs[m].status, writable ? MachineStatus::Halted
                                           : MachineStatus::Killed)
            << "machine " << m;
        // The killing MOV M,A is charged but not counted.
        EXPECT_EQ(runs[m].instructions, writable ? 5u : 3u);
        EXPECT_EQ(runs[m].cycles, writable ? 39u : 32u);
    }
}

// ----------------------------------------------------------------
// MSP430 status-register regressions (SLAU049)
// ----------------------------------------------------------------

TEST(IssBatch, Msp430XorSetsOverflowWhenBothOperandsNegative)
{
    // SLAU049: XOR sets V when both operands are negative. With
    // R4 = R5 = 0x8000 the result is zero: Z set, C clear (C is
    // "result != 0" for XOR), N clear, V set.
    constexpr std::uint16_t flagC = 1 << 0, flagZ = 1 << 1,
                            flagN = 1 << 2, flagV = 1 << 8;
    Msp430RawState init;
    init.code = {0xD405, 0xFFFF}; // XOR R4, R5; HALT
    init.regs[4] = 0x8000;
    init.regs[5] = 0x8000;
    const auto run = runMsp430Raw(init);
    EXPECT_EQ(run.status, MachineStatus::Halted);
    EXPECT_EQ(run.regs[5], 0x0000);
    EXPECT_TRUE(run.regs[2] & flagV);
    EXPECT_TRUE(run.regs[2] & flagZ);
    EXPECT_FALSE(run.regs[2] & flagC);
    EXPECT_FALSE(run.regs[2] & flagN);
}

TEST(IssBatch, Msp430ByteModeRrcRotatesLowByteOnly)
{
    // SLAU049: RRC.B rotates only the low byte. R5 = 0x01FF with C
    // clear must give 0x7F (bit 8 must NOT leak into bit 7) and
    // carry out the old bit 0.
    constexpr std::uint16_t flagC = 1 << 0;
    Msp430RawState init;
    init.code = {0x1045, 0xFFFF}; // RRC.B R5; HALT
    init.regs[5] = 0x01FF;
    const auto run = runMsp430Raw(init);
    EXPECT_EQ(run.status, MachineStatus::Halted);
    EXPECT_EQ(run.regs[5], 0x007F);
    EXPECT_TRUE(run.regs[2] & flagC);
}

TEST(IssBatch, Msp430RrcAlwaysClearsOverflow)
{
    // SLAU049: RRC resets V unconditionally.
    constexpr std::uint16_t flagV = 1 << 8;
    Msp430RawState init;
    init.code = {0x1005, 0xFFFF}; // RRC R5; HALT
    init.regs[2] = flagV;
    init.regs[5] = 0x0002;
    const auto run = runMsp430Raw(init);
    EXPECT_EQ(run.status, MachineStatus::Halted);
    EXPECT_EQ(run.regs[5], 0x0001);
    EXPECT_FALSE(run.regs[2] & flagV);
}

} // anonymous namespace
} // namespace printed
