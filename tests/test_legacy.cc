/**
 * @file
 * Tests for the legacy-core study: the Table 4 registry and
 * statistical model, the portable IR (validated against golden),
 * and the three real backends + instruction-set simulators
 * (8080/Z80, MSP430, ZPU), each executing every kernel and
 * matching the golden models.
 */

#include <gtest/gtest.h>

#include "legacy/cores.hh"
#include "legacy/i8080.hh"
#include "legacy/ir.hh"
#include "legacy/msp430.hh"
#include "legacy/zpu.hh"
#include "workloads/kernels.hh"

namespace printed
{
namespace
{

using namespace legacy;

// ----------------------------------------------------------------
// Table 4 registry + statistical model
// ----------------------------------------------------------------

TEST(LegacySpec, Table4Rows)
{
    const auto &msp = legacyCoreSpec(LegacyCore::OpenMsp430);
    EXPECT_EQ(msp.egfet.gateCount, 12101u);
    EXPECT_DOUBLE_EQ(msp.egfet.fmaxHz, 4.07);
    EXPECT_DOUBLE_EQ(msp.egfet.areaCm2, 56.38);
    EXPECT_DOUBLE_EQ(msp.cnt.powerMw, 1335.8);

    const auto &l80 = legacyCoreSpec(LegacyCore::Light8080);
    EXPECT_DOUBLE_EQ(l80.egfet.fmaxHz, 17.39);
    EXPECT_EQ(l80.egfet.gateCount, 1948u);
    EXPECT_EQ(l80.cpiMax, 30u);
}

TEST(LegacySpec, ModelReproducesPublishedAreaWithin25Percent)
{
    for (LegacyCore core : allLegacyCores) {
        for (TechKind tech : {TechKind::EGFET, TechKind::CNT_TFT}) {
            const auto &published =
                legacyCoreSpec(core).tech(tech);
            const auto model = modelLegacyCore(core, tech);
            EXPECT_NEAR(model.area.totalCm2(), published.areaCm2,
                        published.areaCm2 * 0.25)
                << legacyCoreSpec(core).name << " "
                << techName(tech);
        }
    }
}

TEST(LegacySpec, ModelReproducesPublishedPowerWithin35Percent)
{
    for (LegacyCore core : allLegacyCores) {
        for (TechKind tech : {TechKind::EGFET, TechKind::CNT_TFT}) {
            const auto &published =
                legacyCoreSpec(core).tech(tech);
            const auto model = modelLegacyCore(core, tech);
            EXPECT_NEAR(model.powerAtFmax.total_mW,
                        published.powerMw, published.powerMw * 0.35)
                << legacyCoreSpec(core).name << " "
                << techName(tech);
        }
    }
}

TEST(LegacySpec, HistogramSumsToGateCount)
{
    const auto model =
        modelLegacyCore(LegacyCore::Z80, TechKind::EGFET);
    std::size_t total = 0;
    for (auto n : model.histogram)
        total += n;
    EXPECT_EQ(total, 5263u);
    EXPECT_GT(model.calibratedDepth, 1u);
}

// ----------------------------------------------------------------
// IR interpreter vs golden
// ----------------------------------------------------------------

struct IrCase
{
    Kernel kind;
    unsigned width;
};

class IrGolden : public ::testing::TestWithParam<IrCase>
{};

TEST_P(IrGolden, InterpreterMatchesGolden)
{
    const auto [kind, width] = GetParam();
    const IrProgram prog = irKernel(kind, width);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto inputs = defaultInputs(kind, width, seed);
        const auto want = goldenOutputs(kind, width, inputs);

        std::vector<std::uint64_t> init(prog.dataWords, 0);
        ASSERT_EQ(inputs.size(), prog.inputAddrs.size());
        for (std::size_t i = 0; i < inputs.size(); ++i)
            init[prog.inputAddrs[i]] = inputs[i];
        const auto mem = interpretIr(prog, init);

        ASSERT_EQ(want.size(), prog.outputAddrs.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(mem[prog.outputAddrs[i]], want[i])
                << prog.name << " seed " << seed;
    }
}

std::string
irName(const ::testing::TestParamInfo<IrCase> &info)
{
    return std::string(kernelName(info.param.kind)) +
           std::to_string(info.param.width);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, IrGolden,
    ::testing::Values(IrCase{Kernel::Mult, 8}, IrCase{Kernel::Mult, 16},
                      IrCase{Kernel::Mult, 32}, IrCase{Kernel::Div, 8},
                      IrCase{Kernel::Div, 16}, IrCase{Kernel::Div, 32},
                      IrCase{Kernel::InSort, 8},
                      IrCase{Kernel::InSort, 16},
                      IrCase{Kernel::InSort, 32},
                      IrCase{Kernel::IntAvg, 8},
                      IrCase{Kernel::IntAvg, 16},
                      IrCase{Kernel::IntAvg, 32},
                      IrCase{Kernel::THold, 8},
                      IrCase{Kernel::THold, 16},
                      IrCase{Kernel::THold, 32},
                      IrCase{Kernel::Crc8, 8},
                      IrCase{Kernel::DTree, 8},
                      IrCase{Kernel::DTree, 16},
                      IrCase{Kernel::DTree, 32}),
    irName);

// ----------------------------------------------------------------
// Backends: each kernel on each target vs golden
// ----------------------------------------------------------------

class BackendGolden : public ::testing::TestWithParam<IrCase>
{};

TEST_P(BackendGolden, I8080MatchesGolden)
{
    const auto [kind, width] = GetParam();
    const IrProgram prog = irKernel(kind, width);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto inputs = defaultInputs(kind, width, seed);
        const auto want = goldenOutputs(kind, width, inputs);
        const LegacyRun run = run8080(prog, inputs);
        ASSERT_EQ(run.outputs.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(run.outputs[i], want[i])
                << prog.name << " seed " << seed;
        EXPECT_GT(run.cycles, run.instructions); // multi-state ops
    }
}

TEST_P(BackendGolden, Msp430MatchesGolden)
{
    const auto [kind, width] = GetParam();
    const IrProgram prog = irKernel(kind, width);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto inputs = defaultInputs(kind, width, seed);
        const auto want = goldenOutputs(kind, width, inputs);
        const LegacyRun run = runMsp430(prog, inputs);
        ASSERT_EQ(run.outputs.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(run.outputs[i], want[i])
                << prog.name << " seed " << seed;
    }
}

TEST_P(BackendGolden, ZpuMatchesGolden)
{
    const auto [kind, width] = GetParam();
    const IrProgram prog = irKernel(kind, width);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto inputs = defaultInputs(kind, width, seed);
        const auto want = goldenOutputs(kind, width, inputs);
        const LegacyRun run = runZpu(prog, inputs);
        ASSERT_EQ(run.outputs.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(run.outputs[i], want[i])
                << prog.name << " seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, BackendGolden,
    ::testing::Values(IrCase{Kernel::Mult, 8}, IrCase{Kernel::Mult, 16},
                      IrCase{Kernel::Mult, 32}, IrCase{Kernel::Div, 8},
                      IrCase{Kernel::Div, 16},
                      IrCase{Kernel::InSort, 8},
                      IrCase{Kernel::InSort, 16},
                      IrCase{Kernel::IntAvg, 8},
                      IrCase{Kernel::IntAvg, 32},
                      IrCase{Kernel::THold, 8},
                      IrCase{Kernel::THold, 16},
                      IrCase{Kernel::Crc8, 8},
                      IrCase{Kernel::DTree, 8},
                      IrCase{Kernel::DTree, 16}),
    irName);

// ----------------------------------------------------------------
// Timing / size expectations
// ----------------------------------------------------------------

TEST(LegacyBackends, Z80TimingDiffersFrom8080)
{
    const IrProgram prog = irKernel(Kernel::Mult, 8);
    const auto inputs = defaultInputs(Kernel::Mult, 8, 1);
    const auto i80 = run8080(prog, inputs, I8080Timing::I8080);
    const auto z80 = run8080(prog, inputs, I8080Timing::Z80);
    EXPECT_EQ(i80.outputs, z80.outputs);
    EXPECT_EQ(i80.instructions, z80.instructions);
    EXPECT_NE(i80.cycles, z80.cycles);
}

TEST(LegacyBackends, ZpuCodeIsLargestForDTree)
{
    // Table 5 shape: stack code (many pushes per operation) is the
    // bulkiest representation for branch-heavy kernels.
    const IrProgram prog = irKernel(Kernel::DTree, 8);
    const auto z = sizeZpu(prog);
    const auto m = sizeMsp430(prog);
    EXPECT_GT(z.codeBytes, 0u);
    EXPECT_GT(m.codeBytes, 0u);
}

TEST(LegacyBackends, ZpuChargesEmulationPenalty)
{
    const IrProgram prog = irKernel(Kernel::Mult, 8);
    const auto inputs = defaultInputs(Kernel::Mult, 8, 1);
    const auto run = runZpu(prog, inputs);
    // CPI must exceed the base 4 because of EMULATE-class ops.
    EXPECT_GT(double(run.cycles) / double(run.instructions),
              double(zpuBaseCpi));
}

TEST(LegacyBackends, CodeSizesInTable5Regime)
{
    // Table 5 program sizes (reverse-engineered from the area
    // column at 0.84 mm^2/bit): MSP430 mult is ~512 bits = 64
    // bytes; ZPU mult ~976 bits = 122 bytes; Z80/light8080 mult
    // ~262 bits = 33 bytes. Our naive backends should land within
    // a small factor of those.
    const IrProgram prog = irKernel(Kernel::Mult, 8);
    const auto msp = sizeMsp430(prog);
    const auto i80 = size8080(prog);
    const auto zpu = sizeZpu(prog);
    EXPECT_GT(msp.codeBytes, 30u);
    EXPECT_LT(msp.codeBytes, 260u);
    EXPECT_GT(i80.codeBytes, 30u);
    EXPECT_LT(i80.codeBytes, 300u);
    EXPECT_GT(zpu.codeBytes, 40u);
    EXPECT_LT(zpu.codeBytes, 400u);
}

// ----------------------------------------------------------------
// 8080/Z80 cycle accounting and run-loop budget semantics
// ----------------------------------------------------------------

// A hand-assembled image that exercises every branch-outcome cost:
// XRA A sets Z (and clears CY), so CNZ falls through, CZ takes,
// RNZ falls through, and RZ returns.
//
//   0: LXI SP, 0        10 / 10   (pushes land in the FFxx page)
//   3: XRA A             4 /  4   Z=1 CY=0
//   4: CNZ 0            11 / 10   not taken
//   7: CZ  11           17 / 17   taken
//  10: HLT               7 /  4
//  11: RNZ               5 /  5   not taken
//  12: RZ               11 / 11   taken -> 10
const std::vector<std::uint8_t> condCallRetImage = {
    0x31, 0x00, 0x00, // LXI SP
    0xAF,             // XRA A
    0xC4, 0x00, 0x00, // CNZ (not taken)
    0xCC, 0x0B, 0x00, // CZ 11 (taken)
    0x76,             // HLT
    0xC0,             // RNZ (not taken)
    0xC8,             // RZ (taken)
};

TEST(LegacyBackends, ConditionalCallRetCyclesAreTakenAware)
{
    const auto i80 = run8080Image(condCallRetImage, {{}},
                                  I8080Timing::I8080);
    ASSERT_EQ(i80.size(), 1u);
    EXPECT_EQ(i80[0].status, MachineStatus::Halted);
    EXPECT_EQ(i80[0].instructions, 7u);
    EXPECT_EQ(i80[0].cycles, 10 + 4 + 11 + 17 + 5 + 11 + 7u);

    const auto z80 = run8080Image(condCallRetImage, {{}},
                                  I8080Timing::Z80);
    EXPECT_EQ(z80[0].status, MachineStatus::Halted);
    EXPECT_EQ(z80[0].cycles, 10 + 4 + 10 + 17 + 5 + 11 + 4u);
}

TEST(LegacyBackends, HaltWinsAtExactStepBudget)
{
    // The image halts on its 7th instruction. A budget of exactly
    // 7 is Halted - the budget is only exhausted when the machine
    // would have to fetch beyond it - and 6 is OutOfBudget with
    // all 6 paid-for instructions retired.
    const auto at = run8080Image(condCallRetImage, {{}},
                                 I8080Timing::I8080, 7);
    EXPECT_EQ(at[0].status, MachineStatus::Halted);
    EXPECT_EQ(at[0].instructions, 7u);

    const auto under = run8080Image(condCallRetImage, {{}},
                                    I8080Timing::I8080, 6);
    EXPECT_EQ(under[0].status, MachineStatus::OutOfBudget);
    EXPECT_EQ(under[0].instructions, 6u);
}

} // anonymous namespace
} // namespace printed
