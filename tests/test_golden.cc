/**
 * @file
 * Golden-snapshot regression tests: the headline numbers of the
 * reproduced artifacts — Table 4 (legacy cores), Figure 7 (design
 * space), Table 7 (program-specific ISA analysis), and the
 * functional-yield Monte Carlo of bench_fault_yield — locked to
 * the values the seed + PR 2 toolchain produces. A diff here means
 * a change to synthesis, characterization, or the workload
 * programs shifted published results; update the snapshot only
 * deliberately, with the reason recorded in the commit. The wiring
 * fingerprints go beyond the counts: they pin which gates the
 * optimizer keeps in the Figure 7 and Table 8 program-specific
 * cores.
 *
 * Tolerances: counts and bit widths are exact integers. Analog
 * quantities (fmax, area, power) are deterministic doubles, but we
 * allow 1e-6 relative slack so benign compiler/libm differences
 * (FMA contraction, reassociation under a new -O level) do not
 * trip the snapshot; any real model change moves these values by
 * far more.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/fault.hh"
#include "core/generator.hh"
#include "dse/sweep.hh"
#include "legacy/cores.hh"
#include "progspec/analyze.hh"
#include "synth/harden.hh"
#include "workloads/kernels.hh"

namespace printed
{
namespace
{

/** Relative tolerance for analog golden values (see file header). */
constexpr double relTol = 1e-6;

void
expectRel(double expected, double actual, const std::string &what)
{
    EXPECT_NEAR(actual, expected, std::abs(expected) * relTol)
        << what;
}

// ----------------------------------------------------------------
// Figure 7: the 24-point design-space sweep
// ----------------------------------------------------------------

struct Fig7Golden
{
    unsigned stages, datawidth, bars;
    std::size_t gates, flops;
    double egfetFmaxHz, egfetAreaCm2, egfetPowerMw;
    double cntFmaxHz, cntAreaCm2, cntPowerMw;
};

const Fig7Golden fig7Golden[] = {
    {1u, 4u, 2u, 342u, 20u, 31.716832122807574, 1.9783599999999999, 10.403766259633986, 13607.66383627259, 0.024000000000000004, 77.288776268234272},
    {1u, 4u, 4u, 477u, 36u, 31.716832122807574, 2.88286, 15.43166142281709, 13607.66383627259, 0.035520000000000003, 108.44879153059003},
    {1u, 8u, 2u, 454u, 20u, 22.830007762202637, 2.4723999999999999, 10.765024811652435, 9347.4542208429557, 0.029000000000000005, 70.038825026873951},
    {1u, 8u, 4u, 597u, 36u, 22.830007762202637, 3.3985000000000003, 15.006521446509291, 9347.4542208429557, 0.040840000000000008, 92.979937447771121},
    {1u, 16u, 2u, 670u, 20u, 15.095023170860568, 3.4388800000000002, 12.364241598864854, 5566.2241518465953, 0.038679999999999999, 61.566994790014206},
    {1u, 16u, 4u, 813u, 36u, 15.095023170860568, 4.3649800000000001, 15.878081872386673, 5566.2241518465953, 0.050519999999999995, 75.505433711836588},
    {1u, 32u, 2u, 1102u, 20u, 9.1712828790491212, 5.3718399999999997, 16.270262592171392, 3155.0419147318371, 0.058039999999999994, 58.266157275684414},
    {1u, 32u, 4u, 1245u, 36u, 9.1712828790491212, 6.2979400000000005, 19.226836428335595, 3155.0419147318371, 0.069879999999999998, 66.463848866235693},
    {2u, 4u, 2u, 371u, 44u, 26.6922912662823, 2.6627199999999998, 13.149211701900491, 13036.110024768612, 0.034300000000000004, 89.3759365011081},
    {2u, 4u, 4u, 508u, 60u, 26.6922912662823, 3.5758799999999997, 17.755580653427291, 13036.110024768612, 0.045920000000000002, 119.68394318863253},
    {2u, 8u, 2u, 483u, 44u, 20.105756278022398, 3.1567599999999998, 13.275000144761444, 9074.1631353048469, 0.039300000000000009, 78.818527915755467},
    {2u, 8u, 4u, 628u, 60u, 20.105756278022398, 4.09152, 17.304086197398313, 9074.1631353048469, 0.051240000000000008, 101.40962489587397},
    {2u, 16u, 2u, 699u, 44u, 13.853869385719433, 4.12324, 14.584910637000915, 5468.1561924134812, 0.048980000000000003, 67.207158610978979},
    {2u, 16u, 4u, 844u, 60u, 13.853869385719433, 5.0579999999999998, 18.019433343492835, 5468.1561924134812, 0.060920000000000002, 81.096308583364788},
    {2u, 32u, 2u, 1131u, 44u, 8.6978455436588362, 6.0562000000000005, 18.2182835341086, 3123.2919497149996, 0.068339999999999998, 61.737708432888262},
    {2u, 32u, 4u, 1276u, 60u, 8.6978455436588362, 6.9909600000000012, 21.162461031042611, 3123.2919497149996, 0.080280000000000004, 69.968276848598421},
    {3u, 4u, 2u, 547u, 80u, 17.439224303302989, 4.2274799999999999, 16.584659495657633, 7408.1756626613142, 0.055840000000000015, 77.634229988295104},
    {3u, 4u, 4u, 684u, 96u, 15.828294659533382, 5.1406400000000012, 19.450970496058755, 6657.6123139197362, 0.067460000000000006, 85.875092420974141},
    {3u, 8u, 2u, 671u, 92u, 17.439224303302989, 5.0539200000000006, 19.85515870391685, 7408.1756626613142, 0.065880000000000008, 94.987953044019378},
    {3u, 8u, 4u, 816u, 108u, 15.828294659533382, 5.9886800000000004, 22.631310703092851, 6657.6123139197362, 0.077820000000000014, 102.47868877260261},
    {3u, 16u, 2u, 903u, 108u, 13.853869385719433, 6.4636000000000005, 23.001767266077415, 5468.1561924134812, 0.08228000000000002, 94.067327211185685},
    {3u, 16u, 4u, 1048u, 124u, 13.853869385719433, 7.3983600000000003, 26.436289972569341, 5468.1561924134812, 0.094220000000000012, 107.95647718357149},
    {3u, 32u, 2u, 1367u, 140u, 8.6978455436588362, 9.282960000000001, 28.130641960146477, 3123.2919497149996, 0.11508000000000003, 82.828769454204732},
    {3u, 32u, 4u, 1512u, 156u, 8.6978455436588362, 10.21772, 31.07481945708048, 3123.2919497149996, 0.12702000000000002, 91.059337869914884},
};

TEST(Golden, Figure7DesignSpace)
{
    const std::vector<DesignPoint> points = sweepDesignSpace();
    ASSERT_EQ(points.size(), std::size(fig7Golden));

    for (std::size_t i = 0; i < points.size(); ++i) {
        const DesignPoint &pt = points[i];
        const Fig7Golden &g = fig7Golden[i];
        const std::string label =
            "point " + std::to_string(i) + " (p" +
            std::to_string(g.stages) + " w" +
            std::to_string(g.datawidth) + " b" +
            std::to_string(g.bars) + ")";

        // The sweep order itself is part of the snapshot.
        EXPECT_EQ(pt.config.stages, g.stages) << label;
        EXPECT_EQ(pt.config.isa.datawidth, g.datawidth) << label;
        EXPECT_EQ(pt.config.isa.barCount, g.bars) << label;

        EXPECT_EQ(pt.egfet.gateCount(), g.gates) << label;
        EXPECT_EQ(pt.egfet.stats.seqGates, g.flops) << label;
        // Structure is tech-independent.
        EXPECT_EQ(pt.cnt.gateCount(), g.gates) << label;

        expectRel(g.egfetFmaxHz, pt.egfet.fmaxHz(), label);
        expectRel(g.egfetAreaCm2, pt.egfet.areaCm2(), label);
        expectRel(g.egfetPowerMw, pt.egfet.powerMw(), label);
        expectRel(g.cntFmaxHz, pt.cnt.fmaxHz(), label);
        expectRel(g.cntAreaCm2, pt.cnt.areaCm2(), label);
        expectRel(g.cntPowerMw, pt.cnt.powerMw(), label);
    }
}

// ----------------------------------------------------------------
// Wiring: which gates the optimizer keeps, not only how many
// ----------------------------------------------------------------

// wiringFnv (netlist/netlist.hh) fingerprints the gate columns: an
// optimizer change that keeps every count but keeps a different
// duplicate would silently move the fault-MC yields.

/** Figure 7 cores, in figure7Configs() order. */
const std::uint64_t fig7Wiring[] = {
    0x89a384aa641cc187ull, 0xb3bbfac2ac5a24f4ull, 0x7043f832336c51efull,
    0xa86b2df8da716f54ull, 0xa19d25cc87170ee3ull, 0x35c3d54fb855b514ull,
    0x75a3fdeb2b9ce72cull, 0x680d5b76ba93df5cull, 0x485d3f41a6f77d1cull,
    0x038adcc8ca8893b0ull, 0x2fc94850222e0b54ull, 0x39ecb9382f0e3f55ull,
    0x625f34bb0d041f84ull, 0x36e278ad3b6bdaa2ull, 0x54aad16f3c96f630ull,
    0x1b1c6d277c6aa6d5ull, 0x32f84bc3d7bbad32ull, 0x6183343972ce9fa8ull,
    0x7872ba07c0a490a8ull, 0x1f28941e7929a0eaull, 0xeb7a3ad2d8092b89ull,
    0x40c8921ab16727e2ull, 0x799706e24bd96efcull, 0xae1ed0c5568d4078ull,
};

TEST(Golden, Figure7Wiring)
{
    const std::vector<CoreConfig> configs = figure7Configs();
    ASSERT_EQ(configs.size(), std::size(fig7Wiring));
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(wiringFnv(buildCore(configs[i])), fig7Wiring[i])
            << configs[i].label();
    }
}

/** Table 8 program-specific cores, in paperKernelPoints() order. */
const std::uint64_t table8PsWiring[] = {
    0x686e281e92e3f07aull, 0x2d126e8f3fb3d5ffull, 0x729f4286a81686cfull,
    0xbeb21655992ebf89ull, 0xf9eaf8cc6d18d1a7ull, 0x32514d064f5c59c8ull,
    0x35dd1a6891f2819full, 0x7bd62173c5b84604ull, 0x1c43f35d8b65fc67ull,
    0x9aa750faca891d11ull, 0x57e5486409f5a0ddull, 0x55f68b6a6b125abdull,
    0xf8d894928a94fd45ull, 0x69d8b898958adcd6ull, 0xbc376166623052b4ull,
    0x270b5725e6013c2cull, 0x4fbb5c2eec7d4133ull, 0x9b30d802bf86158cull,
    0xe3e897a76ac332bbull,
};

TEST(Golden, Table8ProgramSpecificWiring)
{
    const std::vector<KernelPoint> points = paperKernelPoints();
    ASSERT_EQ(points.size(), std::size(table8PsWiring));
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Workload wl = makeWorkload(
            points[i].kind, points[i].dataWidth, points[i].dataWidth);
        const CoreConfig cfg =
            specializedConfig(wl.program, wl.dmemWords);
        EXPECT_EQ(wiringFnv(buildCore(cfg)), table8PsWiring[i])
            << wl.program.name;
    }
}

// ----------------------------------------------------------------
// Table 4: legacy-core statistical model
// ----------------------------------------------------------------

struct Table4Golden
{
    legacy::LegacyCore core;
    TechKind tech;
    unsigned calibratedDepth;
    double fmaxHz, areaCm2, powerMw;
};

const Table4Golden table4Golden[] = {
    {legacy::LegacyCore::OpenMsp430, TechKind::EGFET, 132u, 4.0700000000000003, 48.525290000000005, 124.54112014999998},
    {legacy::LegacyCore::OpenMsp430, TechKind::CNT_TFT, 16u, 15074, 0.53492999999999991, 1340.7641917611202},
    {legacy::LegacyCore::Z80, TechKind::EGFET, 68u, 7.1799999999999997, 25.327539999999996, 76.262398218399994},
    {legacy::LegacyCore::Z80, TechKind::CNT_TFT, 9u, 26064, 0.28294999999999998, 1211.1938667328},
    {legacy::LegacyCore::Light8080, TechKind::EGFET, 24u, 17.390000000000001, 10.45574, 41.788797354240003},
    {legacy::LegacyCore::Light8080, TechKind::CNT_TFT, 4u, 57238, 0.16127000000000002, 1513.6674193505598},
    {legacy::LegacyCore::ZpuSmall, TechKind::EGFET, 15u, 25.449999999999999, 14.710799999999999, 65.782056820799994},
    {legacy::LegacyCore::ZpuSmall, TechKind::CNT_TFT, 5u, 43442, 0.21001, 1598.3160889609601},
};

TEST(Golden, Table4LegacyCores)
{
    for (const Table4Golden &g : table4Golden) {
        const legacy::LegacyModelResult r =
            legacy::modelLegacyCore(g.core, g.tech);
        const std::string label =
            legacy::legacyCoreSpec(g.core).name + " / " +
            techName(g.tech);

        EXPECT_EQ(r.calibratedDepth, g.calibratedDepth) << label;
        expectRel(g.fmaxHz, r.fmaxHz, label);
        expectRel(g.areaCm2, r.area.totalCm2(), label);
        expectRel(g.powerMw, r.powerAtFmax.total_mW, label);
    }
}

// ----------------------------------------------------------------
// Table 7: program-specific ISA static analysis (exact integers)
// ----------------------------------------------------------------

struct Table7Golden
{
    Kernel kernel;
    unsigned pcBits, barBits, writableBars;
    unsigned flagMask, flagCount;
    unsigned op1Bits, op2Bits, instructionBits;
};

const Table7Golden table7Golden[] = {
    {Kernel::Crc8, 4u, 3u, 0u, 6u, 2u, 4u, 5u, 17u},
    {Kernel::Div, 4u, 3u, 0u, 6u, 2u, 4u, 4u, 16u},
    {Kernel::DTree, 8u, 3u, 0u, 2u, 1u, 8u, 8u, 24u},
    {Kernel::InSort, 5u, 5u, 1u, 6u, 2u, 6u, 6u, 20u},
    {Kernel::IntAvg, 5u, 5u, 0u, 2u, 1u, 5u, 5u, 18u},
    {Kernel::Mult, 4u, 3u, 0u, 6u, 2u, 4u, 4u, 16u},
    {Kernel::THold, 4u, 5u, 1u, 6u, 2u, 6u, 6u, 20u},
};

TEST(Golden, Table7ProgramAnalysis)
{
    for (const Table7Golden &g : table7Golden) {
        const Workload wl = makeWorkload(g.kernel, 8, 8);
        const ProgSpecAnalysis a =
            analyzeProgram(wl.program, wl.dmemWords);
        const std::string label = kernelName(g.kernel);

        EXPECT_EQ(a.pcBits, g.pcBits) << label;
        EXPECT_EQ(a.barBits, g.barBits) << label;
        EXPECT_EQ(a.writableBars, g.writableBars) << label;
        EXPECT_EQ(a.flagMask, g.flagMask) << label;
        EXPECT_EQ(a.flagCount, g.flagCount) << label;
        EXPECT_EQ(a.op1Bits, g.op1Bits) << label;
        EXPECT_EQ(a.op2Bits, g.op2Bits) << label;
        EXPECT_EQ(a.instructionBits(), g.instructionBits) << label;
    }
}

// ----------------------------------------------------------------
// Functional yield: bench_fault_yield's six designs (exact counts)
// ----------------------------------------------------------------

struct FaultYieldGolden
{
    double deviceYield;
    unsigned design; ///< index into the design list of the test
    unsigned fatal, masked, benign, defectFree;
};

/** 128 trials, seed 1, batch engine (equal to the scalar engine). */
const FaultYieldGolden faultYieldGolden[] = {
    {0.9999, 0u, 6u, 2u, 2u, 118u},
    {0.9999, 1u, 8u, 9u, 1u, 110u},
    {0.9999, 2u, 1u, 25u, 8u, 94u},
    {0.9999, 3u, 5u, 3u, 6u, 114u},
    {0.9999, 4u, 55u, 12u, 9u, 52u},
    {0.9999, 5u, 98u, 12u, 6u, 12u},
    {0.999, 0u, 66u, 8u, 10u, 44u},
    {0.999, 1u, 50u, 40u, 10u, 28u},
    {0.999, 2u, 25u, 89u, 8u, 6u},
    {0.999, 3u, 57u, 14u, 17u, 40u},
    {0.999, 4u, 128u, 0u, 0u, 0u},
    {0.999, 5u, 128u, 0u, 0u, 0u},
};

TEST(Golden, FunctionalYieldReports)
{
    // The engine-equivalence tests draw the oracle's defect maps
    // with the same code as the batch engine, so only pinned reports
    // can see a change in the draws themselves.
    struct Design
    {
        const char *name;
        const Netlist &netlist;
        CoreConfig config;
        std::vector<Kernel> kernels;
        unsigned replicas;
    };
    const CoreConfig p1 = CoreConfig::standard(1, 8, 2);
    const CoreConfig p2 = CoreConfig::standard(2, 8, 2);
    const Netlist p1nl = buildCore(p1);
    const Netlist p1seq =
        synth::harden(p1nl, synth::HardenStrategy::TmrSequential);
    const Netlist p1full =
        synth::harden(p1nl, synth::HardenStrategy::TmrFull);
    const Netlist p2nl = buildCore(p2);
    const std::vector<Kernel> both = {Kernel::Mult, Kernel::THold};
    // Z80- and openMSP430-class device counts as p1_8_2 arrays.
    const Design designs[] = {
        {"p1_8_2", p1nl, p1, both, 1},
        {"p1_8_2 +TMR-seq", p1seq, p1, both, 1},
        {"p1_8_2 +TMR-full", p1full, p1, both, 1},
        {"p2_8_2", p2nl, p2, {Kernel::Mult}, 1},
        {"Z80-class array", p1nl, p1, both, 11},
        {"openMSP430-class array", p1nl, p1, both, 26},
    };

    for (const FaultYieldGolden &g : faultYieldGolden) {
        const Design &d = designs[g.design];
        FunctionalYieldConfig mc;
        mc.fault.deviceYield = g.deviceYield;
        mc.fault.seed = 1;
        mc.trials = 128;
        mc.replicas = d.replicas;
        mc.kernels = d.kernels;
        const FunctionalYieldReport r =
            measureFunctionalYield(d.netlist, d.config, mc);
        const std::string label =
            std::string(d.name) + " @ " + std::to_string(g.deviceYield);
        EXPECT_EQ(r.fatalTrials, g.fatal) << label;
        EXPECT_EQ(r.maskedTrials, g.masked) << label;
        EXPECT_EQ(r.benignTrials, g.benign) << label;
        EXPECT_EQ(r.defectFreeTrials, g.defectFree) << label;
    }
}

} // anonymous namespace
} // namespace printed
