/**
 * @file
 * Golden-snapshot regression tests: the headline numbers of the
 * reproduced artifacts — Table 4 (legacy cores), Figure 7 (design
 * space), Table 7 (program-specific ISA analysis), the
 * functional-yield Monte Carlo of bench_fault_yield, and the legacy
 * ISS's dynamic counts (Section 8, Table 7's dynamic leg) — locked to
 * the values the seed + PR 2 toolchain produces. A diff here means
 * a change to synthesis, characterization, or the workload
 * programs shifted published results; update the snapshot only
 * deliberately, with the reason recorded in the commit. The wiring
 * fingerprints go beyond the counts: they pin which gates the
 * optimizer keeps in the Figure 7 and Table 8 program-specific
 * cores, and on random netlists that need more fixpoint iterations
 * than any core.
 *
 * Tolerances: counts and bit widths are exact integers. Analog
 * quantities (fmax, area, power) are deterministic doubles, but we
 * allow 1e-6 relative slack so benign compiler/libm differences
 * (FMA contraction, reassociation under a new -O level) do not
 * trip the snapshot; any real model change moves these values by
 * far more.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "analysis/fault.hh"
#include "common/bits.hh"
#include "common/rng.hh"
#include "core/generator.hh"
#include "dse/sweep.hh"
#include "legacy/batch_iss.hh"
#include "legacy/cores.hh"
#include "legacy/ir.hh"
#include "legacy/msp430.hh"
#include "progspec/analyze.hh"
#include "synth/harden.hh"
#include "synth/opt.hh"
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
        Netlist nl = buildCore(configs[i]);
        EXPECT_EQ(wiringFnv(nl), fig7Wiring[i]) << configs[i].label();

        // An optimized core is a fixpoint: optimizing it again takes
        // one iteration, changes nothing and keeps every gate id.
        const synth::OptStats again = synth::optimize(nl);
        EXPECT_EQ(again.iterations, 1u) << configs[i].label();
        EXPECT_EQ(again.constFolded + again.invPairs + again.shared +
                      again.deadRemoved + again.netsRemoved,
                  0u)
            << configs[i].label();
        EXPECT_EQ(again.gatesAfter, again.gatesBefore);
        EXPECT_EQ(wiringFnv(nl), fig7Wiring[i]) << configs[i].label();
    }
}

/**
 * One FNV-1a over the wiring and OptStats of 2,000 seeded random
 * netlists: 4 inputs, both constants, 30 gates, 3 flops closed
 * through feedback placeholders, and 2 outputs. Unlike the cores,
 * some of these need a third fixpoint iteration, the path the
 * optimizer's skip of a confirming share and sweep must not cut
 * short.
 */
TEST(Golden, OptimizerRandomNetlists)
{
    static const CellKind kinds[] = {
        CellKind::INVX1, CellKind::NAND2X1, CellKind::NOR2X1,
        CellKind::AND2X1, CellKind::OR2X1, CellKind::XOR2X1,
        CellKind::XNOR2X1};
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    Rng rng(7);
    unsigned third_iteration = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        Netlist nl("random");
        std::vector<NetId> pool;
        for (int i = 0; i < 4; ++i)
            pool.push_back(nl.addInput("i" + std::to_string(i)));
        pool.push_back(nl.constZero());
        pool.push_back(nl.constOne());
        const std::size_t first_q = pool.size();
        for (int f = 0; f < 3; ++f)
            pool.push_back(nl.makeFeedback());
        for (int g = 0; g < 30; ++g) {
            const CellKind kind = kinds[rng.below(7)];
            const NetId a = pool[rng.below(pool.size())];
            pool.push_back(cellInputCount(kind) == 1
                               ? nl.addGate(kind, a)
                               : nl.addGate(kind, a,
                                            pool[rng.below(pool.size())]));
        }
        for (std::size_t f = first_q; f < first_q + 3; ++f) {
            const NetId q = nl.addFlop(pool[rng.below(pool.size())]);
            nl.resolveFeedback(pool[f], q);
            pool[f] = q;
        }
        nl.addOutput("o0", pool.back());
        nl.addOutput("o1", pool[rng.below(pool.size())]);

        const synth::OptStats stats = synth::optimize(nl);
        third_iteration += stats.iterations >= 3;
        mix(wiringFnv(nl));
        for (std::size_t v :
             {stats.gatesBefore, stats.gatesAfter, stats.constFolded,
              stats.invPairs, stats.shared, stats.deadRemoved,
              stats.netsRemoved, std::size_t(stats.iterations)})
            mix(v);
    }
    EXPECT_GT(third_iteration, 0u);
    EXPECT_EQ(h, 0x3cf5cff40df7e50cull);
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

// ----------------------------------------------------------------
// Legacy ISS: dynamic counts on every core (exact integers)
// ----------------------------------------------------------------

/** FNV-1a (64-bit) over the little-endian bytes of each value. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    mix(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/** One "iss" sweep point: 64 machines, machine m on seed 1 + m. */
struct IssPointGolden
{
    legacy::LegacyCore core;
    Kernel kernel;
    unsigned width;
    std::uint64_t instructions, cycles;
    std::size_t codeBytes, halted;
    std::uint64_t outputsFnv;
};

const IssPointGolden issPointGolden[] = {
   {legacy::LegacyCore::OpenMsp430, Kernel::Mult, 8u, 6912u, 10700u, 74u, 64u, 0x8dbf84dee000f2cdull},
   {legacy::LegacyCore::OpenMsp430, Kernel::Div, 8u, 8809u, 14627u, 104u, 64u, 0xed5dbb8194dfe616ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::InSort, 8u, 62848u, 116544u, 80u, 64u, 0xd58e4381730cd641ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::IntAvg, 8u, 8128u, 14976u, 62u, 64u, 0x42d3810586631f25ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::THold, 8u, 9856u, 19168u, 64u, 64u, 0x9bdf82d2f80833e1ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::Crc8, 8u, 89664u, 137696u, 84u, 64u, 0xae1fb6a8c17320a1ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::DTree, 8u, 2171u, 5124u, 1050u, 64u, 0x964c1651d465dcf4ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::Mult, 16u, 13248u, 19656u, 80u, 64u, 0x4d9a5ca12c2fac06ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::Div, 16u, 16752u, 26712u, 112u, 64u, 0x5729e2718f948202ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::InSort, 16u, 73654u, 127634u, 88u, 64u, 0x34dee8cf22fe07d7ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::IntAvg, 16u, 9216u, 16064u, 66u, 64u, 0xbebced773283be5eull},
   {legacy::LegacyCore::OpenMsp430, Kernel::THold, 16u, 11008u, 20294u, 70u, 64u, 0xe2b523267c8fe814ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::DTree, 16u, 2499u, 5638u, 1058u, 64u, 0x4d00c402fd05a785ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::Mult, 32u, 45758u, 210026u, 236u, 64u, 0x729392c6da7d2c18ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::Div, 32u, 56810u, 282094u, 350u, 64u, 0xcbde930694356663ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::InSort, 32u, 126996u, 567066u, 242u, 64u, 0x59085238a881da23ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::IntAvg, 32u, 16064u, 77952u, 186u, 64u, 0xc1d9c2be693776fcull},
   {legacy::LegacyCore::OpenMsp430, Kernel::THold, 32u, 18300u, 83284u, 198u, 64u, 0xe604c7e8a328d2e1ull},
   {legacy::LegacyCore::OpenMsp430, Kernel::DTree, 32u, 3968u, 17536u, 2546u, 64u, 0xf8e39fd780641b25ull},
   {legacy::LegacyCore::Z80, Kernel::Mult, 8u, 13870u, 106552u, 82u, 64u, 0x8dbf84dee000f2cdull},
   {legacy::LegacyCore::Z80, Kernel::Div, 8u, 17543u, 148685u, 134u, 64u, 0xed5dbb8194dfe616ull},
   {legacy::LegacyCore::Z80, Kernel::InSort, 8u, 125120u, 833888u, 82u, 64u, 0xd58e4381730cd641ull},
   {legacy::LegacyCore::Z80, Kernel::IntAvg, 8u, 16064u, 87680u, 54u, 64u, 0x42d3810586631f25ull},
   {legacy::LegacyCore::Z80, Kernel::THold, 8u, 18304u, 117328u, 59u, 64u, 0x9bdf82d2f80833e1ull},
   {legacy::LegacyCore::Z80, Kernel::Crc8, 8u, 189504u, 1373520u, 97u, 64u, 0xae1fb6a8c17320a1ull},
   {legacy::LegacyCore::Z80, Kernel::DTree, 8u, 3388u, 25207u, 813u, 64u, 0x964c1651d465dcf4ull},
   {legacy::LegacyCore::Z80, Kernel::Mult, 16u, 49120u, 509032u, 230u, 64u, 0x4d9a5ca12c2fac06ull},
   {legacy::LegacyCore::Z80, Kernel::Div, 16u, 63520u, 658728u, 346u, 64u, 0x5729e2718f948202ull},
   {legacy::LegacyCore::Z80, Kernel::InSort, 16u, 242004u, 2400096u, 221u, 64u, 0x34dee8cf22fe07d7ull},
   {legacy::LegacyCore::Z80, Kernel::IntAvg, 16u, 36480u, 357760u, 200u, 64u, 0xbebced773283be5eull},
   {legacy::LegacyCore::Z80, Kernel::THold, 16u, 38312u, 373310u, 183u, 64u, 0xe2b523267c8fe814ull},
   {legacy::LegacyCore::Z80, Kernel::DTree, 16u, 7243u, 67950u, 2118u, 64u, 0x4d00c402fd05a785ull},
   {legacy::LegacyCore::Z80, Kernel::Mult, 32u, 188448u, 1952040u, 439u, 64u, 0x729392c6da7d2c18ull},
   {legacy::LegacyCore::Z80, Kernel::Div, 32u, 241312u, 2491912u, 664u, 64u, 0xcbde930694356663ull},
   {legacy::LegacyCore::Z80, Kernel::InSort, 32u, 455119u, 4503454u, 407u, 64u, 0x59085238a881da23ull},
   {legacy::LegacyCore::Z80, Kernel::IntAvg, 32u, 69440u, 684416u, 382u, 64u, 0xc1d9c2be693776fcull},
   {legacy::LegacyCore::Z80, Kernel::THold, 32u, 72704u, 710480u, 344u, 64u, 0xe604c7e8a328d2e1ull},
   {legacy::LegacyCore::Z80, Kernel::DTree, 32u, 13504u, 126976u, 3912u, 64u, 0xf8e39fd780641b25ull},
   {legacy::LegacyCore::Light8080, Kernel::Mult, 8u, 13870u, 110188u, 82u, 64u, 0x8dbf84dee000f2cdull},
   {legacy::LegacyCore::Light8080, Kernel::Div, 8u, 17543u, 151967u, 134u, 64u, 0xed5dbb8194dfe616ull},
   {legacy::LegacyCore::Light8080, Kernel::InSort, 8u, 125120u, 886944u, 82u, 64u, 0xd58e4381730cd641ull},
   {legacy::LegacyCore::Light8080, Kernel::IntAvg, 8u, 16064u, 95680u, 54u, 64u, 0x42d3810586631f25ull},
   {legacy::LegacyCore::Light8080, Kernel::THold, 8u, 18304u, 124848u, 59u, 64u, 0x9bdf82d2f80833e1ull},
   {legacy::LegacyCore::Light8080, Kernel::Crc8, 8u, 189504u, 1438384u, 97u, 64u, 0xae1fb6a8c17320a1ull},
   {legacy::LegacyCore::Light8080, Kernel::DTree, 8u, 3388u, 26182u, 813u, 64u, 0x964c1651d465dcf4ull},
   {legacy::LegacyCore::Light8080, Kernel::Mult, 16u, 49120u, 509224u, 230u, 64u, 0x4d9a5ca12c2fac06ull},
   {legacy::LegacyCore::Light8080, Kernel::Div, 16u, 63520u, 658920u, 346u, 64u, 0x5729e2718f948202ull},
   {legacy::LegacyCore::Light8080, Kernel::InSort, 16u, 242004u, 2400288u, 221u, 64u, 0x34dee8cf22fe07d7ull},
   {legacy::LegacyCore::Light8080, Kernel::IntAvg, 16u, 36480u, 357952u, 200u, 64u, 0xbebced773283be5eull},
   {legacy::LegacyCore::Light8080, Kernel::THold, 16u, 38312u, 373502u, 183u, 64u, 0xe2b523267c8fe814ull},
   {legacy::LegacyCore::Light8080, Kernel::DTree, 16u, 7243u, 68142u, 2118u, 64u, 0x4d00c402fd05a785ull},
   {legacy::LegacyCore::Light8080, Kernel::Mult, 32u, 188448u, 1951848u, 439u, 64u, 0x729392c6da7d2c18ull},
   {legacy::LegacyCore::Light8080, Kernel::Div, 32u, 241312u, 2491592u, 664u, 64u, 0xcbde930694356663ull},
   {legacy::LegacyCore::Light8080, Kernel::InSort, 32u, 455119u, 4482608u, 407u, 64u, 0x59085238a881da23ull},
   {legacy::LegacyCore::Light8080, Kernel::IntAvg, 32u, 69440u, 682432u, 382u, 64u, 0xc1d9c2be693776fcull},
   {legacy::LegacyCore::Light8080, Kernel::THold, 32u, 72704u, 708368u, 344u, 64u, 0xe604c7e8a328d2e1ull},
   {legacy::LegacyCore::Light8080, Kernel::DTree, 32u, 13504u, 126656u, 3912u, 64u, 0xf8e39fd780641b25ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::Mult, 8u, 32004u, 209936u, 121u, 64u, 0x8dbf84dee000f2cdull},
   {legacy::LegacyCore::ZpuSmall, Kernel::Div, 8u, 44303u, 276828u, 181u, 64u, 0xed5dbb8194dfe616ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::InSort, 8u, 339296u, 2356608u, 131u, 64u, 0xd58e4381730cd641ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::IntAvg, 8u, 45632u, 256256u, 98u, 64u, 0x42d3810586631f25ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::THold, 8u, 50784u, 366976u, 101u, 64u, 0x9bdf82d2f80833e1ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::Crc8, 8u, 434928u, 3018176u, 135u, 64u, 0xae1fb6a8c17320a1ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::DTree, 8u, 9260u, 58480u, 1195u, 64u, 0x964c1651d465dcf4ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::Mult, 16u, 62388u, 413392u, 124u, 64u, 0x4d9a5ca12c2fac06ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::Div, 16u, 86564u, 544400u, 187u, 64u, 0x5729e2718f948202ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::InSort, 16u, 346840u, 2392544u, 133u, 64u, 0x34dee8cf22fe07d7ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::IntAvg, 16u, 47680u, 264448u, 100u, 64u, 0xbebced773283be5eull},
   {legacy::LegacyCore::ZpuSmall, Kernel::THold, 16u, 52415u, 373500u, 103u, 64u, 0xe2b523267c8fe814ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::DTree, 16u, 9102u, 56952u, 1195u, 64u, 0x4d00c402fd05a785ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::Mult, 32u, 101170u, 732360u, 112u, 64u, 0x729392c6da7d2c18ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::Div, 32u, 134186u, 931112u, 169u, 64u, 0xcbde930694356663ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::InSort, 32u, 326200u, 2315808u, 125u, 64u, 0x59085238a881da23ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::IntAvg, 32u, 39488u, 231680u, 92u, 64u, 0xc1d9c2be693776fcull},
   {legacy::LegacyCore::ZpuSmall, Kernel::THold, 32u, 46628u, 350352u, 95u, 64u, 0xe604c7e8a328d2e1ull},
   {legacy::LegacyCore::ZpuSmall, Kernel::DTree, 32u, 9088u, 56832u, 1195u, 64u, 0xf8e39fd780641b25ull},
};

/** Per core: every run of the 8-bit multiply at budgets 1..60. */
struct IssBudgetGolden
{
    legacy::LegacyCore core;
    std::uint64_t fnv;
};

const IssBudgetGolden issBudgetGolden[] = {
   {legacy::LegacyCore::OpenMsp430, 0xf2a58d2d869e7fdbull},
   {legacy::LegacyCore::Z80, 0xd79a8e025edb1028ull},
   {legacy::LegacyCore::Light8080, 0xb6a0dbae89a86ec2ull},
   {legacy::LegacyCore::ZpuSmall, 0x55230599a18feab5ull},
};

/** The 400 seeded raw MSP430 machines' end states. */
constexpr std::uint64_t msp430FuzzGolden = 0xba78921af99721edull;

TEST(Golden, LegacyIssCounts)
{
    // Every (kernel, width) pair an "iss" request accepts: seven
    // kernels at width 8, six (no crc8) at widths 16 and 32.
    ASSERT_EQ(std::size(issPointGolden), 4u * (7 + 6 + 6));
    for (const IssPointGolden &g : issPointGolden) {
        IssSweepSpec spec;
        spec.width = g.width;
        spec.machines = 64;
        spec.seed = 1;
        const IssSweepPoint p = evaluateIssPoint(g.core, g.kernel, spec);
        const std::string label = std::string(legacy::issCoreId(g.core)) +
                                  "/" + kernelName(g.kernel) +
                                  std::to_string(g.width);
        EXPECT_EQ(p.instructions, g.instructions) << label;
        EXPECT_EQ(p.cycles, g.cycles) << label;
        EXPECT_EQ(p.codeBytes, g.codeBytes) << label;
        EXPECT_EQ(p.halted, g.halted) << label;
        EXPECT_EQ(p.outputsFnv, g.outputsFnv) << label;
    }

    // Budgets that stop a machine at every early instruction
    // boundary, including inside a ZPU IM chain.
    const legacy::IrProgram mult = legacy::irKernel(Kernel::Mult, 8);
    std::vector<std::vector<std::uint64_t>> inputs;
    for (unsigned m = 0; m < 4; ++m)
        inputs.push_back(defaultInputs(Kernel::Mult, 8, 1 + m));
    ASSERT_EQ(std::size(issBudgetGolden), 4u);
    for (const IssBudgetGolden &g : issBudgetGolden) {
        Fnv fnv;
        for (std::uint64_t budget = 1; budget <= 60; ++budget) {
            legacy::IssBatchOptions opts;
            opts.maxSteps = budget;
            const legacy::IssBatchResult res =
                legacy::runLegacyBatch(g.core, mult, inputs, opts);
            for (std::size_t m = 0; m < res.runs.size(); ++m) {
                fnv.mix(std::uint64_t(res.status[m]));
                fnv.mix(res.runs[m].instructions);
                fnv.mix(res.runs[m].cycles);
                for (std::uint64_t v : res.runs[m].outputs)
                    fnv.mix(v);
            }
        }
        EXPECT_EQ(fnv.h, g.fnv) << legacy::issCoreId(g.core);
    }

    // Raw MSP430 machines from random encodings: every trap path,
    // flag and partial write shows up in the end states.
    std::mt19937 rng(0xC0FFEE);
    const auto word = [&] { return std::uint16_t(rng()); };
    Fnv fuzz;
    for (unsigned iter = 0; iter < 400; ++iter) {
        legacy::Msp430RawState init;
        const unsigned words = 2 + rng() % 6;
        for (unsigned i = 0; i < words; ++i) {
            switch (rng() % 3) {
              case 0: // any encoding at all
                init.code.push_back(word());
                break;
              case 1: { // format I with random modes and registers
                const unsigned op = 4 + rng() % 12;
                init.code.push_back(
                    std::uint16_t((op << 12) | (word() & 0x0fff)));
                break;
              }
              default: // jump with a small random offset
                init.code.push_back(
                    std::uint16_t(0x2000 | (word() & 0x1fff)));
                break;
            }
        }
        init.code.push_back(0xFFFF); // HALT backstop
        for (unsigned r = 1; r < 16; ++r)
            init.regs[r] = word();
        init.ram.resize(64);
        for (auto &b : init.ram)
            b = std::uint8_t(rng());

        const legacy::Msp430RawRun run =
            legacy::runMsp430Raw(init, 200);
        fuzz.mix(std::uint64_t(run.status));
        fuzz.mix(run.instructions);
        fuzz.mix(run.cycles);
        for (std::uint16_t r : run.regs)
            fuzz.mix(r);
        for (std::uint8_t b : run.ram)
            fuzz.mix(b);
    }
    EXPECT_EQ(fuzz.h, msp430FuzzGolden);
}

/** Every early budget of one machine per kernel: one FNV per row. */
struct IssEveryBudgetGolden
{
    legacy::LegacyCore core;
    unsigned width;
    std::uint64_t fnv;
};

const IssEveryBudgetGolden issEveryBudgetGolden[] = {
   {legacy::LegacyCore::OpenMsp430, 8u, 0x77313205162ef125ull},
   {legacy::LegacyCore::Z80, 8u, 0x52a1edad88c58387ull},
   {legacy::LegacyCore::Light8080, 8u, 0x7ca2984f21ed1a99ull},
   {legacy::LegacyCore::ZpuSmall, 8u, 0xba6c5f5f24cc845cull},
   {legacy::LegacyCore::ZpuSmall, 16u, 0x2d54857bea0c68faull},
   {legacy::LegacyCore::ZpuSmall, 32u, 0x8deeb726d369b569ull},
};

TEST(Golden, LegacyIssEveryBudget)
{
    // One machine per kernel (seed 1), cut at every budget from 1
    // through its full run, capped at 1,000 instructions. The cuts
    // land inside every fused IR operation the early program runs,
    // on both outcomes of each branch, so a fused record that
    // retired a path the budget does not cover, or left a state
    // single-stepping would not, changes a count or an output.
    // Width 8 is the fused width of every core; the ZPU also fuses
    // its wider programs.
    for (const IssEveryBudgetGolden &g : issEveryBudgetGolden) {
        Fnv fnv;
        for (unsigned k = 0; k < numKernels; ++k) {
            const Kernel kernel = Kernel(k);
            if (kernel == Kernel::Crc8 && g.width != 8)
                continue; // crc8 is an 8-bit kernel
            const legacy::IrProgram prog = legacy::irKernel(kernel, g.width);
            const std::vector<std::vector<std::uint64_t>> inputs = {
                defaultInputs(kernel, g.width, 1)};
            const std::uint64_t full =
                legacy::runLegacyBatch(g.core, prog, inputs, {})
                    .runs[0]
                    .instructions;
            for (std::uint64_t budget = 1;
                 budget <= std::min<std::uint64_t>(full, 1000); ++budget) {
                legacy::IssBatchOptions opts;
                opts.maxSteps = budget;
                const legacy::IssBatchResult res =
                    legacy::runLegacyBatch(g.core, prog, inputs, opts);
                fnv.mix(std::uint64_t(res.status[0]));
                fnv.mix(res.runs[0].instructions);
                fnv.mix(res.runs[0].cycles);
                for (std::uint64_t v : res.runs[0].outputs)
                    fnv.mix(v);
            }
        }
        EXPECT_EQ(fnv.h, g.fnv)
            << legacy::issCoreId(g.core) << "/" << g.width;
    }
}

/**
 * A kill inside an IR operation: one status per core, and the
 * counts with the load first and with the store first.
 */
struct IssKillGolden
{
    legacy::LegacyCore core;
    legacy::MachineStatus status;
    std::uint64_t instructions[2], cycles[2];
};

constexpr auto issHalted = legacy::MachineStatus::Halted;
constexpr auto issKilled = legacy::MachineStatus::Killed;

const IssKillGolden issKillGolden[] = {
   {legacy::LegacyCore::OpenMsp430, issKilled, {7u, 4u}, {14u, 8u}},
   {legacy::LegacyCore::Z80, issHalted, {27u, 27u}, {232u, 232u}},
   {legacy::LegacyCore::Light8080, issHalted, {27u, 27u}, {235u, 235u}},
   {legacy::LegacyCore::ZpuSmall, issKilled, {19u, 21u}, {76u, 84u}},
};

TEST(Golden, LegacyIssKillInsideOperation)
{
    // A width-16 program that loads from and stores to data index
    // 5000, in both orders. The ZPU kills on the LOAD or STORE of
    // the first access (byte address 0x80 + 4 * 5000 is outside its
    // 4 KiB RAM), the MSP430 on the store's write outside its RAM
    // window (its load of that address reads zero), and the 8080
    // wraps inside its data page and halts. Each kill lands inside
    // an IR operation's template, where a fused record must hand
    // over to single steps.
    const auto program = [](bool loadFirst) {
        legacy::IrBuilder b("far", 16);
        b.allocWords(1);
        const legacy::Reg idx = b.reg(), v = b.reg(), w = b.reg();
        b.li(idx, 5000);
        b.li(v, 7);
        if (loadFirst)
            b.ld(w, idx);
        b.st(idx, v);
        if (!loadFirst)
            b.ld(w, idx);
        b.halt();
        return b.take();
    };
    ASSERT_EQ(std::size(issKillGolden), 4u);
    for (const IssKillGolden &g : issKillGolden)
        for (unsigned order = 0; order < 2; ++order) {
            const legacy::IssBatchResult res = legacy::runLegacyBatch(
                g.core, program(order == 0), {{}}, {});
            const std::string label =
                std::string(legacy::issCoreId(g.core)) +
                (order == 0 ? " load first" : " store first");
            EXPECT_EQ(res.status[0], g.status) << label;
            EXPECT_EQ(res.runs[0].instructions, g.instructions[order])
                << label;
            EXPECT_EQ(res.runs[0].cycles, g.cycles[order]) << label;
        }
}

/**
 * A seeded random IR program over 8 data words: every operation,
 * register counts on both sides of each backend's register limit,
 * data indices mostly in range (now and then 990, 991 or 5000), and
 * branches to labels before and after them, so some runs loop until
 * the budget.
 */
legacy::IrProgram
randomIrProgram(std::mt19937 &rng, unsigned width)
{
    constexpr unsigned words = 8, labels = 4;
    legacy::IrBuilder b("random", width);
    b.allocWords(words);
    std::vector<legacy::Reg> regs(3 + rng() % 12);
    for (legacy::Reg &r : regs)
        r = b.reg();
    const auto reg = [&] { return regs[rng() % regs.size()]; };
    const std::uint64_t mask = maskBits(width);
    std::vector<std::string> names;
    std::vector<bool> placed(labels, false);
    for (unsigned l = 0; l < labels; ++l)
        names.push_back(b.newLabel("l"));
    const auto label = [&] { return names[rng() % labels]; };
    // Indices 990 and 991 reach the ZPU's own stack words; 5000
    // leaves its RAM.
    const auto index = [&](legacy::Reg r) {
        const unsigned pick = rng() % 16;
        b.li(r, (pick == 0   ? 5000
                 : pick == 1 ? 990 + rng() % 2
                             : rng() % words) &
                    mask);
    };
    for (unsigned n = 30 + rng() % 30; n-- > 0;) {
        if (rng() % 6 == 0) {
            const unsigned l = rng() % labels;
            if (!placed[l])
                b.label(names[l]);
            placed[l] = true;
        }
        const legacy::Reg d = reg(), s = reg();
        switch (rng() % 16) {
          case 0: b.li(d, rng() & mask); break;
          case 1: b.mov(d, s); break;
          case 2: b.add(d, s); break;
          case 3: b.sub(d, s); break;
          case 4: b.and_(d, s); break;
          case 5: b.or_(d, s); break;
          case 6: b.xor_(d, s); break;
          case 7: b.shl(d); break;
          case 8: b.shr(d); break;
          case 9: index(s); b.ld(d, s); break;
          case 10: index(s); b.st(s, d); break;
          case 11: b.beqz(d, label()); break;
          case 12: b.bnez(d, label()); break;
          case 13: b.bltu(d, s, label()); break;
          case 14: b.bgeu(d, s, label()); break;
          default: b.jmp(label()); break;
        }
    }
    for (unsigned l = 0; l < labels; ++l)
        if (!placed[l])
            b.label(names[l]);
    b.halt();
    legacy::IrProgram prog = b.take();
    for (unsigned w = 0; w < words; ++w) {
        prog.inputAddrs.push_back(w);
        prog.outputAddrs.push_back(w);
    }
    return prog;
}

/**
 * One FNV per core over every random program's full runs and early
 * budgets, captured before the interpreters had fused records.
 */
const std::pair<legacy::LegacyCore, std::uint64_t> issRandomGolden[] = {
   {legacy::LegacyCore::OpenMsp430, 0x6ad38aa1b1dc2362ull},
   {legacy::LegacyCore::Z80, 0x1ef965d269f32c00ull},
   {legacy::LegacyCore::Light8080, 0x531859e6a98bc69eull},
   {legacy::LegacyCore::ZpuSmall, 0x9459e788da6a7cc6ull},
};

TEST(Golden, LegacyIssRandomPrograms)
{
    // 30 seeded random programs, 10 per width, three machines each,
    // run in full (capped at 2,000 instructions) and cut at every
    // budget up to 200. The operand mixes reach combinations the
    // kernels do not: vregs in RAM and in registers on either side of
    // an operation, registers past each backend's register file,
    // branches taken into loops, and LOAD/STORE kills.
    std::mt19937 rng(0x15A);
    std::vector<legacy::IrProgram> programs;
    std::vector<std::vector<std::vector<std::uint64_t>>> inputs;
    for (unsigned p = 0; p < 30; ++p) {
        const unsigned width = 8u << (p % 3);
        programs.push_back(randomIrProgram(rng, width));
        inputs.emplace_back();
        for (unsigned m = 0; m < 3; ++m) {
            inputs.back().emplace_back();
            for (unsigned w = 0; w < 8; ++w)
                inputs.back().back().push_back(rng() & maskBits(width));
        }
    }
    for (const auto &[core, golden] : issRandomGolden) {
        Fnv fnv;
        const auto mix = [&fnv](const legacy::IssBatchResult &res) {
            for (std::size_t m = 0; m < res.runs.size(); ++m) {
                fnv.mix(std::uint64_t(res.status[m]));
                fnv.mix(res.runs[m].instructions);
                fnv.mix(res.runs[m].cycles);
                for (std::uint64_t v : res.runs[m].outputs)
                    fnv.mix(v);
            }
        };
        for (std::size_t p = 0; p < programs.size(); ++p) {
            legacy::IssBatchOptions opts;
            opts.maxSteps = 2000;
            const legacy::IssBatchResult full =
                legacy::runLegacyBatch(core, programs[p], inputs[p], opts);
            mix(full);
            std::uint64_t longest = 0;
            for (const legacy::LegacyRun &run : full.runs)
                longest = std::max(longest, run.instructions);
            for (std::uint64_t budget = 1;
                 budget <= std::min<std::uint64_t>(longest, 200); ++budget) {
                opts.maxSteps = budget;
                mix(legacy::runLegacyBatch(core, programs[p], inputs[p],
                                           opts));
            }
        }
        EXPECT_EQ(fnv.h, golden) << legacy::issCoreId(core);
    }
}

} // anonymous namespace
} // namespace printed
