/**
 * @file
 * Unit tests for the printed::common utilities.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace printed
{
namespace
{

TEST(Bits, MaskBits)
{
    EXPECT_EQ(maskBits(0), 0u);
    EXPECT_EQ(maskBits(1), 1u);
    EXPECT_EQ(maskBits(8), 0xffu);
    EXPECT_EQ(maskBits(24), 0xffffffu);
    EXPECT_EQ(maskBits(64), ~std::uint64_t(0));
}

TEST(Bits, ExtractInsert)
{
    EXPECT_EQ(extractBits(0xabcd, 4, 8), 0xbcu);
    EXPECT_EQ(insertBits(0x0000, 4, 8, 0xbc), 0x0bc0u);
    EXPECT_EQ(insertBits(0xffff, 4, 8, 0x00), 0xf00fu);
    EXPECT_EQ(bit(0b100, 2), 1u);
    EXPECT_EQ(bit(0b100, 1), 0u);
}

TEST(Bits, CeilLog2MatchesPaperPcSizing)
{
    // Section 7: PC is reduced to ceil(log2(N)) bits.
    EXPECT_EQ(ceilLog2(0), 0u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(16), 4u);   // mult: 16 instructions -> 4 bits
    EXPECT_EQ(ceilLog2(17), 5u);
    EXPECT_EQ(ceilLog2(256), 8u);  // dTree: 256 -> 8 bits
    EXPECT_EQ(ceilLog2(257), 9u);
}

TEST(Bits, SignExtend)
{
    EXPECT_EQ(signExtend(0x80, 8), -128);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(0x1ff, 8), -1); // high junk masked
}

TEST(Bits, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(256));
    EXPECT_FALSE(isPowerOf2(257));
}

TEST(Units, BatteryEnergyMatchesPaperBudget)
{
    // Section 4: 30 mA x 3.6 ks x 1 V = 108 J.
    EXPECT_DOUBLE_EQ(batteryEnergyJoules(30.0, 1.0), 108.0);
    EXPECT_DOUBLE_EQ(batteryEnergyJoules(10.0, 1.0), 36.0);
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(mm2ToCm2(100.0), 1.0);
    EXPECT_DOUBLE_EQ(usToSeconds(1e6), 1.0);
    EXPECT_DOUBLE_EQ(nJToJoules(1e9), 1.0);
    EXPECT_DOUBLE_EQ(uWTomW(1000.0), 1.0);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    EXPECT_THROW(fatalIf(true, "boom"), FatalError);
    EXPECT_NO_THROW(fatalIf(false, "boom"));
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug"), PanicError);
    EXPECT_THROW(panicIf(true, "bug"), PanicError);
    EXPECT_NO_THROW(panicIf(false, "bug"));
}

// A passing check must not build its message: panicIf/fatalIf take
// a const char *, and a computed std::string message does not compile.
template <typename Msg>
constexpr bool panicIfTakes = requires(Msg m) { panicIf(true, m); };
template <typename Msg>
constexpr bool fatalIfTakes = requires(Msg m) { fatalIf(true, m); };

static_assert(panicIfTakes<const char *>);
static_assert(fatalIfTakes<const char *>);
static_assert(!panicIfTakes<std::string>);
static_assert(!fatalIfTakes<std::string>);

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BitsBounded)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.bits(8), 256u);
        EXPECT_LT(rng.below(10), 10u);
    }
}

TEST(Table, RendersAlignedRows)
{
    TableWriter t({"Cell", "Area"});
    t.addRow({"INVX1", "0.224"});
    t.addRow({"DFFX1", "1.41"});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("INVX1"), std::string::npos);
    EXPECT_NE(s.find("DFFX1"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, RejectsRaggedRows)
{
    TableWriter t({"A", "B"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

} // anonymous namespace
} // namespace printed
