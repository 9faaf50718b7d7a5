/**
 * @file
 * Unit tests for the bench JSON helpers (bench/bench_util.hh):
 * RFC 8259 string escaping, scalar rendering (including non-finite
 * doubles), the JsonReport document shape, and argv parsing. The
 * --json reports these helpers produce are consumed by CI and the
 * golden-snapshot tooling, so their output format is a contract.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "bench_util.hh"
#include "common/json_min.hh"
#include "common/logging.hh"

namespace printed
{
namespace
{

using bench::JsonReport;
using bench::JsonValue;
using bench::jsonEscape;
using bench::jsonQuote;
using bench::uintFromArgs;
namespace json = printed::json;

TEST(JsonEscape, PassesPlainTextThrough)
{
    EXPECT_EQ(jsonEscape(""), "");
    EXPECT_EQ(jsonEscape("mult_8x8"), "mult_8x8");
    EXPECT_EQ(jsonEscape("a b c 123 .,;!?"), "a b c 123 .,;!?");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes)
{
    EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(jsonEscape("C:\\path\\file"), "C:\\\\path\\\\file");
    EXPECT_EQ(jsonEscape("\\\""), "\\\\\\\"");
}

TEST(JsonEscape, ControlCharactersBecomeU00xx)
{
    EXPECT_EQ(jsonEscape("a\nb"), "a\\u000ab");
    EXPECT_EQ(jsonEscape("a\tb"), "a\\u0009b");
    EXPECT_EQ(jsonEscape("a\rb"), "a\\u000db");
    EXPECT_EQ(jsonEscape(std::string(1, '\0')), "\\u0000");
    EXPECT_EQ(jsonEscape("\x1f"), "\\u001f");
}

TEST(JsonEscape, LeavesHighBytesVerbatim)
{
    // DEL and multi-byte UTF-8 are legal unescaped in JSON strings;
    // the escaper must not mangle them (and must not sign-extend
    // high bytes into bogus control-character escapes).
    EXPECT_EQ(jsonEscape("\x7f"), "\x7f");
    const std::string utf8 = "\xc2\xb5m"; // µm
    EXPECT_EQ(jsonEscape(utf8), utf8);
}

TEST(JsonValue, RendersScalars)
{
    EXPECT_EQ(JsonValue("s").text(), "\"s\"");
    EXPECT_EQ(JsonValue(std::string("a\"b")).text(), "\"a\\\"b\"");
    EXPECT_EQ(JsonValue(true).text(), "true");
    EXPECT_EQ(JsonValue(false).text(), "false");
    EXPECT_EQ(JsonValue(42).text(), "42");
    EXPECT_EQ(JsonValue(-7).text(), "-7");
    EXPECT_EQ(JsonValue(std::uint64_t(1) << 40).text(),
              "1099511627776");
    EXPECT_EQ(JsonValue(1.5).text(), "1.5");
}

TEST(JsonValue, NonFiniteDoublesBecomeNull)
{
    EXPECT_EQ(
        JsonValue(std::numeric_limits<double>::infinity()).text(),
        "null");
    EXPECT_EQ(
        JsonValue(-std::numeric_limits<double>::infinity()).text(),
        "null");
    EXPECT_EQ(
        JsonValue(std::numeric_limits<double>::quiet_NaN()).text(),
        "null");
}

TEST(JsonReport, WritesWellFormedDocument)
{
    JsonReport jr("unit_test");
    jr.enableMetrics(false); // exact-text comparison below
    jr.meta("threads", 4);
    jr.meta("label", "a\"b");
    jr.add("rows", {{"k", 1}, {"v", 2.5}});
    jr.add("rows", {{"k", 2}, {"v", true}});
    jr.add("other", {{"name", "x"}});

    std::ostringstream os;
    jr.write(os);
    const std::string doc = os.str();

    EXPECT_EQ(doc,
              "{\n"
              "  \"bench\": \"unit_test\",\n"
              "  \"threads\": 4,\n"
              "  \"label\": \"a\\\"b\",\n"
              "  \"rows\": [\n"
              "    {\"k\": 1, \"v\": 2.5},\n"
              "    {\"k\": 2, \"v\": true}\n"
              "  ],\n"
              "  \"other\": [\n"
              "    {\"name\": \"x\"}\n"
              "  ]\n"
              "}\n");
}

TEST(JsonReport, EmptyReportIsStillValid)
{
    JsonReport jr("empty");
    jr.enableMetrics(false); // exact-text comparison below
    std::ostringstream os;
    jr.write(os);
    EXPECT_EQ(os.str(), "{\n  \"bench\": \"empty\"\n}\n");
}

TEST(JsonReport, MetricsBlockParsesAndCarriesRegistryValues)
{
    metrics::counter("test.bench_util.counter").add(41);
    metrics::gauge("test.bench_util.gauge").set(2.5);
    metrics::distribution("test.bench_util.dist").record(3.0);

    JsonReport jr("with_metrics");
    jr.meta("threads", 2);
    jr.add("rows", {{"k", 1}});
    std::ostringstream os;
    jr.write(os);

    const json::Value doc = json::parse(os.str());
    const json::Value *m = doc.find("metrics");
    ASSERT_NE(m, nullptr);
    const json::Value *counters = m->find("counters");
    const json::Value *gauges = m->find("gauges");
    const json::Value *dists = m->find("distributions");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(gauges, nullptr);
    ASSERT_NE(dists, nullptr);

    const json::Value *c =
        counters->find("test.bench_util.counter");
    ASSERT_NE(c, nullptr);
    EXPECT_GE(c->number, 41.0);
    const json::Value *g = gauges->find("test.bench_util.gauge");
    ASSERT_NE(g, nullptr);
    EXPECT_DOUBLE_EQ(g->number, 2.5);
    const json::Value *d = dists->find("test.bench_util.dist");
    ASSERT_NE(d, nullptr);
    ASSERT_NE(d->find("count"), nullptr);
    EXPECT_GE(d->find("count")->number, 1.0);
    ASSERT_NE(d->find("p95"), nullptr);
}

TEST(JsonReport, NonFiniteValuesRoundTripAsNull)
{
    // The writer has no inf/nan to offer a JSON reader; both must
    // come back as null, never as a token that breaks the parse.
    JsonReport jr("nonfinite");
    jr.enableMetrics(false);
    jr.meta("inf", std::numeric_limits<double>::infinity());
    jr.add("rows",
           {{"nan", std::numeric_limits<double>::quiet_NaN()},
            {"ninf", -std::numeric_limits<double>::infinity()},
            {"ok", 1.25}});
    std::ostringstream os;
    jr.write(os);

    const json::Value doc = json::parse(os.str());
    ASSERT_NE(doc.find("inf"), nullptr);
    EXPECT_TRUE(doc.find("inf")->isNull());
    const json::Value *rows = doc.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->array.size(), 1u);
    EXPECT_TRUE(rows->array[0].find("nan")->isNull());
    EXPECT_TRUE(rows->array[0].find("ninf")->isNull());
    EXPECT_DOUBLE_EQ(rows->array[0].find("ok")->number, 1.25);

    // Flattening skips the nulls instead of inventing zeros.
    const auto flat = json::flattenNumbers(doc);
    EXPECT_EQ(flat.count("rows.0.nan"), 0u);
    EXPECT_EQ(flat.count("rows.0.ok"), 1u);
}

TEST(JsonMin, ParsesEscapesAndRejectsGarbage)
{
    const json::Value v =
        json::parse("{\"a\": \"x\\n\\u0041\", \"b\": [1, 2.5e1]}");
    ASSERT_NE(v.find("a"), nullptr);
    EXPECT_EQ(v.find("a")->string, "x\nA");
    ASSERT_NE(v.find("b"), nullptr);
    EXPECT_DOUBLE_EQ(v.find("b")->array[1].number, 25.0);
    EXPECT_THROW(json::parse("{\"a\": }"), json::ParseError);
    EXPECT_THROW(json::parse("{} trailing"), json::ParseError);
    EXPECT_THROW(json::parse("[1, 2"), json::ParseError);
}

TEST(JsonMin, FlattenKeysArraysByNameField)
{
    const json::Value v = json::parse(
        "{\"engines\": ["
        "{\"engine\": \"scalar\", \"mc_trials_per_s\": 10},"
        "{\"engine\": \"batch\", \"mc_trials_per_s\": 90}]}");
    const auto flat = json::flattenNumbers(v);
    ASSERT_EQ(flat.count("engines.scalar.mc_trials_per_s"), 1u);
    ASSERT_EQ(flat.count("engines.batch.mc_trials_per_s"), 1u);
    EXPECT_DOUBLE_EQ(flat.at("engines.batch.mc_trials_per_s"),
                     90.0);
}

TEST(JsonMin, FlattenStringsKeysLikeNumbers)
{
    const json::Value v = json::parse(
        "{\"cores\": [{\"core\": \"zpu\", \"outputs_fnv\": \"0x1f\","
        " \"instructions\": 7}], \"ok\": true}");
    const auto strings = json::flattenStrings(v);
    ASSERT_EQ(strings.count("cores.zpu.outputs_fnv"), 1u);
    EXPECT_EQ(strings.at("cores.zpu.outputs_fnv"), "0x1f");
    EXPECT_EQ(json::flattenNumbers(v).count("cores.zpu.instructions"),
              1u);
    EXPECT_EQ(strings.count("ok"), 0u);
}

TEST(BenchArgs, UintFromArgsParsesAndDefaults)
{
    const char *argv[] = {"prog", "--trials", "123", "--json",
                          "out.json"};
    char **av = const_cast<char **>(argv);
    EXPECT_EQ(uintFromArgs(5, av, "trials", 7), 123u);
    EXPECT_EQ(uintFromArgs(5, av, "samples", 7), 7u);
    // A flag in the last slot has no value and falls back.
    EXPECT_EQ(uintFromArgs(2, av, "trials", 9), 9u);
    EXPECT_EQ(bench::jsonPathFromArgs(5, av), "out.json");
}

TEST(BenchArgs, UintFromArgsTakesOnlyAWholeNumberInTheFlagsType)
{
    // A sign, an empty value, trailing characters, or a value past
    // the flag's type end the program with a message naming the
    // flag; none may reach the caller (a --threads of -1 or 2^32
    // would ask a ThreadPool for 4,294,967,295 threads or for
    // hardware concurrency).
    for (const char *bad : {"-1", "+5", "12ab", "", "4294967296"}) {
        SCOPED_TRACE(std::string("value '") + bad + "'");
        const char *argv[] = {"prog", "--threads", bad};
        char **av = const_cast<char **>(argv);
        try {
            uintFromArgs<unsigned>(3, av, "threads", 1);
            ADD_FAILURE() << "accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("--threads"),
                      std::string::npos)
                << e.what();
        }
    }
    const char *argv[] = {"prog", "--threads", "4294967295", "--seed",
                          "4294967296", "--trials", "-1"};
    char **av = const_cast<char **>(argv);
    EXPECT_EQ(uintFromArgs<unsigned>(7, av, "threads", 1),
              4294967295u);
    EXPECT_EQ(uintFromArgs(7, av, "seed", 1), 4294967296ull);
    EXPECT_THROW(uintFromArgs(7, av, "trials", 1), FatalError);
}

TEST(BenchArgs, JsonPathFallsBackWhenValueIsAFlag)
{
    const char *argv[] = {"prog", "--json", "--trace-out", "t.json"};
    char **av = const_cast<char **>(argv);
    // "--trace-out" must not be swallowed as the report path.
    EXPECT_EQ(bench::jsonPathFromArgs(4, av, "BENCH_sim.json"),
              "BENCH_sim.json");
    EXPECT_EQ(bench::jsonPathFromArgs(4, av), "");
    const char *argv2[] = {"prog", "--json"};
    char **av2 = const_cast<char **>(argv2);
    EXPECT_EQ(bench::jsonPathFromArgs(2, av2, "fallback.json"),
              "fallback.json");
    const char *argv3[] = {"prog"};
    char **av3 = const_cast<char **>(argv3);
    EXPECT_EQ(bench::jsonPathFromArgs(1, av3, "fallback.json"), "");
}

TEST(WallTimer, ElapsedIsMonotonic)
{
    bench::WallTimer t;
    const double a = t.elapsedMs();
    const double b = t.elapsedMs();
    EXPECT_GE(a, 0.0);
    EXPECT_GE(b, a);
}

} // anonymous namespace
} // namespace printed
