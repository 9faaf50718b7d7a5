/**
 * @file
 * Unit tests for the observability layer: the metrics registry
 * (common/metrics.hh) and the Chrome-trace span recorder
 * (common/trace.hh). Counters must sum correctly under concurrent
 * adds, distribution percentiles must follow the same index rule as
 * analysis/variation.cc, registry references must stay stable
 * across resetAll(), spans must be no-ops while tracing is
 * disabled, the span ring must keep only the newest events, and the
 * emitted trace document must be valid JSON of the trace_event
 * shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "common/json_min.hh"

namespace printed
{
namespace
{

namespace json = printed::json;

TEST(Counter, AddValueReset)
{
    metrics::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentAddsSumExactly)
{
    metrics::Counter c;
    ThreadPool pool(8);
    pool.parallelFor(1000, [&](std::size_t i) { c.add(i + 1); });
    // 1 + 2 + ... + 1000
    EXPECT_EQ(c.value(), 500500u);
}

TEST(Gauge, LastWriteWins)
{
    metrics::Gauge g;
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    g.set(3.25);
    EXPECT_DOUBLE_EQ(g.value(), 3.25);
    g.set(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), -1.0);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Distribution, SummaryFollowsVariationPercentileRule)
{
    metrics::Distribution d;
    for (int v = 100; v >= 1; --v) // unsorted insertion order
        d.record(double(v));
    const auto s = d.summary();
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_DOUBLE_EQ(s.mean, 50.5);
    // Same index rule as analysis/variation.cc::percentile():
    // idx = min(n-1, size_t(p*n)) into the sorted samples.
    EXPECT_DOUBLE_EQ(s.p50, 51.0);
    EXPECT_DOUBLE_EQ(s.p95, 96.0);

    // More sizes, shuffled and with duplicates, against a sorted
    // reference of the kept samples (the first sampleCap).
    constexpr std::size_t cap = metrics::Distribution::sampleCap;
    for (std::size_t n : {std::size_t(1), std::size_t(2), std::size_t(3),
                          std::size_t(20), cap + 100}) {
        std::vector<double> values(n);
        for (std::size_t i = 0; i < n; ++i)
            values[i] = double(i * 7 % (n / 2 + 1));
        std::mt19937_64 rng(n);
        std::shuffle(values.begin(), values.end(), rng);
        metrics::Distribution dist;
        for (double v : values)
            dist.record(v);

        std::vector<double> kept(
            values.begin(), values.begin() + std::ptrdiff_t(std::min(n, cap)));
        std::sort(kept.begin(), kept.end());
        const auto at = [&](double p) {
            return kept[std::min(kept.size() - 1,
                                 std::size_t(p * double(kept.size())))];
        };
        const auto sum = dist.summary();
        EXPECT_EQ(sum.count, n);
        EXPECT_EQ(sum.min, *std::min_element(values.begin(), values.end()));
        EXPECT_EQ(sum.max, *std::max_element(values.begin(), values.end()));
        EXPECT_EQ(sum.p50, at(0.50)) << n << " samples";
        EXPECT_EQ(sum.p95, at(0.95)) << n << " samples";
    }
}

TEST(Distribution, EmptyAndSingleSample)
{
    metrics::Distribution d;
    EXPECT_EQ(d.summary().count, 0u);
    d.record(7.0);
    const auto s = d.summary();
    EXPECT_EQ(s.count, 1u);
    EXPECT_DOUBLE_EQ(s.p50, 7.0);
    EXPECT_DOUBLE_EQ(s.p95, 7.0);
    EXPECT_DOUBLE_EQ(s.max, 7.0);
    d.reset();
    EXPECT_EQ(d.summary().count, 0u);
}

TEST(Distribution, CountStaysExactBeyondSampleCap)
{
    metrics::Distribution d;
    const std::size_t n = metrics::Distribution::sampleCap + 100;
    for (std::size_t i = 0; i < n; ++i)
        d.record(1.0);
    EXPECT_EQ(d.summary().count, n);
    EXPECT_DOUBLE_EQ(d.summary().mean, 1.0);
}

TEST(Registry, ReferencesAreStableAcrossResetAll)
{
    metrics::Counter &a = metrics::counter("test.registry.stable");
    a.add(5);
    metrics::Counter &b = metrics::counter("test.registry.stable");
    EXPECT_EQ(&a, &b);
    metrics::Registry::global().resetAll();
    // The entry survives (zeroed), so the old reference still works.
    EXPECT_EQ(a.value(), 0u);
    a.add(2);
    EXPECT_EQ(
        metrics::counter("test.registry.stable").value(), 2u);
}

TEST(Registry, SnapshotIsSortedAndComplete)
{
    metrics::counter("test.snap.b").add(2);
    metrics::counter("test.snap.a").add(1);
    metrics::gauge("test.snap.g").set(1.5);
    metrics::distribution("test.snap.d").record(4.0);

    const metrics::Snapshot snap =
        metrics::Registry::global().snapshot();
    std::set<std::string> names;
    std::string prev;
    for (const auto &[name, value] : snap.counters) {
        EXPECT_LE(prev, name); // sorted by name
        prev = name;
        names.insert(name);
    }
    EXPECT_TRUE(names.count("test.snap.a"));
    EXPECT_TRUE(names.count("test.snap.b"));
    bool sawGauge = false, sawDist = false;
    for (const auto &[name, value] : snap.gauges)
        sawGauge |= name == "test.snap.g";
    for (const auto &[name, value] : snap.distributions)
        sawDist = sawDist || name == "test.snap.d";
    EXPECT_TRUE(sawGauge);
    EXPECT_TRUE(sawDist);
}

TEST(Trace, SpanIsNoOpWhileDisabled)
{
    trace::disable();
    trace::clear();
    const std::size_t before = trace::eventCount();
    {
        trace::Span s("test.disabled_span", "should not record");
    }
    EXPECT_EQ(trace::eventCount(), before);
}

TEST(Trace, EnabledSpansProduceValidChromeTraceJson)
{
    trace::clear();
    trace::enable(); // buffer only, no output path
    trace::setThreadName("test-main");
    {
        trace::Span outer("test.outer", "detail \"quoted\"\x1f");
        trace::Span inner("test.inner");
    }
    trace::disable();
    ASSERT_GE(trace::eventCount(), 2u);

    std::ostringstream os;
    trace::write(os);
    // Control characters are escaped as lowercase \u00XX.
    EXPECT_NE(os.str().find(R"("detail": "detail \"quoted\"\u001f")"),
              std::string::npos);
    const json::Value doc = json::parse(os.str());
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    bool sawOuter = false, sawInner = false, sawMeta = false;
    for (const json::Value &ev : events->array) {
        const json::Value *name = ev.find("name");
        const json::Value *ph = ev.find("ph");
        ASSERT_NE(name, nullptr);
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(ev.find("pid"), nullptr);
        ASSERT_NE(ev.find("tid"), nullptr);
        if (ph->string == "X") {
            // Complete events carry a timestamp and duration.
            ASSERT_NE(ev.find("ts"), nullptr);
            ASSERT_NE(ev.find("dur"), nullptr);
            sawOuter |= name->string == "test.outer";
            sawInner |= name->string == "test.inner";
        } else if (ph->string == "M" &&
                   name->string == "thread_name") {
            const json::Value *args = ev.find("args");
            ASSERT_NE(args, nullptr);
            sawMeta |=
                args->find("name")->string == "test-main";
        }
    }
    EXPECT_TRUE(sawOuter);
    EXPECT_TRUE(sawInner);
    EXPECT_TRUE(sawMeta);
    trace::clear();
}

TEST(Trace, ClearDropsEventsButKeepsThreadNames)
{
    trace::clear();
    trace::enable();
    {
        trace::Span s("test.to_be_cleared");
    }
    trace::disable();
    EXPECT_GE(trace::eventCount(), 1u);
    trace::clear();
    EXPECT_EQ(trace::eventCount(), 0u);
    // The thread-name metadata (registered in earlier tests)
    // survives clear(): the document stays valid.
    std::ostringstream os;
    trace::write(os);
    EXPECT_NO_THROW(json::parse(os.str()));
}

TEST(Trace, FullRingKeepsTheNewestEventsAndCountsDrops)
{
    trace::clear();
    metrics::Counter &dropped = metrics::counter("trace.dropped_events");
    const std::uint64_t before = dropped.value();
    constexpr std::uint64_t k = 5;
    for (std::uint64_t i = 0; i < trace::kMaxEvents + k; ++i)
        trace::detail::recordSpan("test.ring", i, 1, "");
    EXPECT_EQ(trace::eventCount(), trace::kMaxEvents);
    EXPECT_EQ(dropped.value() - before, k);

    std::ostringstream os;
    trace::write(os);
    trace::clear();
    const json::Value doc = json::parse(os.str());
    EXPECT_EQ(doc.find("otherData")->find("dropped_events")->number,
              double(k));
    // Exactly the newest kMaxEvents spans, oldest first.
    std::vector<std::uint64_t> ts;
    for (const json::Value &ev : doc.find("traceEvents")->array)
        if (ev.find("ph")->string == "X")
            ts.push_back(std::uint64_t(ev.find("ts")->number));
    ASSERT_EQ(ts.size(), trace::kMaxEvents);
    for (std::size_t i = 0; i < ts.size(); ++i)
        ASSERT_EQ(ts[i], k + i) << "event " << i;

    // clear() also forgets the drops.
    std::ostringstream empty;
    trace::write(empty);
    EXPECT_EQ(json::parse(empty.str())
                  .find("otherData")
                  ->find("dropped_events")
                  ->number,
              0.0);
}

} // anonymous namespace
} // namespace printed
