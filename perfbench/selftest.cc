/**
 * @file
 * Self-test of the benchmark's own arithmetic: the percentile rule,
 * the span fold, and the determinism of the serve schedule. It runs
 * before every workload (it takes microseconds) and alone with
 * --self-test.
 */

#include <cmath>
#include <iostream>

#include "perfbench.hh"

namespace perfbench
{

namespace
{

int gBad = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++gBad;
        std::cout << "FAIL: self-test: " << what << "\n";
    }
}

void
testPercentiles()
{
    // The highest of p99/p95/p90/p75/p50 with >= 10 samples beyond.
    expect(tailPercentile(1000) == 99, "1000 samples report p99");
    expect(tailPercentile(999) == 95, "999 samples report p95");
    expect(tailPercentile(200) == 95, "200 samples report p95");
    expect(tailPercentile(100) == 90, "100 samples report p90");
    expect(tailPercentile(40) == 75, "40 samples report p75");
    expect(tailPercentile(19) == 50, "19 samples fall back to p50");

    std::vector<double> v;
    for (int i = 1; i <= 200; ++i)
        v.push_back(double(201 - i)); // 200 .. 1, unsorted input
    const Summary s = summarize(v);
    expect(s.n == 200 && s.p10 == 20 && s.p50 == 100 && s.tailPct == 95 &&
               s.tail == 190,
           "nearest-rank p10/p50/p95 of 1..200");
    expect(median({3, 1, 2, 4}) == 2.5, "median of an even set");

    // Three windows of 1000; the last one's top 20 samples stalled.
    std::vector<double> w;
    for (int k = 0; k < 3; ++k)
        for (int i = 1; i <= 1000; ++i)
            w.push_back(k == 2 && i > 980 ? 1e6 : double(i));
    const Summary ws = summarizeWindows(w, 1000);
    expect(ws.windows == 3 && ws.tailPct == 99 && ws.tail == 990 &&
               ws.n == 3000,
           "windowed p99 is the median of the windows' p99s");
}

void
testFold()
{
    // Thread 0: root [0,100] with children [10,30] and [40,90]; the
    // second child has a grandchild [50,60]. Thread 1: one leaf.
    const std::vector<std::vector<SpanRecord>> threads = {
        {{"gc", 50, 60}, {"c1", 10, 30}, {"c2", 40, 90}, {"root", 0, 100}},
        {{"c1", 0, 5}}};
    const Fold f = foldSpans(threads);
    auto self = [&](const char *n) { return f.layers.at(n).selfMs * 1e6; };
    expect(std::abs(self("root") - 30) < 1e-9, "root self = 100 - 20 - 50");
    expect(std::abs(self("c2") - 40) < 1e-9, "c2 self = 50 - 10");
    expect(std::abs(self("gc") - 10) < 1e-9, "gc self = its duration");
    expect(std::abs(self("c1") - 25) < 1e-9, "c1 self sums both threads");
    expect(f.layers.at("c1").calls == 2, "c1 called twice");
    expect(!f.layers.at("root").leaf && !f.layers.at("c2").leaf &&
               f.layers.at("gc").leaf && f.layers.at("c1").leaf,
           "leaf flags");
    expect(std::abs(f.totalMs * 1e6 - 105) < 1e-9, "total = root spans");
    expect(std::abs(f.leafMs * 1e6 - 35) < 1e-9, "leaves cover 20+10+5");
}

void
testSchedule()
{
    const ServeSchedule a = serveSchedule(7, 300, 1000, 50, 50);
    const ServeSchedule b = serveSchedule(7, 300, 1000, 50, 50);
    const ServeSchedule c = serveSchedule(8, 300, 1000, 50, 50);
    bool same = a.open.size() == b.open.size() &&
                a.closed.size() == b.closed.size();
    for (std::size_t i = 0; same && i < a.open.size(); ++i)
        same = a.open[i].line == b.open[i].line &&
               a.open[i].dueMs == b.open[i].dueMs;
    for (std::size_t i = 0; same && i < a.closed.size(); ++i)
        same = a.closed[i].line == b.closed[i].line;
    expect(same, "same seed gives the same lines and due times");
    bool differ = false;
    for (std::size_t i = 0; i < a.open.size(); ++i)
        differ = differ || a.open[i].line != c.open[i].line;
    expect(differ, "another seed gives other lines");
    bool ordered = true;
    for (std::size_t i = 1; i < a.open.size(); ++i)
        ordered = ordered && a.open[i].dueMs > a.open[i - 1].dueMs;
    const double rate = 1e3 * double(a.open.size()) / a.open.back().dueMs;
    expect(ordered && rate > 850 && rate < 1150,
           "Poisson due times increase at about the set rate");
}

} // namespace

int
runSelfTest()
{
    gBad = 0;
    testPercentiles();
    testFold();
    testSchedule();
    std::cout << "self-test: " << (gBad ? "FAILED" : "ok") << "\n";
    return gBad ? 1 : 0;
}

} // namespace perfbench
