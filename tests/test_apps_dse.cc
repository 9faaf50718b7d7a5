/**
 * @file
 * Tests for the application/battery layer (Table 3, Figures 4/5)
 * and the system-level design-space evaluation (Figures 7/8,
 * Table 8).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>

#include "analysis/fault.hh"
#include "analysis/variation.hh"
#include "apps/applications.hh"
#include "apps/battery.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "dse/sweep.hh"
#include "dse/system_eval.hh"
#include "legacy/cores.hh"
#include "ml/evolve.hh"
#include "synth/cache.hh"
#include "tech/library.hh"
#include "workloads/kernels.hh"

namespace printed
{
namespace
{

// ----------------------------------------------------------------
// Applications / batteries
// ----------------------------------------------------------------

TEST(Apps, SurveyHasSeventeenRows)
{
    EXPECT_EQ(applicationSurvey().size(), 17u);
}

TEST(Apps, FourPrintedBatteries)
{
    const auto &batteries = printedBatteries();
    ASSERT_EQ(batteries.size(), 4u);
    EXPECT_DOUBLE_EQ(batteries[0].capacity_mah, 90.0);
    EXPECT_DOUBLE_EQ(table8Battery().capacity_mah, 30.0);
    // Section 4: 30 mAh at 1 V stores 108 J.
    EXPECT_DOUBLE_EQ(table8Battery().energyJoules(), 108.0);
}

TEST(Apps, LifetimeMatchesPaperModel)
{
    // A legacy core at full duty drains a printed battery within
    // ~2 hours (Section 4 / Figures 4-5). light8080 EGFET: 41.7 mW
    // on 30 mAh at 1 V -> 108 J / 0.0417 W = 0.72 h.
    const double h = lifetimeHours(table8Battery(), 41.7, 1.0);
    EXPECT_GT(h, 0.5);
    EXPECT_LT(h, 2.0);

    // Lifetime scales inversely with duty cycle.
    EXPECT_NEAR(lifetimeHours(table8Battery(), 41.7, 0.01),
                100 * h, 1e-9);
}

TEST(Apps, AllLegacyCoresUnderTwoHoursAtFullDuty)
{
    using namespace legacy;
    for (LegacyCore core : allLegacyCores) {
        const double p =
            legacyCoreSpec(core).egfet.powerMw;
        for (const Battery &b : printedBatteries()) {
            if (b.capacity_mah > 30)
                continue; // the Molex 90 mAh lasts a bit longer
            EXPECT_LT(lifetimeHours(b, p, 1.0), 2.0)
                << legacyCoreSpec(core).name << " on " << b.name;
        }
    }
}

TEST(Apps, CntCoresExceedBatteryPower)
{
    // Section 4/8: CNT-TFT cores at nominal frequency draw more
    // than printed batteries can deliver.
    using namespace legacy;
    for (LegacyCore core : allLegacyCores)
        EXPECT_FALSE(withinPowerBudget(
            table8Battery(), legacyCoreSpec(core).cnt.powerMw));
}

TEST(Apps, FeasibilityScreens)
{
    const auto &apps = applicationSurvey();
    // A ~17 IPS EGFET core serves slow sensors but not 100 Hz
    // sampling.
    int feasible_slow = 0, feasible_fast = 0;
    for (const auto &app : apps) {
        if (feasible(app, 17.0, 8))
            ++feasible_slow;
        if (feasible(app, 50'000.0, 8)) // CNT-class throughput
            ++feasible_fast;
    }
    EXPECT_GT(feasible_slow, 0);
    EXPECT_LT(feasible_slow, int(apps.size()));
    EXPECT_EQ(feasible_fast, int(apps.size()));
}

// ----------------------------------------------------------------
// Figure 7 sweep
// ----------------------------------------------------------------

TEST(Dse, SweepHasTwentyFourPoints)
{
    const auto points = sweepDesignSpace();
    EXPECT_EQ(points.size(), 24u);
    EXPECT_EQ(figure7Configs().size(), 24u);
}

/** Exact equality of two characterizations, field by field. */
void
expectSameCharacterization(const Characterization &a,
                           const Characterization &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.tech, b.tech);
    EXPECT_EQ(a.stats.totalGates, b.stats.totalGates);
    EXPECT_EQ(a.stats.seqGates, b.stats.seqGates);
    EXPECT_EQ(a.area.total_mm2, b.area.total_mm2);
    EXPECT_EQ(a.area.comb_mm2, b.area.comb_mm2);
    EXPECT_EQ(a.area.seq_mm2, b.area.seq_mm2);
    EXPECT_EQ(a.timing.fmaxHz, b.timing.fmaxHz);
    EXPECT_EQ(a.timing.periodUs, b.timing.periodUs);
    EXPECT_EQ(a.powerAtFmax.total_mW, b.powerAtFmax.total_mW);
    EXPECT_EQ(a.powerAtFmax.comb_mW, b.powerAtFmax.comb_mW);
    EXPECT_EQ(a.powerAtFmax.seq_mW, b.powerAtFmax.seq_mW);
}

TEST(Dse, SweepBitIdenticalAcrossThreadCounts)
{
    const auto serial = sweepDesignSpace();

    for (unsigned threads : {4u, 8u}) {
        ThreadPool pool(threads);
        SweepOptions opts;
        opts.pool = &pool;
        const auto parallel = sweepDesignSpace(opts);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].config.label(),
                      parallel[i].config.label());
            expectSameCharacterization(serial[i].egfet,
                                       parallel[i].egfet);
            expectSameCharacterization(serial[i].cnt,
                                       parallel[i].cnt);
        }
    }
}

TEST(Dse, SecondSweepIsServedFromSynthCache)
{
    SynthCache &cache = SynthCache::global();
    cache.clear();

    ThreadPool pool(4);
    SweepOptions opts;
    opts.pool = &pool;
    const auto first = sweepDesignSpace(opts);
    const SynthCacheStats cold = cache.stats();
    // 24 configs, each characterized in two technologies: 24
    // netlist builds (the second tech hits the netlist entry) and
    // 48 characterizations.
    EXPECT_EQ(cold.netlistMisses, 24u);
    EXPECT_EQ(cold.netlistHits, 24u);
    EXPECT_EQ(cold.charMisses, 48u);
    EXPECT_EQ(cold.charHits, 0u);

    const auto second = sweepDesignSpace(opts);
    const SynthCacheStats warm = cache.stats();
    // The re-sweep must not synthesize or characterize anything.
    EXPECT_EQ(warm.netlistMisses, cold.netlistMisses);
    EXPECT_EQ(warm.charMisses, cold.charMisses);
    EXPECT_EQ(warm.charHits, cold.charHits + 48u);

    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        expectSameCharacterization(first[i].egfet, second[i].egfet);
        expectSameCharacterization(first[i].cnt, second[i].cnt);
    }
}

TEST(Dse, SweepValidatesAndLevelizesEachCoreOnce)
{
    // optimize() levelizes each core twice (fold, share), then seals
    // it: one validation and one more schedule. Characterizing the
    // sealed core in two technologies reads the stored results, so a
    // cold sweep of the 24 cores makes 24 validations and 72
    // schedules.
    SynthCache::global().clear();
    metrics::Counter &validations =
        metrics::counter("netlist.validations");
    metrics::Counter &levelizations =
        metrics::counter("netlist.levelizations");
    const std::uint64_t v0 = validations.value();
    const std::uint64_t l0 = levelizations.value();

    ThreadPool pool(2);
    SweepOptions opts;
    opts.pool = &pool;
    EXPECT_EQ(sweepDesignSpace(opts).size(), 24u);
    EXPECT_EQ(validations.value() - v0, 24u);
    EXPECT_EQ(levelizations.value() - l0, 72u);
}

TEST(Dse, CacheKeySeparatesDistinctConfigs)
{
    const CoreConfig a = CoreConfig::standard(1, 8, 2);
    CoreConfig b = a;
    b.tristateResultMux = false;
    CoreConfig c = a;
    c.opcodeMask &= ~1u;
    EXPECT_EQ(coreConfigKey(a), coreConfigKey(a));
    EXPECT_NE(coreConfigKey(a), coreConfigKey(b));
    EXPECT_NE(coreConfigKey(a), coreConfigKey(c));
    EXPECT_NE(coreConfigHash(a), coreConfigHash(b));
    EXPECT_NE(coreConfigHash(a), coreConfigHash(c));

    // Cached netlists for distinct keys are distinct objects;
    // repeated lookups of one key share one object.
    SynthCache cache;
    const auto na1 = cache.core(a);
    const auto na2 = cache.core(a);
    const auto nb = cache.core(b);
    EXPECT_EQ(na1.get(), na2.get());
    EXPECT_NE(na1.get(), nb.get());
    EXPECT_EQ(cache.stats().netlistMisses, 2u);
    EXPECT_EQ(cache.stats().netlistHits, 1u);

    cache.clear();
    EXPECT_EQ(cache.stats().netlistMisses, 0u);
    const auto na3 = cache.core(a);
    EXPECT_NE(na3, nullptr);
    EXPECT_EQ(cache.stats().netlistMisses, 1u);
}

TEST(Dse, CacheIsThreadSafeUnderConcurrentLookups)
{
    SynthCache cache;
    const auto configs = figure7Configs();
    // Hammer the same small key set from many threads; every
    // returned characterization must be the one shared object per
    // (config, tech) and the miss counters must match the key
    // count exactly (each key synthesized once).
    std::vector<std::shared_ptr<const Characterization>> results(64);
    ThreadPool pool(8);
    pool.parallelFor(results.size(), [&](std::size_t i) {
        const CoreConfig &cfg = configs[i % 8];
        const TechKind tech =
            (i / 8) % 2 ? TechKind::CNT_TFT : TechKind::EGFET;
        results[i] = cache.characterization(cfg, tech);
    });
    EXPECT_EQ(cache.stats().charMisses, 16u);
    EXPECT_EQ(cache.stats().netlistMisses, 8u);
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].get(), results[i % 16].get());
}

TEST(Dse, CacheExceptionPropagatesToAllWaiters)
{
    // Regression test for the failure path: when the builder
    // throws, it must store the exception in the shared promise
    // *before* dropping the map entry. Waiters that grabbed the
    // shared_future must see the original FatalError — never a
    // std::future_error (broken_promise) from a destroyed,
    // unsatisfied promise. Many threads x many fresh caches widen
    // the race window; any future_error is a hard failure.
    CoreConfig bad = CoreConfig::standard(1, 8, 2);
    bad.stages = 7; // rejected by CoreConfig::check() in buildCore
    ThreadPool pool(8);
    for (int iter = 0; iter < 16; ++iter) {
        SynthCache cache;
        std::atomic<unsigned> fatals{0};
        pool.parallelFor(8, [&](std::size_t) {
            try {
                cache.core(bad);
                ADD_FAILURE() << "bad config produced a netlist";
            } catch (const FatalError &) {
                fatals.fetch_add(1);
            } catch (const std::future_error &e) {
                ADD_FAILURE()
                    << "waiter saw future_error instead of the "
                       "builder's FatalError: " << e.what();
            }
        });
        EXPECT_EQ(fatals.load(), 8u);
    }

    // Failures are not cached: every retry re-attempts (and counts
    // a fresh miss), and the same cache still builds good configs.
    SynthCache cache;
    EXPECT_THROW(cache.core(bad), FatalError);
    EXPECT_THROW(cache.core(bad), FatalError);
    EXPECT_EQ(cache.stats().netlistMisses, 2u);
    EXPECT_THROW(
        cache.characterization(bad, TechKind::EGFET), FatalError);
    EXPECT_NE(cache.core(CoreConfig::standard(1, 8, 2)), nullptr);
}

TEST(Dse, CacheCapacityEvictsLeastRecentlyUsed)
{
    // The bounded mode printedd runs with: each map holds at most
    // `capacity` settled entries, the LRU one leaves first, and an
    // evicted key simply misses (and rebuilds) on its next lookup.
    SynthCache cache;
    cache.setCapacity(2);
    EXPECT_EQ(cache.capacity(), 2u);

    const CoreConfig a = CoreConfig::standard(1, 4, 2);
    const CoreConfig b = CoreConfig::standard(1, 8, 2);
    const CoreConfig c = CoreConfig::standard(2, 4, 2);

    const auto na = cache.core(a);
    cache.core(b);
    cache.core(a);     // refresh a: b is now the LRU entry
    cache.core(c);     // evicts b
    SynthCacheStats s = cache.stats();
    EXPECT_EQ(s.netlistEntries, 2u);
    EXPECT_EQ(s.netlistEvictions, 1u);
    EXPECT_EQ(s.netlistMisses, 3u);

    // a survived the eviction (it was refreshed)...
    cache.core(a);
    EXPECT_EQ(cache.stats().netlistMisses, 3u);
    // ...b did not: same key misses again and rebuilds.
    cache.core(b);
    EXPECT_EQ(cache.stats().netlistMisses, 4u);

    // Objects held across an eviction stay valid (shared_ptr).
    EXPECT_GT(na->gateCount(), 0u);

    // Raising the cap stops eviction; 0 = unbounded again.
    cache.setCapacity(0);
    cache.core(c);
    cache.core(a);
    EXPECT_EQ(cache.stats().netlistEntries, 3u);

    // Lowering the cap evicts immediately, down to the cap.
    cache.setCapacity(1);
    EXPECT_EQ(cache.stats().netlistEntries, 1u);
}

TEST(Dse, CacheCapStressUnderConcurrentLookups)
{
    // Hammer a tiny cap from many threads over a wider key set than
    // fits: the map must never exceed cap + in-flight builds, every
    // returned object must be usable, evictions must be counted,
    // and the set-exception-before-erase failure semantics must
    // survive eviction pressure (bad keys interleaved throughout).
    SynthCache cache;
    cache.setCapacity(2);

    const auto configs = figure7Configs(); // 24 distinct keys
    CoreConfig bad = CoreConfig::standard(1, 8, 2);
    bad.stages = 7; // rejected by CoreConfig::check()

    std::atomic<unsigned> fatals{0};
    ThreadPool pool(8);
    pool.parallelFor(96, [&](std::size_t i) {
        if (i % 12 == 7) {
            try {
                cache.core(bad);
                ADD_FAILURE() << "bad config produced a netlist";
            } catch (const FatalError &) {
                fatals.fetch_add(1);
            }
            return;
        }
        const auto nl = cache.core(configs[i % 8]);
        ASSERT_NE(nl, nullptr);
        EXPECT_GT(nl->gateCount(), 0u);
    });
    EXPECT_EQ(fatals.load(), 8u);

    const SynthCacheStats s = cache.stats();
    EXPECT_LE(s.netlistEntries, 2u);
    EXPECT_GT(s.netlistEvictions, 0u);
    // 88 good lookups over 8 keys with cap 2: rebuilds happened,
    // but every lookup was served one way or the other.
    EXPECT_EQ(s.netlistHits + s.netlistMisses, 96u);
    EXPECT_GE(s.netlistMisses, 8u);
}

/**
 * Counter part of one metrics snapshot, restricted to the
 * deterministic namespaces (wall-clock gauges/distributions and the
 * sim.* totals — which include per-worker harness-construction
 * settles — are schedule-dependent by design; see DESIGN.md).
 */
std::vector<std::pair<std::string, std::uint64_t>>
deterministicCounters()
{
    static const char *prefixes[] = {"synth.", "parallel.", "fault.",
                                     "dse.", "analysis.", "ml.",
                                     "netlist."};
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const auto &entry :
         metrics::Registry::global().snapshot().counters)
        for (const char *p : prefixes)
            if (entry.first.rfind(p, 0) == 0) {
                out.push_back(entry);
                break;
            }
    return out;
}

/** Fig 7 slice + small fault MC at one thread count. */
std::vector<std::pair<std::string, std::uint64_t>>
countersForThreadCount(unsigned threads)
{
    SynthCache::global().clear();
    goldenVerifyMemoClear();
    metrics::Registry::global().resetAll();

    ThreadPool pool(threads);
    std::vector<CoreConfig> configs = figure7Configs();
    configs.resize(4);
    SweepOptions opts;
    opts.pool = &pool;
    sweepConfigs(configs, opts);

    FunctionalYieldConfig mc;
    mc.trials = 96;
    mc.pool = &pool;
    mc.fault.seed = 11;
    const auto nl = SynthCache::global().core(configs[0]);
    measureFunctionalYield(*nl, configs[0], mc);

    // A small classify search, twice: the ml.* counters (candidates
    // scored, generations, pruned gates, cache hits/misses) must
    // also be invariant, including the 1-miss + 1-hit cache split.
    ml::classifyCacheClear();
    ml::ClassifySpec spec;
    spec.dataset.features = 2;
    spec.dataset.classes = 2;
    spec.dataset.bits = 4;
    spec.dataset.train = 32;
    spec.dataset.holdout = 24;
    spec.depth = 2;
    spec.search.generations = 2;
    spec.search.population = 3;
    ml::runClassifyCached(spec, pool);
    ml::runClassifyCached(spec, pool);
    return deterministicCounters();
}

TEST(Dse, MetricsCountersAreThreadCountInvariant)
{
    // The observability determinism rule: counter sums (cache
    // hits/misses, MC trial outcomes, per-block gate counts, ...)
    // must be identical for any --threads value, because the
    // counted events are per-item deterministic work.
    const auto t1 = countersForThreadCount(1);
    const auto t4 = countersForThreadCount(4);
    const auto t16 = countersForThreadCount(16);
    ASSERT_FALSE(t1.empty());
    EXPECT_TRUE(t1 == t4);
    EXPECT_TRUE(t1 == t16);
    if (t1 != t4 || t1 != t16) {
        for (std::size_t i = 0;
             i < t1.size() && i < t4.size() && i < t16.size(); ++i)
            EXPECT_TRUE(t1[i] == t4[i] && t1[i] == t16[i])
                << t1[i].first << ": t1=" << t1[i].second
                << " t4=" << t4[i].second
                << " t16=" << t16[i].second;
    }

    // Sanity: the slice actually exercised the layers under test.
    auto value = [&](const std::string &name) -> std::uint64_t {
        for (const auto &[n, v] : t1)
            if (n == name)
                return v;
        return 0;
    };
    EXPECT_EQ(value("fault.trials"), 96u);
    EXPECT_EQ(value("dse.points"), 4u);
    EXPECT_GT(value("synth.cache.netlist_misses"), 0u);
    EXPECT_EQ(value("ml.generations"), 2u);
    EXPECT_EQ(value("ml.candidates_scored"), 7u); // baseline + 2x3
    EXPECT_EQ(value("ml.cache_misses"), 1u);
    EXPECT_EQ(value("ml.cache_hits"), 1u);
}

TEST(Dse, TracingDoesNotChangeResults)
{
    // Observability must be observational: enabling the tracer (and
    // buffering thousands of spans) cannot change one result bit.
    SynthCache::global().clear();
    trace::clear();
    trace::enable(); // buffer-only, no output file
    const auto traced = countersForThreadCount(4);
    const auto pointTraced =
        evaluateDesignPoint(CoreConfig::standard(1, 8, 2));
    trace::disable();
    EXPECT_GT(trace::eventCount(), 0u);
    trace::clear();

    const auto plain = countersForThreadCount(4);
    const auto pointPlain =
        evaluateDesignPoint(CoreConfig::standard(1, 8, 2));
    EXPECT_TRUE(traced == plain);
    EXPECT_DOUBLE_EQ(pointTraced.egfet.fmaxHz(),
                     pointPlain.egfet.fmaxHz());
    EXPECT_DOUBLE_EQ(pointTraced.egfet.powerMw(),
                     pointPlain.egfet.powerMw());
    EXPECT_EQ(pointTraced.egfet.gateCount(),
              pointPlain.egfet.gateCount());
}

/** The stop check's own exception type, to see it reach the caller. */
struct Stopped
{
};

TEST(PoolContract, OwnersStopCheckStopsEveryLibraryEntry)
{
    // Every library entry runs its items on the caller's pool, so
    // the owner's stop check reaches inside each one: a check that
    // throws after k items stops the call with the check's own
    // exception, on the inline path (1 thread) and the workers' (4),
    // and the pool then runs its next job whole.
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const std::shared_ptr<const Netlist> core =
        SynthCache::global().core(cfg);
    const auto yieldOn = [&](SimEngine engine) {
        return [&, engine](ThreadPool &pool) {
            FunctionalYieldConfig mc;
            mc.fault.deviceYield = 0.999;
            mc.trials = 128;
            mc.engine = engine;
            mc.pool = &pool;
            measureFunctionalYield(*core, cfg, mc);
        };
    };
    const std::vector<CoreConfig> configs = figure7Configs();
    const legacy::IrProgram mult = legacy::irKernel(Kernel::Mult, 8);
    std::vector<std::vector<std::uint64_t>> inputs; // 4 chunks
    for (unsigned m = 0; m < 4 * legacy::issChunkMachines; ++m)
        inputs.push_back(defaultInputs(Kernel::Mult, 8, 1 + m));
    ml::ClassifySpec spec;
    spec.dataset.features = 2;
    spec.dataset.classes = 2;
    spec.dataset.bits = 4;
    spec.dataset.train = 32;
    spec.dataset.holdout = 24;
    spec.depth = 2;
    spec.search.generations = 2;
    spec.search.population = 4;

    const std::vector<
        std::pair<std::string, std::function<void(ThreadPool &)>>>
        entries = {
            {"batch measureFunctionalYield", yieldOn(SimEngine::Batch)},
            {"scalar measureFunctionalYield",
             yieldOn(SimEngine::Scalar)},
            {"analyzeVariation",
             [&](ThreadPool &pool) {
                 VariationModel model;
                 model.samples = 256; // 4 blocks
                 model.pool = &pool;
                 analyzeVariation(*core, egfetLibrary(), model);
             }},
            {"sweepConfigs",
             [&](ThreadPool &pool) {
                 SweepOptions opts;
                 opts.pool = &pool;
                 sweepConfigs(configs, opts);
             }},
            {"runLegacyBatch",
             [&](ThreadPool &pool) {
                 legacy::IssBatchOptions opts;
                 opts.pool = &pool;
                 legacy::runLegacyBatch(legacy::LegacyCore::ZpuSmall,
                                        mult, inputs, opts);
             }},
            {"ml::runClassify",
             [&](ThreadPool &pool) { ml::runClassify(spec, pool); }},
        };

    constexpr std::size_t k = 2, n = 256;
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        for (const auto &[name, run] : entries) {
            SCOPED_TRACE(name + " on " + std::to_string(threads) +
                         " thread(s)");
            std::atomic<std::size_t> calls{0};
            {
                ThreadPool::StopScope scope(pool, [&] {
                    if (calls.fetch_add(1, std::memory_order_relaxed) >=
                        k)
                        throw Stopped{};
                });
                EXPECT_THROW(run(pool), Stopped);
            }
            EXPECT_GT(calls.load(), k);

            std::vector<std::atomic<unsigned>> hits(n);
            pool.parallelFor(n, [&](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
        }
    }
}

TEST(Dse, SingleStageDominates)
{
    // Section 8: single-stage pipelines always outperform deeper
    // ones (same width/BARs) in area and power; fmax does not
    // improve enough to matter.
    const auto points = sweepDesignSpace();
    auto find = [&](unsigned p, unsigned d, unsigned b)
        -> const DesignPoint & {
        for (const auto &pt : points)
            if (pt.config.stages == p &&
                pt.config.isa.datawidth == d &&
                pt.config.isa.barCount == b)
                return pt;
        throw std::runtime_error("point not found");
    };
    for (unsigned d : {4u, 8u, 16u, 32u}) {
        for (unsigned b : {2u, 4u}) {
            const auto &p1 = find(1, d, b);
            const auto &p3 = find(3, d, b);
            EXPECT_LT(p1.egfet.areaCm2(), p3.egfet.areaCm2());
            EXPECT_LT(p1.egfet.powerMw(), p3.egfet.powerMw());
            EXPECT_GE(p1.egfet.fmaxHz(), 0.95 * p3.egfet.fmaxHz());
        }
    }
}

TEST(Dse, BestCoresBeatLegacyByAnOrderOfMagnitude)
{
    // Abstract: the best TP-ISA cores outperform pre-existing
    // cores by at least an order of magnitude in power and area
    // ... once program-specific; core-level the paper shows the
    // largest TP-ISA core smaller than the smallest legacy core.
    using namespace legacy;
    const auto points = sweepDesignSpace();
    const auto &light8080 =
        legacyCoreSpec(LegacyCore::Light8080).egfet;

    double largest_area = 0;
    for (const auto &pt : points)
        largest_area = std::max(largest_area, pt.egfet.areaCm2());
    EXPECT_LT(largest_area, light8080.areaCm2);

    // The smallest 8-bit TP-ISA core is several times smaller than
    // light8080 (the paper quotes 5.2x).
    double smallest8 = 1e9;
    for (const auto &pt : points)
        if (pt.config.isa.datawidth == 8)
            smallest8 = std::min(smallest8, pt.egfet.areaCm2());
    EXPECT_GT(light8080.areaCm2 / smallest8, 3.5);
}

// ----------------------------------------------------------------
// Figure 8 / Table 8 system evaluation
// ----------------------------------------------------------------

TEST(SystemEvalTest, MultOnEightBitCore)
{
    const Workload wl = makeWorkload(Kernel::Mult, 8, 8);
    const SystemEval eval = evaluateSystem(
        wl, CoreConfig::standard(1, 8, 2), TechKind::EGFET);

    EXPECT_GT(eval.cycles, 30u);
    EXPECT_GT(eval.areaTotal(), 0.0);
    EXPECT_GT(eval.energyTotal(), 0.0);
    EXPECT_GT(eval.timeTotal(), 0.0);
    // Components present and sensible.
    EXPECT_GT(eval.areaImem, 0.0);
    EXPECT_GT(eval.areaDmem, 0.0);
    EXPECT_GT(eval.timeImem, 0.0);
    // Iterations in the Table 8 regime (paper: 3727 for mult STD).
    EXPECT_GT(eval.iterationsOn30mAh(), 300u);
    EXPECT_LT(eval.iterationsOn30mAh(), 40'000u);
}

TEST(SystemEvalTest, SpecializedBeatsStandardEnergy)
{
    // Section 8: the program-specific core consumes less energy
    // than all other cores for every benchmark.
    for (Kernel k : {Kernel::Mult, Kernel::Div, Kernel::IntAvg}) {
        const Workload wl = makeWorkload(k, 8, 8);
        const auto std_eval = evaluateSystem(
            wl, CoreConfig::standard(1, 8, 2), TechKind::EGFET);
        const auto ps_eval =
            evaluateSpecializedSystem(wl, TechKind::EGFET);
        EXPECT_LT(ps_eval.energyTotal(), std_eval.energyTotal())
            << kernelName(k);
        EXPECT_LT(ps_eval.areaTotal(), std_eval.areaTotal())
            << kernelName(k);
        EXPECT_GT(ps_eval.iterationsOn30mAh(),
                  std_eval.iterationsOn30mAh())
            << kernelName(k);
    }
}

TEST(SystemEvalTest, MlcRomCutsDTreeImemArea)
{
    // Section 8 (dTree-ROMopt): 2-bit MLC ROM reduces instruction
    // memory area by almost 30% with a small energy change.
    const Workload wl = makeWorkload(Kernel::DTree, 8, 8);
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const auto slc = evaluateSystem(wl, cfg, TechKind::EGFET, 1);
    const auto mlc = evaluateSystem(wl, cfg, TechKind::EGFET, 2);
    const double reduction = 1.0 - mlc.areaImem / slc.areaImem;
    EXPECT_GT(reduction, 0.25);
    EXPECT_LT(reduction, 0.35);
    // Energy stays within ~10% of the SLC design (the paper sees
    // <1% increase; our static-dominated ROM model shows a small
    // decrease since MLC halves the dot count - see
    // EXPERIMENTS.md).
    EXPECT_NEAR(mlc.energyTotal() / slc.energyTotal(), 1.0, 0.10);
}

TEST(SystemEvalTest, CntSystemsOrdersOfMagnitudeFaster)
{
    const Workload wl = makeWorkload(Kernel::Mult, 8, 8);
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const auto eg = evaluateSystem(wl, cfg, TechKind::EGFET);
    const auto cnt = evaluateSystem(wl, cfg, TechKind::CNT_TFT);
    EXPECT_LT(cnt.timeTotal(), eg.timeTotal() / 50);
    // Section 8: CNT execution time is dominated by the 302 us
    // ROM access latency.
    EXPECT_GT(cnt.timeImem, cnt.timeCore);
}

TEST(SystemEvalTest, WiderDataNeedsWiderOrCoalescedCores)
{
    // mult16 on an 8-bit core (coalesced) runs more instructions
    // than on a native 16-bit core.
    const Workload narrow = makeWorkload(Kernel::Mult, 16, 8);
    const Workload native = makeWorkload(Kernel::Mult, 16, 16);
    const auto e_narrow = evaluateSystem(
        narrow, CoreConfig::standard(1, 8, 2), TechKind::EGFET);
    const auto e_native = evaluateSystem(
        native, CoreConfig::standard(1, 16, 2), TechKind::EGFET);
    EXPECT_GT(e_narrow.cycles, e_native.cycles);
    // ...but the narrow core + program still has less core area.
    EXPECT_LT(e_narrow.areaComb + e_narrow.areaRegs,
              e_native.areaComb + e_native.areaRegs);
}

} // anonymous namespace
} // namespace printed
