/**
 * @file
 * Thread-safe memoizing cache in front of buildCore + characterize.
 *
 * The bench binaries and the test suite synthesize the same handful
 * of CoreConfigs over and over (the 24 Figure 7 points, the p1_8_2
 * workhorse, the Table 8 cores); a full build-and-characterize pass
 * is by far the hottest path in the flow. This cache memoizes both
 * stages:
 *
 *   netlist          = f(CoreConfig)
 *   characterization = f(CoreConfig, tech, activity)
 *
 * Keying rules (documented in DESIGN.md):
 *   - The netlist key is the CoreConfig itself, ordered by its
 *     defaulted operator<=> over every field (the IsaConfig
 *     included). buildCore() reads nothing else, so two equal
 *     configs elaborate identical netlists and sharing is sound,
 *     and a field added to CoreConfig joins the key with it.
 *   - The characterization key extends the netlist key with the
 *     technology kind and the exact activity-factor bits.
 *
 * Concurrency: lookups are guarded by a mutex; a miss installs a
 * shared_future before building so concurrent requests for the same
 * key synthesize once and share the result. Values are immutable
 * (shared_ptr<const T>), so sweep workers can hold them without
 * copying. If the build throws, the exception is stored in the
 * promise *before* the map entry is dropped, so every concurrent
 * waiter sees the original FatalError (never a broken_promise) and
 * a later call re-attempts the build.
 *
 * Bounding: setCapacity(n) caps each map (netlists and
 * characterizations separately) at n entries with least-recently-
 * used eviction — off by default (0 = unbounded, the bench/test
 * behavior), switched on by the long-running printedd server so
 * resident memory stays bounded under an unbounded request stream.
 * Only *settled* entries are evicted: an in-flight build is never
 * dropped out from under its waiters, which preserves the
 * set-exception-before-erase failure semantics. Eviction removes
 * the map entry only; callers holding the shared_ptr keep a valid
 * object, and a later lookup of the same key rebuilds (a miss).
 *
 * Statistics: hit/miss counts are lock-free metrics::Counter
 * instruments. The process-wide global() instance publishes them
 * in the metrics registry under "synth.cache.*" (they appear in
 * every bench's --json metrics block); locally constructed caches
 * keep private counters so tests can assert exact counts.
 */

#ifndef PRINTED_SYNTH_CACHE_HH
#define PRINTED_SYNTH_CACHE_HH

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "analysis/characterize.hh"
#include "common/metrics.hh"
#include "core/config.hh"
#include "netlist/netlist.hh"
#include "tech/library.hh"

namespace printed
{

/** Cache hit/miss counters (monotonic since construction/clear). */
struct SynthCacheStats
{
    std::uint64_t netlistHits = 0;
    std::uint64_t netlistMisses = 0;
    std::uint64_t charHits = 0;
    std::uint64_t charMisses = 0;
    std::uint64_t netlistEvictions = 0;
    std::uint64_t charEvictions = 0;
    /** Entries currently resident (not monotonic). */
    std::size_t netlistEntries = 0;
    std::size_t charEntries = 0;
};

/** Memoizing synthesis + characterization cache. */
class SynthCache
{
  public:
    /**
     * @param publishMetrics back the hit/miss counters by the
     *        process-wide metrics registry ("synth.cache.*") —
     *        used by global(); local instances keep private
     *        counters.
     */
    explicit SynthCache(bool publishMetrics = false);

    /**
     * The netlist of buildCore(config), synthesized at most once
     * per config. Concurrent callers block until the one builder
     * finishes.
     */
    std::shared_ptr<const Netlist> core(const CoreConfig &config);

    /**
     * The characterization of buildCore(config) in one technology
     * (going through core(), so the netlist is shared too).
     */
    std::shared_ptr<const Characterization>
    characterization(const CoreConfig &config, TechKind tech,
                     double activity = paperActivityFactor);

    /** Snapshot of the hit/miss counters. */
    SynthCacheStats stats() const;

    /** Drop all entries and reset the counters. */
    void clear();

    /**
     * Cap each map (netlists, characterizations) at `maxEntries`
     * with LRU eviction of settled entries; 0 restores the default
     * unbounded behavior. Lowering the cap evicts immediately.
     */
    void setCapacity(std::size_t maxEntries);

    /** Current per-map entry cap (0 = unbounded). */
    std::size_t capacity() const;

    /** The process-wide cache used by sweeps and benches. */
    static SynthCache &global();

  private:
    /**
     * One cached build: the shared future plus the LRU bookkeeping.
     * `id` identifies this *installation* of the key, so a failed
     * builder erases only its own entry (the entry could have been
     * evicted and re-installed by another miss in the meantime).
     */
    template <typename T>
    struct Entry
    {
        std::shared_future<std::shared_ptr<const T>> future;
        std::uint64_t lastUse = 0;
        std::uint64_t id = 0;
    };

    /** Evict settled LRU entries until `map` fits the cap. */
    template <typename Map>
    void enforceCap(Map &map, metrics::Counter &evictions);

    mutable std::mutex mutex_;
    std::map<CoreConfig, Entry<Netlist>> cores_;
    /** Keyed on (config, technology, activity factor's bits). */
    std::map<std::tuple<CoreConfig, TechKind, std::uint64_t>,
             Entry<Characterization>>
        chars_;
    std::size_t capacity_ = 0; ///< per-map entry cap; 0 = unbounded
    std::uint64_t tick_ = 0;   ///< LRU clock (bumped per access)
    std::uint64_t nextId_ = 0; ///< entry installation ids

    /** Private counter storage for non-published instances. */
    metrics::Counter ownCounters_[6];
    /** Hit/miss counters (own or registry-backed, see ctor). */
    metrics::Counter *netlistHits_;
    metrics::Counter *netlistMisses_;
    metrics::Counter *charHits_;
    metrics::Counter *charMisses_;
    metrics::Counter *netlistEvictions_;
    metrics::Counter *charEvictions_;
};

} // namespace printed

#endif // PRINTED_SYNTH_CACHE_HH
