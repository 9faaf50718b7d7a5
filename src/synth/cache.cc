#include "cache.hh"

#include <bit>
#include <chrono>

#include "common/rng.hh"
#include "common/trace.hh"
#include "core/generator.hh"

namespace printed
{

namespace
{

/** Milliseconds between a steady_clock point and now. */
double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Has this shared_future been satisfied (value or exception)? */
template <typename Future>
bool
settled(const Future &f)
{
    return f.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

} // anonymous namespace

SynthCache::SynthCache(bool publishMetrics)
{
    if (publishMetrics) {
        netlistHits_ = &metrics::counter("synth.cache.netlist_hits");
        netlistMisses_ =
            &metrics::counter("synth.cache.netlist_misses");
        charHits_ = &metrics::counter("synth.cache.char_hits");
        charMisses_ = &metrics::counter("synth.cache.char_misses");
        netlistEvictions_ =
            &metrics::counter("synth.cache.netlist_evictions");
        charEvictions_ =
            &metrics::counter("synth.cache.char_evictions");
    } else {
        netlistHits_ = &ownCounters_[0];
        netlistMisses_ = &ownCounters_[1];
        charHits_ = &ownCounters_[2];
        charMisses_ = &ownCounters_[3];
        netlistEvictions_ = &ownCounters_[4];
        charEvictions_ = &ownCounters_[5];
    }
}

CoreConfigKey
coreConfigKey(const CoreConfig &config)
{
    CoreConfigKey key;
    key.stages = config.stages;
    key.datawidth = config.isa.datawidth;
    key.barCount = config.isa.barCount;
    key.pcBits = config.isa.pcBits;
    key.operandBits = config.isa.operandBits;
    key.isaFlagCount = config.isa.flagCount;
    key.flagMask = config.flagMask;
    key.barBits = config.barBits;
    key.opcodeMask = config.opcodeMask;
    key.addrBits = config.addrBits;
    key.tristateResultMux = config.tristateResultMux;
    return key;
}

std::uint64_t
coreConfigHash(const CoreConfig &config)
{
    const CoreConfigKey k = coreConfigKey(config);
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    for (std::uint64_t field :
         {std::uint64_t(k.stages), std::uint64_t(k.datawidth),
          std::uint64_t(k.barCount), std::uint64_t(k.pcBits),
          std::uint64_t(k.operandBits), std::uint64_t(k.isaFlagCount),
          std::uint64_t(k.flagMask), std::uint64_t(k.barBits),
          std::uint64_t(k.opcodeMask), std::uint64_t(k.addrBits),
          std::uint64_t(k.tristateResultMux)})
        h = mixSeed(h, field);
    return h;
}

template <typename Map>
void
SynthCache::enforceCap(Map &map, metrics::Counter &evictions)
{
    // Caller holds mutex_. Only settled entries are candidates:
    // in-flight builds have live waiters and a builder that still
    // needs to find (or id-miss) its own entry.
    while (capacity_ != 0 && map.size() > capacity_) {
        auto victim = map.end();
        for (auto it = map.begin(); it != map.end(); ++it) {
            if (!settled(it->second.future))
                continue;
            if (victim == map.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == map.end())
            return; // everything in flight; cap exceeded briefly
        map.erase(victim);
        evictions.add();
    }
}

std::shared_ptr<const Netlist>
SynthCache::core(const CoreConfig &config)
{
    const CoreConfigKey key = coreConfigKey(config);
    std::promise<std::shared_ptr<const Netlist>> promise;
    std::shared_future<std::shared_ptr<const Netlist>> future;
    bool builder = false;
    std::uint64_t entryId = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = cores_.find(key);
        if (it == cores_.end()) {
            builder = true;
            future = promise.get_future().share();
            entryId = ++nextId_;
            cores_.emplace(key,
                           Entry<Netlist>{future, ++tick_, entryId});
            netlistMisses_->add();
            enforceCap(cores_, *netlistEvictions_);
        } else {
            it->second.lastUse = ++tick_;
            future = it->second.future;
            netlistHits_->add();
        }
    }
    if (builder) {
        trace::Span span("cache.build_core", config.label());
        try {
            promise.set_value(
                std::make_shared<const Netlist>(buildCore(config)));
            // The entry was exempt from eviction while in flight;
            // now that it settled, stamp it fresh and re-enforce
            // the cap (inserts that raced with the build skipped
            // it as unevictable).
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = cores_.find(key);
            if (it != cores_.end() && it->second.id == entryId)
                it->second.lastUse = ++tick_;
            enforceCap(cores_, *netlistEvictions_);
        } catch (...) {
            // Don't cache failures — but satisfy the promise with
            // the exception *before* dropping the entry: concurrent
            // waiters hold the shared_future, and erasing first
            // risks destroying an unsatisfied promise path where
            // they would see std::future_error (broken_promise)
            // instead of the original FatalError. A later call
            // re-attempts (and re-reports) the build. The id check
            // keeps a concurrent evict-then-reinstall of the same
            // key from losing an innocent entry.
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = cores_.find(key);
            if (it != cores_.end() && it->second.id == entryId)
                cores_.erase(it);
        }
        return future.get();
    }
    // Hit path: record how long this caller stalled on a build in
    // flight (near zero for a settled future).
    const auto waitStart = std::chrono::steady_clock::now();
    const std::shared_ptr<const Netlist> result = future.get();
    static metrics::Distribution &wait =
        metrics::distribution("synth.cache.build_wait_ms");
    wait.record(elapsedMs(waitStart));
    return result;
}

std::shared_ptr<const Characterization>
SynthCache::characterization(const CoreConfig &config, TechKind tech,
                             double activity)
{
    CharKey key;
    key.config = coreConfigKey(config);
    key.tech = tech;
    key.activityBits = std::bit_cast<std::uint64_t>(activity);

    std::promise<std::shared_ptr<const Characterization>> promise;
    std::shared_future<std::shared_ptr<const Characterization>> future;
    bool builder = false;
    std::uint64_t entryId = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = chars_.find(key);
        if (it == chars_.end()) {
            builder = true;
            future = promise.get_future().share();
            entryId = ++nextId_;
            chars_.emplace(key, Entry<Characterization>{
                                    future, ++tick_, entryId});
            charMisses_->add();
            enforceCap(chars_, *charEvictions_);
        } else {
            it->second.lastUse = ++tick_;
            future = it->second.future;
            charHits_->add();
        }
    }
    if (builder) {
        trace::Span span("cache.characterize", config.label());
        try {
            const std::shared_ptr<const Netlist> nl = core(config);
            promise.set_value(std::make_shared<const Characterization>(
                characterize(*nl, libraryFor(tech), activity)));
            // Same post-settle refresh + cap re-enforcement as
            // core().
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = chars_.find(key);
            if (it != chars_.end() && it->second.id == entryId)
                it->second.lastUse = ++tick_;
            enforceCap(chars_, *charEvictions_);
        } catch (...) {
            // Same ordering rule as core(): satisfy the promise
            // first so waiters get the real error, then un-cache
            // (own entry only, see core()).
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = chars_.find(key);
            if (it != chars_.end() && it->second.id == entryId)
                chars_.erase(it);
        }
    }
    return future.get();
}

SynthCacheStats
SynthCache::stats() const
{
    SynthCacheStats s;
    s.netlistHits = netlistHits_->value();
    s.netlistMisses = netlistMisses_->value();
    s.charHits = charHits_->value();
    s.charMisses = charMisses_->value();
    s.netlistEvictions = netlistEvictions_->value();
    s.charEvictions = charEvictions_->value();
    std::lock_guard<std::mutex> lock(mutex_);
    s.netlistEntries = cores_.size();
    s.charEntries = chars_.size();
    return s;
}

void
SynthCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    cores_.clear();
    chars_.clear();
    netlistHits_->reset();
    netlistMisses_->reset();
    charHits_->reset();
    charMisses_->reset();
    netlistEvictions_->reset();
    charEvictions_->reset();
}

void
SynthCache::setCapacity(std::size_t maxEntries)
{
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = maxEntries;
    enforceCap(cores_, *netlistEvictions_);
    enforceCap(chars_, *charEvictions_);
}

std::size_t
SynthCache::capacity() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
}

SynthCache &
SynthCache::global()
{
    static SynthCache cache(/*publishMetrics=*/true);
    return cache;
}

} // namespace printed
