#include "metrics.hh"

#include <algorithm>

namespace printed::metrics
{

void
Distribution::record(double sample)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ == 0) {
        min_ = sample;
        max_ = sample;
    } else {
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }
    ++count_;
    sum_ += sample;
    if (samples_.size() < sampleCap)
        samples_.push_back(sample);
}

Distribution::Summary
Distribution::summary() const
{
    Summary s;
    std::vector<double> v;
    {
        std::lock_guard<std::mutex> lock(mutex_); // for the copy only
        s.count = count_;
        if (count_ == 0)
            return s;
        s.mean = sum_ / double(count_);
        s.min = min_;
        s.max = max_;
        v = samples_;
    }
    // Same index rule as analysis/variation.cc percentile(), by
    // selection: p95's rank first, then p50's (never above it) in
    // the prefix in front of it.
    const auto rank = [&](double p) {
        const std::size_t i = std::size_t(p * double(v.size()));
        return v.begin() + std::ptrdiff_t(std::min(v.size() - 1, i));
    };
    const auto p95 = rank(0.95), p50 = rank(0.50);
    std::nth_element(v.begin(), p95, v.end());
    std::nth_element(v.begin(), p50, p95);
    s.p95 = *p95;
    s.p50 = *p50;
    return s;
}

void
Distribution::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.clear();
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
}

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Distribution &
Registry::distribution(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = distributions_[name];
    if (!slot)
        slot = std::make_unique<Distribution>();
    return *slot;
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    std::vector<const Distribution *> dists;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        snap.counters.reserve(counters_.size());
        for (const auto &[name, c] : counters_)
            snap.counters.emplace_back(name, c->value());
        snap.gauges.reserve(gauges_.size());
        for (const auto &[name, g] : gauges_)
            snap.gauges.emplace_back(name, g->value());
        for (const auto &[name, d] : distributions_) {
            snap.distributions.emplace_back(name, Distribution::Summary{});
            dists.push_back(d.get());
        }
    }
    // Entries are never removed, so the summaries need no registry
    // lock and never stall a name lookup.
    for (std::size_t i = 0; i < dists.size(); ++i)
        snap.distributions[i].second = dists[i]->summary();
    return snap;
}

void
Registry::resetAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, c] : counters_)
        c->reset();
    for (const auto &[name, g] : gauges_)
        g->reset();
    for (const auto &[name, d] : distributions_)
        d->reset();
}

} // namespace printed::metrics
