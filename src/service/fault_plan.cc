#include "fault_plan.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace printed::service
{

namespace
{

/** "key=value" -> value as a checked double. */
double
numberValue(const std::string &key, const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || text.empty())
        fatal("fault plan: bad number '" + text + "' for '" + key + "'");
    return v;
}

double
rateValue(const std::string &key, const std::string &text)
{
    const double v = numberValue(key, text);
    if (v < 0 || v > 1)
        fatal("fault plan: rate '" + key + "' must be in [0, 1], got " +
              text);
    return v;
}

} // anonymous namespace

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            fatal("fault plan: expected key=value, got '" + item + "'");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        if (key == "seed") {
            plan.seed =
                std::uint64_t(numberValue(key, value));
        } else if (key == "drop") {
            plan.dropRate = rateValue(key, value);
        } else if (key == "truncate") {
            plan.truncateRate = rateValue(key, value);
        } else if (key == "delay") {
            // delay=RATE or delay=RATE:MS
            const std::size_t colon = value.find(':');
            if (colon == std::string::npos) {
                plan.delayRate = rateValue(key, value);
            } else {
                plan.delayRate =
                    rateValue(key, value.substr(0, colon));
                plan.delayMs = numberValue(
                    "delay ms", value.substr(colon + 1));
                fatalIf(plan.delayMs < 0,
                        "fault plan: delay ms must be >= 0");
            }
        } else if (key == "queue_full") {
            plan.queueFullRate = rateValue(key, value);
        } else {
            fatal("fault plan: unknown key '" + key + "'");
        }
    }
    return plan;
}

std::string
FaultPlan::describe() const
{
    if (!enabled())
        return "disabled";
    auto rate = [](double v) {
        std::string s = std::to_string(v);
        while (s.size() > 3 && s.back() == '0')
            s.pop_back();
        return s;
    };
    std::string out = "seed=" + std::to_string(seed);
    if (dropRate > 0)
        out += ",drop=" + rate(dropRate);
    if (truncateRate > 0)
        out += ",truncate=" + rate(truncateRate);
    if (delayRate > 0)
        out += ",delay=" + rate(delayRate) + ":" +
               std::to_string(unsigned(delayMs));
    if (queueFullRate > 0)
        out += ",queue_full=" + rate(queueFullRate);
    return out;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(plan),
      rng_(plan.seed)
{
}

double
FaultInjector::draw()
{
    // 53 uniform bits -> [0, 1). Caller holds mutex_.
    return double(rng_.next() >> 11) * 0x1.0p-53;
}

FaultInjector::SendFault
FaultInjector::onComputeReply(double &delayMsOut)
{
    delayMsOut = 0;
    if (!plan_.enabled())
        return SendFault::None;
    std::lock_guard lk(mutex_);
    const double u = draw();
    double edge = plan_.dropRate;
    if (u < edge) {
        metrics::counter("service.fault.drops").add(1);
        return SendFault::Drop;
    }
    edge += plan_.truncateRate;
    if (u < edge) {
        metrics::counter("service.fault.truncates").add(1);
        return SendFault::Truncate;
    }
    edge += plan_.delayRate;
    if (u < edge) {
        metrics::counter("service.fault.delays").add(1);
        delayMsOut = plan_.delayMs;
        return SendFault::Delay;
    }
    return SendFault::None;
}

bool
FaultInjector::forceQueueFull()
{
    if (plan_.queueFullRate <= 0)
        return false;
    std::lock_guard lk(mutex_);
    if (draw() < plan_.queueFullRate) {
        metrics::counter("service.fault.queue_fulls").add(1);
        return true;
    }
    return false;
}

std::uint64_t
FaultInjector::injectedCount() const
{
    return metrics::counter("service.fault.drops").value() +
           metrics::counter("service.fault.truncates").value() +
           metrics::counter("service.fault.delays").value() +
           metrics::counter("service.fault.queue_fulls").value();
}

} // namespace printed::service
