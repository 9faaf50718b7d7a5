#include "trace.hh"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <vector>

#include "common/json_min.hh"
#include "common/metrics.hh"

namespace printed::trace
{

namespace detail
{
std::atomic<bool> gEnabled{false};
} // namespace detail

namespace
{

struct Event
{
    std::string name;
    std::string detail;
    std::uint32_t tid = 0;
    std::uint64_t tsUs = 0;
    std::uint64_t durUs = 0;
};

/**
 * All tracer state behind one magic static, constructed on first
 * use — i.e. before the atexit hook that enable() registers, so
 * the hook runs while the state is still alive. The metrics
 * registry is constructed inside it, so it outlives the tracer.
 */
struct Tracer
{
    std::mutex mutex;
    /** The newest kMaxEvents spans; once full, events[next] is the
     *  oldest and the next span overwrites it. */
    std::vector<Event> events;
    std::size_t next = 0;
    std::uint64_t dropped = 0; ///< overwritten since the last clear()
    metrics::Counter &droppedCounter =
        metrics::counter("trace.dropped_events");
    std::map<std::uint32_t, std::string> threadNames;
    std::string path;
    bool atexitRegistered = false;
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();

    static Tracer &
    instance()
    {
        static Tracer tracer;
        return tracer;
    }
};

/** Sequential tid per thread, assigned on first use (main == 1). */
std::uint32_t
currentTid()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local std::uint32_t tid =
        next.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

} // anonymous namespace

namespace detail
{

std::uint64_t
nowUs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() -
            Tracer::instance().epoch)
            .count());
}

void
recordSpan(const char *name, std::uint64_t startUs,
           std::uint64_t durationUs, const std::string &detail)
{
    // Re-check under no lock: a span that started while tracing was
    // on still records after disable(); harmless and simpler than
    // dropping it.
    Event ev;
    ev.name = name;
    ev.detail = detail;
    ev.tid = currentTid();
    ev.tsUs = startUs;
    ev.durUs = durationUs;
    Tracer &t = Tracer::instance();
    {
        std::lock_guard<std::mutex> lock(t.mutex);
        if (t.events.size() < kMaxEvents) {
            t.events.push_back(std::move(ev));
            return;
        }
        t.events[t.next] = std::move(ev);
        t.next = (t.next + 1) % kMaxEvents;
        ++t.dropped;
    }
    t.droppedCounter.add(1);
}

} // namespace detail

void
enable(const std::string &path)
{
    Tracer &t = Tracer::instance();
    {
        std::lock_guard<std::mutex> lock(t.mutex);
        if (!path.empty())
            t.path = path;
        if (!t.path.empty() && !t.atexitRegistered) {
            t.atexitRegistered = true;
            std::atexit([] { flush(); });
        }
    }
    detail::gEnabled.store(true, std::memory_order_relaxed);
}

void
disable()
{
    detail::gEnabled.store(false, std::memory_order_relaxed);
}

void
initFromEnv()
{
    const char *env = std::getenv("PRINTED_TRACE");
    if (env && *env)
        enable(env);
}

void
clear()
{
    Tracer &t = Tracer::instance();
    std::lock_guard<std::mutex> lock(t.mutex);
    t.events.clear();
    t.next = 0;
    t.dropped = 0;
}

std::size_t
eventCount()
{
    Tracer &t = Tracer::instance();
    std::lock_guard<std::mutex> lock(t.mutex);
    return t.events.size();
}

void
setThreadName(const std::string &name)
{
    Tracer &t = Tracer::instance();
    const std::uint32_t tid = currentTid();
    std::lock_guard<std::mutex> lock(t.mutex);
    t.threadNames[tid] = name;
}

void
write(std::ostream &os)
{
    Tracer &t = Tracer::instance();
    std::lock_guard<std::mutex> lock(t.mutex);
    os << "{\"displayTimeUnit\": \"ms\", \"otherData\": "
          "{\"dropped_events\": "
       << t.dropped << "}, \"traceEvents\": [";
    bool first = true;
    auto sep = [&] {
        os << (first ? "\n" : ",\n");
        first = false;
    };
    for (const auto &[tid, name] : t.threadNames) {
        sep();
        os << "  {\"name\": \"thread_name\", \"ph\": \"M\", "
              "\"pid\": 1, \"tid\": "
           << tid << ", \"args\": {\"name\": \""
           << json::jsonEscape(name) << "\"}}";
    }
    for (std::size_t i = 0; i < t.events.size(); ++i) {
        const Event &ev = t.events[(t.next + i) % t.events.size()];
        sep();
        os << "  {\"name\": \"" << json::jsonEscape(ev.name)
           << "\", \"cat\": \"printed\", \"ph\": \"X\", "
              "\"pid\": 1, \"tid\": "
           << ev.tid << ", \"ts\": " << ev.tsUs
           << ", \"dur\": " << ev.durUs;
        if (!ev.detail.empty())
            os << ", \"args\": {\"detail\": \""
               << json::jsonEscape(ev.detail) << "\"}";
        os << "}";
    }
    os << "\n]}\n";
}

void
flush()
{
    std::string path;
    {
        Tracer &t = Tracer::instance();
        std::lock_guard<std::mutex> lock(t.mutex);
        path = t.path;
    }
    if (path.empty())
        return;
    std::ofstream os(path);
    if (os)
        write(os);
}

} // namespace printed::trace
