/**
 * @file
 * Scoped-span tracer emitting Chrome trace_event JSON.
 *
 * Spans mark the phases of the flow (synthesis, cache builds,
 * parallel jobs, Monte-Carlo phases); the buffered events are
 * written as one Chrome-loadable JSON document (open it in
 * chrome://tracing or Perfetto) with a single pid for the process
 * and one tid per thread — ThreadPool workers register themselves
 * as "pool-worker-N".
 *
 * The buffer is a ring of the newest kMaxEvents spans, so a
 * long-lived process (printedd --trace-out) holds constant memory:
 * each span recorded into a full ring overwrites the oldest, adds
 * one to the "trace.dropped_events" counter, and is noted in the
 * written document as "otherData": {"dropped_events": N}.
 *
 * Tracing is disabled by default and is *zero-overhead* when
 * disabled: Span's constructor is one relaxed atomic load. Enable
 * it with the PRINTED_TRACE environment variable (value = output
 * path) or a bench's --trace-out flag; the file is written by an
 * atexit hook (or an explicit flush()).
 *
 * Determinism rule (DESIGN.md "Observability"): tracing is
 * observational only. Nothing reads a span back; enabling tracing
 * must not change a single simulated result bit — the
 * thread-determinism tests assert exactly that.
 */

#ifndef PRINTED_COMMON_TRACE_HH
#define PRINTED_COMMON_TRACE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

namespace printed::trace
{

/**
 * Capacity of the span ring: 65,536 events (~6 MB, plus names and
 * details too long for std::string's inline buffer). A traced
 * bench_classify run records ~3,900.
 */
inline constexpr std::size_t kMaxEvents = std::size_t(1) << 16;

namespace detail
{
extern std::atomic<bool> gEnabled;

/** Record one completed span (start/duration in microseconds). */
void recordSpan(const char *name, std::uint64_t startUs,
                std::uint64_t durationUs, const std::string &detail);

/** Microseconds since the tracer's epoch. */
std::uint64_t nowUs();
} // namespace detail

/** Is tracing currently enabled? One relaxed atomic load. */
inline bool
enabled()
{
    return detail::gEnabled.load(std::memory_order_relaxed);
}

/**
 * Start recording. With a non-empty path, the trace JSON is
 * written there by an atexit hook (and by flush()); with an empty
 * path events are only buffered (tests read them via write()).
 */
void enable(const std::string &path = "");

/** Stop recording (buffered events are kept until clear()). */
void disable();

/** If PRINTED_TRACE is set and non-empty, enable(its value). */
void initFromEnv();

/**
 * Drop all buffered events and the dropped-events note (thread
 * registrations survive).
 */
void clear();

/** Number of buffered span events (at most kMaxEvents). */
std::size_t eventCount();

/**
 * Name the calling thread in the trace ("main", "pool-worker-3").
 * Cheap and always allowed — names registered while tracing is
 * disabled still apply if it is enabled later.
 */
void setThreadName(const std::string &name);

/** Write the Chrome trace_event JSON document. */
void write(std::ostream &os);

/** Write to the enable()d path, if any. Safe to call repeatedly. */
void flush();

/**
 * RAII span: construction starts the clock, destruction records a
 * Chrome "X" (complete) event on the calling thread's tid. A no-op
 * when tracing is disabled at construction time.
 */
class Span
{
  public:
    explicit Span(const char *name) : Span(name, std::string()) {}

    /** @param detail free-form text shown in the event's args. */
    Span(const char *name, std::string detail)
        : name_(name), detail_(std::move(detail)),
          active_(enabled()),
          start_(active_ ? detail::nowUs() : 0)
    {}

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span()
    {
        if (active_)
            detail::recordSpan(name_, start_,
                               detail::nowUs() - start_, detail_);
    }

  private:
    const char *name_;
    std::string detail_;
    bool active_;
    std::uint64_t start_;
};

} // namespace printed::trace

#endif // PRINTED_COMMON_TRACE_HH
