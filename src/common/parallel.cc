#include "parallel.hh"

#include <chrono>
#include <memory>
#include <string>

#include "common/metrics.hh"
#include "common/trace.hh"

namespace printed
{

namespace
{

/** Milliseconds between two steady_clock points. */
double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // anonymous namespace

/**
 * State of one parallelFor job. Heap-allocated and shared between
 * the dispatcher and the workers so a straggler that wakes up after
 * the dispatcher has moved on only ever touches its own (already
 * drained) job object — never a half-reset one.
 */
struct ThreadPool::Job
{
    const std::function<void(std::size_t, unsigned)> *fn = nullptr;
    std::function<void()> stopCheck; ///< the pool's, at dispatch
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::atomic<bool> aborted{false};
    std::exception_ptr exception;
    std::mutex exceptionMutex;
};

unsigned
ThreadPool::defaultThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1u;
}

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads ? threads : defaultThreadCount())
{
    workers_.reserve(threads_ - 1);
    for (unsigned slot = 1; slot < threads_; ++slot)
        workers_.emplace_back([this, slot] { workerLoop(slot); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::runJob(Job &job, unsigned slot)
{
    // Observability: one busy span + one busy-time sample per
    // (job, worker) — coarse enough that the clock reads and the
    // distribution mutex never sit on the per-item path.
    trace::Span span("pool.worker_busy");
    const auto busyStart = std::chrono::steady_clock::now();

    // Claim indices until the space is exhausted. Every claimed
    // index < n bumps `completed` exactly once — also when the item
    // threw or was skipped after an abort — so the dispatcher's
    // completed == n wait is exact and `fn` stays alive until the
    // last in-flight item has finished. After an abort, one claim
    // takes every unclaimed index, so a stopped job drains at once
    // instead of skipping its items one contended claim at a time.
    for (;;) {
        const std::size_t i =
            job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.n)
            break;
        std::size_t claimed = 1;
        if (!job.aborted.load(std::memory_order_relaxed)) {
            try {
                if (job.stopCheck)
                    job.stopCheck();
                (*job.fn)(i, slot);
            } catch (...) {
                std::lock_guard<std::mutex> lock(job.exceptionMutex);
                if (!job.exception)
                    job.exception = std::current_exception();
                job.aborted.store(true, std::memory_order_relaxed);
            }
        } else {
            const std::size_t rest =
                job.next.exchange(job.n, std::memory_order_relaxed);
            if (rest < job.n)
                claimed += job.n - rest;
        }
        if (job.completed.fetch_add(claimed,
                                    std::memory_order_acq_rel) +
                claimed ==
            job.n) {
            std::lock_guard<std::mutex> lock(mutex_);
            done_.notify_all();
        }
    }
    static metrics::Distribution &busy =
        metrics::distribution("parallel.worker_busy_ms");
    busy.record(elapsedMs(busyStart));
}

void
ThreadPool::workerLoop(unsigned slot)
{
    trace::setThreadName("pool-worker-" + std::to_string(slot));
    std::uint64_t seen = 0;
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            job = current_;
        }
        runJob(*job, slot);
    }
}

void
ThreadPool::parallelForWorkers(
    std::size_t n, const std::function<void(std::size_t, unsigned)> &fn)
{
    if (n == 0)
        return;

    // Job/item counters cover the inline path too, so the counts
    // are identical for every thread count (the determinism tests
    // rely on this). The per-job span records the fan-out width.
    static metrics::Counter &jobs = metrics::counter("parallel.jobs");
    static metrics::Counter &items =
        metrics::counter("parallel.items");
    static metrics::Distribution &jobItems =
        metrics::distribution("parallel.job_items");
    jobs.add(1);
    items.add(n);
    jobItems.record(double(n));
    trace::Span span("pool.parallelFor",
                     trace::enabled()
                         ? std::to_string(n) + " items / " +
                               std::to_string(threads_) + " workers"
                         : std::string());

    if (threads_ <= 1 || n == 1) {
        // Inline fast path; exceptions propagate naturally.
        for (std::size_t i = 0; i < n; ++i) {
            if (stopCheck_)
                stopCheck_();
            fn(i, 0);
        }
        return;
    }

    // Workers read the check from the job they took under mutex_,
    // never from the pool.
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->stopCheck = stopCheck_;
    job->n = n;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        current_ = job;
        ++generation_;
    }
    wake_.notify_all();

    runJob(*job, 0); // the caller is worker 0

    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] {
            return job->completed.load(std::memory_order_acquire) ==
                   job->n;
        });
    }
    if (job->exception)
        std::rethrow_exception(job->exception);
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    parallelForWorkers(n, [&](std::size_t i, unsigned) { fn(i); });
}

} // namespace printed
