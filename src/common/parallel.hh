/**
 * @file
 * Deterministic parallel execution layer.
 *
 * Every expensive path in this codebase — the Figure 7 design-space
 * sweep, the variation and functional-yield Monte Carlos — is a map
 * over an index space [0, n) in which item i's result depends only
 * on i (and on per-item seeds derived from i, never on a shared RNG
 * stream). That structure makes parallelism trivially deterministic:
 * work items are identified by index, results are stored by index,
 * and any reduction happens sequentially in index order afterwards.
 * Under that contract the output is bit-identical for every thread
 * count and every scheduling interleaving.
 *
 * ThreadPool is a fixed-size, reusable pool. parallelFor(n, fn)
 * dynamically load-balances indices over the workers (claimed via an
 * atomic counter — cheap items and 1000x-outlier items coexist in
 * the Monte Carlos), the calling thread participates as worker 0,
 * and the first exception thrown by any item is rethrown on the
 * caller after the whole job has drained. parallelMap collects
 * fn(i) into a vector by index. A stop check (StopScope) lets the
 * pool's owner cancel a job within one item.
 *
 * One execution context: a pool's owner (a bench main, printedd,
 * perfbench) creates it and decides its size. Library entries take
 * the caller's pool through a `ThreadPool *pool` option; a null pool
 * means a one-thread pool local to the call, which runs the items on
 * the calling thread. No library creates a thread of its own, so
 * every item runs where the owner's stop check can reach it.
 *
 * Determinism rules for callers (see DESIGN.md):
 *   1. fn(i) must not read mutable state shared with other items.
 *   2. Randomness inside an item must come from an Rng seeded by
 *      mixSeed(masterSeed, i) (common/rng.hh), never from a stream
 *      shared across items.
 *   3. Floating-point reductions are done by the caller over the
 *      index-ordered result vector, never via atomics.
 */

#ifndef PRINTED_COMMON_PARALLEL_HH
#define PRINTED_COMMON_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace printed
{

/**
 * Fixed-size pool of worker threads executing indexed jobs.
 *
 * A pool of size T runs jobs on T-1 internal workers plus the
 * calling thread, so ThreadPool(1) spawns no threads at all and
 * executes inline. Pools are reusable: any number of parallelFor /
 * parallelMap calls may be issued (from one thread at a time).
 */
class ThreadPool
{
  public:
    /**
     * @param threads total worker count including the caller;
     *        0 = hardware concurrency.
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency (internal workers + calling thread). */
    unsigned threadCount() const { return threads_; }

    /** Hardware concurrency, with a floor of 1. */
    static unsigned defaultThreadCount();

    /**
     * Installs `check` on the pool for the guard's lifetime; create
     * it on the thread that submits the pool's jobs. Every job then
     * calls it before each item, on the worker that claims the item
     * and outside fn (no catch in fn sees it); an exception from it
     * stops the job as an item's exception would.
     */
    class StopScope
    {
      public:
        StopScope(ThreadPool &pool, std::function<void()> check)
            : pool_(pool)
        {
            pool_.stopCheck_ = std::move(check);
        }
        ~StopScope() { pool_.stopCheck_ = nullptr; }

        StopScope(const StopScope &) = delete;
        StopScope &operator=(const StopScope &) = delete;

      private:
        ThreadPool &pool_;
    };

    /**
     * Run fn(i) for every i in [0, n); blocks until all items have
     * finished. If any item throws, the first exception (in claim
     * order) is rethrown here once the job has drained; remaining
     * unclaimed items are skipped. n == 0 returns immediately.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Like parallelFor, but fn also receives the executing worker's
     * slot in [0, threadCount()) so callers can reuse expensive
     * per-worker scratch state (e.g. gate-level simulators). The
     * slot an item lands on is scheduling-dependent; results must
     * depend only on the item index.
     */
    void parallelForWorkers(
        std::size_t n,
        const std::function<void(std::size_t, unsigned)> &fn);

    /**
     * Map [0, n) through fn and return the results in index order.
     * Deterministic for any thread count when fn obeys the header
     * contract.
     */
    template <typename Fn>
    auto
    parallelMap(std::size_t n, Fn &&fn)
        -> std::vector<decltype(fn(std::size_t(0)))>
    {
        using T = decltype(fn(std::size_t(0)));
        std::vector<std::optional<T>> slots(n);
        parallelFor(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
        std::vector<T> out;
        out.reserve(n);
        for (std::optional<T> &s : slots)
            out.push_back(std::move(*s));
        return out;
    }

  private:
    struct Job;

    void workerLoop(unsigned slot);
    void runJob(Job &job, unsigned slot);

    unsigned threads_ = 1;
    std::vector<std::thread> workers_;
    std::function<void()> stopCheck_; ///< see StopScope; owner only

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
    std::shared_ptr<Job> current_;
};

} // namespace printed

#endif // PRINTED_COMMON_PARALLEL_HH
