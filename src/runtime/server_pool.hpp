#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace orianna::runtime {

/**
 * Fork-join thread pool for the serving runtime: drives many Sessions
 * (or any coarse batch of independent tasks) concurrently.
 *
 * One mutex guards every batch (DESIGN.md Sec. 5). Tasks are coarse —
 * whole frames, sessions or missions, microseconds to milliseconds
 * each — so queue operations are not the bottleneck. A parallelFor
 * batch is one claim counter: workers take its indices in order, one
 * at a time, so no placement has to be rebalanced later.
 *
 * parallelFor() is the one submission interface: deterministic index
 * space, caller blocks until every index ran, first exception is
 * rethrown on the caller. Parallelism is always *across* independent
 * tasks (sessions, missions) — never inside one frame's scoreboard —
 * so schedules and numeric outputs are byte-identical to sequential
 * execution by construction.
 */
class ServerPool
{
  public:
    /**
     * Start @p threads workers; 0 picks
     * std::thread::hardware_concurrency() (at least 1).
     */
    explicit ServerPool(unsigned threads = 0);

    ~ServerPool();

    ServerPool(const ServerPool &) = delete;
    ServerPool &operator=(const ServerPool &) = delete;

    /** Number of worker threads. */
    unsigned threads() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Run @p body(i) for every i in [0, count) across the workers and
     * wait for all of them. Idle workers claim the indices of the
     * oldest open batch in order. The first exception thrown by any
     * task is rethrown here after every index ran; the remaining
     * tasks still run (they are independent by contract).
     *
     * Re-entrant: a task may itself call parallelFor on the same
     * pool. The submitting worker claims its own batch's indices
     * itself, then waits only for the indices other workers hold, so
     * nesting from every worker at once cannot deadlock the pool and
     * the waiter never runs unrelated work. A caller that is not a
     * worker of this pool only waits.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    /**
     * Tasks executed per worker since construction (the per-thread
     * totals reported by the tools). Index = worker id.
     */
    std::vector<std::uint64_t> tasksExecuted() const;

  private:
    struct Batch;

    /**
     * Claim the next index of @p batch for worker @p self, run it
     * with the lock released, and record its outcome. Entered and
     * left with @p lock held.
     */
    void runIndex(std::unique_lock<std::mutex> &lock, Batch &batch,
                  unsigned self);
    void workerLoop(unsigned self);

    /** Guards the three members below it and every Batch's state. */
    mutable std::mutex mutex_;
    std::vector<std::uint64_t> executed_;
    /** Batches with unclaimed indices, oldest first. */
    std::deque<Batch *> open_;
    bool stop_ = false;
    std::condition_variable wake_; //!< New work, or stop.
    std::vector<std::thread> threads_;
};

} // namespace orianna::runtime
