#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace orianna::runtime {

/**
 * Work-stealing thread pool for the serving runtime: drives many
 * Sessions (or any coarse batch of independent tasks) concurrently.
 *
 * Layout follows the ownership rules of the runtime layer (DESIGN.md
 * Sec. 5): each worker owns a private task deque and pops from its
 * back (LIFO, cache-warm); an idle worker steals from the front of a
 * victim's deque (FIFO, oldest task — the classic Chase-Lev
 * discipline, here with per-deque mutexes because tasks are coarse:
 * whole frames, sessions or candidate simulations, microseconds to
 * milliseconds each, so queue operations are not the bottleneck).
 *
 * Besides the batch deque every worker owns a FIFO *pinned* lane
 * (submitPinned): tasks routed to a specific worker — the admitted
 * client sessions of AdmissionController — which are never stolen.
 * A worker drains its pinned lane before touching batch work.
 *
 * Worker identity is exposed through currentWorker() so callers can
 * keep per-worker state — warm ExecutionContexts above all — without
 * any locking: a slot indexed by the worker id is only ever touched
 * by that worker's thread, and parallelFor()'s completion acts as the
 * release fence before the caller reads the slots back.
 *
 * parallelFor() is the batch submission interface: deterministic
 * index space, caller blocks until every index ran, first exception
 * is rethrown on the caller. Parallelism is always *across*
 * independent tasks (sessions, candidates, missions) — never inside
 * one frame's scoreboard — so schedules and numeric outputs are
 * byte-identical to sequential execution by construction.
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
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Worker id of the calling thread: 0..threads()-1 on a pool
     * thread, -1 anywhere else (tasks always run on pool threads).
     */
    static int currentWorker();

    /**
     * Run @p body(i) for every i in [0, count) across the workers and
     * wait for all of them. Tasks are distributed round-robin and
     * rebalanced by stealing. The first exception thrown by any task
     * is rethrown here after the batch drains; remaining tasks still
     * run (they are independent by contract).
     *
     * Re-entrant: a task may itself call parallelFor on the same
     * pool. The submitting worker does not block on its nested batch
     * — it helps execute pending tasks until the batch completes, so
     * nesting from every worker at once cannot deadlock the pool.
     * While helping it *prefers tasks of the batch it is waiting on*
     * (its own queue first, then steals) over unrelated work, so the
     * waiter's latency is bounded by its own batch's stragglers, not
     * by whatever other task it happened to pick up.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    /**
     * Enqueue one task at the back of @p worker's pinned lane. Pinned
     * tasks are never stolen, run in submission order, and are
     * drained before the worker's batch deque. Returns immediately;
     * completion tracking (and exception containment — a pinned task
     * has no batch waiter to rethrow into, so it must not throw) is
     * the caller's job: AdmissionController wraps both.
     */
    void submitPinned(unsigned worker, std::function<void()> task);

    /**
     * Tasks executed per worker since construction (the per-thread
     * totals reported by the tools). Index = worker id.
     */
    std::vector<std::uint64_t> tasksExecuted() const;

    /**
     * Tasks a worker took from another worker's deque since
     * construction (the rebalancing traffic). Index = thief's id.
     */
    std::vector<std::uint64_t> stealsPerWorker() const;

    /** Total steals across all workers. */
    std::uint64_t steals() const;

  private:
    struct Batch;

    /** One queued unit of work. */
    struct Task
    {
        std::function<void()> fn;
        const Batch *batch = nullptr; //!< Owning batch (null: pinned).
    };

    /**
     * Per-worker state, cache-line aligned: the mutex word and the
     * executed/stolen counters are written on every dequeue, so two
     * workers whose structs shared a line would false-share on the
     * hottest path of the pool. (Workers are also heap-allocated
     * individually, so the alignment is honored by aligned new.)
     */
    struct alignas(64) Worker
    {
        mutable std::mutex mutex;
        std::deque<Task> queue;  //!< Batch tasks: stealable.
        std::deque<Task> pinned; //!< Admitted tasks: never stolen.
        std::uint64_t executed = 0; //!< Guarded by mutex.
        std::uint64_t stolen = 0;   //!< Guarded by mutex.
    };

    bool popPinned(unsigned self, Task &task);
    bool popLocal(unsigned self, Task &task);
    /** Front-most local task belonging to @p batch, if any. */
    bool popLocalBatch(unsigned self, const Batch *batch, Task &task);
    bool steal(unsigned self, Task &task);
    /** Steal a task of @p batch specifically (helps drain it). */
    bool stealBatch(unsigned self, const Batch *batch, Task &task);
    void workerLoop(unsigned self);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    std::mutex wakeMutex_;
    std::condition_variable wake_;
    bool stop_ = false;
};

} // namespace orianna::runtime
