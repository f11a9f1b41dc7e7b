#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/server_pool.hpp"

namespace orianna::runtime {

/** Construction-time knobs of an AdmissionController. */
struct AdmissionOptions
{
    /**
     * Maximum tasks queued (admitted but not yet started) per worker
     * lane. A submission that would exceed it is *rejected* — load is
     * shed at the front door with a typed outcome instead of growing
     * an unbounded queue whose tail latency grows with it. Must be
     * >= 1.
     */
    std::size_t queueCapacity = 64;
};

/**
 * Admission control / backpressure in front of a ServerPool's pinned
 * lanes: the overload valve of the serving stack (DESIGN.md §5).
 *
 * Callers route work to a worker through submit(), which either
 * admits the task into that worker's bounded FIFO lane or rejects it
 * outright. Overload therefore degrades into explicit, cheap
 * rejections the client can retry elsewhere — never into an
 * ever-deeper queue — and an admitted task's queueing delay is
 * bounded by queueCapacity predecessors.
 *
 * The controller also contains task exceptions (a pinned task has no
 * batch waiter to rethrow into): the first failure is captured and
 * rethrown from drain(), later ones are counted.
 *
 * Thread safety: submit()/drain()/queries may be called from any
 * thread; per-lane depth is a padded relaxed atomic so concurrent
 * submitters to different lanes never share a cache line.
 *
 * Metrics: `admission.admitted`, `admission.rejected`,
 * `admission.task_errors` counters; `admission.inflight` gauge;
 * `admission.queue_depth_peak` high-water gauge.
 */
class AdmissionController
{
  public:
    enum class Status
    {
        Admitted,
        Rejected
    };

    /** Typed outcome of one submission attempt. */
    struct Outcome
    {
        Status status = Status::Rejected;
        unsigned worker = 0;      //!< Lane the decision was made for.
        std::size_t depth = 0;    //!< Queue depth seen at decision.
        std::size_t capacity = 0; //!< The lane's configured bound.

        bool
        admitted() const
        {
            return status == Status::Admitted;
        }
    };

    explicit AdmissionController(ServerPool &pool,
                                 AdmissionOptions options = {});

    /** Blocks until every admitted task completed (drain()). */
    ~AdmissionController();

    AdmissionController(const AdmissionController &) = delete;
    AdmissionController &operator=(const AdmissionController &) =
        delete;

    /**
     * Admit @p task into @p worker's lane or reject it. On admission
     * the task is pinned to that worker (never stolen) behind the
     * lane's earlier tasks; on rejection the task is dropped
     * untouched — it never runs, so whatever state it would have
     * mutated stays exactly as it was.
     */
    Outcome submit(unsigned worker, std::function<void()> task);

    /**
     * Block until every admitted task has completed, then rethrow the
     * first task exception captured since the last drain (if any).
     */
    void drain();

    /** Queued-but-unstarted tasks in @p worker's lane right now. */
    std::size_t depth(unsigned worker) const;

    std::uint64_t admitted() const
    {
        return admitted_.load(std::memory_order_relaxed);
    }

    std::uint64_t rejected() const
    {
        return rejected_.load(std::memory_order_relaxed);
    }

    std::size_t capacity() const { return options_.queueCapacity; }

  private:
    /**
     * Per-lane admission state, cache-line aligned so submitters and
     * completing workers of different lanes never false-share.
     */
    struct alignas(64) Lane
    {
        std::atomic<std::size_t> depth{0};
    };

    void finishOne(std::exception_ptr error);

    ServerPool &pool_;
    AdmissionOptions options_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::atomic<std::uint64_t> admitted_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::size_t> inflight_{0};
    mutable std::mutex drainMutex_;
    std::condition_variable drained_;
    std::exception_ptr firstError_; //!< Guarded by drainMutex_.
};

} // namespace orianna::runtime
