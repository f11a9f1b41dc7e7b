#include "runtime/admission.hpp"

#include <stdexcept>

#include "runtime/metrics.hpp"

namespace orianna::runtime {

AdmissionController::AdmissionController(ServerPool &pool,
                                         AdmissionOptions options)
    : pool_(pool), options_(options)
{
    if (options_.queueCapacity == 0)
        throw std::invalid_argument(
            "AdmissionController: queueCapacity must be >= 1");
    lanes_.reserve(pool.threads());
    for (unsigned w = 0; w < pool.threads(); ++w)
        lanes_.push_back(std::make_unique<Lane>());
}

AdmissionController::~AdmissionController()
{
    // Admitted tasks borrow `this` for completion bookkeeping, so the
    // controller must not die before they do. Swallow a pending task
    // error here — a destructor cannot rethrow it.
    try {
        drain();
    } catch (...) {
    }
}

AdmissionController::Outcome
AdmissionController::submit(unsigned worker,
                            std::function<void()> task)
{
    Lane &lane = *lanes_.at(worker);
    Outcome outcome;
    outcome.worker = worker;
    outcome.capacity = options_.queueCapacity;

    // Claim a queue slot optimistically; undo when over the bound.
    // The fetch_add keeps racing submitters honest: at most
    // queueCapacity claims can coexist, whoever exceeds it backs out.
    const std::size_t depth =
        lane.depth.fetch_add(1, std::memory_order_relaxed) + 1;
    if (depth > options_.queueCapacity) {
        lane.depth.fetch_sub(1, std::memory_order_relaxed);
        rejected_.fetch_add(1, std::memory_order_relaxed);
        if (MetricsRegistry::enabled())
            MetricsRegistry::global()
                .counter("admission.rejected")
                .add();
        outcome.status = Status::Rejected;
        outcome.depth = depth - 1;
        return outcome;
    }

    admitted_.fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_add(1, std::memory_order_relaxed);
    if (MetricsRegistry::enabled()) {
        auto &metrics = MetricsRegistry::global();
        metrics.counter("admission.admitted").add();
        metrics.gauge("admission.inflight").add(1);
        metrics.gauge("admission.queue_depth_peak")
            .max(static_cast<std::int64_t>(depth));
    }

    pool_.submitPinned(worker, [this, &lane, fn = std::move(task)] {
        // The queue slot frees when the task *starts*: depth counts
        // waiting work, which is what the shedding bound is about.
        lane.depth.fetch_sub(1, std::memory_order_relaxed);
        std::exception_ptr error;
        try {
            fn();
        } catch (...) {
            error = std::current_exception();
        }
        finishOne(std::move(error));
    });

    outcome.status = Status::Admitted;
    outcome.depth = depth;
    return outcome;
}

void
AdmissionController::finishOne(std::exception_ptr error)
{
    if (MetricsRegistry::enabled()) {
        auto &metrics = MetricsRegistry::global();
        metrics.gauge("admission.inflight").add(-1);
        if (error)
            metrics.counter("admission.task_errors").add();
    }
    if (error) {
        std::lock_guard lock(drainMutex_);
        if (!firstError_)
            firstError_ = std::move(error);
    }
    if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard lock(drainMutex_);
        drained_.notify_all();
    }
}

void
AdmissionController::drain()
{
    std::unique_lock lock(drainMutex_);
    drained_.wait(lock, [this] {
        return inflight_.load(std::memory_order_acquire) == 0;
    });
    if (firstError_) {
        std::exception_ptr error = std::move(firstError_);
        firstError_ = nullptr;
        std::rethrow_exception(error);
    }
}

std::size_t
AdmissionController::depth(unsigned worker) const
{
    return lanes_.at(worker)->depth.load(std::memory_order_relaxed);
}

} // namespace orianna::runtime
