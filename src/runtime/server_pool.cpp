#include "runtime/server_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "runtime/metrics.hpp"

namespace orianna::runtime {

namespace {

/** Worker id of this thread within its owning pool; -1 elsewhere. */
thread_local int tls_worker = -1;

/** The pool owning this worker thread; nullptr on non-pool threads. */
thread_local const void *tls_pool = nullptr;

} // namespace

/** Completion state of one parallelFor call. */
struct ServerPool::Batch
{
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
    std::exception_ptr error; //!< First failure, rethrown by caller.

    explicit Batch(std::size_t count) : remaining(count) {}

    void
    finishOne(std::exception_ptr e)
    {
        std::lock_guard lock(mutex);
        if (e && !error)
            error = std::move(e);
        if (--remaining == 0)
            done.notify_all();
    }
};

ServerPool::ServerPool(unsigned threads)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    workers_.reserve(threads);
    for (unsigned w = 0; w < threads; ++w)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(threads);
    for (unsigned w = 0; w < threads; ++w)
        threads_.emplace_back([this, w] { workerLoop(w); });
}

ServerPool::~ServerPool()
{
    {
        std::lock_guard lock(wakeMutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
}

int
ServerPool::currentWorker()
{
    return tls_worker;
}

bool
ServerPool::popPinned(unsigned self, Task &task)
{
    Worker &worker = *workers_[self];
    std::lock_guard lock(worker.mutex);
    if (worker.pinned.empty())
        return false;
    task = std::move(worker.pinned.front());
    worker.pinned.pop_front();
    ++worker.executed;
    if (MetricsRegistry::enabled()) {
        auto &metrics = MetricsRegistry::global();
        metrics.counter("pool.tasks").add();
        metrics.counter("pool.pinned_tasks").add();
    }
    return true;
}

bool
ServerPool::popLocal(unsigned self, Task &task)
{
    Worker &worker = *workers_[self];
    std::lock_guard lock(worker.mutex);
    if (worker.queue.empty())
        return false;
    task = std::move(worker.queue.back());
    worker.queue.pop_back();
    ++worker.executed;
    if (MetricsRegistry::enabled())
        MetricsRegistry::global().counter("pool.tasks").add();
    return true;
}

bool
ServerPool::popLocalBatch(unsigned self, const Batch *batch,
                          Task &task)
{
    Worker &worker = *workers_[self];
    std::lock_guard lock(worker.mutex);
    for (std::size_t i = 0; i < worker.queue.size(); ++i) {
        if (worker.queue[i].batch != batch)
            continue;
        task = std::move(worker.queue[i]);
        worker.queue.erase(worker.queue.begin() +
                           static_cast<std::ptrdiff_t>(i));
        ++worker.executed;
        if (MetricsRegistry::enabled())
            MetricsRegistry::global().counter("pool.tasks").add();
        return true;
    }
    return false;
}

bool
ServerPool::steal(unsigned self, Task &task)
{
    const unsigned n = threads();
    for (unsigned step = 1; step < n; ++step) {
        Worker &victim = *workers_[(self + step) % n];
        {
            std::lock_guard lock(victim.mutex);
            if (victim.queue.empty())
                continue;
            // Steal the oldest task: it is the farthest from the
            // victim's working set and the largest remaining chunk of
            // the batch.
            task = std::move(victim.queue.front());
            victim.queue.pop_front();
        }
        // Book the theft under the thief's own mutex — the victim's
        // lock guards the victim's counters, not ours.
        Worker &me = *workers_[self];
        {
            std::lock_guard lock(me.mutex);
            ++me.executed;
            ++me.stolen;
        }
        if (MetricsRegistry::enabled()) {
            auto &metrics = MetricsRegistry::global();
            metrics.counter("pool.tasks").add();
            metrics.counter("pool.steals").add();
        }
        return true;
    }
    return false;
}

bool
ServerPool::stealBatch(unsigned self, const Batch *batch, Task &task)
{
    const unsigned n = threads();
    for (unsigned step = 1; step < n; ++step) {
        Worker &victim = *workers_[(self + step) % n];
        bool took = false;
        {
            std::lock_guard lock(victim.mutex);
            for (std::size_t i = 0; i < victim.queue.size(); ++i) {
                if (victim.queue[i].batch != batch)
                    continue;
                task = std::move(victim.queue[i]);
                victim.queue.erase(
                    victim.queue.begin() +
                    static_cast<std::ptrdiff_t>(i));
                took = true;
                break;
            }
        }
        if (!took)
            continue;
        Worker &me = *workers_[self];
        {
            std::lock_guard lock(me.mutex);
            ++me.executed;
            ++me.stolen;
        }
        if (MetricsRegistry::enabled()) {
            auto &metrics = MetricsRegistry::global();
            metrics.counter("pool.tasks").add();
            metrics.counter("pool.steals").add();
        }
        return true;
    }
    return false;
}

void
ServerPool::workerLoop(unsigned self)
{
    tls_worker = static_cast<int>(self);
    tls_pool = this;
    Task task;
    while (true) {
        // Pinned work first: it is latency-sensitive client traffic
        // routed specifically to this worker, and nobody else can
        // run it.
        if (popPinned(self, task) || popLocal(self, task) ||
            steal(self, task)) {
            task.fn();
            task.fn = nullptr;
            continue;
        }
        std::unique_lock lock(wakeMutex_);
        if (stop_)
            return;
        // Re-check the queues under the wake lock: a submitter
        // publishes tasks before notifying, so missing a task here
        // would mean it was pushed after this check and the notify is
        // still pending.
        bool any = false;
        for (const auto &worker : workers_) {
            std::lock_guard inner(worker->mutex);
            if (!worker->queue.empty() || !worker->pinned.empty()) {
                any = true;
                break;
            }
        }
        if (any)
            continue;
        wake_.wait(lock);
    }
}

void
ServerPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    Batch batch(count);

    // Round-robin initial placement; stealing rebalances skew. Tasks
    // only borrow `body` and `batch`, both alive until the wait below
    // returns.
    const unsigned n = threads();
    const bool metrics_on = MetricsRegistry::enabled();
    std::size_t deepest = 0;
    for (std::size_t i = 0; i < count; ++i) {
        Worker &worker = *workers_[i % n];
        Task task;
        task.fn = [&body, &batch, i] {
            std::exception_ptr error;
            try {
                body(i);
            } catch (...) {
                error = std::current_exception();
            }
            batch.finishOne(std::move(error));
        };
        task.batch = &batch;
        std::lock_guard lock(worker.mutex);
        worker.queue.push_back(std::move(task));
        deepest = std::max(deepest, worker.queue.size());
    }
    if (metrics_on) {
        auto &metrics = MetricsRegistry::global();
        metrics.counter("pool.batches").add();
        metrics.gauge("pool.queue_depth_peak")
            .max(static_cast<std::int64_t>(deepest));
    }
    // Synchronize with sleeping workers: a worker holds wakeMutex_
    // from its final empty-queue check until it blocks, so acquiring
    // it here guarantees either the worker re-checks after the pushes
    // above or the notification reaches its wait.
    {
        std::lock_guard lock(wakeMutex_);
    }
    wake_.notify_all();

    // A pool worker that submits a batch must not block on it: every
    // other worker may equally be a submitter waiting on its own
    // nested batch, leaving no thread to run any queued task — the
    // classic nested-fork-join deadlock. A waiting worker instead
    // helps execute pending tasks until its batch completes — and it
    // prefers tasks *of the batch it is waiting on* (its own queue
    // first, then steals) over unrelated work, so its return is
    // delayed only by this batch's stragglers, never by a long
    // unrelated task it happened to pick up. Pinned tasks are left to
    // their owning worker: they are long-running client work and
    // never gate batch completion.
    if (tls_pool == this && tls_worker >= 0) {
        const unsigned self = static_cast<unsigned>(tls_worker);
        Task task;
        for (;;) {
            {
                std::lock_guard done_lock(batch.mutex);
                if (batch.remaining == 0)
                    break;
            }
            if (popLocalBatch(self, &batch, task) ||
                stealBatch(self, &batch, task) ||
                popLocal(self, task) || steal(self, task)) {
                task.fn();
                task.fn = nullptr;
                continue;
            }
            // Nothing runnable anywhere: the batch's stragglers are
            // in flight on other workers. Doze on the batch condvar —
            // with a timeout, so work queued between the scan above
            // and this wait is picked up promptly.
            std::unique_lock done_lock(batch.mutex);
            batch.done.wait_for(
                done_lock, std::chrono::microseconds(200),
                [&batch] { return batch.remaining == 0; });
        }
    } else {
        std::unique_lock done_lock(batch.mutex);
        batch.done.wait(done_lock,
                        [&batch] { return batch.remaining == 0; });
    }
    if (batch.error)
        std::rethrow_exception(batch.error);
}

void
ServerPool::submitPinned(unsigned worker, std::function<void()> task)
{
    Task pinned;
    pinned.fn = std::move(task);
    {
        Worker &lane = *workers_.at(worker);
        std::lock_guard lock(lane.mutex);
        lane.pinned.push_back(std::move(pinned));
    }
    // Same wake protocol as parallelFor: publish, then synchronize
    // with any worker between its final queue check and its wait.
    {
        std::lock_guard lock(wakeMutex_);
    }
    wake_.notify_all();
}

std::vector<std::uint64_t>
ServerPool::tasksExecuted() const
{
    std::vector<std::uint64_t> counts;
    counts.reserve(workers_.size());
    for (const auto &worker : workers_) {
        std::lock_guard lock(worker->mutex);
        counts.push_back(worker->executed);
    }
    return counts;
}

std::vector<std::uint64_t>
ServerPool::stealsPerWorker() const
{
    std::vector<std::uint64_t> counts;
    counts.reserve(workers_.size());
    for (const auto &worker : workers_) {
        std::lock_guard lock(worker->mutex);
        counts.push_back(worker->stolen);
    }
    return counts;
}

std::uint64_t
ServerPool::steals() const
{
    std::uint64_t total = 0;
    for (std::uint64_t s : stealsPerWorker())
        total += s;
    return total;
}

} // namespace orianna::runtime
