#include "runtime/server_pool.hpp"

#include <algorithm>
#include <exception>

#include "runtime/metrics.hpp"

namespace orianna::runtime {

namespace {

/** Worker id of this thread within its owning pool; -1 elsewhere. */
thread_local int tls_worker = -1;

/** The pool owning this worker thread; nullptr on non-pool threads. */
thread_local const void *tls_pool = nullptr;

} // namespace

/**
 * One parallelFor call. Lives on the caller's stack; every field but
 * the two constants is guarded by the pool mutex.
 */
struct ServerPool::Batch
{
    const std::function<void(std::size_t)> &body;
    const std::size_t count;
    std::size_t next = 0;      //!< First unclaimed index.
    std::size_t remaining;     //!< Indices not yet finished.
    std::exception_ptr error;  //!< First failure, rethrown by caller.
    std::condition_variable done;

    Batch(const std::function<void(std::size_t)> &fn, std::size_t n)
        : body(fn), count(n), remaining(n)
    {
    }
};

ServerPool::ServerPool(unsigned threads)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    executed_.assign(threads, 0);
    threads_.reserve(threads);
    for (unsigned w = 0; w < threads; ++w)
        threads_.emplace_back([this, w] { workerLoop(w); });
}

ServerPool::~ServerPool()
{
    {
        std::lock_guard lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
}

void
ServerPool::runIndex(std::unique_lock<std::mutex> &lock, Batch &batch,
                     unsigned self)
{
    const std::size_t index = batch.next++;
    if (batch.next == batch.count)
        open_.erase(std::find(open_.begin(), open_.end(), &batch));
    ++executed_[self];
    lock.unlock();

    if (MetricsRegistry::enabled())
        MetricsRegistry::global().counter("pool.tasks").add();
    std::exception_ptr error;
    try {
        batch.body(index);
    } catch (...) {
        error = std::current_exception();
    }

    lock.lock();
    if (error && !batch.error)
        batch.error = std::move(error);
    // Notify under the lock: the waiter may destroy the batch as soon
    // as it can reacquire the mutex.
    if (--batch.remaining == 0)
        batch.done.notify_all();
}

void
ServerPool::workerLoop(unsigned self)
{
    tls_worker = static_cast<int>(self);
    tls_pool = this;
    std::unique_lock lock(mutex_);
    while (true) {
        if (!open_.empty())
            runIndex(lock, *open_.front(), self);
        else if (stop_)
            return;
        else
            wake_.wait(lock);
    }
}

void
ServerPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    Batch batch(body, count);
    if (MetricsRegistry::enabled())
        MetricsRegistry::global().counter("pool.batches").add();

    std::unique_lock lock(mutex_);
    open_.push_back(&batch);
    wake_.notify_all();
    // A worker of this pool that submits a batch must not only block
    // on it: every other worker may equally be a submitter waiting on
    // its own nested batch, leaving no thread to run any index — the
    // classic nested-fork-join deadlock. It claims its own indices
    // instead, so it waits only for indices that other workers hold
    // and are running. It runs no other batch's work, so its return
    // is delayed only by this batch's stragglers.
    if (tls_pool == this)
        while (batch.next < batch.count)
            runIndex(lock, batch, static_cast<unsigned>(tls_worker));
    batch.done.wait(lock, [&batch] { return batch.remaining == 0; });
    lock.unlock();
    if (batch.error)
        std::rethrow_exception(batch.error);
}

std::vector<std::uint64_t>
ServerPool::tasksExecuted() const
{
    std::lock_guard lock(mutex_);
    return executed_;
}

} // namespace orianna::runtime
