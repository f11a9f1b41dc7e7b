// The ServerPool's help-while-wait discipline (DESIGN.md §5): a
// worker waiting in parallelFor runs its own batch's indices and no
// unrelated work, so nested-batch latency is bounded and a nested
// batch finishes even while every other worker is busy.

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/server_pool.hpp"

namespace {

using namespace orianna;
using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

TEST(ServerPoolHelpTest, WaiterPrefersItsOwnBatchOverUnrelatedWork)
{
    // Regression for the help-while-wait p99 pathology: a worker
    // waiting on its nested batch used to pick up *any* pending task
    // — including another client's long frame — so the nested batch's
    // completion was gated on unrelated work. With batch-preference
    // helping, the wait is bounded by the nested batch itself.
    //
    // Layout on 2 workers (indices claimed in order): the outer batch
    // is tasks {0,1,2,3}; the workers take the long tasks 0 and 1,
    // then one takes 2 (the spawner) and the other 3 (a long task).
    // The spawner's nested batch must not wait on the long outer
    // tasks 0/1/3.
    constexpr auto kLongTask = std::chrono::milliseconds(150);
    runtime::ServerPool pool(2);
    std::atomic<double> nested_wait_ms{-1.0};
    pool.parallelFor(4, [&](std::size_t i) {
        if (i == 2) {
            // Give worker 1 time to start a long task, then measure
            // how long the nested batch takes to come back.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
            std::atomic<int> nested_ran{0};
            const auto start = Clock::now();
            pool.parallelFor(4,
                             [&nested_ran](std::size_t) {
                                 ++nested_ran;
                             });
            nested_wait_ms.store(elapsedMs(start));
            EXPECT_EQ(nested_ran.load(), 4);
        } else {
            std::this_thread::sleep_for(kLongTask);
        }
    });
    ASSERT_GE(nested_wait_ms.load(), 0.0);
    // Bound well below one long task: the old behavior waited for at
    // least one (often two) 150 ms outer tasks here.
    EXPECT_LT(nested_wait_ms.load(), 75.0);
}

TEST(ServerPoolHelpTest, NestedBatchFinishesWhileOtherWorkersAreBusy)
{
    // A worker that submits a nested batch runs its indices itself:
    // with every other worker held by another batch, the nested batch
    // still finishes, all on the submitter.
    runtime::ServerPool pool(3);
    std::vector<std::thread::id> ran_on(8);
    std::thread::id submitter;
    std::promise<void> started[2];
    std::future<void> started_futures[2] = {started[0].get_future(),
                                            started[1].get_future()};
    std::future<void> held;
    std::future<void> outer;
    // Declared after both futures, so it releases the held workers
    // before either waits for its task on every path: a pool that
    // waits on its peers fails the deadline below instead of hanging.
    struct Release
    {
        std::promise<void> promise;
        ~Release() { promise.set_value(); }
    } release;
    const std::shared_future<void> gate =
        release.promise.get_future().share();

    // Each index blocks, so the two run on two different workers.
    held = std::async(std::launch::async, [&pool, &started, gate] {
        pool.parallelFor(2, [&started, gate](std::size_t i) {
            started[i].set_value();
            gate.wait();
        });
    });
    for (std::future<void> &f : started_futures)
        f.wait();

    outer = std::async(std::launch::async, [&pool, &ran_on,
                                            &submitter] {
        pool.parallelFor(1, [&pool, &ran_on, &submitter](std::size_t) {
            submitter = std::this_thread::get_id();
            pool.parallelFor(ran_on.size(), [&ran_on](std::size_t i) {
                ran_on[i] = std::this_thread::get_id();
            });
        });
    });
    ASSERT_EQ(outer.wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "the nested batch waited for the busy workers";
    outer.get();
    ASSERT_NE(submitter, std::thread::id());
    EXPECT_EQ(ran_on, std::vector<std::thread::id>(8, submitter));
}

} // namespace
