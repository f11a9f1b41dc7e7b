// The serving stack (DESIGN.md §5): AdmissionController bounded FIFO
// lanes in front of one shared Engine, and the ServerPool's pinned
// lanes and help-while-wait discipline.
//
// The invariants under test are the serving-layer contract:
//   - admitted sessions on one shared Engine are bit-identical to
//     sequentially served ones;
//   - admission rejection under saturation is typed and leaves the
//     rejected client's state untouched;
//   - a pinned lane drains in submission order;
//   - a worker waiting in parallelFor runs its own batch's indices
//     and no unrelated work, so nested-batch latency is bounded and a
//     nested batch finishes even while every other worker is pinned.

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "runtime/admission.hpp"
#include "runtime/engine.hpp"
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

/** Bitwise equality of two Values: every double, exact bit pattern. */
bool
bitIdentical(const fg::Values &a, const fg::Values &b)
{
    const auto sameBits = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(double)) == 0;
    };
    if (a.keys() != b.keys())
        return false;
    for (fg::Key key : a.keys()) {
        if (a.isPose(key) != b.isPose(key))
            return false;
        if (a.isPose(key)) {
            const lie::Pose &pa = a.pose(key);
            const lie::Pose &pb = b.pose(key);
            for (std::size_t i = 0; i < pa.phi().size(); ++i)
                if (!sameBits(pa.phi()[i], pb.phi()[i]))
                    return false;
            for (std::size_t i = 0; i < pa.t().size(); ++i)
                if (!sameBits(pa.t()[i], pb.t()[i]))
                    return false;
        } else {
            const mat::Vector &va = a.vector(key);
            const mat::Vector &vb = b.vector(key);
            if (va.size() != vb.size())
                return false;
            for (std::size_t i = 0; i < va.size(); ++i)
                if (!sameBits(va[i], vb[i]))
                    return false;
        }
    }
    return true;
}

TEST(AdmissionTest, RejectsWhenSaturatedAndLeavesValuesUntouched)
{
    runtime::ServerPool pool(1);
    runtime::AdmissionController admission(
        pool, {/*queueCapacity=*/2});

    // The session the shed client *would* have stepped: after the
    // rejection it must be exactly as constructed.
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
    apps::BenchmarkApp bench =
        apps::buildApp(apps::AppKind::MobileRobot, 2);
    const core::Algorithm &loc = bench.app.algorithm(0);
    runtime::Session victim = engine.session(loc.graph, loc.values);
    const fg::Values before = victim.values();

    // Saturate: a blocker occupies the only worker, then two admitted
    // tasks fill the lane to its bound.
    std::promise<void> started;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    admission.submit(0, [&started, gate] {
        started.set_value();
        gate.wait();
    });
    started.get_future().wait();

    std::atomic<int> ran{0};
    for (int i = 0; i < 2; ++i) {
        const auto outcome =
            admission.submit(0, [&ran] { ++ran; });
        ASSERT_TRUE(outcome.admitted());
        EXPECT_EQ(outcome.depth, static_cast<std::size_t>(i + 1));
    }
    EXPECT_EQ(admission.depth(0), 2u);

    // The lane is full: the next client is shed with a typed outcome
    // and its task never runs.
    bool stepped = false;
    const auto rejected =
        admission.submit(0, [&victim, &stepped] {
            stepped = true;
            victim.step();
        });
    EXPECT_FALSE(rejected.admitted());
    EXPECT_EQ(rejected.status,
              runtime::AdmissionController::Status::Rejected);
    EXPECT_EQ(rejected.worker, 0u);
    EXPECT_EQ(rejected.depth, 2u);
    EXPECT_EQ(rejected.capacity, 2u);

    release.set_value();
    admission.drain();

    EXPECT_FALSE(stepped);
    EXPECT_EQ(victim.frames(), 0u);
    EXPECT_TRUE(bitIdentical(victim.values(), before));
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(admission.admitted(), 3u); // Blocker + the two tasks.
    EXPECT_EQ(admission.rejected(), 1u);
    EXPECT_EQ(admission.depth(0), 0u);
}

TEST(AdmissionTest, DrainRethrowsTheFirstTaskError)
{
    runtime::ServerPool pool(1);
    runtime::AdmissionController admission(pool, {});
    admission.submit(0, [] {
        throw std::runtime_error("client exploded");
    });
    EXPECT_THROW(admission.drain(), std::runtime_error);
    // The error is delivered once; the controller keeps serving.
    std::atomic<bool> ran{false};
    admission.submit(0, [&ran] { ran = true; });
    admission.drain();
    EXPECT_TRUE(ran.load());
}

TEST(ServerPoolPinnedTest, LaneDrainsInSubmissionOrder)
{
    runtime::ServerPool pool(1);

    // Hold the worker so the lane fills before anything drains.
    std::promise<void> started;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    pool.submitPinned(0, [&started, gate] {
        started.set_value();
        gate.wait();
    });
    started.get_future().wait();

    std::vector<int> order;
    std::mutex order_mutex;
    std::promise<void> done;
    for (int id = 0; id < 4; ++id)
        pool.submitPinned(0, [id, &order, &order_mutex, &done] {
            std::lock_guard lock(order_mutex);
            order.push_back(id);
            if (order.size() == 4)
                done.set_value();
        });
    release.set_value();
    done.get_future().wait();

    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(AdmissionTest, AdmittedSessionsMatchSequentialValues)
{
    // The serving path — sessions admitted into pinned FIFO lanes and
    // opened on one shared Engine — may change *when* sessions run,
    // never what they compute: every served session must reproduce
    // the sequential values bit for bit.
    std::vector<apps::BenchmarkApp> missions;
    for (unsigned seed = 1; seed <= 3; ++seed)
        missions.push_back(
            apps::buildApp(apps::AppKind::MobileRobot, seed));

    std::vector<fg::Values> sequential;
    {
        runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
        for (const apps::BenchmarkApp &mission : missions) {
            const core::Algorithm &alg = mission.app.algorithm(0);
            runtime::Session session =
                engine.session(alg.graph, alg.values);
            session.iterate(3);
            sequential.push_back(session.values());
        }
    }

    runtime::ServerPool pool(2);
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
    runtime::AdmissionController admission(pool, {});
    std::vector<fg::Values> served(missions.size());
    for (std::size_t i = 0; i < missions.size(); ++i) {
        const auto outcome = admission.submit(
            static_cast<unsigned>(i % pool.threads()), [&, i] {
                const core::Algorithm &alg =
                    missions[i].app.algorithm(0);
                runtime::Session session =
                    engine.session(alg.graph, alg.values);
                session.iterate(3);
                served[i] = session.values();
            });
        EXPECT_TRUE(outcome.admitted()) << i;
    }
    admission.drain();

    for (std::size_t i = 0; i < sequential.size(); ++i)
        EXPECT_TRUE(bitIdentical(served[i], sequential[i])) << i;
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

TEST(ServerPoolHelpTest, PinnedTasksNeverGateBatchCompletion)
{
    // A pinned task is long-running client work; a worker helping
    // its nested batch to completion must skip it. The outer task
    // queues a 50 ms pinned task on its own lane, then waits on a
    // trivial nested batch: if helping picked the pinned task up, the
    // nested wait would include those 50 ms.
    runtime::ServerPool pool(1);
    std::atomic<bool> pinned_ran{false};
    std::atomic<double> nested_ms{-1.0};
    pool.parallelFor(1, [&](std::size_t) {
        pool.submitPinned(0, [&pinned_ran] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            pinned_ran = true;
        });
        const auto start = Clock::now();
        pool.parallelFor(2, [](std::size_t) {});
        nested_ms.store(elapsedMs(start));
    });
    ASSERT_GE(nested_ms.load(), 0.0);
    EXPECT_LT(nested_ms.load(), 25.0);
    // The pinned task still runs on its owner, promptly.
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (!pinned_ran.load() && Clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(pinned_ran.load());
}

TEST(ServerPoolHelpTest, NestedBatchFinishesWhileOtherWorkersArePinned)
{
    // A worker that submits a nested batch runs its indices itself:
    // with every other worker held by pinned work, the nested batch
    // still finishes, all on the submitter.
    runtime::ServerPool pool(3);
    std::vector<int> ran_on(8, -1);
    std::future<void> outer;
    // Declared after `outer`, so it releases the pinned workers before
    // `outer` waits for its task on every path: a pool that waits on
    // its peers fails the deadline below instead of hanging.
    struct Release
    {
        std::promise<void> promise;
        ~Release() { promise.set_value(); }
    } release;
    const std::shared_future<void> gate =
        release.promise.get_future().share();

    std::promise<void> started[2];
    for (unsigned w = 1; w <= 2; ++w)
        pool.submitPinned(w, [&started, w, gate] {
            started[w - 1].set_value();
            gate.wait();
        });
    for (std::promise<void> &s : started)
        s.get_future().wait();

    outer = std::async(std::launch::async, [&pool, &ran_on] {
        pool.parallelFor(1, [&pool, &ran_on](std::size_t) {
            pool.parallelFor(ran_on.size(), [&ran_on](std::size_t i) {
                ran_on[i] = runtime::ServerPool::currentWorker();
            });
        });
    });
    ASSERT_EQ(outer.wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "the nested batch waited for the pinned workers";
    outer.get();
    EXPECT_EQ(ran_on, std::vector<int>(8, 0));
}

TEST(AdmissionTest, RejectsZeroCapacity)
{
    runtime::ServerPool pool(1);
    EXPECT_THROW(runtime::AdmissionController(
                     pool, {/*queueCapacity=*/0}),
                 std::invalid_argument);
}

} // namespace
