#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace orianna::runtime {

/**
 * Relaxed monotonic counter: one atomic. Hot paths look it up once and
 * add through the reference (MetricsRegistry).
 */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (queue depths, unit counts). */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { set(0); }

  private:
    std::atomic<std::int64_t> value_{0};
};

/**
 * Fixed-bucket latency histogram over microseconds: bucket k counts
 * samples in [2^k, 2^(k+1)) us (bucket 0 also takes 0), plus an
 * overflow bucket for anything at or beyond 2^kBuckets us (~67 s) —
 * extreme latencies are counted there, never dropped. Count and sum
 * are exact integers so tests can assert them against independently
 * accumulated span durations; percentiles interpolate inside the
 * winning bucket, which is the usual fixed-bucket estimate.
 */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 26;

    void
    observe(std::uint64_t us)
    {
        buckets_[bucketOf(us)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(us, std::memory_order_relaxed);
    }

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    sumUs() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    bucketCount(std::size_t bucket) const
    {
        return buckets_.at(bucket).load(std::memory_order_relaxed);
    }

    std::uint64_t
    overflowCount() const
    {
        return bucketCount(kBuckets);
    }

    /** Estimated p-quantile (p in [0,1]) in microseconds. */
    double percentile(double p) const;

    void
    reset()
    {
        for (auto &bucket : buckets_)
            bucket.store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
    }

    /** Inclusive lower bound of @p bucket, in microseconds. */
    static std::uint64_t
    bucketLowerUs(std::size_t bucket)
    {
        return bucket == 0 ? 0 : (std::uint64_t{1} << bucket);
    }

    static std::size_t
    bucketOf(std::uint64_t us)
    {
        std::size_t b = 0;
        while (b < kBuckets && us >= (std::uint64_t{1} << (b + 1)))
            ++b;
        return us >= (std::uint64_t{1} << kBuckets) ? kBuckets : b;
    }

  private:
    /** One extra slot: the overflow bucket. */
    std::array<std::atomic<std::uint64_t>, kBuckets + 1> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/**
 * Process-wide registry of named instruments. A lookup finds or
 * creates the named counter/gauge/histogram under the registry's one
 * mutex and returns a reference that stays valid for the registry's
 * lifetime. Per-frame recorders (ExecutionContext, Session::step) look
 * their instruments up once per process and then record through the
 * references: a frame builds no name and takes no lock.
 *
 * Recording is additionally gated by a runtime flag: instrument call
 * sites check MetricsRegistry::enabled() (one relaxed load) before
 * touching any instrument, so `setEnabled(false)` reduces the whole
 * observability layer to a branch per call site. The flag defaults to
 * on; benches that want the undisturbed hot path switch it off.
 *
 * Naming convention (see DESIGN.md §6): dotted lowercase paths,
 * "engine.*" for the program cache, "frame.*_us" histograms for
 * per-stage frame timings, "pool.*" for the ServerPool, and
 * "hw.*" for simulator-side totals ("hw.busy_cycles.<unit>").
 */
class MetricsRegistry
{
  public:
    /** The process-wide registry every component records into. */
    static MetricsRegistry &global();

    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    static void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Histogram &histogram(std::string_view name);

    /** Zero every registered instrument (names stay registered). */
    void reset();

    /**
     * Serialize every instrument plus derived serving indicators
     * (cache hit rate, per-unit utilization) as a JSON object. Always
     * valid JSON; before any instrument ever recorded it reports the
     * registered names with zero values and null derived rates.
     */
    std::string toJson() const;

    /** Wall-clock microseconds on the shared steady timebase. */
    static std::uint64_t nowUs();

  private:
    /** Guards the three maps (map nodes never move). */
    mutable std::mutex mutex_;
    std::map<std::string, Counter, std::less<>> counters_;
    std::map<std::string, Gauge, std::less<>> gauges_;
    std::map<std::string, Histogram, std::less<>> histograms_;

    static std::atomic<bool> enabled_;
};

/**
 * Stage timer for the frame hot path: captures a start timestamp only
 * when metrics are enabled, and elapsedUs() reports the integer
 * microseconds since then (0 when disabled). The same value feeds the
 * stage histogram and the trace span, which is what makes the
 * "histogram sum == sum of span durations" invariant exact.
 */
class StageTimer
{
  public:
    StageTimer() : armed_(MetricsRegistry::enabled())
    {
        if (armed_)
            startUs_ = MetricsRegistry::nowUs();
    }

    bool armed() const { return armed_; }

    std::uint64_t startUs() const { return startUs_; }

    std::uint64_t
    elapsedUs() const
    {
        return armed_ ? MetricsRegistry::nowUs() - startUs_ : 0;
    }

  private:
    bool armed_;
    std::uint64_t startUs_ = 0;
};

} // namespace orianna::runtime
