#include "runtime/metrics.hpp"

#include <cstdio>
#include <tuple>

#include "hw/cost_model.hpp"
#include "matrix/simd.hpp"

namespace orianna::runtime {

std::atomic<bool> MetricsRegistry::enabled_{true};

double
Histogram::percentile(double p) const
{
    const std::uint64_t total = count();
    if (total == 0)
        return 0.0;
    if (p < 0.0)
        p = 0.0;
    if (p > 1.0)
        p = 1.0;
    const double target = p * static_cast<double>(total);
    double cumulative = 0.0;
    for (std::size_t b = 0; b <= kBuckets; ++b) {
        const std::uint64_t in_bucket = bucketCount(b);
        if (in_bucket == 0)
            continue;
        if (cumulative + static_cast<double>(in_bucket) >= target) {
            const double lower =
                static_cast<double>(bucketLowerUs(b));
            if (b == kBuckets)
                return lower; // Overflow: clamp to its lower bound.
            const double upper =
                static_cast<double>(bucketLowerUs(b + 1));
            const double within =
                (target - cumulative) / static_cast<double>(in_bucket);
            return lower + (upper - lower) * within;
        }
        cumulative += static_cast<double>(in_bucket);
    }
    return static_cast<double>(bucketLowerUs(kBuckets));
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

std::uint64_t
MetricsRegistry::nowUs()
{
    using namespace std::chrono;
    // One process-wide epoch so timestamps from every thread land on
    // the same trace timebase.
    static const steady_clock::time_point epoch = steady_clock::now();
    return static_cast<std::uint64_t>(
        duration_cast<microseconds>(steady_clock::now() - epoch)
            .count());
}

namespace {

/** The instrument named @p name in @p map, created on first lookup. */
template <class Map>
auto &
findOrCreate(std::mutex &mutex, Map &map, std::string_view name)
{
    std::lock_guard lock(mutex);
    auto it = map.lower_bound(name);
    if (it == map.end() || it->first != name)
        it = map.emplace_hint(it, std::piecewise_construct,
                              std::forward_as_tuple(name),
                              std::forward_as_tuple());
    return it->second;
}

} // namespace

Counter &
MetricsRegistry::counter(std::string_view name)
{
    return findOrCreate(mutex_, counters_, name);
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    return findOrCreate(mutex_, gauges_, name);
}

Histogram &
MetricsRegistry::histogram(std::string_view name)
{
    return findOrCreate(mutex_, histograms_, name);
}

void
MetricsRegistry::reset()
{
    std::lock_guard lock(mutex_);
    for (auto &[name, counter] : counters_)
        counter.reset();
    for (auto &[name, gauge] : gauges_)
        gauge.reset();
    for (auto &[name, histogram] : histograms_)
        histogram.reset();
    // The per-kernel dispatch counters live in the matrix layer (it
    // cannot depend on this registry) but are exported and reset with
    // it so BENCH sections see a consistent zero point.
    mat::kernels::resetKernelCallCounts();
}

namespace {

void
appendNumber(std::string &out, double v)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6g", v);
    out += buffer;
}

} // namespace

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard lock(mutex_);
    std::string out;
    out += "{\n  \"enabled\": ";
    out += enabled() ? "true" : "false";

    out += ",\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, counter] : counters_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + name +
               "\": " + std::to_string(counter.value());
    }
    out += first ? "}" : "\n  }";

    out += ",\n  \"gauges\": {";
    first = true;
    for (const auto &[name, gauge] : gauges_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + name +
               "\": " + std::to_string(gauge.value());
    }
    out += first ? "}" : "\n  }";

    out += ",\n  \"histograms\": {";
    first = true;
    for (const auto &[name, histogram] : histograms_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + name + "\": {\"count\": " +
               std::to_string(histogram.count()) +
               ", \"sum_us\": " + std::to_string(histogram.sumUs()) +
               ", \"p50_us\": ";
        appendNumber(out, histogram.percentile(0.50));
        out += ", \"p99_us\": ";
        appendNumber(out, histogram.percentile(0.99));
        out += ", \"overflow\": " +
               std::to_string(histogram.overflowCount()) +
               ", \"buckets\": [";
        bool first_bucket = true;
        for (std::size_t b = 0; b <= Histogram::kBuckets; ++b) {
            const std::uint64_t in_bucket = histogram.bucketCount(b);
            if (in_bucket == 0)
                continue;
            if (!first_bucket)
                out += ", ";
            first_bucket = false;
            out += "[" +
                   std::to_string(Histogram::bucketLowerUs(b)) + ", " +
                   std::to_string(in_bucket) + "]";
        }
        out += "]}";
    }
    out += first ? "}" : "\n  }";

    // SIMD dispatch state, mirrored from the matrix kernel layer
    // (DESIGN.md §10): which tier the process is running and how many
    // calls each kernel dispatched since the last reset.
    out += ",\n  \"kernels\": {\n    \"dispatch_tier\": \"";
    out += mat::kernels::simdTierName(mat::kernels::activeTier());
    out += "\",\n    \"calls\": {";
    first = true;
    for (std::size_t op = 0; op < mat::kernels::kKernelOpCount; ++op) {
        const auto kernel_op = static_cast<mat::kernels::KernelOp>(op);
        out += first ? "\n" : ",\n";
        first = false;
        out += "      \"";
        out += mat::kernels::kernelOpName(kernel_op);
        out += "\": " +
               std::to_string(mat::kernels::kernelCallCount(kernel_op));
    }
    out += first ? "}" : "\n    }";
    out += "\n  }";

    // Derived serving indicators, computed from the raw instruments
    // by naming convention so exporters need no extra wiring.
    out += ",\n  \"derived\": {\n    \"cache_hit_rate\": ";
    {
        std::uint64_t hits = 0;
        std::uint64_t compiles = 0;
        if (auto it = counters_.find("engine.cache_hits");
            it != counters_.end())
            hits = it->second.value();
        if (auto it = counters_.find("engine.compiles");
            it != counters_.end())
            compiles = it->second.value();
        if (hits + compiles == 0)
            out += "null";
        else
            appendNumber(out, static_cast<double>(hits) /
                                  static_cast<double>(hits + compiles));
    }
    out += ",\n    \"utilization\": {";
    {
        std::uint64_t frame_cycles = 0;
        if (auto it = counters_.find("hw.cycles");
            it != counters_.end())
            frame_cycles = it->second.value();
        bool first_unit = true;
        for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
            const char *unit =
                hw::unitName(static_cast<hw::UnitKind>(k));
            const auto busy_it = counters_.find(
                std::string("hw.busy_cycles.") + unit);
            const auto units_it =
                gauges_.find(std::string("hw.units.") + unit);
            if (busy_it == counters_.end() ||
                units_it == gauges_.end() || frame_cycles == 0 ||
                units_it->second.value() <= 0)
                continue;
            out += first_unit ? "\n" : ",\n";
            first_unit = false;
            out += "      \"";
            out += unit;
            out += "\": ";
            appendNumber(
                out,
                static_cast<double>(busy_it->second.value()) /
                    (static_cast<double>(frame_cycles) *
                     static_cast<double>(units_it->second.value())));
        }
        out += first_unit ? "}" : "\n    }";
    }
    out += "\n  }\n}\n";
    return out;
}

} // namespace orianna::runtime
