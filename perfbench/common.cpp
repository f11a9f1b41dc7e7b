#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory_resource>

#include "runtime/json.hpp"

namespace perfbench {

namespace {

void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

/** Raw wall-clock length of @p span in milliseconds. */
double
rawMs(const Span &span)
{
    return std::chrono::duration<double, std::milli>(span.end - span.begin)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace

HostClock::HostClock() : arena_(kArenaBytes)
{
    // Rank every vCPU the process may use, least loaded first. The
    // process stays on the first; serve_mix puts its runtime_server
    // child on the second, so client and server each have a core.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof allowed, &allowed);
    std::vector<std::pair<double, int>> ranked;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        pinTo(cpu);
        ranked.push_back(
            {median({runKernel(), runKernel(), runKernel()}), cpu});
    }
    std::sort(ranked.begin(), ranked.end());
    if (!ranked.empty()) {
        cpu_ = ranked[0].second;
        spare_ = ranked[ranked.size() > 1 ? 1 : 0].second;
        pinTo(cpu_);
        workCpus_.push_back(cpu_);
    }
    probe();
}

void
HostClock::addWorkCpu(int cpu)
{
    if (cpu >= 0 &&
        std::find(workCpus_.begin(), workCpus_.end(), cpu) ==
            workCpus_.end())
        workCpus_.push_back(cpu);
}

double
HostClock::runKernel()
{
    // Node-based map inserts and ordered lookups: allocation plus
    // dependent loads, the host-work mix of the scheduler, executor
    // and passes. Of the kernels tried (pure arithmetic, pointer
    // chasing, a ready-list scan, this one) its slowdown tracked the
    // garage frame's most closely under neighbour load. The nodes come
    // from a private arena, never from the heap the program uses. The
    // first pass is untimed: it brings the arena and the code into
    // this core's caches, so the timed pass does not depend on how
    // much of the cache the program's last operation took.
    double us = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        const Clock::time_point start = Clock::now();
        std::pmr::monotonic_buffer_resource pool(
            arena_.data(), arena_.size(), std::pmr::null_memory_resource());
        std::pmr::map<std::uint64_t, std::uint64_t> map(&pool);
        std::uint64_t x = 7;
        for (int i = 0; i < 1000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            map[x >> 40] = x;
        }
        std::uint64_t sum = 0;
        for (int i = 0; i < 1000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            const auto it = map.lower_bound(x >> 40);
            if (it != map.end())
                sum += it->second;
        }
        sink_ += sum;
        us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                       start)
                 .count();
    }
    return us;
}

void
HostClock::probe()
{
    const Clock::time_point begin = Clock::now();
    double total = 0.0;
    for (int cpu : workCpus_) {
        if (cpu != cpu_)
            pinTo(cpu);
        total += runKernel();
    }
    if (workCpus_.size() > 1)
        pinTo(cpu_);
    lastProbeEnd_ = Clock::now();
    probes_.push_back(
        {begin, lastProbeEnd_,
         total / static_cast<double>(std::max<std::size_t>(
                     1, workCpus_.size()))});
}

double
HostClock::localUs(Clock::time_point a, Clock::time_point b) const
{
    // Two probes before the interval and two after it.
    const auto after = std::lower_bound(
        probes_.begin(), probes_.end(), b,
        [](const Probe &p, Clock::time_point t) { return p.begin < t; });
    const std::size_t hi = static_cast<std::size_t>(after -
                                                    probes_.begin());
    std::vector<double> near;
    for (std::size_t i = hi >= 2 ? hi - 2 : 0;
         i < std::min(hi + 2, probes_.size()); ++i)
        if (probes_[i].end <= a || probes_[i].begin >= b)
            near.push_back(probes_[i].us);
    return near.empty() ? kReferenceUs : median(near);
}

double
HostClock::seconds(const Span &span) const
{
    const double raw =
        std::chrono::duration<double>(span.end - span.begin).count();
    return raw * kReferenceUs / localUs(span.begin, span.end);
}

double
HostClock::phaseSeconds(Clock::time_point begin, Clock::time_point end,
                        bool raw) const
{
    auto length = [this, raw](const Span &span) {
        return raw ? rawMs(span) * 1e-3 : seconds(span);
    };
    double total = 0.0;
    Clock::time_point cursor = begin;
    for (const Probe &p : probes_) {
        if (p.end <= cursor)
            continue;
        if (p.begin >= end)
            break;
        if (p.begin > cursor)
            total += length({cursor, p.begin});
        cursor = p.end;
    }
    if (end > cursor)
        total += length({cursor, end});
    return total;
}

double
HostClock::slowdown() const
{
    std::vector<double> us;
    for (const Probe &p : probes_)
        us.push_back(p.us);
    return median(us) / kReferenceUs;
}

void
HostClock::printSpans(const std::string &what,
                      const std::vector<Span> &spans) const
{
    std::vector<double> corrected;
    std::vector<double> raw;
    for (const Span &span : spans) {
        corrected.push_back(ms(span));
        raw.push_back(rawMs(span));
    }
    std::fprintf(stderr,
                 "host %s: %zu samples, p50 %.4f ms (raw %.4f), "
                 "p90 %.4f ms (raw %.4f)\n",
                 what.c_str(), spans.size(), quantile(corrected, 0.5),
                 quantile(raw, 0.5), quantile(corrected, 0.9),
                 quantile(raw, 0.9));
}

std::unique_ptr<orianna::runtime::Engine>
makeEngine(const orianna::hw::AcceleratorConfig &config)
{
    orianna::runtime::EngineOptions options;
    options.precision = orianna::comp::Precision::Fp64;
    return std::make_unique<orianna::runtime::Engine>(config, options);
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) *
                             (samples[hi] - samples[lo]);
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    return sum / static_cast<double>(samples.size());
}

double
peakRssMb(int pid)
{
    std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                  : "/proc/" + std::to_string(pid) +
                                        "/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

double
ceilToMicrometre(double metres)
{
    const double um = std::ceil(metres * 1e6 - 1e-9);
    return std::max(1.0, um) * 1e-6;
}

double
positionErrorM(const fg::Values &a, const fg::Values &b)
{
    double worst = 0.0;
    for (fg::Key key : a.keys()) {
        if (!a.isPose(key) || !b.exists(key) || !b.isPose(key))
            continue;
        const fg::Vector &ta = a.pose(key).t();
        const fg::Vector &tb = b.pose(key).t();
        double sq = 0.0;
        for (std::size_t i = 0; i < ta.size(); ++i)
            sq += (ta[i] - tb[i]) * (ta[i] - tb[i]);
        // A non-finite estimate must never read as accurate.
        worst = std::isfinite(sq) ? std::max(worst, std::sqrt(sq))
                                  : std::numeric_limits<double>::max();
    }
    return ceilToMicrometre(worst);
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
valuesDigest(const fg::Values &values)
{
    std::string bytes;
    auto put = [&bytes](const fg::Vector &v) {
        for (std::size_t i = 0; i < v.size(); ++i) {
            const double x = v[i];
            char raw[sizeof x];
            std::memcpy(raw, &x, sizeof x);
            bytes.append(raw, sizeof raw);
        }
    };
    for (fg::Key key : values.keys()) {
        bytes += std::to_string(key) + ":";
        if (values.isPose(key)) {
            put(values.pose(key).phi());
            put(values.pose(key).t());
        } else {
            put(values.vector(key));
        }
    }
    return fnv1a(bytes);
}

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
ClassAudit::add(const std::string &klass, double ms)
{
    classes_[klass].push_back(ms);
    all_.push_back(ms);
}

bool
ClassAudit::report(const std::string &what) const
{
    struct Row
    {
        std::string name;
        double share;
        double p50;
    };
    std::vector<Row> rows;
    for (const auto &[name, samples] : classes_)
        rows.push_back({name,
                        static_cast<double>(samples.size()) /
                            static_cast<double>(all_.size()),
                        quantile(samples, 0.5)});
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.p50 < b.p50; });

    std::fprintf(stderr, "audit %s: %zu samples, p50 %.3f ms, p90 %.3f ms\n",
                 what.c_str(), all_.size(), quantile(all_, 0.5),
                 quantile(all_, 0.9));
    bool ok = true;
    double cumulative = 0.0;
    for (std::size_t k = 0; k < rows.size(); ++k) {
        cumulative += rows[k].share;
        std::fprintf(stderr,
                     "  %-28s share %5.1f%%  cum %5.1f%%  p50 %.3f ms\n",
                     rows[k].name.c_str(), 100.0 * rows[k].share,
                     100.0 * cumulative, rows[k].p50);
        if (k + 1 == rows.size() || rows[k + 1].p50 < 2.0 * rows[k].p50)
            continue;
        for (double p : {0.5, 0.9})
            if (std::fabs(cumulative - p) < 0.03) {
                std::fprintf(stderr,
                             "  EDGE: p%.0f sits on the %.1fx step "
                             "after %s\n",
                             100.0 * p, rows[k + 1].p50 / rows[k].p50,
                             rows[k].name.c_str());
                ok = false;
            }
    }
    std::fprintf(stderr, "audit %s: %s\n", what.c_str(),
                 ok ? "ok" : "EDGE");
    return ok;
}

void
Result::fail(const std::string &why)
{
    ++failed;
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

std::string
Result::json() const
{
    using orianna::runtime::json::numberToJson;
    using orianna::runtime::json::quote;
    std::string out = std::string("{\"correct\": ") +
                      (failed == 0 ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        if (!first)
            out += ", ";
        first = false;
        out += quote(name) + ": {\"value\": " +
               numberToJson(value.first) +
               ", \"unit\": " + quote(value.second) + "}";
    }
    return out + "}}";
}

std::size_t
workUnits(const Options &options, double units_per_second,
          std::size_t minimum)
{
    const double seconds = options.seconds / (options.trace ? 3.0 : 1.0);
    return std::max<std::size_t>(
        minimum,
        static_cast<std::size_t>(std::llround(seconds * units_per_second)));
}

} // namespace perfbench
