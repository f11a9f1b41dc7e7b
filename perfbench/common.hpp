#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fg/values.hpp"
#include "hw/accelerator.hpp"
#include "runtime/engine.hpp"

namespace perfbench {

namespace fg = orianna::fg;

using Clock = std::chrono::steady_clock;

/** Command line of one benchmark run. */
struct Options
{
    std::string workload;
    unsigned seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string serverPath; //!< runtime_server binary (serve_mix).
    std::string simdTier;   //!< Kernel tier the run uses.
};

/** One timed interval on the host clock. */
struct Span
{
    Clock::time_point begin;
    Clock::time_point end;
};

/**
 * Host clock with interference correction.
 *
 * The benchmark host is a shared VM: a neighbour loading the sibling
 * hyperthread of our vCPU slows identical work by up to 1.9x for
 * seconds to minutes at a time. Every reported host time is therefore
 * scaled by kReferenceUs / R, where R is the local median of a fixed
 * reference kernel that the clock runs between operations on the
 * vCPUs the work runs on. The kernel is benchmark code on a private
 * arena: it shares no heap with the program under test. The result
 * reads as milliseconds on an uncontended core of the reference host.
 * slowdown() reports the correction applied; printSpans() prints the
 * raw wall clock beside it.
 */
class HostClock
{
  public:
    /**
     * Reference kernel time on an uncontended core of the reference
     * host (Intel Xeon, family 6 model 207), in microseconds.
     */
    static constexpr double kReferenceUs = 135.0;

    /**
     * Ranks the vCPUs the process may use by the reference kernel and
     * pins the calling thread (and every thread or child it starts
     * later) to the least loaded one.
     */
    HostClock();

    /** The next least-loaded vCPU, for a child process's own core. */
    int spareCpu() const { return spare_; }

    /**
     * Also probe @p cpu from now on: a probe then runs the kernel on
     * each work vCPU and records the mean.
     */
    void addWorkCpu(int cpu);

    /** Run the reference kernel now. */
    void probe();

    /** Probe when the last probe is older than the cadence. */
    void
    maybeProbe()
    {
        if (Clock::now() - lastProbeEnd_ >= kCadence)
            probe();
    }

    /** Corrected length of @p span in seconds. */
    double seconds(const Span &span) const;

    double
    ms(const Span &span) const
    {
        return seconds(span) * 1e3;
    }

    /**
     * Seconds of [begin, end] with the probes inside it removed: the
     * busy time of a phase, corrected unless @p raw.
     */
    double phaseSeconds(Clock::time_point begin, Clock::time_point end,
                        bool raw = false) const;

    /** Median probe over the run divided by kReferenceUs. */
    double slowdown() const;

    /**
     * Print the corrected and the raw wall-clock p50/p90 of @p spans
     * to stderr, so a reader can see how much a result owes to the
     * correction.
     */
    void printSpans(const std::string &what,
                    const std::vector<Span> &spans) const;

    int cpu() const { return cpu_; }

  private:
    static constexpr std::chrono::milliseconds kCadence{20};
    // 1000 map nodes of 48 bytes, with room to spare.
    static constexpr std::size_t kArenaBytes = 96 * 1024;

    struct Probe
    {
        Clock::time_point begin;
        Clock::time_point end;
        double us;
    };

    double runKernel();
    /** Median reference time of the probes nearest to [a, b]. */
    double localUs(Clock::time_point a, Clock::time_point b) const;

    std::vector<std::byte> arena_;
    std::uint64_t sink_ = 0;
    std::vector<Probe> probes_;
    std::vector<int> workCpus_;
    Clock::time_point lastProbeEnd_;
    int cpu_ = -1;
    int spare_ = -1;
};

/** The span from @p begin to now. */
inline Span
spanFrom(Clock::time_point begin)
{
    return {begin, Clock::now()};
}

/** Linear-interpolated quantile (q in [0,1]) of @p samples. */
double quantile(std::vector<double> samples, double q);

double mean(const std::vector<double> &samples);

/** Peak resident set (VmHWM) of @p pid in MB; 0 = self. */
double peakRssMb(int pid = 0);

/**
 * Largest distance between the position components of the pose
 * variables of @p a and @p b, rounded up to whole micrometres so
 * that an error below 1 um reads as 1 um (never 0) and float
 * reassociation below that resolution reads as no change.
 */
double positionErrorM(const fg::Values &a, const fg::Values &b);

/** Round @p metres up to whole micrometres (minimum 1 um). */
double ceilToMicrometre(double metres);

/** FNV-1a digest, for input fingerprints. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t seed = 1469598103934665603ull);

/** Digest of every variable in @p values (bit patterns). */
std::uint64_t valuesDigest(const fg::Values &values);

/** splitmix64: derives independent seeds from the run seed. */
std::uint64_t mix(std::uint64_t x);

/** Samples and per-class shares for the frame-class audit. */
class ClassAudit
{
  public:
    void add(const std::string &klass, double ms);
    const std::vector<double> &all() const { return all_; }

    /**
     * Print per-class sample shares and p50s to stderr, and report
     * whether the p50 or p90 of all samples sits within 3 points of
     * the cumulative-share edge between two classes whose p50s differ
     * by 2x or more. Returns false on such an edge.
     */
    bool report(const std::string &what) const;

  private:
    std::map<std::string, std::vector<double>> classes_;
    std::vector<double> all_;
};

/** What one run measured: the final JSON line. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** name -> (value, unit), printed in insertion order. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    /** One failed operation or check, with its reason on stderr. */
    void fail(const std::string &why);

    std::string json() const;
};

/**
 * Units of work (episodes, missions, sessions) of the timed phase:
 * a fixed amount per requested second. A traced run does a third of
 * it, then repeats that work traced.
 */
std::size_t workUnits(const Options &options, double units_per_second,
                      std::size_t minimum);

/**
 * An engine on @p config with the fp64 datapath pinned: the benchmark
 * never follows ORIANNA_PRECISION.
 */
std::unique_ptr<orianna::runtime::Engine>
makeEngine(const orianna::hw::AcceleratorConfig &config);

Result runGarageBatch(const Options &options, HostClock &clock);
Result runManhattanStream(const Options &options, HostClock &clock);
Result runServeMix(const Options &options, HostClock &clock);

} // namespace perfbench
