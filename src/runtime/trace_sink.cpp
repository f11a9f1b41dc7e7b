#include "runtime/trace_sink.hpp"

#include <fstream>
#include <stdexcept>

namespace orianna::runtime {

std::atomic<bool> TraceCollector::enabled_{false};

TraceCollector &
TraceCollector::global()
{
    static TraceCollector collector;
    return collector;
}

void
TraceCollector::clear()
{
    std::lock_guard lock(mutex_);
    trackLabels_.clear();
    spans_.clear();
    hwFrames_.clear();
}

std::uint64_t
TraceCollector::openTrack(const std::string &label)
{
    std::lock_guard lock(mutex_);
    trackLabels_.push_back(label);
    return trackLabels_.size() - 1;
}

void
TraceCollector::addSpan(std::uint64_t track, std::string name,
                        std::string category, std::uint64_t start_us,
                        std::uint64_t dur_us)
{
    std::lock_guard lock(mutex_);
    spans_.push_back({std::move(name), std::move(category), track,
                      start_us, dur_us});
}

void
TraceCollector::addHwFrame(
    std::uint64_t track, std::uint64_t anchor_us,
    std::vector<hw::TraceEvent> events,
    const std::array<unsigned, hw::kUnitKindCount> &units)
{
    std::lock_guard lock(mutex_);
    hwFrames_.push_back({track, anchor_us, units, std::move(events)});
}

std::vector<RuntimeSpan>
TraceCollector::spans() const
{
    std::lock_guard lock(mutex_);
    return spans_;
}

std::size_t
TraceCollector::hwEventCount() const
{
    std::lock_guard lock(mutex_);
    std::size_t total = 0;
    for (const HwFrame &frame : hwFrames_)
        total += frame.events.size();
    return total;
}

namespace {

/** Escape the characters JSON strings cannot carry verbatim. */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

// Process-id layout of the unified trace: pid 1 is the runtime
// process (one thread track per session); session s's hardware rows
// live in process kHwPidBase + s with one thread per unit instance.
constexpr std::uint64_t kRuntimePid = 1;
constexpr std::uint64_t kHwPidBase = 1000;
constexpr std::uint64_t kHwTidStride = 64; //!< Instances per kind row.

} // namespace

void
TraceCollector::write(const std::string &path,
                      double frequency_hz) const
{
    std::lock_guard lock(mutex_);
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("TraceCollector: cannot open " +
                                 path);

    const double us_per_cycle = 1e6 / frequency_hz;
    out << "[\n";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            out << ",\n";
        first = false;
    };

    // Runtime process and one named thread row per session track.
    sep();
    out << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
        << kRuntimePid << ", \"args\": {\"name\": \"runtime\"}}";
    for (std::size_t t = 0; t < trackLabels_.size(); ++t) {
        sep();
        out << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": "
            << kRuntimePid << ", \"tid\": " << t + 1
            << ", \"args\": {\"name\": \"" << escape(trackLabels_[t])
            << "\"}}";
    }

    // Runtime spans: complete events nested by time inclusion.
    for (const RuntimeSpan &span : spans_) {
        sep();
        out << "  {\"name\": \"" << escape(span.name)
            << "\", \"cat\": \"" << escape(span.category)
            << "\", \"ph\": \"X\", \"ts\": " << span.startUs
            << ", \"dur\": " << span.durUs
            << ", \"pid\": " << kRuntimePid
            << ", \"tid\": " << span.track + 1 << "}";
    }

    // Hardware rows: one process per session, one thread per unit
    // instance, events anchored at their frame's wall-clock start.
    std::vector<bool> hwNamed(trackLabels_.size(), false);
    for (const HwFrame &frame : hwFrames_) {
        const std::uint64_t pid = kHwPidBase + frame.track;
        if (frame.track < hwNamed.size() && !hwNamed[frame.track]) {
            hwNamed[frame.track] = true;
            sep();
            out << "  {\"name\": \"process_name\", \"ph\": \"M\", "
                << "\"pid\": " << pid << ", \"args\": {\"name\": \"hw "
                << escape(trackLabels_[frame.track]) << "\"}}";
            for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
                for (unsigned u = 0; u < frame.units[k]; ++u) {
                    sep();
                    out << "  {\"name\": \"thread_name\", \"ph\": "
                        << "\"M\", \"pid\": " << pid << ", \"tid\": "
                        << k * kHwTidStride + u + 1
                        << ", \"args\": {\"name\": \""
                        << hw::unitName(static_cast<hw::UnitKind>(k))
                        << "[" << u << "]\"}}";
                }
            }
        }
        for (const hw::TraceEvent &event : frame.events) {
            sep();
            out << "  {\"name\": \"" << escape(event.name)
                << "\", \"cat\": \"alg"
                << static_cast<int>(event.algorithm)
                << "\", \"ph\": \"X\", \"ts\": "
                << static_cast<double>(frame.anchorUs) +
                       static_cast<double>(event.startCycle) *
                           us_per_cycle
                << ", \"dur\": "
                << static_cast<double>(event.endCycle -
                                       event.startCycle) *
                       us_per_cycle
                << ", \"pid\": " << pid << ", \"tid\": "
                << static_cast<std::uint64_t>(event.unit) *
                           kHwTidStride +
                       event.instance + 1
                << ", \"args\": {\"phase\": "
                << static_cast<int>(event.phase) << "}}";
        }
    }
    out << "\n]\n";
    if (!out)
        throw std::runtime_error("TraceCollector: write failed: " +
                                 path);
}

} // namespace orianna::runtime
