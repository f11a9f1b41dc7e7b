#pragma once

#include <cstdint>
#include <optional>

#include "fg/incremental.hpp"
#include "runtime/engine.hpp"

namespace orianna::runtime {

/** Knobs of the accelerated incremental smoother. */
struct AcceleratedSmootherOptions
{
    fg::IncrementalParams params;

    /**
     * Largest suffix (variable count) solved on the accelerator.
     * Oversize re-eliminations — typically relinearize-all frames of
     * a long trajectory — run on the CPU reference path instead of
     * compiling a one-off giant program. 0 accelerates everything.
     */
    std::size_t maxAcceleratedSuffix = 64;
};

/** Counters of the accelerated smoother, for tests and telemetry. */
struct AcceleratedSmootherStats
{
    /** Suffix solves served by the optimized update program. */
    std::uint64_t acceleratedFrames = 0;
    /** Relinearize-all solves served by the batch reference rung. */
    std::uint64_t batchFrames = 0;
    /** Oversize suffixes solved on the CPU reference path. */
    std::uint64_t cpuFrames = 0;
    /**
     * Sessions opened: one per device solve whose shape or rung
     * differs from the previous device solve's, so a shape reopened
     * after another shape counts again.
     */
    std::uint64_t sessionsOpened = 0;
    std::uint64_t sessionReuses = 0;  //!< Device solves served by the
                                      //!< previous solve's session.
    std::size_t lastSuffix = 0;       //!< Variables in the last solve.
    std::uint64_t lastCycles = 0;     //!< Simulated cycles of the last
                                      //!< accelerated frame.
    bool lastDegraded = false; //!< Last frame ran the fallback rung.
};

/**
 * Incremental smoothing on the accelerator (DESIGN.md §13): an
 * fg::IncrementalSmoother whose suffix re-eliminations execute as
 * compiled update programs through the Engine. The smoother owns the
 * bookkeeping and the schedule; this class translates each
 * SuffixSchedule into a shape-only comp::UpdateSpec, compiles it at
 * most once per shape (the Engine's cache and ProgramStore both key
 * on comp::updateFingerprint), streams the frame's numbers through
 * LOADV bindings, and unpacks the device results back into the
 * smoother's SuffixSolution. It keeps only the session of its last
 * device solve: the next solve of the same shape and rung reuses it,
 * any other drops it and opens one through the Engine, where the
 * program and its plan are cache hits once the shape was seen.
 *
 * Rungs: relinearize-all frames (schedule.start == 0) run on the
 * cleanup-only fp64 batch reference program; incremental frames run
 * the optimized update program with that reference program as the
 * degradation-ladder fallback whenever the engine can fault (armed
 * injector, frame deadline, fp32 datapath or divergence guard).
 * Suffixes above maxAcceleratedSuffix fall back to the CPU reference
 * path. All three rungs follow the same schedule literally, so every
 * path produces bit-identical conditionals and carries.
 */
class AcceleratedSmoother final : public fg::SuffixSolver
{
  public:
    explicit AcceleratedSmoother(Engine &engine,
                                 AcceleratedSmootherOptions options =
                                     {});
    ~AcceleratedSmoother() override;

    AcceleratedSmoother(const AcceleratedSmoother &) = delete;
    AcceleratedSmoother &
    operator=(const AcceleratedSmoother &) = delete;

    // The fg::IncrementalSmoother surface, with suffix solves routed
    // through the engine.
    void addVariable(fg::Key key, lie::Pose initial);
    void addVariable(fg::Key key, fg::Vector initial);
    void addFactor(fg::FactorPtr factor);
    fg::UpdateStats update();
    fg::Values estimate() const;
    void marginalizeLeading(std::size_t count);
    const fg::FactorGraph &graph() const;

    /** The wrapped smoother, for inspection in tests. */
    const fg::IncrementalSmoother &smoother() const
    {
        return smoother_;
    }

    const AcceleratedSmootherStats &stats() const { return stats_; }

    /** SuffixSolver: executes @p schedule on the accelerator. */
    fg::SuffixSolution
    solve(const fg::SuffixSchedule &schedule,
          const std::vector<const fg::LinearRow *> &rows) override;

  private:
    /** The last device solve's session, kept for the next solve. */
    struct LastSession
    {
        std::uint64_t fingerprint = 0;
        bool batch = false; //!< Reference-rung (start == 0) session.
        Session session;
    };

    Session &acquireSession(const comp::UpdateSpec &spec,
                            fg::Values streamed, bool batch);

    Engine &engine_;
    AcceleratedSmootherOptions options_;
    fg::IncrementalSmoother smoother_;
    std::optional<LastSession> last_;
    AcceleratedSmootherStats stats_;
};

} // namespace orianna::runtime
