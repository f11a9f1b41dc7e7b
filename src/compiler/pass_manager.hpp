#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compiler/pass.hpp"

namespace orianna::fg {
class Values;
}

namespace orianna::comp {

/**
 * Ordered compiler pass pipeline over a Program.
 *
 * The manager owns a list of Pass objects and runs them in order,
 * collecting one PassStats per pass. With verification enabled it
 * executes the program on a probe input before and after every pass
 * through the reference Executor and rejects the rewrite unless the
 * deltas are bit-identical and the executed MAC count did not grow —
 * the contract every pass must honour (DESIGN.md §7). A probe run
 * that throws is an outcome too: the pass must leave the exception
 * (type and message) unchanged, and the compile goes on, so the
 * verifier never decides whether a compile succeeds.
 *
 * Pipelines are cheap to build and immutable once built; one manager
 * may serve concurrent compiles (passes are stateless).
 */
class PassManager
{
  public:
    struct RunOptions
    {
        /**
         * Probe input for the per-pass equivalence check. Must bind
         * every variable the program loads. Ignored unless verify is
         * set.
         */
        const fg::Values *probe = nullptr;
        /** Run the equivalence check around every pass. */
        bool verify = false;
    };

    PassManager() = default;
    PassManager(PassManager &&) = default;
    PassManager &operator=(PassManager &&) = default;

    /** Append @p pass to the pipeline. */
    void add(std::unique_ptr<Pass> pass);

    /** The standard pipeline: dedup, dce, cse, fuse. */
    static PassManager defaultPipeline();

    /**
     * Build a pipeline from a spec string: a comma-separated list of
     * pass names ("dedup,dce,cse,fuse"), where "default" expands to
     * the default pipeline and "none" (or an empty spec) to an empty
     * one.
     *
     * @throws std::invalid_argument on an unknown pass name.
     */
    static PassManager parse(const std::string &spec);

    /** All registered pass names with one-line descriptions. */
    static std::vector<std::pair<std::string, std::string>>
    availablePasses();

    /** True when ORIANNA_VERIFY_PASSES is set to a non-zero value. */
    static bool verifyFromEnv();

    std::size_t size() const { return passes_.size(); }

    /** Comma-separated names of the pipeline's passes. */
    std::string spec() const;

    /**
     * Run every pass over @p program in order. Returns one PassStats
     * per pass, in pipeline order.
     *
     * @throws std::runtime_error when verification is enabled and a
     *         pass changes the probe deltas or whether (or what) the
     *         probe throws, or increases the executed MAC count.
     */
    std::vector<PassStats> run(Program &program,
                               const RunOptions &options) const;

    /** Run without verification (no probe input). */
    std::vector<PassStats> run(Program &program) const;

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
};

} // namespace orianna::comp
