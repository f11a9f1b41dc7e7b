#include "core/application.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "fg/optimizer.hpp"
#include "fg/ordering.hpp"
#include "runtime/engine.hpp"

namespace orianna::core {

void
Application::add(std::string algorithm_name, fg::FactorGraph graph,
                 fg::Values initial, double rate_hz)
{
    if (rate_hz <= 0.0)
        throw std::invalid_argument("Application::add: rate must be > 0");
    auto algo = std::make_unique<Algorithm>();
    algo->name = std::move(algorithm_name);
    algo->graph = std::move(graph);
    algo->values = std::move(initial);
    algo->rateHz = rate_hz;
    algorithms_.push_back(std::move(algo));
    compiled_ = false;
}

const Algorithm *
Application::find(const std::string &algorithm_name) const
{
    for (const auto &algo : algorithms_)
        if (algo->name == algorithm_name)
            return algo.get();
    return nullptr;
}

Algorithm *
Application::find(const std::string &algorithm_name)
{
    return const_cast<Algorithm *>(std::as_const(*this).find(algorithm_name));
}

void
Application::compile(comp::Precision precision)
{
    // The default pipeline, split at the cleanup/optimization seam so
    // the post-cleanup stream can be kept as the platform-model
    // reference (see Algorithm::referenceProgram).
    const comp::PassManager cleanup =
        comp::PassManager::parse("dedup,dce");
    const comp::PassManager optimize =
        comp::PassManager::parse("cse,fuse");
    for (std::size_t i = 0; i < algorithms_.size(); ++i) {
        Algorithm &algo = *algorithms_[i];
        comp::CompileOptions options;
        options.algorithmTag = static_cast<std::uint8_t>(i);
        options.name = name_ + "/" + algo.name;
        options.precision = precision;
        // Minimum-degree ordering eliminates independent leaves first,
        // exposing the out-of-order elimination parallelism of
        // Sec. 6.3 (and keeping QR panels small).
        options.ordering = fg::ordering::minDegree(algo.graph);

        // The algorithm's initial values double as the probe input
        // for the (opt-in) per-pass equivalence check.
        comp::PassManager::RunOptions pass_options;
        pass_options.probe = &algo.values;
        pass_options.verify = comp::PassManager::verifyFromEnv();

        algo.program =
            comp::compileGraph(algo.graph, algo.values, options);
        algo.passStats = cleanup.run(algo.program, pass_options);
        algo.referenceProgram = algo.program;
        // The reference stream is the fp64 ground truth whatever the
        // accelerator datapath runs; instructions are precision-
        // independent so retagging is exact.
        algo.referenceProgram.precision = comp::Precision::Fp64;
        const std::vector<comp::PassStats> opt_stats =
            optimize.run(algo.program, pass_options);
        algo.passStats.insert(algo.passStats.end(),
                              opt_stats.begin(), opt_stats.end());
        // The VANILLA-HLS baseline stays on the cleanup pair too: it
        // models a dense flow without ORIANNA's optimizing pipeline.
        algo.denseProgram =
            comp::compileDenseGraph(algo.graph, algo.values, options);
        cleanup.run(algo.denseProgram);
    }
    compiled_ = true;
}

std::vector<hw::WorkItem>
Application::frameWork() const
{
    if (!compiled_)
        throw std::logic_error("Application: compile() first");
    std::vector<hw::WorkItem> work;
    work.reserve(algorithms_.size());
    for (const auto &algo : algorithms_)
        work.push_back({&algo->program, &algo->values});
    return work;
}

std::vector<hw::WorkItem>
Application::denseFrameWork() const
{
    if (!compiled_)
        throw std::logic_error("Application: compile() first");
    std::vector<hw::WorkItem> work;
    work.reserve(algorithms_.size());
    for (const auto &algo : algorithms_)
        work.push_back({&algo->denseProgram, &algo->values});
    return work;
}

std::vector<hw::WorkItem>
Application::referenceFrameWork() const
{
    if (!compiled_)
        throw std::logic_error("Application: compile() first");
    std::vector<hw::WorkItem> work;
    work.reserve(algorithms_.size());
    for (const auto &algo : algorithms_)
        work.push_back({&algo->referenceProgram, &algo->values});
    return work;
}

std::vector<fg::Values>
Application::solveSoftware(std::size_t max_iterations) const
{
    std::vector<fg::Values> out;
    out.reserve(algorithms_.size());
    for (const auto &algo : algorithms_) {
        fg::GaussNewtonParams params;
        params.maxIterations = max_iterations;
        params.stepScale = algo->stepScale;
        params.ordering = fg::ordering::minDegree(algo->graph);
        out.push_back(
            fg::optimize(algo->graph, algo->values, params).values);
    }
    return out;
}

std::vector<fg::Values>
Application::solveAccelerated(const hw::AcceleratorConfig &config,
                              std::size_t iterations,
                              hw::SimResult *total) const
{
    if (!compiled_)
        throw std::logic_error("Application: compile() first");
    std::vector<fg::Values> out;
    out.reserve(algorithms_.size());
    for (const auto &algo : algorithms_) {
        runtime::SessionOptions options;
        options.stepScale = algo->stepScale;
        // Non-owning: the algorithm outlives this loop's session.
        runtime::Session session(
            std::shared_ptr<const comp::Program>(
                std::shared_ptr<const void>(), &algo->program),
            algo->values, config, std::move(options));
        session.iterate(iterations);
        if (total != nullptr)
            total->accumulate(session.totals());
        out.push_back(session.values());
    }
    return out;
}

} // namespace orianna::core
