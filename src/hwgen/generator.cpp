#include "hwgen/generator.hpp"

#include <stdexcept>

#include "runtime/execution_context.hpp"

namespace orianna::hwgen {

double
objectiveValue(const SimResult &result, Objective objective)
{
    switch (objective) {
      case Objective::AvgLatency: {
        // Mean completion across algorithms approximates the average
        // frame latency when algorithms are pipelined frames.
        if (result.algorithmFinishCycle.empty())
            return static_cast<double>(result.cycles);
        double sum = 0.0;
        for (const auto &[tag, cycle] : result.algorithmFinishCycle)
            sum += static_cast<double>(cycle);
        return sum /
               static_cast<double>(result.algorithmFinishCycle.size());
      }
      case Objective::MaxLatency:
        return static_cast<double>(result.cycles);
      case Objective::Energy:
        return result.totalEnergyJ();
    }
    return static_cast<double>(result.cycles);
}

GenerationResult
generate(const std::vector<WorkItem> &work, const Resources &budget,
         Objective objective, bool out_of_order)
{
    AcceleratorConfig config = AcceleratorConfig::minimal(out_of_order);
    config.name = "orianna-generated";
    if (!config.resources().fitsIn(budget))
        throw std::invalid_argument(
            "generate: budget below the minimal accelerator");

    // A candidate is judged on its modeled frame alone: schedule it
    // (the issue loop, no numerics) and read the plan's totals.
    std::vector<const comp::Program *> programs;
    for (const WorkItem &item : work)
        programs.push_back(item.program);
    auto simulate = [&programs](const AcceleratorConfig &candidate) {
        return runtime::ExecutionContext::schedule(programs, candidate)
            ->totals;
    };

    GenerationResult out;
    SimResult current = simulate(config);
    out.trajectory.push_back({config, current, config.resources()});

    // Greedy growth along the (re-simulated) critical path: try one
    // more instance of every unit kind, keep the best improvement per
    // consumed resource, stop when nothing fits or nothing improves.
    while (true) {
        const double base_value = objectiveValue(current, objective);

        // Evaluate every fitting candidate in unit-kind order; the
        // first strictly best one wins ties.
        double best_value = base_value;
        int best_kind = -1;
        SimResult best;
        for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
            AcceleratorConfig candidate = config;
            ++candidate.units[k];
            if (!candidate.resources().fitsIn(budget))
                continue;
            SimResult sim = simulate(candidate);
            const double value = objectiveValue(sim, objective);
            if (value < best_value - 1e-12) {
                best_value = value;
                best_kind = static_cast<int>(k);
                best = std::move(sim);
            }
        }

        if (best_kind < 0 || best_value >= base_value)
            break;
        ++config.units[static_cast<std::size_t>(best_kind)];
        current = std::move(best);
        out.trajectory.push_back({config, current, config.resources()});
    }

    out.config = config;
    out.result = current;
    out.opHistogram.assign(comp::kIsaOpCount, 0);
    for (const WorkItem &item : work) {
        const std::vector<std::size_t> histogram =
            item.program->opHistogram();
        for (std::size_t op = 0; op < histogram.size(); ++op)
            out.opHistogram[op] += histogram[op];
    }
    return out;
}

AcceleratorConfig
manualDesign(const Resources &budget, bool out_of_order)
{
    // Hand-tuned baseline: replicate every unit kind uniformly until
    // the budget is exhausted (no workload feedback).
    AcceleratorConfig config = AcceleratorConfig::minimal(out_of_order);
    config.name = "manual";
    while (true) {
        AcceleratorConfig next = config;
        for (auto &count : next.units)
            ++count;
        if (!next.resources().fitsIn(budget))
            break;
        config = next;
    }
    return config;
}

} // namespace orianna::hwgen
