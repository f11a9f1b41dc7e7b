#include "baselines/platform_models.hpp"

#include <algorithm>

namespace orianna::baselines {

namespace {

using comp::Instruction;
using comp::IsaOp;

/** MACs of an instruction as seen by a software implementation. */
double
softwareMacs(const Instruction &inst, double construction_inflation)
{
    double macs = static_cast<double>(hw::instructionMacs(inst));
    if (inst.phase == 0)
        macs *= construction_inflation;
    return macs;
}

bool
isDataMovement(const Instruction &inst)
{
    switch (inst.op) {
      case IsaOp::LOADC:
      case IsaOp::LOADV:
      case IsaOp::STORE:
        return true;
      default:
        return false;
    }
}

} // namespace

PlatformSpec
intel()
{
    // i7-11700 class: fast caches, short dispatch, strong scalar FPU,
    // but classic padded pose representations in the software stack.
    return {"Intel", 25.6, 4.0, 9.4, 2.11};
}

PlatformSpec
arm()
{
    // Cortex-A57 class: long per-op overhead on tiny matrices, modest
    // FPU rate, low power.
    return {"ARM", 214.0, 0.49, 0.26, 2.11};
}

PlatformSpec
oriannaSw()
{
    // Intel hardware, unified <so(n),T(n)> representation: the
    // construction-phase MAC inflation disappears, everything else is
    // unchanged (the Sec. 7.3 observation that software alone gains
    // less than 10%).
    PlatformSpec spec = intel();
    spec.name = "Orianna-SW";
    spec.constructionInflation = 1.0;
    return spec;
}

GpuSpec
embeddedGpu()
{
    return {};
}

PlatformResult
runOnCpu(const PlatformSpec &platform, const std::vector<WorkItem> &work)
{
    PlatformResult out;
    for (const WorkItem &item : work) {
        for (const Instruction &inst : item.program->instructions) {
            if (isDataMovement(inst))
                continue; // Folded into the per-op overhead.
            const double macs =
                softwareMacs(inst, platform.constructionInflation);
            const double ns =
                platform.opOverheadNs + macs / platform.macRateGmacs;
            out.seconds += ns * 1e-9;
            out.phaseSeconds[std::min<std::size_t>(inst.phase, 2)] +=
                ns * 1e-9;
        }
    }
    out.energyJ = out.seconds * platform.powerW;
    return out;
}

PlatformResult
runOnGpu(const GpuSpec &gpu, const std::vector<WorkItem> &work)
{
    PlatformResult out;
    for (const WorkItem &item : work) {
        const auto &instructions = item.program->instructions;
        const std::vector<std::uint32_t> producers =
            item.program->producers();

        // Construction: dependence levels batch into one kernel each
        // (the cuBLAS batched-small-matrix pattern).
        std::vector<std::size_t> level(instructions.size(), 0);
        std::size_t construction_levels = 0;
        double construction_macs = 0.0;
        for (std::size_t i = 0; i < instructions.size(); ++i) {
            const Instruction &inst = instructions[i];
            if (inst.phase != 0)
                continue;
            comp::forEachDep(inst, producers, [&](std::uint32_t dep) {
                if (instructions[dep].phase == 0)
                    level[i] = std::max(level[i], level[dep] + 1);
            });
            construction_levels =
                std::max(construction_levels, level[i] + 1);
            if (!isDataMovement(inst))
                construction_macs +=
                    static_cast<double>(hw::instructionMacs(inst));
        }
        const double construction_ns =
            static_cast<double>(construction_levels) *
                gpu.launchOverheadNs +
            construction_macs / gpu.denseRateGmacs;
        out.phaseSeconds[0] += construction_ns * 1e-9;
        out.seconds += construction_ns * 1e-9;

        // Decomposition and back substitution: per-call solver
        // overhead plus a poor rate on tiny, irregular panels
        // (cuSolverSP on non-structural sparsity, Sec. 7.3).
        for (const Instruction &inst : instructions) {
            if (inst.phase == 0)
                continue;
            double ns = 0.0;
            switch (inst.op) {
              case IsaOp::QR:
              case IsaOp::BSUB:
                ns = gpu.solverCallOverheadNs +
                     static_cast<double>(hw::instructionMacs(inst)) /
                         gpu.solverRateGmacs;
                break;
              case IsaOp::GATHER:
              case IsaOp::EXTRACT:
                ns = static_cast<double>(
                         hw::instructionWords(inst) * 8) /
                     gpu.memcpyBytesPerNs;
                break;
              default:
                // MV/VSUB chains in back substitution run as tiny
                // kernels.
                ns = gpu.launchOverheadNs * 0.15 +
                     static_cast<double>(hw::instructionMacs(inst)) /
                         gpu.solverRateGmacs;
                break;
            }
            out.seconds += ns * 1e-9;
            out.phaseSeconds[std::min<std::size_t>(inst.phase, 2)] +=
                ns * 1e-9;
        }
    }
    out.energyJ = out.seconds * gpu.powerW;
    return out;
}

} // namespace orianna::baselines
