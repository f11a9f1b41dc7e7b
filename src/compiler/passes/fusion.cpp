#include "compiler/passes/passes.hpp"

#include <utility>

namespace orianna::comp::passes {

namespace {

/**
 * Peephole fusion of single-use producer/consumer pairs:
 *
 *  - GATHER feeding exactly one SCALER becomes GSCALE: the block is
 *    whitened while it is assembled in the buffer unit, saving one
 *    round trip through the vector ALU.
 *  - MV (or RV) feeding operand 1 of exactly one VSUB becomes MVSUB:
 *    the back-substitution rhs update dst = rhs - R_vp * delta_p
 *    issues as one gemv-subtract on the MatMul unit.
 *
 * Both fused executors perform the identical floating-point
 * operations in the identical order as the unfused pair, so fusion is
 * bit-exact; it only removes an instruction boundary.
 */
class PeepholeFusionPass final : public Pass
{
  public:
    const char *name() const override { return "fuse"; }

    const char *
    description() const override
    {
        return "fuse single-use GATHER+SCALER into GSCALE and "
               "MV+VSUB into MVSUB";
    }

    std::size_t
    run(Program &program) const override
    {
        auto &instrs = program.instructions;
        const std::size_t n = instrs.size();

        // References to each slot, from operands and delta bindings.
        // A producer fuses only when its sole reference is the
        // consumer being rewritten.
        std::vector<std::size_t> uses(program.valueSlots, 0);
        for (const Instruction &inst : instrs)
            for (std::uint32_t src : inst.srcs)
                ++uses[src];
        for (const DeltaBinding &binding : program.deltas)
            ++uses[binding.slot];

        const std::vector<std::uint32_t> producer = program.producers();

        std::vector<bool> drop(n, false);
        std::size_t fused = 0;
        for (std::size_t i = 0; i < n; ++i) {
            Instruction &inst = instrs[i];
            if (inst.op == IsaOp::SCALER) {
                const std::uint32_t src = inst.srcs[0];
                const std::uint32_t p = producer[src];
                if (p == kNoProducer || drop[p] || uses[src] != 1)
                    continue;
                Instruction &gather = instrs[p];
                if (gather.op != IsaOp::GATHER)
                    continue;
                // The GATHER is dropped: its operands and layout move
                // to the GSCALE, which keeps its own row scales.
                std::vector<GatherPlacement> layout =
                    std::move(program.editPayload(gather).placements);
                inst.op = IsaOp::GSCALE;
                inst.srcs = std::move(gather.srcs);
                program.editPayload(inst).placements = std::move(layout);
                drop[p] = true;
                ++fused;
            } else if (inst.op == IsaOp::VSUB) {
                const std::uint32_t src = inst.srcs[1];
                const std::uint32_t p = producer[src];
                if (p == kNoProducer || drop[p] || uses[src] != 1)
                    continue;
                const Instruction &mv = instrs[p];
                if (mv.op != IsaOp::MV && mv.op != IsaOp::RV)
                    continue;
                inst.op = IsaOp::MVSUB;
                inst.srcs = {inst.srcs[0], mv.srcs[0], mv.srcs[1]};
                inst.depth = mv.depth;
                drop[p] = true;
                ++fused;
            }
        }
        if (fused > 0)
            rewriteProgram(program, drop, {});
        return fused;
    }
};

} // namespace

std::unique_ptr<Pass>
peepholeFusion()
{
    return std::make_unique<PeepholeFusionPass>();
}

} // namespace orianna::comp::passes
