#include "compiler/passes/passes.hpp"

namespace orianna::comp::passes {

namespace {

class DeadCodeEliminationPass final : public Pass
{
  public:
    const char *name() const override { return "dce"; }

    const char *
    description() const override
    {
        return "drop instructions whose results never reach a STORE";
    }

    std::size_t
    run(Program &program) const override
    {
        const auto &instrs = program.instructions;
        const std::size_t n = instrs.size();

        // producer[slot] = instruction index defining it.
        std::vector<std::size_t> producer(program.valueSlots, SIZE_MAX);
        for (std::size_t i = 0; i < n; ++i)
            if (instrs[i].op != IsaOp::STORE)
                producer[instrs[i].dst] = i;

        // Liveness from the STORE roots.
        std::vector<bool> live(n, false);
        std::vector<std::size_t> worklist;
        for (std::size_t i = 0; i < n; ++i) {
            if (instrs[i].op == IsaOp::STORE) {
                live[i] = true;
                worklist.push_back(i);
            }
        }
        while (!worklist.empty()) {
            const std::size_t i = worklist.back();
            worklist.pop_back();
            auto visit = [&](std::uint32_t src) {
                const std::size_t p = producer[src];
                if (p != SIZE_MAX && !live[p]) {
                    live[p] = true;
                    worklist.push_back(p);
                }
            };
            for (std::uint32_t src : instrs[i].srcs)
                visit(src);
            for (const GatherPlacement &p :
                 program.payload(instrs[i]).placements)
                visit(p.src);
        }

        std::vector<bool> drop(n, false);
        std::size_t removed = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!live[i]) {
                drop[i] = true;
                ++removed;
            }
        }
        if (removed > 0)
            rewriteProgram(program, drop, {});
        return removed;
    }
};

} // namespace

std::unique_ptr<Pass>
deadCodeElimination()
{
    return std::make_unique<DeadCodeEliminationPass>();
}

} // namespace orianna::comp::passes
