#include "compiler/passes/passes.hpp"

#include <algorithm>

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
        const std::vector<std::uint32_t> producer = program.producers();

        // Liveness from the STORE roots, along the dependences:
        // everything not reached is dropped.
        std::vector<bool> drop(n, true);
        std::vector<std::size_t> worklist;
        for (std::size_t i = 0; i < n; ++i) {
            if (instrs[i].op == IsaOp::STORE) {
                drop[i] = false;
                worklist.push_back(i);
            }
        }
        while (!worklist.empty()) {
            const std::size_t i = worklist.back();
            worklist.pop_back();
            forEachDep(instrs[i], producer, [&](std::uint32_t p) {
                if (drop[p]) {
                    drop[p] = false;
                    worklist.push_back(p);
                }
            });
        }
        const auto removed = static_cast<std::size_t>(
            std::count(drop.begin(), drop.end(), true));
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
