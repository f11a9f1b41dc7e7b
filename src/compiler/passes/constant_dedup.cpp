#include "compiler/passes/duplicate_table.hpp"
#include "compiler/passes/passes.hpp"

#include <algorithm>
#include <numeric>

namespace orianna::comp::passes {

namespace {

class ConstantDedupPass final : public Pass
{
  public:
    const char *name() const override { return "dedup"; }

    const char *
    description() const override
    {
        return "merge byte-identical LOADC constants into one slot";
    }

    std::size_t
    run(Program &program) const override
    {
        const auto &instrs = program.instructions;
        const std::size_t n = instrs.size();
        const auto constants = static_cast<std::size_t>(
            std::count_if(instrs.begin(), instrs.end(),
                          [](const Instruction &inst) {
                              return inst.op == IsaOp::LOADC;
                          }));
        if (constants < 2)
            return 0;

        std::vector<bool> drop(n, false);
        std::vector<std::uint32_t> slot_remap(program.valueSlots);
        std::iota(slot_remap.begin(), slot_remap.end(), 0u);
        // First occurrence wins: later duplicates read its slot.
        DuplicateTable seen(constants);
        std::size_t merged = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (instrs[i].op != IsaOp::LOADC)
                continue;
            const Payload &constant = program.payload(instrs[i]);
            FieldHash h;
            mixConstants(h, constant);
            const std::uint32_t first = seen.firstOccurrence(
                h.value(), static_cast<std::uint32_t>(i),
                [&](std::uint32_t j) {
                    return sameConstants(program.payload(instrs[j]),
                                         constant);
                });
            if (first != DuplicateTable::kNew) {
                slot_remap[instrs[i].dst] = instrs[first].dst;
                drop[i] = true;
                ++merged;
            }
        }
        if (merged > 0)
            rewriteProgram(program, drop, slot_remap);
        return merged;
    }
};

} // namespace

std::unique_ptr<Pass>
constantDedup()
{
    return std::make_unique<ConstantDedupPass>();
}

} // namespace orianna::comp::passes
