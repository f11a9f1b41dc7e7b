#include "compiler/passes/passes.hpp"

#include <numeric>
#include <unordered_map>

namespace orianna::comp::passes {

namespace {

/** Byte-exact key of a LOADC payload. */
std::string
constantKey(const Payload &constant)
{
    std::string key;
    auto append = [&key](const void *data, std::size_t n) {
        key.append(static_cast<const char *>(data), n);
    };
    const Matrix &m = constant.constMat;
    const std::uint32_t rows = static_cast<std::uint32_t>(m.rows());
    const std::uint32_t cols = static_cast<std::uint32_t>(m.cols());
    append(&rows, sizeof(rows));
    append(&cols, sizeof(cols));
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j) {
            const double v = m(i, j);
            append(&v, sizeof(v));
        }
    const Vector &vec = constant.constVec;
    const std::uint32_t n = static_cast<std::uint32_t>(vec.size());
    append(&n, sizeof(n));
    for (std::size_t i = 0; i < vec.size(); ++i) {
        const double v = vec[i];
        append(&v, sizeof(v));
    }
    return key;
}

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

        std::vector<bool> drop(n, false);
        std::vector<std::uint32_t> slot_remap(program.valueSlots);
        std::iota(slot_remap.begin(), slot_remap.end(), 0u);
        // First occurrence wins: later duplicates read its slot.
        std::unordered_map<std::string, std::uint32_t> seen;
        seen.reserve(n);
        std::size_t merged = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (instrs[i].op != IsaOp::LOADC)
                continue;
            auto [it, inserted] = seen.emplace(
                constantKey(program.payload(instrs[i])), instrs[i].dst);
            if (!inserted) {
                slot_remap[instrs[i].dst] = it->second;
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
