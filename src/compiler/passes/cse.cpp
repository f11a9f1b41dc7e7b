#include "compiler/passes/passes.hpp"

#include <numeric>
#include <unordered_map>

namespace orianna::comp::passes {

namespace {

/**
 * Byte-exact structural key of an instruction: opcode, (remap-resolved)
 * operand slots, output shape, and every op-specific payload that
 * feeds the numerics. Two instructions with equal keys compute the
 * same value in an SSA program, because equal operand slots hold equal
 * values by induction.
 */
class KeyBuilder
{
  public:
    void
    pod(const void *data, std::size_t n)
    {
        key_.append(static_cast<const char *>(data), n);
    }

    template <typename T>
    void
    value(T v)
    {
        pod(&v, sizeof(v));
    }

    void
    vector(const mat::Vector &v)
    {
        value(static_cast<std::uint32_t>(v.size()));
        for (std::size_t i = 0; i < v.size(); ++i)
            value(v[i]);
    }

    void
    matrix(const mat::Matrix &m)
    {
        value(static_cast<std::uint32_t>(m.rows()));
        value(static_cast<std::uint32_t>(m.cols()));
        for (std::size_t i = 0; i < m.rows(); ++i)
            for (std::size_t j = 0; j < m.cols(); ++j)
                value(m(i, j));
    }

    /** Start the next key, keeping the buffer's capacity. */
    void clear() { key_.clear(); }

    const std::string &key() const { return key_; }

  private:
    std::string key_;
};

class CsePass final : public Pass
{
  public:
    const char *name() const override { return "cse"; }

    const char *
    description() const override
    {
        return "share identical op/operand/payload instructions "
               "(repeated Jacobian chains)";
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
        KeyBuilder kb;
        std::size_t merged = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Instruction &inst = instrs[i];
            if (inst.op == IsaOp::STORE)
                continue; // Host-visibility marker, not a value.

            // Keys use remap-resolved operands so chains of duplicate
            // instructions collapse transitively in one forward walk.
            kb.clear();
            kb.value(static_cast<std::uint8_t>(inst.op));
            kb.value(static_cast<std::uint32_t>(inst.srcs.size()));
            for (std::uint32_t src : inst.srcs)
                kb.value(slot_remap[src]);
            kb.value(inst.rows);
            kb.value(inst.cols);
            kb.value(inst.depth);
            const Payload &payload = program.payload(inst);
            kb.value(inst.key);
            kb.value(static_cast<std::uint8_t>(inst.component));
            kb.value(payload.hingeEps);
            kb.value(payload.camera.fx);
            kb.value(payload.camera.fy);
            kb.value(payload.camera.cx);
            kb.value(payload.camera.cy);
            // SDF maps compare by identity, like the engine
            // fingerprint: one shared map object, one compiled lookup.
            kb.value(reinterpret_cast<std::uintptr_t>(payload.sdf.get()));
            kb.value(inst.extractRow);
            kb.value(inst.extractCol);
            kb.value(static_cast<std::uint8_t>(inst.extractVector));
            kb.matrix(payload.constMat);
            kb.vector(payload.constVec);
            kb.value(
                static_cast<std::uint32_t>(payload.placements.size()));
            for (const GatherPlacement &p : payload.placements) {
                kb.value(p.rowBegin);
                kb.value(p.colBegin);
                kb.value(static_cast<std::uint8_t>(p.isRhs));
            }

            // Copies the key only when it is new.
            auto [it, inserted] = seen.try_emplace(kb.key(), inst.dst);
            if (!inserted) {
                slot_remap[inst.dst] = it->second;
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
commonSubexpressionElimination()
{
    return std::make_unique<CsePass>();
}

} // namespace orianna::comp::passes
