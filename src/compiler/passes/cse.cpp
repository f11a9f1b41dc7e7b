#include "compiler/passes/duplicate_table.hpp"
#include "compiler/passes/passes.hpp"

#include <numeric>

namespace orianna::comp::passes {

namespace {

/**
 * Whether two SDF maps give one lookup: the same object, or maps
 * whose obstacles have the same center and radius bits, in order. The
 * engine fingerprint hashes maps by content too, so one cached
 * program serves every graph that fingerprint names.
 */
bool
sameSdf(const fg::SdfMapPtr &a, const fg::SdfMapPtr &b)
{
    if (a == b)
        return true;
    if (a == nullptr || b == nullptr ||
        a->obstacleCount() != b->obstacleCount())
        return false;
    for (std::size_t k = 0; k < a->obstacleCount(); ++k)
        if (!sameBits(a->obstacleCenter(k).data(),
                      b->obstacleCenter(k).data()) ||
            !sameBits(a->obstacleRadius(k), b->obstacleRadius(k)))
            return false;
    return true;
}

/** Hash of the payload fields samePayload() compares. */
std::uint64_t
payloadHash(const Payload &payload)
{
    FieldHash h;
    h.bits(payload.hingeEps);
    h.bits(payload.camera.fx);
    h.bits(payload.camera.fy);
    h.bits(payload.camera.cx);
    h.bits(payload.camera.cy);
    if (payload.sdf != nullptr) {
        const fg::SdfMap &map = *payload.sdf;
        h.word(map.obstacleCount() + 1);
        for (std::size_t k = 0; k < map.obstacleCount(); ++k) {
            h.doubles(map.obstacleCenter(k).data());
            h.bits(map.obstacleRadius(k));
        }
    } else {
        h.word(0);
    }
    mixConstants(h, payload);
    h.word(payload.placements.size());
    for (const GatherPlacement &p : payload.placements) {
        h.word(p.rowBegin | std::uint64_t{p.colBegin} << 32);
        h.word(p.isRhs);
    }
    return h.value();
}

bool
samePayload(const Payload &a, const Payload &b)
{
    if (&a == &b)
        return true;
    if (!sameBits(a.hingeEps, b.hingeEps) ||
        !sameBits(a.camera.fx, b.camera.fx) ||
        !sameBits(a.camera.fy, b.camera.fy) ||
        !sameBits(a.camera.cx, b.camera.cx) ||
        !sameBits(a.camera.cy, b.camera.cy) || !sameSdf(a.sdf, b.sdf) ||
        !sameConstants(a, b) ||
        a.placements.size() != b.placements.size())
        return false;
    for (std::size_t k = 0; k < a.placements.size(); ++k) {
        const GatherPlacement &p = a.placements[k];
        const GatherPlacement &q = b.placements[k];
        if (p.rowBegin != q.rowBegin || p.colBegin != q.colBegin ||
            p.isRhs != q.isRhs)
            return false;
    }
    return true;
}

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

        // Structural identity: opcode, remap-resolved operand slots,
        // output shape, and every op-specific field that feeds the
        // numerics. Two instructions that match compute the same value
        // in an SSA program, because equal operand slots hold equal
        // values by induction; phase, algorithm and factor only label
        // an instruction. Resolving operands through the remap
        // collapses chains of duplicates transitively in one forward
        // walk. A stored candidate's operands resolve as they did when
        // it was stored: every slot it reads is defined, and so
        // remapped, before it.
        const auto same = [&](const Instruction &a,
                              const Instruction &b) {
            if (a.op != b.op || a.srcs.size() != b.srcs.size() ||
                a.rows != b.rows || a.cols != b.cols ||
                a.depth != b.depth || a.key != b.key ||
                a.component != b.component ||
                a.extractRow != b.extractRow ||
                a.extractCol != b.extractCol ||
                a.extractVector != b.extractVector)
                return false;
            for (std::size_t k = 0; k < a.srcs.size(); ++k)
                if (slot_remap[a.srcs[k]] != slot_remap[b.srcs[k]])
                    return false;
            return samePayload(program.payload(a), program.payload(b));
        };

        // First occurrence wins: later duplicates read its slot.
        DuplicateTable seen(n);
        const std::uint64_t empty_payload =
            payloadHash(Program::emptyPayload());
        std::size_t merged = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Instruction &inst = instrs[i];
            if (inst.op == IsaOp::STORE)
                continue; // Host-visibility marker, not a value.

            FieldHash h;
            h.word(static_cast<std::uint64_t>(inst.op) |
                   static_cast<std::uint64_t>(inst.component) << 8 |
                   std::uint64_t{inst.extractVector} << 16 |
                   std::uint64_t{inst.srcs.size()} << 32);
            for (std::uint32_t src : inst.srcs)
                h.word(slot_remap[src]);
            h.word(inst.rows | std::uint64_t{inst.cols} << 32);
            h.word(inst.depth | std::uint64_t{inst.extractRow} << 32);
            h.word(inst.extractCol);
            h.word(inst.key);
            h.word(inst.payload == 0
                       ? empty_payload
                       : payloadHash(program.payload(inst)));

            const std::uint32_t first = seen.firstOccurrence(
                h.value(), static_cast<std::uint32_t>(i),
                [&](std::uint32_t j) { return same(instrs[j], inst); });
            if (first != DuplicateTable::kNew) {
                slot_remap[inst.dst] = instrs[first].dst;
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
