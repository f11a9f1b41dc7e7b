#include "compiler/pass.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>

namespace orianna::comp {

// Compaction moves the survivors down, and PassManager's final
// shrink_to_fit reallocates; both must move instructions, never copy.
static_assert(std::is_nothrow_move_constructible_v<Instruction> &&
                  std::is_nothrow_move_assignable_v<Instruction>,
              "Instruction moves must not throw");

void
rewriteProgram(Program &program, const std::vector<bool> &drop,
               const std::vector<std::uint32_t> &slot_remap)
{
    auto &instrs = program.instructions;
    const std::size_t n = instrs.size();
    const std::size_t slots = program.valueSlots;
    const std::size_t entries = program.payloads.size();
    if (drop.size() != n)
        throw std::logic_error("rewriteProgram: drop mask size");
    if (!slot_remap.empty() && slot_remap.size() != slots)
        throw std::logic_error("rewriteProgram: slot remap size");

    // Validate first: number the surviving definitions and check every
    // operand against them without touching the program, so a broken
    // rewrite throws and leaves its input intact.
    constexpr std::uint32_t kUndefined =
        std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> new_slot(slots, kUndefined);

    auto finalSlot = [&](std::uint32_t slot) {
        if (slot < slots && !slot_remap.empty())
            slot = slot_remap[slot];
        if (slot >= slots || new_slot[slot] == kUndefined)
            throw std::logic_error(
                "rewriteProgram: use of undefined slot");
        return new_slot[slot];
    };

    std::uint32_t defined = 0;
    std::size_t kept_entries = 0;
    std::vector<bool> referenced(entries, false);
    for (std::size_t i = 0; i < n; ++i) {
        if (drop[i])
            continue;
        const Instruction &inst = instrs[i];
        for (std::uint32_t src : inst.srcs)
            finalSlot(src);
        if (inst.payload != 0) {
            if (inst.payload > entries)
                throw std::logic_error(
                    "rewriteProgram: payload index out of range");
            if (referenced[inst.payload - 1])
                throw std::logic_error(
                    "rewriteProgram: payload entry shared by two "
                    "instructions");
            referenced[inst.payload - 1] = true;
            ++kept_entries;
        }
        if (inst.op == IsaOp::STORE) {
            if (inst.srcs.empty())
                throw std::logic_error(
                    "rewriteProgram: STORE without a source");
        } else {
            if (inst.dst >= slots)
                throw std::logic_error(
                    "rewriteProgram: definition of an out-of-range "
                    "slot");
            if (new_slot[inst.dst] != kUndefined)
                throw std::logic_error(
                    "rewriteProgram: slot defined twice");
            new_slot[inst.dst] = defined++;
        }
    }
    for (const DeltaBinding &binding : program.deltas)
        finalSlot(binding.slot);

    // Compact in place with that numbering (finalSlot() cannot throw
    // now): operands through the remap onto the compact numbering,
    // survivors moved down over the dropped instructions, and their
    // payload entries moved, in instruction order, into a table that
    // holds nothing else.
    std::vector<Payload> payloads;
    payloads.reserve(kept_entries);
    std::size_t out = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (drop[i])
            continue;
        Instruction &inst = instrs[i];
        for (std::uint32_t &src : inst.srcs)
            src = finalSlot(src);
        if (inst.payload != 0) {
            payloads.push_back(std::move(program.payloads[inst.payload - 1]));
            inst.payload = static_cast<std::uint32_t>(payloads.size());
        }
        inst.dst = inst.op == IsaOp::STORE ? inst.srcs[0]
                                           : new_slot[inst.dst];
        if (out != i)
            instrs[out] = std::move(inst);
        ++out;
    }
    instrs.erase(instrs.begin() + static_cast<std::ptrdiff_t>(out),
                 instrs.end());
    program.payloads = std::move(payloads);
    program.valueSlots = defined;
    for (DeltaBinding &binding : program.deltas)
        binding.slot = finalSlot(binding.slot);
}

} // namespace orianna::comp
