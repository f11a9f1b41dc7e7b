#pragma once

// The payload-table contract of compiled programs (DESIGN.md §7),
// shared by the compiler and store suites.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/encoding.hpp"
#include "compiler/isa.hpp"

namespace orianna::test {

/** The pipelines whose output must keep a compact payload table. */
inline const std::vector<std::string> &
payloadPipelines()
{
    static const std::vector<std::string> specs = {"default", "dedup,dce",
                                                   "none"};
    return specs;
}

/**
 * Every entry of @p program's payload table is referenced by exactly
 * one instruction, and the program survives its binary encoding:
 * encode(decode(p)) == encode(p).
 */
inline void
expectCompactPayloads(const comp::Program &program,
                      const std::string &label)
{
    std::vector<std::size_t> refs(program.payloads.size(), 0);
    for (const comp::Instruction &inst : program.instructions) {
        if (inst.payload == 0)
            continue;
        ASSERT_LE(inst.payload, program.payloads.size()) << label;
        ++refs[inst.payload - 1];
    }
    for (std::size_t e = 0; e < refs.size(); ++e)
        EXPECT_EQ(refs[e], 1u) << label << ": payload entry " << e;
    const std::vector<std::uint8_t> bytes = comp::encodeProgram(program);
    EXPECT_EQ(comp::encodeProgram(comp::decodeProgram(bytes)), bytes)
        << label;
}

} // namespace orianna::test
