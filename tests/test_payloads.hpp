#pragma once

// The payload-table contract of compiled programs (DESIGN.md §7) and
// a graph that carries every payload kind, shared by the compiler and
// store suites.

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/encoding.hpp"
#include "compiler/isa.hpp"
#include "fg/factors.hpp"
#include "fg/graph.hpp"
#include "test_fg_common.hpp"

namespace orianna::test {

/** A graph touching every payload kind: camera, SDF, hinge, MV. */
inline fg::FactorGraph
richGraph(fg::Values &values, std::mt19937 &rng)
{
    fg::FactorGraph graph;
    values = fg::Values();

    Pose pose = randomPose(3, rng, 0.2, 1.0);
    values.insert(1, pose);
    Vector landmark =
        pose.rotation() * Vector{0.2, -0.1, 3.0} + pose.t();
    values.insert(2, landmark);
    graph.emplace<fg::CameraFactor>(
        1, 2, Vector{3.0, -2.0}, fg::CameraModel{420, 420, 320, 240},
        fg::isotropicSigmas(2, 1.0));
    graph.emplace<fg::VectorPriorFactor>(2, landmark,
                                         fg::isotropicSigmas(3, 1.0));
    graph.emplace<fg::PriorFactor>(1, Pose::identity(3),
                                   fg::isotropicSigmas(6, 0.1));

    auto map = std::make_shared<fg::SdfMap>();
    map->addObstacle(Vector{1.0, 1.0}, 0.5);
    map->addObstacle(Vector{-2.0, 0.5}, 0.8);
    values.insert(3, Vector{0.9, 0.8, 0.1, 0.2});
    graph.emplace<fg::CollisionFreeFactor>(3, map, 4, 2, 0.7, 0.2);
    graph.emplace<fg::KinematicsFactor>(3, 4, 2, 2, 1.0, 0.5);
    graph.emplace<fg::VectorPriorFactor>(3, Vector(4),
                                         fg::isotropicSigmas(4, 1.0));
    return graph;
}

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
