#pragma once

#include <cstdint>
#include <string>

#include "hw/cost_model.hpp"

namespace orianna::hw {

/**
 * One scheduled instruction occurrence, for timeline visualization
 * (runtime::TraceCollector writes them as Chrome/Perfetto JSON).
 */
struct TraceEvent
{
    std::string name;       //!< Opcode mnemonic + shape.
    UnitKind unit;          //!< Functional-unit kind.
    unsigned instance = 0;  //!< Which replica of the unit.
    std::uint64_t startCycle = 0;
    std::uint64_t endCycle = 0;
    std::uint8_t algorithm = 0; //!< Coarse-grained OoO tag.
    std::uint8_t phase = 0;     //!< Construction / decomp / back-sub.
};

} // namespace orianna::hw
