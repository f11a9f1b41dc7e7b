#pragma once

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <vector>

#include "compiler/executor.hpp"
#include "hw/cost_model.hpp"
#include "hw/trace.hpp"

namespace orianna::hw {

/**
 * Configuration of a generated accelerator: how many instances of
 * each functional-unit template are instantiated (the p_1..p_n of
 * Equ. 5) and whether the controller dispatches out of order.
 */
struct AcceleratorConfig
{
    std::array<unsigned, kUnitKindCount> units{};
    bool outOfOrder = true;
    std::string name = "orianna";
    /**
     * Record a per-instruction schedule trace in SimResult::trace
     * (runtime::TraceCollector::addHwFrame writes it out).
     */
    bool recordTrace = false;

    /** Smallest viable accelerator: one unit of each kind. */
    static AcceleratorConfig minimal(bool out_of_order = true);

    unsigned count(UnitKind kind) const
    {
        return units[static_cast<std::size_t>(kind)];
    }

    unsigned &count(UnitKind kind)
    {
        return units[static_cast<std::size_t>(kind)];
    }

    /** Total resources: units plus the fixed controller overhead. */
    Resources resources() const;
};

/** One algorithm's compiled program bound to its current values. */
struct WorkItem
{
    const comp::Program *program;
    const fg::Values *values;
};

/**
 * Outcome of one simulated frame (all work items executed once), as
 * runtime::ExecutionContext::run produces it.
 */
struct SimResult
{
    std::uint64_t cycles = 0;

    double
    seconds() const
    {
        return static_cast<double>(cycles) / CostModel::frequencyHz;
    }

    double dynamicEnergyJ = 0.0; //!< Datapath (compute) energy.
    double memoryEnergyJ = 0.0;  //!< Operand traffic: on-chip buffer
                                 //!< (OoO operand capture) or DRAM
                                 //!< round trips (in-order controller).
    double staticEnergyJ = 0.0;  //!< Idle/clock power over the makespan.

    double
    totalEnergyJ() const
    {
        return dynamicEnergyJ + memoryEnergyJ + staticEnergyJ;
    }

    /** Busy cycles accumulated per unit kind (utilization). */
    std::array<std::uint64_t, kUnitKindCount> unitBusyCycles{};

    /** Busy cycles per phase: construction / decomposition / backsub. */
    std::array<std::uint64_t, 3> phaseBusyCycles{};

    /** Completion cycle of the last instruction per algorithm tag. */
    std::map<std::uint8_t, std::uint64_t> algorithmFinishCycle;

    /**
     * Faults the injection harness fired this frame, total and per
     * FaultKind (stall / spike / corrupt, in enum order). Always zero
     * without an armed hw::FaultInjector.
     */
    std::uint64_t faultsInjected = 0;
    std::array<std::uint64_t, 3> faultsByKind{};

    /** Functional results: delta per variable, one map per work item. */
    std::vector<std::map<fg::Key, mat::Vector>> deltas;

    /** Schedule trace (only when config.recordTrace is set). */
    std::vector<TraceEvent> trace;

    /**
     * Fold another frame's cycles, energies and busy-cycle counters
     * into this result (per-algorithm finish cycles are maxed).
     * Deltas and traces are per-frame data and are not merged.
     */
    void
    accumulate(const SimResult &other)
    {
        cycles += other.cycles;
        dynamicEnergyJ += other.dynamicEnergyJ;
        memoryEnergyJ += other.memoryEnergyJ;
        staticEnergyJ += other.staticEnergyJ;
        for (std::size_t k = 0; k < kUnitKindCount; ++k)
            unitBusyCycles[k] += other.unitBusyCycles[k];
        for (std::size_t p = 0; p < phaseBusyCycles.size(); ++p)
            phaseBusyCycles[p] += other.phaseBusyCycles[p];
        for (const auto &[tag, cycle] : other.algorithmFinishCycle) {
            auto &finish = algorithmFinishCycle[tag];
            finish = std::max(finish, cycle);
        }
        faultsInjected += other.faultsInjected;
        for (std::size_t k = 0; k < faultsByKind.size(); ++k)
            faultsByKind[k] += other.faultsByKind[k];
    }
};

} // namespace orianna::hw
