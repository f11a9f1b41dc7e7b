#include "runtime/incremental.hpp"

#include <map>
#include <stdexcept>
#include <utility>

namespace orianna::runtime {

namespace {

/**
 * Translate a smoother schedule into the shape-only UpdateSpec the
 * compiler fingerprints and compiles. Variables become suffix
 * positions; the per-row block order is the LinearRow's own map
 * (key) order, which is also the order the streamed Values are built
 * in, so spec and stream always agree.
 */
comp::UpdateSpec
specFromSchedule(const fg::SuffixSchedule &schedule,
                 const std::vector<const fg::LinearRow *> &rows)
{
    std::map<fg::Key, std::uint32_t> position;
    for (std::size_t i = 0; i < schedule.variables.size(); ++i)
        position[schedule.variables[i]] =
            static_cast<std::uint32_t>(i);

    comp::UpdateSpec spec;
    spec.dofs.reserve(schedule.dofs.size());
    for (std::size_t d : schedule.dofs)
        spec.dofs.push_back(static_cast<std::uint32_t>(d));

    spec.rows.reserve(rows.size());
    for (const fg::LinearRow *row : rows) {
        comp::UpdateSpec::Row r;
        r.dim = static_cast<std::uint32_t>(row->rhs.size());
        for (const auto &[key, block] : row->blocks) {
            auto it = position.find(key);
            if (it == position.end())
                throw std::logic_error(
                    "AcceleratedSmoother: input row references a "
                    "variable outside the suffix");
            r.blocks.push_back(it->second);
        }
        spec.rows.push_back(std::move(r));
    }

    spec.steps.reserve(schedule.steps.size());
    for (const fg::SuffixSchedule::Step &step : schedule.steps) {
        comp::UpdateSpec::Step s;
        s.rowRefs.reserve(step.rowRefs.size());
        for (std::size_t ref : step.rowRefs)
            s.rowRefs.push_back(static_cast<std::uint32_t>(ref));
        s.columns.reserve(step.columns.size());
        for (fg::Key key : step.columns)
            s.columns.push_back(position.at(key));
        s.kept = static_cast<std::uint32_t>(step.kept);
        spec.steps.push_back(std::move(s));
    }
    return spec;
}

/** The frame's numbers, bound to the layout's synthetic LOADV keys. */
fg::Values
streamInputs(const comp::UpdateLayout &layout,
             const std::vector<const fg::LinearRow *> &rows)
{
    fg::Values streamed;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const comp::UpdateLayout::RowKeys &keys = layout.inputs[r];
        std::size_t bi = 0;
        for (const auto &[key, block] : rows[r]->blocks) {
            const std::vector<comp::Key> &cols =
                keys.blockColumns[bi++];
            for (std::size_t j = 0; j < cols.size(); ++j)
                streamed.insert(cols[j], block.col(j));
        }
        streamed.insert(keys.rhs, rows[r]->rhs);
    }
    return streamed;
}

/**
 * Rebuild the SuffixSolution from the frame's delta bindings: the
 * per-step R-factor columns (conditional rows on top, carry rows
 * below) and the on-device back-substituted suffix deltas.
 */
fg::SuffixSolution
unpackFrame(const std::map<fg::Key, mat::Vector> &out,
            const comp::UpdateLayout &layout,
            const fg::SuffixSchedule &schedule)
{
    std::map<fg::Key, std::size_t> dof;
    for (std::size_t i = 0; i < schedule.variables.size(); ++i)
        dof[schedule.variables[i]] = schedule.dofs[i];

    fg::SuffixSolution sol;
    for (std::size_t si = 0; si < schedule.steps.size(); ++si) {
        const fg::SuffixSchedule::Step &step = schedule.steps[si];
        const comp::UpdateLayout::StepKeys &keys =
            layout.outputs[si];
        const std::size_t dv = keys.dv;

        // Reassemble column-by-column: column c of the R factor is
        // one streamed vector of `height` rows.
        auto column = [&](std::size_t c) -> const mat::Vector & {
            return out.at(keys.columns[c]);
        };

        fg::Conditional cond;
        cond.key = step.columns.front();
        cond.rSelf = mat::Matrix(dv, dv);
        for (std::size_t j = 0; j < dv; ++j) {
            const mat::Vector &col = column(j);
            for (std::size_t i = 0; i < dv; ++i)
                cond.rSelf(i, j) = col[i];
        }

        fg::LinearRow carry;
        std::size_t offset = dv;
        for (std::size_t c = 1; c < step.columns.size(); ++c) {
            const fg::Key parent = step.columns[c];
            const std::size_t w = dof.at(parent);
            mat::Matrix block(dv, w);
            mat::Matrix kept(step.kept, w);
            for (std::size_t j = 0; j < w; ++j) {
                const mat::Vector &col = column(offset + j);
                for (std::size_t i = 0; i < dv; ++i)
                    block(i, j) = col[i];
                for (std::size_t i = 0; i < step.kept; ++i)
                    kept(i, j) = col[dv + i];
            }
            cond.rParents.emplace(parent, std::move(block));
            if (step.kept > 0)
                carry.blocks.emplace(parent, std::move(kept));
            offset += w;
        }

        const mat::Vector &rhs = column(offset);
        cond.rhs = rhs.segment(0, dv);
        sol.conditionals.push_back(std::move(cond));
        if (step.kept > 0) {
            carry.rhs = rhs.segment(dv, step.kept);
            sol.carries.push_back(std::move(carry));
        }
    }

    for (std::size_t p = 0; p < schedule.variables.size(); ++p)
        sol.deltas.emplace(schedule.variables[p],
                           out.at(layout.deltaKeys[p]));
    return sol;
}

} // namespace

AcceleratedSmoother::AcceleratedSmoother(
    Engine &engine, AcceleratedSmootherOptions options)
    : engine_(engine), options_(options), smoother_(options.params)
{
    smoother_.setSuffixSolver(this);
}

AcceleratedSmoother::~AcceleratedSmoother()
{
    smoother_.setSuffixSolver(nullptr);
}

void
AcceleratedSmoother::addVariable(fg::Key key, lie::Pose initial)
{
    smoother_.addVariable(key, std::move(initial));
}

void
AcceleratedSmoother::addVariable(fg::Key key, fg::Vector initial)
{
    smoother_.addVariable(key, std::move(initial));
}

void
AcceleratedSmoother::addFactor(fg::FactorPtr factor)
{
    smoother_.addFactor(std::move(factor));
}

fg::UpdateStats
AcceleratedSmoother::update()
{
    return smoother_.update();
}

fg::Values
AcceleratedSmoother::estimate() const
{
    return smoother_.estimate();
}

void
AcceleratedSmoother::marginalizeLeading(std::size_t count)
{
    smoother_.marginalizeLeading(count);
}

const fg::FactorGraph &
AcceleratedSmoother::graph() const
{
    return smoother_.graph();
}

Session &
AcceleratedSmoother::acquireSession(const comp::UpdateSpec &spec,
                                    fg::Values streamed, bool batch)
{
    const std::uint64_t fingerprint = comp::updateFingerprint(spec);
    if (last_ && last_->fingerprint == fingerprint &&
        last_->batch == batch) {
        ++stats_.sessionReuses;
        last_->session.values() = std::move(streamed);
        return last_->session;
    }
    last_.reset();

    // Another shape: compile (or fetch — the engine's cache and the
    // ProgramStore both key on the same fingerprint) and open a
    // compute-only session. Relinearize-all frames run the batch
    // reference rung directly; incremental frames get it as the
    // degradation-ladder fallback when the engine provisions one.
    std::shared_ptr<const comp::Program> program;
    std::shared_ptr<const comp::Program> fallback;
    const bool provision = engine_.provisionsFallback();
    if (batch) {
        program = engine_.referenceUpdateProgram(spec, streamed);
        // The batch rung already runs the reference program; its
        // fallback is the same program replayed with injection
        // disarmed, which is exactly what the ladder's last rung
        // does with it.
        if (provision)
            fallback = program;
    } else {
        program = engine_.updateProgram(spec, streamed);
        if (provision)
            fallback =
                engine_.referenceUpdateProgram(spec, streamed);
    }
    last_.emplace(fingerprint, batch,
                  engine_.openSession(std::move(program),
                                      std::move(streamed),
                                      std::move(fallback), 1.0,
                                      /*retract=*/false));
    ++stats_.sessionsOpened;
    return last_->session;
}

fg::SuffixSolution
AcceleratedSmoother::solve(
    const fg::SuffixSchedule &schedule,
    const std::vector<const fg::LinearRow *> &rows)
{
    stats_.lastSuffix = schedule.variables.size();
    if (options_.maxAcceleratedSuffix > 0 &&
        schedule.variables.size() > options_.maxAcceleratedSuffix) {
        ++stats_.cpuFrames;
        stats_.lastCycles = 0; // No device frame ran.
        stats_.lastDegraded = false;
        return fg::solveSuffixOnCpu(schedule, rows);
    }

    const comp::UpdateSpec spec = specFromSchedule(schedule, rows);
    const comp::UpdateLayout layout = comp::updateLayout(spec);
    const bool batch = schedule.start == 0;

    Session &session =
        acquireSession(spec, streamInputs(layout, rows), batch);
    const hw::SimResult frame = session.step();
    stats_.lastCycles = frame.cycles;
    stats_.lastDegraded = session.lastFrameDegraded();
    ++(batch ? stats_.batchFrames : stats_.acceleratedFrames);

    return unpackFrame(frame.deltas.at(0), layout, schedule);
}

} // namespace orianna::runtime
