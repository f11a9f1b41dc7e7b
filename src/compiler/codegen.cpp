#include "compiler/codegen.hpp"

#include <map>
#include <numeric>
#include <stdexcept>

#include "compiler/incremental_codegen.hpp"
#include "fg/dfg.hpp"
#include "fg/eliminate.hpp"
#include "lie/so.hpp"

namespace orianna::comp {

namespace {

using fg::Dfg;
using fg::DfgNode;
using fg::Op;

/** Symbolic shape of a value slot. */
struct Shape
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    bool isVector = false;

    static Shape vec(std::size_t n) { return {n, 1, true}; }
    static Shape matrix(std::size_t r, std::size_t c)
    {
        return {r, c, false};
    }
};

/**
 * Incremental program builder: allocates value slots and tracks their
 * shapes. Dependences are not recorded: they derive from the srcs
 * (Program::producers).
 */
class Builder
{
  public:
    explicit Builder(std::uint8_t algorithm) : algorithm_(algorithm) {}

    const Shape &shape(std::uint32_t slot) const { return shapes_[slot]; }

    /** Emit an instruction writing a fresh slot of @p out_shape. */
    std::uint32_t
    emit(Instruction inst, Shape out_shape, std::uint32_t factor = 0)
    {
        inst.dst = static_cast<std::uint32_t>(shapes_.size());
        shapes_.push_back(out_shape);
        inst.rows = static_cast<std::uint32_t>(out_shape.rows);
        inst.cols = static_cast<std::uint32_t>(out_shape.cols);
        inst.algorithm = algorithm_;
        inst.factor = factor;
        inst.phase = phase_;
        program_.instructions.push_back(std::move(inst));
        return program_.instructions.back().dst;
    }

    /** Emit @p inst carrying @p payload (appended to the table). */
    std::uint32_t
    emit(Instruction inst, Payload payload, Shape out_shape,
         std::uint32_t factor = 0)
    {
        inst.payload = program_.addPayload(std::move(payload));
        return emit(std::move(inst), out_shape, factor);
    }

    /** Emit a STORE marking @p slot as a host-visible result. */
    void
    store(std::uint32_t slot)
    {
        Instruction inst;
        inst.op = IsaOp::STORE;
        inst.srcs = {slot};
        inst.dst = slot;
        inst.rows = static_cast<std::uint32_t>(shapes_[slot].rows);
        inst.cols = static_cast<std::uint32_t>(shapes_[slot].cols);
        inst.algorithm = algorithm_;
        inst.phase = phase_;
        program_.instructions.push_back(std::move(inst));
    }

    Program
    finish(std::string name, Precision precision,
           std::vector<DeltaBinding> deltas)
    {
        program_.valueSlots = shapes_.size();
        program_.algorithm = algorithm_;
        program_.name = std::move(name);
        program_.precision = precision;
        program_.deltas = std::move(deltas);
        return std::move(program_);
    }

    /** Phase tag stamped on subsequently emitted instructions. */
    void setPhase(std::uint8_t phase) { phase_ = phase; }

  private:
    Program program_;
    std::uint8_t algorithm_;
    std::uint8_t phase_ = 0;
    std::vector<Shape> shapes_;
};

/** Per-(key, component) LOADV cache so variables stream in once. */
struct VarSlots
{
    std::map<std::pair<Key, int>, std::uint32_t> slots;

    std::uint32_t
    load(Builder &b, const fg::Values &values, Key key, VarComponent comp)
    {
        const auto cache_key = std::make_pair(key, static_cast<int>(comp));
        auto it = slots.find(cache_key);
        if (it != slots.end())
            return it->second;

        Instruction inst;
        inst.op = IsaOp::LOADV;
        inst.key = key;
        inst.component = comp;
        Shape shape = Shape::vec(0);
        switch (comp) {
          case VarComponent::Phi:
            shape = Shape::vec(values.pose(key).phi().size());
            break;
          case VarComponent::Translation:
            shape = Shape::vec(values.pose(key).t().size());
            break;
          case VarComponent::Whole:
            shape = Shape::vec(values.vector(key).size());
            break;
        }
        const std::uint32_t slot = b.emit(std::move(inst), shape);
        slots.emplace(cache_key, slot);
        return slot;
    }
};

/** State of one factor's DFG lowering. */
struct FactorLowering
{
    std::vector<std::uint32_t> nodeSlot; //!< Forward value slots.
    std::vector<std::uint32_t> gradSlot; //!< Backward accumulators.
    std::vector<bool> hasGrad;
};

std::uint32_t
loadConstMatrix(Builder &b, Matrix m)
{
    Instruction inst;
    inst.op = IsaOp::LOADC;
    const Shape shape = Shape::matrix(m.rows(), m.cols());
    Payload payload;
    payload.constMat = std::move(m);
    return b.emit(std::move(inst), std::move(payload), shape);
}

std::uint32_t
loadConstVector(Builder &b, Vector v)
{
    Instruction inst;
    inst.op = IsaOp::LOADC;
    const Shape shape = Shape::vec(v.size());
    Payload payload;
    payload.constVec = std::move(v);
    return b.emit(std::move(inst), std::move(payload), shape);
}

std::uint32_t
emitUnary(Builder &b, IsaOp op, std::uint32_t src, Shape out,
          std::uint32_t factor = 0)
{
    Instruction inst;
    inst.op = op;
    inst.srcs = {src};
    return b.emit(std::move(inst), out, factor);
}

std::uint32_t
emitBinary(Builder &b, IsaOp op, std::uint32_t s0, std::uint32_t s1,
           Shape out, std::uint32_t factor = 0)
{
    Instruction inst;
    inst.op = op;
    inst.srcs = {s0, s1};
    return b.emit(std::move(inst), out, factor);
}

/** Matrix-matrix product slot helper (records the inner depth). */
std::uint32_t
emitMatMul(Builder &b, IsaOp op, std::uint32_t s0, std::uint32_t s1,
           std::uint32_t factor = 0)
{
    const Shape &a = b.shape(s0);
    const Shape &c = b.shape(s1);
    Instruction inst;
    inst.op = op;
    inst.srcs = {s0, s1};
    inst.depth = static_cast<std::uint32_t>(a.cols);
    Shape out = c.isVector ? ((op == IsaOp::MM || op == IsaOp::RR)
                                  ? Shape::matrix(a.rows, 1)
                                  : Shape::vec(a.rows))
                           : Shape::matrix(a.rows, c.cols);
    return b.emit(std::move(inst), out, factor);
}

/**
 * Forward lowering of one factor DFG: one instruction per node, in
 * construction (topological) order.
 */
void
lowerForward(Builder &b, VarSlots &vars, const fg::Values &values,
             const fg::Factor &factor, std::uint32_t fi,
             FactorLowering &state)
{
    const Dfg &dfg = factor.dfg();
    const auto &nodes = dfg.nodes();
    state.nodeSlot.assign(nodes.size(), 0);

    for (std::size_t id = 0; id < nodes.size(); ++id) {
        const DfgNode &node = nodes[id];
        auto in = [&](std::size_t slot_index) {
            return state.nodeSlot[node.inputs[slot_index]];
        };
        switch (node.op) {
          case Op::InputRot: {
            const std::uint32_t phi =
                vars.load(b, values, node.key, VarComponent::Phi);
            const std::size_t n = values.pose(node.key).spaceDim();
            state.nodeSlot[id] =
                emitUnary(b, IsaOp::EXP, phi, Shape::matrix(n, n), fi);
            break;
          }
          case Op::InputTrans:
            state.nodeSlot[id] = vars.load(b, values, node.key,
                                           VarComponent::Translation);
            break;
          case Op::InputVec:
            state.nodeSlot[id] =
                vars.load(b, values, node.key, VarComponent::Whole);
            break;
          case Op::ConstRot:
            state.nodeSlot[id] = loadConstMatrix(b, node.constMat);
            break;
          case Op::ConstVec:
            state.nodeSlot[id] = loadConstVector(b, node.constVec);
            break;
          case Op::Exp: {
            const std::size_t n =
                lie::spaceDimFromTangent(b.shape(in(0)).rows);
            state.nodeSlot[id] =
                emitUnary(b, IsaOp::EXP, in(0), Shape::matrix(n, n), fi);
            break;
          }
          case Op::Log: {
            const std::size_t tdim = lie::tangentDim(b.shape(in(0)).rows);
            state.nodeSlot[id] =
                emitUnary(b, IsaOp::LOG, in(0), Shape::vec(tdim), fi);
            break;
          }
          case Op::RT: {
            const Shape &s = b.shape(in(0));
            state.nodeSlot[id] = emitUnary(
                b, IsaOp::RT, in(0), Shape::matrix(s.cols, s.rows), fi);
            break;
          }
          case Op::RR:
            state.nodeSlot[id] =
                emitMatMul(b, IsaOp::RR, in(0), in(1), fi);
            break;
          case Op::RV:
            state.nodeSlot[id] =
                emitMatMul(b, IsaOp::RV, in(0), in(1), fi);
            break;
          case Op::VAdd:
            state.nodeSlot[id] = emitBinary(b, IsaOp::VADD, in(0), in(1),
                                            b.shape(in(0)), fi);
            break;
          case Op::VSub:
            state.nodeSlot[id] = emitBinary(b, IsaOp::VSUB, in(0), in(1),
                                            b.shape(in(0)), fi);
            break;
          case Op::MV: {
            const std::uint32_t coeff = loadConstMatrix(b, node.constMat);
            state.nodeSlot[id] =
                emitMatMul(b, IsaOp::MV, coeff, in(0), fi);
            break;
          }
          case Op::Proj: {
            Instruction inst;
            inst.op = IsaOp::PROJ;
            inst.srcs = {in(0)};
            Payload payload;
            payload.camera = node.camera;
            state.nodeSlot[id] = b.emit(std::move(inst), std::move(payload),
                                        Shape::vec(2), fi);
            break;
          }
          case Op::Sdf: {
            Instruction inst;
            inst.op = IsaOp::SDF;
            inst.srcs = {in(0)};
            Payload payload;
            payload.sdf = node.sdf;
            state.nodeSlot[id] = b.emit(std::move(inst), std::move(payload),
                                        Shape::vec(1), fi);
            break;
          }
          case Op::Hinge: {
            Instruction inst;
            inst.op = IsaOp::HINGE;
            inst.srcs = {in(0)};
            Payload payload;
            payload.hingeEps = node.hingeEps;
            state.nodeSlot[id] = b.emit(std::move(inst), std::move(payload),
                                        b.shape(in(0)), fi);
            break;
          }
          case Op::Norm:
            state.nodeSlot[id] =
                emitUnary(b, IsaOp::NORM, in(0), Shape::vec(1), fi);
            break;
        }
    }
}

/**
 * Backward lowering: reverse-mode chain rule, emitting the derivative
 * instructions of Sec. 5.2. Mirrors fg::evalBackward exactly, but at
 * the instruction level.
 */
void
lowerBackward(Builder &b, const fg::Values &values,
              const fg::Factor &factor, std::uint32_t fi,
              FactorLowering &state,
              std::map<Key, std::uint32_t> &jacobian_slots)
{
    const Dfg &dfg = factor.dfg();
    const auto &nodes = dfg.nodes();
    const std::size_t error_dim = factor.dim();

    state.gradSlot.assign(nodes.size(), 0);
    state.hasGrad.assign(nodes.size(), false);

    auto accumulate = [&](std::uint32_t node_id, std::uint32_t slot) {
        if (!state.hasGrad[node_id]) {
            state.gradSlot[node_id] = slot;
            state.hasGrad[node_id] = true;
        } else {
            state.gradSlot[node_id] =
                emitBinary(b, IsaOp::VADD, state.gradSlot[node_id], slot,
                           b.shape(slot), fi);
        }
    };

    // Seed each output with its identity block.
    std::size_t row = 0;
    for (fg::NodeId out : dfg.outputs()) {
        const std::size_t dim = b.shape(state.nodeSlot[out]).rows;
        Matrix seed(error_dim, dim);
        seed.setBlock(row, 0, Matrix::identity(dim));
        accumulate(out, loadConstMatrix(b, std::move(seed)));
        row += dim;
    }

    // Per-(key, component) accumulated Jacobian slots.
    std::map<std::pair<Key, int>, std::uint32_t> var_grad;
    auto accumulateVar = [&](Key key, VarComponent comp,
                             std::uint32_t slot) {
        const auto cache_key = std::make_pair(key, static_cast<int>(comp));
        auto it = var_grad.find(cache_key);
        if (it == var_grad.end())
            var_grad.emplace(cache_key, slot);
        else
            it->second = emitBinary(b, IsaOp::VADD, it->second, slot,
                                    b.shape(slot), fi);
    };

    for (std::size_t idx = nodes.size(); idx-- > 0;) {
        const auto id = static_cast<std::uint32_t>(idx);
        const DfgNode &node = nodes[id];
        if (!state.hasGrad[id])
            continue;
        const std::uint32_t g = state.gradSlot[id];
        auto inSlot = [&](std::size_t i) {
            return state.nodeSlot[node.inputs[i]];
        };
        auto inId = [&](std::size_t i) { return node.inputs[i]; };

        switch (node.op) {
          case Op::InputRot:
            accumulateVar(node.key, VarComponent::Phi, g);
            break;
          case Op::InputTrans:
            accumulateVar(node.key, VarComponent::Translation, g);
            break;
          case Op::InputVec:
            accumulateVar(node.key, VarComponent::Whole, g);
            break;
          case Op::ConstRot:
          case Op::ConstVec:
            break;
          case Op::Exp: {
            const std::size_t tdim = b.shape(inSlot(0)).rows;
            const std::uint32_t j =
                emitUnary(b, IsaOp::JR, inSlot(0),
                          Shape::matrix(tdim, tdim), fi);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, j, fi));
            break;
          }
          case Op::Log: {
            const std::size_t tdim = b.shape(state.nodeSlot[id]).rows;
            const std::uint32_t j =
                emitUnary(b, IsaOp::JRINV, state.nodeSlot[id],
                          Shape::matrix(tdim, tdim), fi);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, j, fi));
            break;
          }
          case Op::RT: {
            const Shape &a = b.shape(inSlot(0));
            if (a.rows == 3) {
                const std::uint32_t prod =
                    emitMatMul(b, IsaOp::MM, g, inSlot(0), fi);
                accumulate(inId(0), emitUnary(b, IsaOp::NEG, prod,
                                              b.shape(prod), fi));
            } else {
                accumulate(inId(0),
                           emitUnary(b, IsaOp::NEG, g, b.shape(g), fi));
            }
            break;
          }
          case Op::RR: {
            const Shape &bshape = b.shape(inSlot(1));
            if (bshape.rows == 3) {
                const std::uint32_t bt =
                    emitUnary(b, IsaOp::RT, inSlot(1),
                              Shape::matrix(3, 3), fi);
                accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, bt, fi));
            } else {
                accumulate(inId(0), g);
            }
            accumulate(inId(1), g);
            break;
          }
          case Op::RV: {
            // Copy, not reference: the emit below grows the slot
            // table and would invalidate a reference into it.
            const std::size_t r_rows = b.shape(inSlot(0)).rows;
            accumulate(inId(1), emitMatMul(b, IsaOp::MM, g, inSlot(0),
                                           fi));
            if (r_rows == 3) {
                const std::uint32_t h =
                    emitUnary(b, IsaOp::HAT, inSlot(1),
                              Shape::matrix(3, 3), fi);
                const std::uint32_t rh =
                    emitMatMul(b, IsaOp::MM, inSlot(0), h, fi);
                const std::uint32_t prod =
                    emitMatMul(b, IsaOp::MM, g, rh, fi);
                accumulate(inId(0), emitUnary(b, IsaOp::NEG, prod,
                                              b.shape(prod), fi));
            } else {
                // 2-D: column R S v, with S the planar generator.
                const std::uint32_t s = loadConstMatrix(
                    b, Matrix{{0.0, -1.0}, {1.0, 0.0}});
                const std::uint32_t sv =
                    emitMatMul(b, IsaOp::MV, s, inSlot(1), fi);
                const std::uint32_t col =
                    emitMatMul(b, IsaOp::RV, inSlot(0), sv, fi);
                // g (rows x 2) times column (2 x 1).
                const std::uint32_t prod =
                    emitMatMul(b, IsaOp::MM, g, col, fi);
                accumulate(inId(0), prod);
            }
            break;
          }
          case Op::VAdd:
            accumulate(inId(0), g);
            accumulate(inId(1), g);
            break;
          case Op::VSub:
            accumulate(inId(0), g);
            accumulate(inId(1),
                       emitUnary(b, IsaOp::NEG, g, b.shape(g), fi));
            break;
          case Op::MV: {
            const std::uint32_t coeff = loadConstMatrix(b, node.constMat);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, coeff, fi));
            break;
          }
          case Op::Proj: {
            Instruction inst;
            inst.op = IsaOp::PROJJ;
            inst.srcs = {inSlot(0)};
            Payload payload;
            payload.camera = node.camera;
            const std::uint32_t j = b.emit(
                std::move(inst), std::move(payload), Shape::matrix(2, 3), fi);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, j, fi));
            break;
          }
          case Op::Sdf: {
            Instruction inst;
            inst.op = IsaOp::SDFJ;
            inst.srcs = {inSlot(0)};
            Payload payload;
            payload.sdf = node.sdf;
            const std::uint32_t j = b.emit(
                std::move(inst), std::move(payload),
                Shape::matrix(1, b.shape(inSlot(0)).rows), fi);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, j, fi));
            break;
          }
          case Op::Hinge: {
            Instruction inst;
            inst.op = IsaOp::HINGEJ;
            inst.srcs = {inSlot(0)};
            Payload payload;
            payload.hingeEps = node.hingeEps;
            const std::size_t n = b.shape(inSlot(0)).rows;
            const std::uint32_t j = b.emit(
                std::move(inst), std::move(payload), Shape::matrix(n, n), fi);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, j, fi));
            break;
          }
          case Op::Norm: {
            const std::size_t n = b.shape(inSlot(0)).rows;
            const std::uint32_t j =
                emitUnary(b, IsaOp::NORMJ, inSlot(0),
                          Shape::matrix(1, n), fi);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, j, fi));
            break;
          }
        }
    }

    // Assemble per-key Jacobian blocks: poses combine [dphi | dt].
    for (Key key : factor.keys()) {
        const bool is_pose = values.isPose(key);
        if (!is_pose) {
            auto it = var_grad.find(
                {key, static_cast<int>(VarComponent::Whole)});
            if (it == var_grad.end())
                throw std::logic_error("codegen: missing vector grad");
            jacobian_slots[key] = it->second;
            continue;
        }
        const std::size_t tdim =
            lie::tangentDim(values.pose(key).spaceDim());
        const std::size_t n = values.pose(key).spaceDim();
        auto phi_it =
            var_grad.find({key, static_cast<int>(VarComponent::Phi)});
        auto t_it = var_grad.find(
            {key, static_cast<int>(VarComponent::Translation)});

        Instruction inst;
        inst.op = IsaOp::GATHER;
        Payload layout;
        if (phi_it != var_grad.end()) {
            inst.srcs.push_back(phi_it->second);
            layout.placements.push_back({0, 0, false});
        }
        if (t_it != var_grad.end()) {
            inst.srcs.push_back(t_it->second);
            layout.placements.push_back(
                {0, static_cast<std::uint32_t>(tdim), false});
        }
        if (inst.srcs.empty())
            throw std::logic_error("codegen: missing pose grad");
        jacobian_slots[key] =
            b.emit(std::move(inst), std::move(layout),
                   Shape::matrix(error_dim, tdim + n), fi);
    }
}

/** Whitening: scale rows of a slot by 1/sigma. */
std::uint32_t
emitWhiten(Builder &b, std::uint32_t slot, const Vector &sigmas,
           std::uint32_t fi)
{
    Instruction inst;
    inst.op = IsaOp::SCALER;
    inst.srcs = {slot};
    Payload payload;
    payload.constVec = sigmas;
    return b.emit(std::move(inst), std::move(payload), b.shape(slot), fi);
}

/** A symbolic linearized factor row: one Jacobian block per key. */
struct SymbolicRow
{
    std::map<Key, std::uint32_t> blocks;
    std::uint32_t rhs = 0;
    std::size_t dim = 0;
};

/** One block of an elimination row and where a GATHER places it. */
struct RowBlock
{
    std::uint32_t slot = 0;
    std::uint32_t position = 0; //!< Variable's elimination position.
    std::size_t column = 0;     //!< Column offset inside the variable.
    bool streamed = false;      //!< One streamed column (a vector).
};

/** A block row [A_i | b_i] entering elimination. */
struct ElimRow
{
    std::vector<RowBlock> blocks;
    std::uint32_t rhs = 0;
    std::size_t dim = 0;
};

/** @p rows with each key's block at its elimination @p position. */
std::vector<ElimRow>
placeRows(const std::vector<SymbolicRow> &rows,
          const std::map<Key, std::uint32_t> &position)
{
    std::vector<ElimRow> placed;
    placed.reserve(rows.size());
    for (const SymbolicRow &row : rows) {
        ElimRow &out = placed.emplace_back();
        for (const auto &[key, slot] : row.blocks)
            out.blocks.push_back({slot, position.at(key), 0, false});
        out.rhs = row.rhs;
        out.dim = row.dim;
    }
    return placed;
}

/** BSUB one variable's delta from R_self and its rhs, and STORE it. */
std::uint32_t
emitSolve(Builder &b, std::uint32_t r_self, std::uint32_t rhs,
          std::size_t dof)
{
    Instruction bsub;
    bsub.op = IsaOp::BSUB;
    bsub.srcs = {r_self, rhs};
    const std::uint32_t delta = b.emit(std::move(bsub), Shape::vec(dof));
    b.store(delta);
    return delta;
}

/**
 * The elimination emitter of compileGraph, compileUpdate and
 * compileDenseGraph (Figs. 5 and 6). Variables are named by their
 * elimination position. Each step is two calls: factor() GATHERs the
 * step's rows into [Abar | b] and QRs it; split() EXTRACTs the
 * conditional and the carry row, which it appends to the rows so
 * that later row references index it directly. Step i must eliminate
 * position i.
 */
class Elimination
{
  public:
    Elimination(Builder &b, std::vector<ElimRow> rows,
                const std::vector<std::size_t> &dofs)
        : b_(b), rows_(std::move(rows)), dofs_(dofs),
          offset_(dofs.size(), 0)
    {
    }

    /**
     * GATHER the rows @p refs into [Abar | b], laid out as @p columns
     * (positions, the eliminated one first), and QR it. Returns the
     * gathered row count.
     * @throws std::out_of_range for a row that does not exist yet.
     */
    template <class Refs>
    std::size_t
    factor(const Refs &refs, const std::vector<std::uint32_t> &columns)
    {
        columns_ = columns;
        ncols_ = 0;
        for (std::uint32_t position : columns) {
            offset_.at(position) = ncols_;
            ncols_ += dofs_[position];
        }
        // One placement per block and rhs; sized up front so the
        // operand list and the layout each take one exact block.
        std::size_t nplacements = 0;
        for (const auto ref : refs)
            nplacements += rows_.at(ref).blocks.size() + 1;
        Instruction gather;
        gather.op = IsaOp::GATHER;
        gather.srcs.resize(nplacements);
        Payload layout;
        layout.placements.reserve(nplacements);
        const auto place = [&](std::uint32_t slot, std::size_t row,
                               std::size_t col, bool is_rhs) {
            gather.srcs[layout.placements.size()] = slot;
            layout.placements.push_back(
                {static_cast<std::uint32_t>(row),
                 static_cast<std::uint32_t>(col), is_rhs});
        };
        std::size_t nrows = 0;
        for (const auto ref : refs) {
            const ElimRow &row = rows_.at(ref);
            for (const RowBlock &block : row.blocks)
                place(block.slot, nrows,
                      offset_.at(block.position) + block.column,
                      block.streamed);
            place(row.rhs, nrows, ncols_, true);
            nrows += row.dim;
        }
        const std::uint32_t abar =
            b_.emit(std::move(gather), std::move(layout),
                    Shape::matrix(nrows, ncols_ + 1));

        Instruction qr;
        qr.op = IsaOp::QR;
        qr.srcs = {abar};
        // Columns actually triangularized.
        qr.depth = static_cast<std::uint32_t>(ncols_);
        r_ = b_.emit(std::move(qr), Shape::matrix(nrows, ncols_ + 1));
        return nrows;
    }

    /** EXTRACT a @p rows x @p cols block of R at (@p i0, @p j0). */
    std::uint32_t
    extract(std::size_t i0, std::size_t j0, std::size_t rows,
            std::size_t cols, bool as_vector)
    {
        Instruction inst;
        inst.op = IsaOp::EXTRACT;
        inst.srcs = {r_};
        inst.extractRow = static_cast<std::uint32_t>(i0);
        inst.extractCol = static_cast<std::uint32_t>(j0);
        inst.extractVector = as_vector;
        return b_.emit(std::move(inst), as_vector
                                            ? Shape::vec(rows)
                                            : Shape::matrix(rows, cols));
    }

    /**
     * EXTRACT the step's conditional and, when @p kept > 0, the new
     * carry row over the separator (Fig. 5 step 4).
     */
    void
    split(std::size_t kept)
    {
        const std::size_t dv = dofs_[columns_.front()];
        Conditional &cond = conditionals_.emplace_back();
        cond.rSelf = extract(0, 0, dv, dv, false);
        cond.rhs = extract(0, ncols_, dv, 1, true);
        for (std::size_t c = 1; c < columns_.size(); ++c) {
            const std::uint32_t p = columns_[c];
            cond.rParents.emplace_back(
                p, extract(0, offset_[p], dv, dofs_[p], false));
        }
        if (kept == 0)
            return;
        ElimRow carry;
        carry.dim = kept;
        for (std::size_t c = 1; c < columns_.size(); ++c) {
            const std::uint32_t p = columns_[c];
            carry.blocks.push_back(
                {extract(dv, offset_[p], kept, dofs_[p], false), p, 0,
                 false});
        }
        carry.rhs = extract(dv, ncols_, kept, 1, true);
        rows_.push_back(std::move(carry));
    }

    /**
     * Back substitution (Fig. 6), last conditional first: MV/VSUB per
     * parent, then BSUB and STORE, binding position i's delta to
     * @p keys[i].
     */
    void
    backSubstitute(const std::vector<Key> &keys,
                   std::vector<DeltaBinding> &bindings)
    {
        std::vector<std::uint32_t> delta(dofs_.size(), 0);
        for (std::size_t i = conditionals_.size(); i-- > 0;) {
            const Conditional &cond = conditionals_[i];
            std::uint32_t rhs = cond.rhs;
            for (const auto &[position, block] : cond.rParents) {
                const std::uint32_t prod = emitMatMul(
                    b_, IsaOp::MV, block, delta.at(position));
                rhs = emitBinary(b_, IsaOp::VSUB, rhs, prod,
                                 b_.shape(rhs));
            }
            delta[i] = emitSolve(b_, cond.rSelf, rhs, dofs_[i]);
            bindings.push_back({keys[i], delta[i]});
        }
    }

    /** Column offset of @p position in the last factored step. */
    std::size_t offset(std::uint32_t position) const
    {
        return offset_[position];
    }

  private:
    /** Slots of one conditional; parents by position. */
    struct Conditional
    {
        std::uint32_t rSelf = 0;
        std::uint32_t rhs = 0;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> rParents;
    };

    Builder &b_;
    std::vector<ElimRow> rows_; //!< Input rows, then carries.
    const std::vector<std::size_t> &dofs_;
    std::vector<Conditional> conditionals_;

    // The step being emitted. Offsets are valid for its columns only.
    std::vector<std::size_t> offset_;
    std::vector<std::uint32_t> columns_;
    std::size_t ncols_ = 0;
    std::uint32_t r_ = 0;
};

/**
 * Phase 1 shared by both graph compilers: lower every factor's DFG
 * and whiten, producing the symbolic linearized rows.
 */
void
lowerConstruction(Builder &b, VarSlots &vars, const fg::FactorGraph &graph,
                  const fg::Values &values, std::vector<SymbolicRow> &rows,
                  std::map<Key, std::size_t> &dofs)
{
    rows.reserve(graph.size());
    for (std::size_t fi = 0; fi < graph.size(); ++fi) {
        const fg::Factor &factor = graph.factor(fi);
        const auto tag = static_cast<std::uint32_t>(fi);

        FactorLowering state;
        lowerForward(b, vars, values, factor, tag, state);

        // Stack the output slots into the factor's error vector.
        Instruction stack;
        stack.op = IsaOp::GATHER;
        Payload layout;
        std::size_t row_offset = 0;
        for (fg::NodeId out : factor.dfg().outputs()) {
            const std::uint32_t slot = state.nodeSlot[out];
            stack.srcs.push_back(slot);
            layout.placements.push_back(
                {static_cast<std::uint32_t>(row_offset), 0, true});
            row_offset += b.shape(slot).rows;
        }
        std::uint32_t error_slot =
            b.emit(std::move(stack), std::move(layout),
                   Shape::vec(factor.dim()), tag);

        std::map<Key, std::uint32_t> jac;
        lowerBackward(b, values, factor, tag, state, jac);

        // Whitening, optional Huber reweighting, and rhs = -e/sigma.
        SymbolicRow symbolic;
        symbolic.dim = factor.dim();
        std::uint32_t white_e =
            emitWhiten(b, error_slot, factor.sigmas(), tag);
        std::uint32_t weight_slot = 0;
        const bool robust = factor.robustK() > 0.0;
        if (robust) {
            Instruction hub;
            hub.op = IsaOp::HUBERW;
            hub.srcs = {white_e};
            Payload payload;
            payload.hingeEps = factor.robustK();
            weight_slot = b.emit(std::move(hub), std::move(payload),
                                 Shape::vec(1), tag);
            Instruction smul;
            smul.op = IsaOp::SMUL;
            smul.srcs = {white_e, weight_slot};
            white_e = b.emit(std::move(smul), b.shape(white_e), tag);
        }
        symbolic.rhs = emitUnary(b, IsaOp::NEG, white_e,
                                 b.shape(white_e), tag);
        for (const auto &[key, slot] : jac) {
            std::uint32_t white_j =
                emitWhiten(b, slot, factor.sigmas(), tag);
            if (robust) {
                Instruction smul;
                smul.op = IsaOp::SMUL;
                smul.srcs = {white_j, weight_slot};
                white_j = b.emit(std::move(smul), b.shape(white_j),
                                 tag);
            }
            symbolic.blocks[key] = white_j;
            dofs[key] = values.dof(key);
        }
        rows.push_back(std::move(symbolic));
    }
}

} // namespace

Program
compileGraph(const fg::FactorGraph &graph, const fg::Values &values,
             const CompileOptions &options)
{
    Builder b(options.algorithmTag);
    VarSlots vars;

    // ---- Phase 1: linear-equation construction (per-factor DFGs) ----
    std::vector<SymbolicRow> rows;
    std::map<Key, std::size_t> dofs;
    lowerConstruction(b, vars, graph, values, rows, dofs);

    // ---- Phase 2: elimination (Fig. 5) ----
    b.setPhase(1);
    std::vector<Key> ordering = options.ordering;
    if (ordering.empty())
        ordering = graph.allKeys();

    std::vector<fg::RowShape> shapes;
    shapes.reserve(rows.size());
    for (const SymbolicRow &row : rows) {
        fg::RowShape &shape = shapes.emplace_back();
        for (const auto &[key, slot] : row.blocks)
            shape.keys.push_back(key);
        shape.dim = row.dim;
    }
    const fg::SuffixSchedule schedule = fg::scheduleElimination(
        std::move(shapes), std::move(ordering), dofs);

    std::map<Key, std::uint32_t> position;
    for (std::size_t p = 0; p < schedule.variables.size(); ++p)
        position.emplace(schedule.variables[p],
                         static_cast<std::uint32_t>(p));
    Elimination elim(b, placeRows(rows, position), schedule.dofs);
    std::vector<std::uint32_t> columns;
    for (const fg::SuffixSchedule::Step &step : schedule.steps) {
        columns.clear();
        for (Key key : step.columns)
            columns.push_back(position.at(key));
        elim.factor(step.rowRefs, columns);
        elim.split(step.kept);
    }

    // ---- Phase 3: back substitution (Fig. 6) ----
    b.setPhase(2);
    std::vector<DeltaBinding> bindings;
    elim.backSubstitute(schedule.variables, bindings);

    return b.finish(options.name, options.precision, std::move(bindings));
}

Program
compileUpdate(const UpdateSpec &spec)
{
    const UpdateLayout layout = updateLayout(spec);
    Builder b(spec.algorithmTag);

    // ---- Phase 1: stream the input rows in (no LOADC anywhere) ----
    auto load = [&b](Key key, std::size_t dim) {
        Instruction inst;
        inst.op = IsaOp::LOADV;
        inst.key = key;
        inst.component = VarComponent::Whole;
        return b.emit(std::move(inst), Shape::vec(dim));
    };
    // Matrix blocks stream column by column, each GATHERed in place.
    std::vector<ElimRow> rows(spec.rows.size());
    for (std::size_t r = 0; r < spec.rows.size(); ++r) {
        const UpdateSpec::Row &row = spec.rows[r];
        const UpdateLayout::RowKeys &keys = layout.inputs[r];
        for (std::size_t bi = 0; bi < row.blocks.size(); ++bi)
            for (std::size_t j = 0; j < keys.blockColumns[bi].size(); ++j)
                rows[r].blocks.push_back(
                    {load(keys.blockColumns[bi][j], row.dim),
                     row.blocks[bi], j, true});
        rows[r].rhs = load(keys.rhs, row.dim);
        rows[r].dim = row.dim;
    }

    // ---- Phase 2: suffix elimination following the schedule ----
    b.setPhase(1);
    const std::vector<std::size_t> dofs(spec.dofs.begin(),
                                        spec.dofs.end());
    Elimination elim(b, std::move(rows), dofs);
    std::vector<DeltaBinding> bindings;
    for (std::size_t si = 0; si < spec.steps.size(); ++si) {
        const UpdateSpec::Step &step = spec.steps[si];
        if (step.columns.empty() ||
            step.columns.front() != static_cast<std::uint32_t>(si))
            throw std::invalid_argument(
                "compileUpdate: step does not eliminate its own "
                "suffix position");
        if (elim.factor(step.rowRefs, step.columns) < dofs[si])
            throw std::invalid_argument(
                "compileUpdate: underdetermined step");

        // Host-visible results: every column of the step's R factor
        // (conditional rows + carry rows) streams back as a vector.
        const UpdateLayout::StepKeys &out = layout.outputs[si];
        for (std::size_t c = 0; c < out.columns.size(); ++c) {
            const std::uint32_t slot =
                elim.extract(0, c, out.height, 1, true);
            b.store(slot);
            bindings.push_back({out.columns[c], slot});
        }
        elim.split(step.kept);
    }

    // ---- Phase 3: back substitution over the suffix ----
    b.setPhase(2);
    elim.backSubstitute(layout.deltaKeys, bindings);

    return b.finish(spec.name, spec.precision, std::move(bindings));
}

Program
compileDenseGraph(const fg::FactorGraph &graph, const fg::Values &values,
                  const CompileOptions &options)
{
    Builder b(options.algorithmTag);
    VarSlots vars;

    std::vector<SymbolicRow> rows;
    std::map<Key, std::size_t> dofs;
    lowerConstruction(b, vars, graph, values, rows, dofs);

    std::vector<Key> ordering = options.ordering;
    if (ordering.empty())
        ordering = graph.allKeys();

    // One step over every variable, in ordering order.
    std::map<Key, std::uint32_t> position;
    std::vector<std::uint32_t> columns;
    std::vector<std::size_t> dof;
    std::size_t ncols = 0;
    for (Key key : ordering) {
        position.emplace(key, static_cast<std::uint32_t>(columns.size()));
        columns.push_back(static_cast<std::uint32_t>(columns.size()));
        dof.push_back(dofs.at(key));
        ncols += dof.back();
    }
    std::size_t nrows = 0;
    for (const SymbolicRow &row : rows)
        nrows += row.dim;
    if (nrows < ncols)
        throw std::runtime_error("compileDenseGraph: underdetermined");

    // One large dense gather of the whole [A | b] (no sparsity use).
    b.setPhase(1);
    std::vector<std::size_t> all(rows.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    Elimination elim(b, placeRows(rows, position), dof);
    elim.factor(all, columns);

    // Block back-substitution over the dense R (Fig. 6 without the
    // graph: every later variable is a parent of every earlier one).
    b.setPhase(2);
    std::vector<std::uint32_t> delta(ordering.size(), 0);
    std::vector<DeltaBinding> bindings;
    for (std::size_t i = ordering.size(); i-- > 0;) {
        const std::size_t off = elim.offset(i);
        std::uint32_t rhs = elim.extract(off, ncols, dof[i], 1, true);
        for (std::size_t j = i + 1; j < ordering.size(); ++j) {
            const std::uint32_t block = elim.extract(
                off, elim.offset(j), dof[i], dof[j], false);
            const std::uint32_t prod =
                emitMatMul(b, IsaOp::MV, block, delta[j]);
            rhs = emitBinary(b, IsaOp::VSUB, rhs, prod, b.shape(rhs));
        }
        const std::uint32_t r_vv =
            elim.extract(off, off, dof[i], dof[i], false);
        delta[i] = emitSolve(b, r_vv, rhs, dof[i]);
        bindings.push_back({ordering[i], delta[i]});
    }

    return b.finish(options.name + "-dense", options.precision,
                    std::move(bindings));
}

} // namespace orianna::comp
