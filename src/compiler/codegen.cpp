#include "compiler/codegen.hpp"

#include <map>
#include <stdexcept>

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
 * Incremental program builder: allocates value slots, tracks slot
 * shapes and producers, and derives instruction dependences from the
 * operands.
 */
class Builder
{
  public:
    explicit Builder(std::uint8_t algorithm) : algorithm_(algorithm) {}

    std::uint32_t
    newSlot(Shape shape)
    {
        shapes_.push_back(shape);
        producer_.push_back(kNoProducer);
        return static_cast<std::uint32_t>(shapes_.size() - 1);
    }

    const Shape &shape(std::uint32_t slot) const { return shapes_[slot]; }

    /** Emit an instruction writing a fresh slot of @p out_shape. */
    std::uint32_t
    emit(Instruction inst, Shape out_shape, std::uint32_t factor = 0)
    {
        inst.dst = newSlot(out_shape);
        inst.rows = out_shape.rows;
        inst.cols = out_shape.cols;
        inst.algorithm = algorithm_;
        inst.factor = factor;
        inst.phase = phase_;
        for (std::uint32_t src : inst.srcs) {
            const std::uint32_t p = producer_[src];
            if (p != kNoProducer)
                inst.deps.push_back(p);
        }
        const std::uint32_t dst = inst.dst;
        program_.instructions.push_back(std::move(inst));
        producer_[dst] =
            static_cast<std::uint32_t>(program_.instructions.size() - 1);
        return dst;
    }

    /** Emit a STORE marking @p slot as a host-visible result. */
    void
    store(std::uint32_t slot)
    {
        Instruction inst;
        inst.op = IsaOp::STORE;
        inst.srcs = {slot};
        inst.dst = slot;
        inst.rows = shapes_[slot].rows;
        inst.cols = shapes_[slot].cols;
        inst.algorithm = algorithm_;
        inst.phase = phase_;
        const std::uint32_t p = producer_[slot];
        if (p != kNoProducer)
            inst.deps.push_back(p);
        program_.instructions.push_back(std::move(inst));
    }

    Program
    finish(std::string name)
    {
        program_.valueSlots = shapes_.size();
        program_.algorithm = algorithm_;
        program_.name = std::move(name);
        return std::move(program_);
    }

    /** Phase tag stamped on subsequently emitted instructions. */
    void setPhase(std::uint8_t phase) { phase_ = phase; }

    Program program_;

  private:
    static constexpr std::uint32_t kNoProducer = 0xffffffffu;

    std::uint8_t algorithm_;
    std::uint8_t phase_ = 0;
    std::vector<Shape> shapes_;
    std::vector<std::uint32_t> producer_;
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
    inst.constMat = std::move(m);
    return b.emit(std::move(inst), shape);
}

std::uint32_t
loadConstVector(Builder &b, Vector v)
{
    Instruction inst;
    inst.op = IsaOp::LOADC;
    const Shape shape = Shape::vec(v.size());
    inst.constVec = std::move(v);
    return b.emit(std::move(inst), shape);
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
    inst.depth = a.cols;
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
            inst.camera = node.camera;
            state.nodeSlot[id] =
                b.emit(std::move(inst), Shape::vec(2), fi);
            break;
          }
          case Op::Sdf: {
            Instruction inst;
            inst.op = IsaOp::SDF;
            inst.srcs = {in(0)};
            inst.sdf = node.sdf;
            state.nodeSlot[id] =
                b.emit(std::move(inst), Shape::vec(1), fi);
            break;
          }
          case Op::Hinge: {
            Instruction inst;
            inst.op = IsaOp::HINGE;
            inst.srcs = {in(0)};
            inst.hingeEps = node.hingeEps;
            state.nodeSlot[id] =
                b.emit(std::move(inst), b.shape(in(0)), fi);
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
            inst.camera = node.camera;
            const std::uint32_t j =
                b.emit(std::move(inst), Shape::matrix(2, 3), fi);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, j, fi));
            break;
          }
          case Op::Sdf: {
            Instruction inst;
            inst.op = IsaOp::SDFJ;
            inst.srcs = {inSlot(0)};
            inst.sdf = node.sdf;
            const std::uint32_t j = b.emit(
                std::move(inst),
                Shape::matrix(1, b.shape(inSlot(0)).rows), fi);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, j, fi));
            break;
          }
          case Op::Hinge: {
            Instruction inst;
            inst.op = IsaOp::HINGEJ;
            inst.srcs = {inSlot(0)};
            inst.hingeEps = node.hingeEps;
            const std::size_t n = b.shape(inSlot(0)).rows;
            const std::uint32_t j =
                b.emit(std::move(inst), Shape::matrix(n, n), fi);
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
        if (phi_it != var_grad.end()) {
            inst.srcs.push_back(phi_it->second);
            inst.placements.push_back({phi_it->second, 0, 0, false});
        }
        if (t_it != var_grad.end()) {
            inst.srcs.push_back(t_it->second);
            inst.placements.push_back({t_it->second, 0, tdim, false});
        }
        if (inst.srcs.empty())
            throw std::logic_error("codegen: missing pose grad");
        jacobian_slots[key] = b.emit(
            std::move(inst), Shape::matrix(error_dim, tdim + n), fi);
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
    inst.constVec = sigmas;
    return b.emit(std::move(inst), b.shape(slot), fi);
}

/** A symbolic linearized factor row during elimination codegen. */
struct SymbolicRow
{
    std::map<Key, std::uint32_t> blocks;
    std::uint32_t rhs = 0;
    std::size_t dim = 0;
};

} // namespace

/**
 * Phase 1 shared by both compilers: lower every factor's DFG and
 * whiten, producing the symbolic linearized rows.
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
        std::size_t row_offset = 0;
        for (fg::NodeId out : factor.dfg().outputs()) {
            const std::uint32_t slot = state.nodeSlot[out];
            stack.srcs.push_back(slot);
            stack.placements.push_back({slot, row_offset, 0, true});
            row_offset += b.shape(slot).rows;
        }
        std::uint32_t error_slot = b.emit(
            std::move(stack), Shape::vec(factor.dim()), tag);

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
            hub.hingeEps = factor.robustK();
            weight_slot = b.emit(std::move(hub), Shape::vec(1), tag);
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

    struct ConditionalSlots
    {
        Key key;
        std::uint32_t rSelf;
        std::map<Key, std::uint32_t> rParents;
        std::uint32_t rhs;
    };
    std::vector<ConditionalSlots> conditionals;
    std::vector<SymbolicRow> carries;

    for (std::size_t si = 0; si < schedule.steps.size(); ++si) {
        const fg::SuffixSchedule::Step &step = schedule.steps[si];
        const std::size_t dv = schedule.dofs[si];
        const std::size_t ncols = step.ncols;
        std::map<Key, std::size_t> col_offset;
        std::size_t offset = 0;
        for (Key key : step.columns) {
            col_offset[key] = offset;
            offset += dofs.at(key);
        }

        // GATHER the augmented [Abar | b].
        Instruction gather;
        gather.op = IsaOp::GATHER;
        std::size_t row_offset = 0;
        for (std::size_t ref : step.rowRefs) {
            const SymbolicRow &sr = ref < rows.size()
                                        ? rows[ref]
                                        : carries[ref - rows.size()];
            for (const auto &[key, slot] : sr.blocks) {
                gather.srcs.push_back(slot);
                gather.placements.push_back(
                    {slot, row_offset, col_offset.at(key), false});
            }
            gather.srcs.push_back(sr.rhs);
            gather.placements.push_back({sr.rhs, row_offset, ncols, true});
            row_offset += sr.dim;
        }
        const std::uint32_t abar = b.emit(
            std::move(gather), Shape::matrix(step.nrows, ncols + 1));

        // QR on the augmented system.
        Instruction qr;
        qr.op = IsaOp::QR;
        qr.srcs = {abar};
        qr.depth = ncols; // Columns actually triangularized.
        const std::uint32_t r_slot =
            b.emit(std::move(qr), Shape::matrix(step.nrows, ncols + 1));

        auto extract = [&](std::size_t i0, std::size_t j0, std::size_t r,
                           std::size_t c, bool as_vector) {
            Instruction inst;
            inst.op = IsaOp::EXTRACT;
            inst.srcs = {r_slot};
            inst.extractRow = i0;
            inst.extractCol = j0;
            inst.extractVector = as_vector;
            return b.emit(std::move(inst),
                          as_vector ? Shape::vec(r)
                                    : Shape::matrix(r, c));
        };

        ConditionalSlots cond;
        cond.key = step.columns.front();
        cond.rSelf = extract(0, 0, dv, dv, false);
        cond.rhs = extract(0, ncols, dv, 1, true);
        for (std::size_t c = 1; c < step.columns.size(); ++c) {
            const Key key = step.columns[c];
            cond.rParents.emplace(
                key, extract(0, col_offset.at(key), dv, dofs.at(key),
                             false));
        }
        conditionals.push_back(std::move(cond));

        // New factor over the separator.
        if (step.kept > 0) {
            SymbolicRow &fresh = carries.emplace_back();
            fresh.dim = step.kept;
            for (std::size_t c = 1; c < step.columns.size(); ++c) {
                const Key key = step.columns[c];
                fresh.blocks.emplace(
                    key, extract(dv, col_offset.at(key), step.kept,
                                 dofs.at(key), false));
            }
            fresh.rhs = extract(dv, ncols, step.kept, 1, true);
        }
    }

    // ---- Phase 3: back substitution (Fig. 6) ----
    b.setPhase(2);
    Program prog;
    std::map<Key, std::uint32_t> delta_slot;
    std::vector<DeltaBinding> bindings;
    for (std::size_t i = conditionals.size(); i-- > 0;) {
        const ConditionalSlots &cond = conditionals[i];
        std::uint32_t rhs = cond.rhs;
        for (const auto &[parent, block] : cond.rParents) {
            const std::uint32_t prod =
                emitMatMul(b, IsaOp::MV, block, delta_slot.at(parent));
            rhs = emitBinary(b, IsaOp::VSUB, rhs, prod, b.shape(rhs));
        }
        Instruction bsub;
        bsub.op = IsaOp::BSUB;
        bsub.srcs = {cond.rSelf, rhs};
        const std::uint32_t delta = b.emit(
            std::move(bsub), Shape::vec(dofs.at(cond.key)));
        b.store(delta);
        delta_slot[cond.key] = delta;
        bindings.push_back({cond.key, delta});
    }

    prog = b.finish(options.name);
    prog.precision = options.precision;
    prog.deltas = std::move(bindings);
    return prog;
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

    std::map<Key, std::size_t> col_offset;
    std::size_t ncols = 0;
    for (Key key : ordering) {
        col_offset[key] = ncols;
        ncols += dofs.at(key);
    }
    std::size_t nrows = 0;
    for (const SymbolicRow &row : rows)
        nrows += row.dim;
    if (nrows < ncols)
        throw std::runtime_error("compileDenseGraph: underdetermined");

    // One large dense gather of the whole [A | b] (no sparsity use).
    b.setPhase(1);
    Instruction gather;
    gather.op = IsaOp::GATHER;
    std::size_t row_offset = 0;
    for (const SymbolicRow &row : rows) {
        for (const auto &[key, slot] : row.blocks) {
            gather.srcs.push_back(slot);
            gather.placements.push_back(
                {slot, row_offset, col_offset.at(key), false});
        }
        gather.srcs.push_back(row.rhs);
        gather.placements.push_back({row.rhs, row_offset, ncols, true});
        row_offset += row.dim;
    }
    const std::uint32_t a_slot =
        b.emit(std::move(gather), Shape::matrix(nrows, ncols + 1));

    Instruction qr;
    qr.op = IsaOp::QR;
    qr.srcs = {a_slot};
    qr.depth = ncols;
    const std::uint32_t r_slot =
        b.emit(std::move(qr), Shape::matrix(nrows, ncols + 1));

    auto extract = [&](std::size_t i0, std::size_t j0, std::size_t r,
                       std::size_t c, bool as_vector) {
        Instruction inst;
        inst.op = IsaOp::EXTRACT;
        inst.srcs = {r_slot};
        inst.extractRow = i0;
        inst.extractCol = j0;
        inst.extractVector = as_vector;
        return b.emit(std::move(inst),
                      as_vector ? Shape::vec(r) : Shape::matrix(r, c));
    };

    // Block back-substitution over the dense R (Fig. 6 without the
    // graph: every later variable is a parent of every earlier one).
    b.setPhase(2);
    std::map<Key, std::uint32_t> delta_slot;
    std::vector<DeltaBinding> bindings;
    for (std::size_t i = ordering.size(); i-- > 0;) {
        const Key v = ordering[i];
        const std::size_t dv = dofs.at(v);
        const std::size_t off = col_offset.at(v);
        std::uint32_t rhs = extract(off, ncols, dv, 1, true);
        for (std::size_t j = i + 1; j < ordering.size(); ++j) {
            const Key parent = ordering[j];
            const std::uint32_t block = extract(
                off, col_offset.at(parent), dv, dofs.at(parent), false);
            const std::uint32_t prod =
                emitMatMul(b, IsaOp::MV, block, delta_slot.at(parent));
            rhs = emitBinary(b, IsaOp::VSUB, rhs, prod, b.shape(rhs));
        }
        const std::uint32_t r_vv = extract(off, off, dv, dv, false);
        Instruction bsub;
        bsub.op = IsaOp::BSUB;
        bsub.srcs = {r_vv, rhs};
        const std::uint32_t delta =
            b.emit(std::move(bsub), Shape::vec(dv));
        b.store(delta);
        delta_slot[v] = delta;
        bindings.push_back({v, delta});
    }

    Program prog = b.finish(options.name + "-dense");
    prog.precision = options.precision;
    prog.deltas = std::move(bindings);
    return prog;
}

} // namespace orianna::comp
