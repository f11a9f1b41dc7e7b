#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "fg/dfg.hpp"
#include "fg/sdf_map.hpp"
#include "fg/values.hpp"

namespace orianna::comp {

using fg::Key;
using mat::Matrix;
using mat::Vector;

/**
 * The ORIANNA instruction set (Sec. 5.2): matrix-related instructions
 * over small operands. The first group implements the Tbl. 3
 * primitives (plus their backward-pass companions HAT/JR/JRINV and the
 * DESIGN.md extension ops); the second group implements factor-graph
 * inference (Fig. 5 / Fig. 6); the third group moves data.
 */
enum class IsaOp : std::uint8_t {
    // Factor-computing block (linear-equation construction).
    EXP,    //!< dst = Exp(src0)              [special-function unit]
    LOG,    //!< dst = Log(src0)              [special-function unit]
    RT,     //!< dst = src0^T                 [transpose unit]
    RR,     //!< dst = src0 * src1 (rotation) [matmul unit]
    MM,     //!< dst = src0 * src1 (general)  [matmul unit]
    RV,     //!< dst = src0 * src1 (rot, vec) [matmul unit]
    MV,     //!< dst = src0 * src1 (gen, vec) [matmul unit]
    VADD,   //!< dst = src0 + src1            [vector unit, VP]
    VSUB,   //!< dst = src0 - src1            [vector unit, VP]
    NEG,    //!< dst = -src0                  [vector unit, VP]
    HAT,    //!< dst = hat(src0)              [vector unit]
    JR,     //!< dst = J_r(src0)              [special-function unit]
    JRINV,  //!< dst = J_r^-1(src0)           [special-function unit]
    PROJ,   //!< dst = pinhole(src0)          [special-function unit]
    PROJJ,  //!< dst = d pinhole / d src0     [special-function unit]
    SDF,    //!< dst = [distance(src0)]       [special-function unit]
    SDFJ,   //!< dst = grad distance(src0)    [special-function unit]
    HINGE,  //!< dst = max(0, eps - src0)     [vector unit]
    HINGEJ, //!< dst = d hinge / d src0       [vector unit]
    NORM,   //!< dst = [|src0|]               [special-function unit]
    NORMJ,  //!< dst = d|src0| / d src0       [special-function unit]
    HUBERW, //!< dst = [sqrt(min(1, k/|src0|))] (k in hingeEps)
            //!<                                [special-function unit]
    SMUL,   //!< dst = src1[0] * src0         [vector unit]
    SCALER, //!< dst = diag(payload)^-1 src0 (whitening) [vector unit]
    // Factor-graph inference block.
    GATHER, //!< dst = dense [A|b] stacked from placements [buffer]
    QR,     //!< dst = R of QR(src0) (augmented)           [QR unit]
    EXTRACT,//!< dst = block(src0, i0, j0, rows, cols)     [buffer]
    BSUB,   //!< dst = src0^-1 src1 (upper triangular)     [back-sub unit]
    // Data movement.
    LOADC,  //!< dst = constant payload (on-chip after first use).
    LOADV,  //!< dst = variable component streamed from the host.
    STORE,  //!< Mark src0 as a result streamed back to the host.
    // Fused opcodes. Never emitted by codegen: the peephole fusion
    // pass (src/compiler/passes/fusion.cpp) rewrites single-use
    // producer/consumer pairs into these, mapping them onto the fused
    // microkernels the matrix layer already provides. Each fused op
    // performs exactly the floating-point operations of the pair it
    // replaces, in the same order, so programs stay bit-identical.
    GSCALE, //!< GATHER placements, then rows /= payload  [buffer]
    MVSUB,  //!< dst = src0 - src1 * src2 (gemv-subtract) [matmul unit]
};

/** Number of opcodes (histogram sizing, encoding validation). */
constexpr std::size_t kIsaOpCount =
    static_cast<std::size_t>(IsaOp::MVSUB) + 1;

/** Mnemonic for listings. */
const char *isaOpName(IsaOp op);

/**
 * Numeric precision a program's datapath executes in (DESIGN.md §12).
 * Fp64 is the bit-exact reference every golden digest is defined on;
 * Fp32 is the reduced-precision accelerator mode — twice the SIMD
 * lane width and half the word traffic, with the Engine degradation
 * ladder falling back to the fp64 reference program when the reduced
 * mantissa breaks a frame. Encoded as one byte in encoding v3; v2
 * payloads decode as Fp64.
 */
enum class Precision : std::uint8_t { Fp64 = 0, Fp32 = 1 };

constexpr std::size_t kPrecisionCount = 2;

/** Lower-case name ("fp64", "fp32"). */
const char *precisionName(Precision precision);

/**
 * Parse "fp64"/"fp32" (also accepts "double"/"float"). Returns false
 * and leaves @p out untouched on an unknown spec.
 */
bool parsePrecision(const std::string &spec, Precision &out);

/** Which variable component a LOADV streams in. */
enum class VarComponent : std::uint8_t {
    Phi,         //!< so(n) orientation of a pose (Exp runs on-chip).
    Translation, //!< t of a pose.
    Whole,       //!< A plain vector variable.
};

/** Placement k of a GATHER/GSCALE copies srcs[k] into the [A|b]. */
struct GatherPlacement
{
    std::uint32_t rowBegin = 0; //!< Destination row offset.
    std::uint32_t colBegin = 0; //!< Destination column offset.
    bool isRhs = false; //!< Source is a vector going to the b column.
};

/**
 * The srcs of one instruction. Up to kInline entries live in
 * the list itself, so the common instruction owns no heap memory;
 * longer lists (GATHER, GSCALE) spill to one heap block. Element
 * access is bounds-checked in builds with assertions.
 */
class OperandList
{
  public:
    using value_type = std::uint32_t;
    using iterator = std::uint32_t *;
    using const_iterator = const std::uint32_t *;

    static constexpr std::uint32_t kInline = 3;

    OperandList() = default;
    OperandList(std::initializer_list<std::uint32_t> values);
    OperandList(const OperandList &other);
    OperandList(OperandList &&other) noexcept;
    OperandList &operator=(const OperandList &other);
    OperandList &operator=(OperandList &&other) noexcept;
    ~OperandList() { release(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    std::uint32_t *data() { return spilled() ? heap() : words_; }
    const std::uint32_t *data() const
    {
        return spilled() ? heap() : words_;
    }

    iterator begin() { return data(); }
    iterator end() { return data() + size_; }
    const_iterator begin() const { return data(); }
    const_iterator end() const { return data() + size_; }

    std::uint32_t &
    operator[](std::size_t i)
    {
        assert(i < size_);
        return data()[i];
    }

    std::uint32_t
    operator[](std::size_t i) const
    {
        assert(i < size_);
        return data()[i];
    }

    void push_back(std::uint32_t value);

    /**
     * Resize to @p n entries, new ones zero. Growing past kInline
     * spills to a block of exactly @p n entries (a spilled list keeps
     * its block while @p n fits it); shrinking to kInline or fewer
     * moves the entries back inline and frees the block.
     */
    void resize(std::size_t n);

    /** Heap bytes the list owns: 0 while it fits inline. */
    std::size_t spillBytes() const
    {
        return spilled() ? capacity() * sizeof(std::uint32_t) : 0;
    }

    friend bool
    operator==(const OperandList &a, const OperandList &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    // A list is spilled exactly while it holds more than kInline
    // entries. words_ then holds the block's capacity in words_[0]
    // and the block pointer's bytes in words_[1..2]: a pointer member
    // would force 8-byte alignment and pad the list to 24 bytes.
    bool spilled() const { return size_ > kInline; }
    std::uint32_t capacity() const
    {
        return spilled() ? words_[0] : kInline;
    }

    std::uint32_t *
    heap() const
    {
        std::uint32_t *block = nullptr;
        std::memcpy(&block, &words_[1], sizeof(block));
        return block;
    }

    void
    setHeap(std::uint32_t *block, std::uint32_t capacity)
    {
        words_[0] = capacity;
        std::memcpy(&words_[1], &block, sizeof(block));
    }

    /** Free the block of a spilled list (size_ is the caller's). */
    void
    release()
    {
        if (spilled())
            delete[] heap();
    }

    std::uint32_t size_ = 0;
    std::uint32_t words_[kInline] = {};

    static_assert(sizeof(std::uint32_t *) <= 2 * sizeof(std::uint32_t));
};

/**
 * The op-specific operands of one instruction, kept out of the
 * record in its Program's payload table. Only the fields its opcode
 * reads are meaningful; the rest keep their defaults.
 */
struct Payload
{
    Matrix constMat;        //!< LOADC matrix payload.
    Vector constVec;        //!< LOADC vector, SCALER/GSCALE row scales.
    fg::CameraModel camera; //!< PROJ / PROJJ.
    fg::SdfMapPtr sdf;      //!< SDF / SDFJ.
    double hingeEps = 0.0;  //!< HINGE / HINGEJ (eps), HUBERW (k).
    std::vector<GatherPlacement> placements; //!< GATHER/GSCALE layout.

    /** Heap bytes the entry owns (an SDF map is shared, not owned). */
    std::size_t heapBytes() const;
};

/**
 * One ORIANNA instruction: a fixed 64-byte record. Operands address a
 * flat value table whose slots are assigned statically by the
 * compiler; the data-flow edges the out-of-order scheduler honours
 * (Sec. 6.3) are not stored but derived from the srcs
 * (Program::producers, forEachDep). Op-specific payloads (constants,
 * camera, SDF map, hinge eps, gather layout) live in the owning
 * Program's payload table (Program::payload).
 */
struct Instruction
{
    IsaOp op = IsaOp::LOADC;
    std::uint8_t algorithm = 0; //!< Coarse-grained OoO tag (Sec. 6.3).
    std::uint8_t phase = 0;     //!< 0 construction, 1 decomposition,
                                //!< 2 back substitution.
    VarComponent component = VarComponent::Whole; //!< LOADV component.
    bool extractVector = false; //!< EXTRACT a single column as a vector.
    std::uint32_t dst = 0;
    OperandList srcs;

    // Shape of the produced value (latency / energy model input).
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::uint32_t depth = 0; //!< Inner dimension for matmul-type ops.

    std::uint32_t factor = 0;     //!< Originating factor, for listings.
    std::uint32_t extractRow = 0; //!< EXTRACT block origin.
    std::uint32_t extractCol = 0;
    /** 1-based index into Program::payloads; 0 means no payload. */
    std::uint32_t payload = 0;
    Key key = 0; //!< LOADV variable.
};

static_assert(sizeof(GatherPlacement) == 12);
static_assert(sizeof(OperandList) == 16);
static_assert(sizeof(Instruction) <= 64,
              "instruction records stay small: payloads belong in "
              "Program::payloads");

/** producers() entry of a slot no instruction defines. */
constexpr std::uint32_t kNoProducer = 0xffffffffu;

/** Result binding: which slot holds delta for which variable. */
struct DeltaBinding
{
    Key key;
    std::uint32_t slot;
};

/**
 * A compiled instruction stream for one factor graph (one algorithm).
 * Running the program once performs a single Gauss-Newton step:
 * construct the linear equations, eliminate, back-substitute.
 */
struct Program
{
    std::vector<Instruction> instructions;
    /**
     * Payload table: one entry per instruction that carries a payload,
     * in emission order, each referenced by exactly one instruction
     * (Instruction::payload). Passes keep it compact (DESIGN.md §7).
     */
    std::vector<Payload> payloads;
    std::size_t valueSlots = 0;          //!< Size of the value table.
    std::vector<DeltaBinding> deltas;    //!< Output bindings.
    std::uint8_t algorithm = 0;          //!< Tag of every instruction.
    /** Datapath precision the program executes in (DESIGN.md §12). */
    Precision precision = Precision::Fp64;
    std::string name;                    //!< For listings.

    /** @p inst's payload, or an empty one when it has none. */
    const Payload &
    payload(const Instruction &inst) const
    {
        return inst.payload == 0 ? emptyPayload()
                                 : payloads[inst.payload - 1];
    }

    /**
     * The instruction defining each slot (kNoProducer if none; a
     * STORE defines nothing): the data-flow edges of Sec. 6.3 run
     * from the producers of an instruction's srcs (forEachDep).
     * @throws std::logic_error on a src or dst at or above
     *         valueSlots, or a slot two instructions define.
     */
    std::vector<std::uint32_t> producers() const;

    /** Append @p entry to the payload table; returns its index. */
    std::uint32_t addPayload(Payload entry);

    /** @p inst's payload entry, appended empty first if it has none. */
    Payload &editPayload(Instruction &inst);

    /**
     * Heap bytes the program holds: instruction records, operand
     * spill, the payload table and the delta bindings.
     */
    std::size_t footprintBytes() const;

    /** Counts per opcode, for the listings and resource sizing. */
    std::vector<std::size_t> opHistogram() const;

    /** Pretty listing (one line per instruction). */
    std::string str() const;

    /** The payload of an instruction that has none. */
    static const Payload &emptyPayload();
};

/**
 * Call @p fn with the producer of each src of @p inst that has one,
 * in srcs order, repeats included: its dependences.
 */
template <typename Fn>
void
forEachDep(const Instruction &inst,
           const std::vector<std::uint32_t> &producers, Fn &&fn)
{
    for (std::uint32_t src : inst.srcs)
        if (producers[src] != kNoProducer)
            fn(producers[src]);
}

} // namespace orianna::comp
