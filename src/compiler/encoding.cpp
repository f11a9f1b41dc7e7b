#include "compiler/encoding.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace orianna::comp {

namespace {

constexpr std::uint32_t kMagic = 0x414e524f; // "ORNA".
// Version 2 added the fused opcodes (GSCALE, MVSUB). The container
// layout is unchanged — fused opcodes were appended after STORE so
// every version-1 byte stream decodes identically — so the decoder
// accepts both versions.
// Version 3 appends a one-byte datapath precision tag after the
// algorithm tag (DESIGN.md §12). Version 1/2 payloads carry no tag
// and decode as Fp64, which is what every pre-v3 program executed in.
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kMinVersion = 1;

/** Little-endian byte writer. */
class Writer
{
  public:
    template <typename T>
    void
    pod(T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto *raw = reinterpret_cast<const std::uint8_t *>(&value);
        bytes_.insert(bytes_.end(), raw, raw + sizeof(T));
    }

    void
    str(const std::string &s)
    {
        pod(static_cast<std::uint32_t>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    void
    vec(const Vector &v)
    {
        pod(static_cast<std::uint32_t>(v.size()));
        for (std::size_t i = 0; i < v.size(); ++i)
            pod(v[i]);
    }

    void
    matrix(const Matrix &m)
    {
        pod(static_cast<std::uint32_t>(m.rows()));
        pod(static_cast<std::uint32_t>(m.cols()));
        for (std::size_t i = 0; i < m.rows(); ++i)
            for (std::size_t j = 0; j < m.cols(); ++j)
                pod(m(i, j));
    }

    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked little-endian byte reader. */
class Reader
{
  public:
    explicit Reader(const std::vector<std::uint8_t> &bytes)
        : bytes_(bytes)
    {}

    template <typename T>
    T
    pod()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (offset_ + sizeof(T) > bytes_.size())
            throw std::runtime_error("decodeProgram: truncated input");
        T value;
        std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
        offset_ += sizeof(T);
        return value;
    }

    std::string
    str()
    {
        const auto n = pod<std::uint32_t>();
        if (offset_ + n > bytes_.size())
            throw std::runtime_error("decodeProgram: truncated string");
        std::string s(bytes_.begin() + offset_,
                      bytes_.begin() + offset_ + n);
        offset_ += n;
        return s;
    }

    Vector
    vec()
    {
        const auto n = pod<std::uint32_t>();
        Vector v(n);
        for (std::uint32_t i = 0; i < n; ++i)
            v[i] = pod<double>();
        return v;
    }

    Matrix
    matrix()
    {
        const auto rows = pod<std::uint32_t>();
        const auto cols = pod<std::uint32_t>();
        Matrix m(rows, cols);
        for (std::uint32_t i = 0; i < rows; ++i)
            for (std::uint32_t j = 0; j < cols; ++j)
                m(i, j) = pod<double>();
        return m;
    }

    /**
     * A u32 element count, checked against the bytes left: each
     * element takes at least @p element_bytes, so a corrupt count
     * fails as truncation before anything is sized from it.
     */
    std::uint32_t
    count(std::size_t element_bytes)
    {
        const auto n = pod<std::uint32_t>();
        if (n > (bytes_.size() - offset_) / element_bytes)
            throw std::runtime_error("decodeProgram: truncated input");
        return n;
    }

    bool done() const { return offset_ == bytes_.size(); }

  private:
    const std::vector<std::uint8_t> &bytes_;
    std::size_t offset_ = 0;
};

/**
 * One instruction with its payload inlined, exactly as every version
 * lays it out: an instruction without a payload writes the empty one
 * (unit camera, eps 0, empty constants, no placements, no SDF). The
 * deps are derived from @p producers, and placement k writes
 * srcs[k] as its src.
 */
void
encodeInstruction(Writer &w, const Instruction &inst,
                  const Payload &payload,
                  const std::vector<std::uint32_t> &producers)
{
    w.pod(static_cast<std::uint8_t>(inst.op));
    w.pod(inst.algorithm);
    w.pod(inst.phase);
    w.pod(static_cast<std::uint8_t>(inst.extractVector ? 1 : 0));
    w.pod(inst.rows);
    w.pod(inst.cols);
    w.pod(inst.depth);
    w.pod(inst.dst);
    w.pod(static_cast<std::uint32_t>(inst.srcs.size()));
    for (std::uint32_t s : inst.srcs)
        w.pod(s);
    std::uint32_t ndeps = 0;
    forEachDep(inst, producers, [&](std::uint32_t) { ++ndeps; });
    w.pod(ndeps);
    forEachDep(inst, producers, [&](std::uint32_t d) { w.pod(d); });
    w.pod(inst.key);
    w.pod(static_cast<std::uint8_t>(inst.component));
    w.pod(inst.factor);
    w.pod(payload.hingeEps);
    w.pod(payload.camera.fx);
    w.pod(payload.camera.fy);
    w.pod(payload.camera.cx);
    w.pod(payload.camera.cy);
    w.pod(inst.extractRow);
    w.pod(inst.extractCol);
    w.matrix(payload.constMat);
    w.vec(payload.constVec);
    w.pod(static_cast<std::uint32_t>(payload.placements.size()));
    for (std::size_t k = 0; k < payload.placements.size(); ++k) {
        const GatherPlacement &p = payload.placements[k];
        w.pod(inst.srcs[k]);
        w.pod(p.rowBegin);
        w.pod(p.colBegin);
        w.pod(static_cast<std::uint8_t>(p.isRhs ? 1 : 0));
    }
    if (payload.sdf) {
        const auto obstacles = payload.sdf->obstacles();
        w.pod(static_cast<std::uint32_t>(obstacles.size() + 1));
        for (const auto &[center, radius] : obstacles) {
            w.vec(center);
            w.pod(radius);
        }
    } else {
        w.pod(static_cast<std::uint32_t>(0));
    }
}

/**
 * Whether @p payload encodes differently from the empty one, and so
 * needs a table entry. Doubles compare by bits: -0.0 is content.
 */
bool
hasContent(const Payload &payload)
{
    const Payload &empty = Program::emptyPayload();
    const auto same = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) ==
               std::bit_cast<std::uint64_t>(b);
    };
    return payload.constMat.rows() > 0 || payload.constMat.cols() > 0 ||
           payload.constVec.size() > 0 || payload.sdf != nullptr ||
           !payload.placements.empty() ||
           !same(payload.hingeEps, empty.hingeEps) ||
           !same(payload.camera.fx, empty.camera.fx) ||
           !same(payload.camera.fy, empty.camera.fy) ||
           !same(payload.camera.cx, empty.camera.cx) ||
           !same(payload.camera.cy, empty.camera.cy);
}

/**
 * Decode one instruction into @p program, payload and all. Its
 * encoded deps are appended to @p deps, count first, for
 * checkDeps(); its placement srcs are checked against its srcs here.
 */
void
decodeInstruction(Reader &r, Program &program,
                  std::vector<std::uint32_t> &deps)
{
    Instruction inst;
    Payload payload;
    const auto raw_op = r.pod<std::uint8_t>();
    if (raw_op >= kIsaOpCount)
        throw std::runtime_error("decodeProgram: bad opcode");
    inst.op = static_cast<IsaOp>(raw_op);
    inst.algorithm = r.pod<std::uint8_t>();
    inst.phase = r.pod<std::uint8_t>();
    inst.extractVector = r.pod<std::uint8_t>() != 0;
    inst.rows = r.pod<std::uint32_t>();
    inst.cols = r.pod<std::uint32_t>();
    inst.depth = r.pod<std::uint32_t>();
    inst.dst = r.pod<std::uint32_t>();
    inst.srcs.resize(r.count(sizeof(std::uint32_t)));
    for (std::uint32_t &src : inst.srcs)
        src = r.pod<std::uint32_t>();
    const auto ndeps = r.count(sizeof(std::uint32_t));
    deps.push_back(ndeps);
    for (std::uint32_t i = 0; i < ndeps; ++i)
        deps.push_back(r.pod<std::uint32_t>());
    inst.key = r.pod<Key>();
    inst.component = static_cast<VarComponent>(r.pod<std::uint8_t>());
    inst.factor = r.pod<std::uint32_t>();
    payload.hingeEps = r.pod<double>();
    payload.camera.fx = r.pod<double>();
    payload.camera.fy = r.pod<double>();
    payload.camera.cx = r.pod<double>();
    payload.camera.cy = r.pod<double>();
    inst.extractRow = r.pod<std::uint32_t>();
    inst.extractCol = r.pod<std::uint32_t>();
    payload.constMat = r.matrix();
    payload.constVec = r.vec();
    const auto nplace = r.count(3 * sizeof(std::uint32_t) + 1);
    const bool gathers =
        inst.op == IsaOp::GATHER || inst.op == IsaOp::GSCALE;
    if (nplace != (gathers ? inst.srcs.size() : 0))
        throw std::runtime_error(
            "decodeProgram: placement count disagrees with srcs");
    payload.placements.reserve(nplace);
    for (std::uint32_t i = 0; i < nplace; ++i) {
        GatherPlacement p;
        if (r.pod<std::uint32_t>() != inst.srcs[i])
            throw std::runtime_error(
                "decodeProgram: placement src disagrees with srcs");
        p.rowBegin = r.pod<std::uint32_t>();
        p.colBegin = r.pod<std::uint32_t>();
        p.isRhs = r.pod<std::uint8_t>() != 0;
        payload.placements.push_back(p);
    }
    const auto sdf_marker = r.pod<std::uint32_t>();
    if (sdf_marker > 0) {
        auto map = std::make_shared<fg::SdfMap>();
        for (std::uint32_t i = 0; i + 1 < sdf_marker; ++i) {
            Vector center = r.vec();
            const double radius = r.pod<double>();
            map->addObstacle(std::move(center), radius);
        }
        payload.sdf = std::move(map);
    }
    if (hasContent(payload))
        inst.payload = program.addPayload(std::move(payload));
    program.instructions.push_back(std::move(inst));
}

/**
 * Check the encoded @p deps of every instruction (decodeInstruction's
 * layout) against the dependences its srcs imply, after the
 * structural checks of Program::producers().
 */
void
checkDeps(const Program &program, const std::vector<std::uint32_t> &deps)
{
    std::vector<std::uint32_t> producers;
    try {
        producers = program.producers();
    } catch (const std::logic_error &e) {
        throw std::runtime_error(std::string("decodeProgram: ") +
                                 e.what());
    }
    std::size_t at = 0;
    for (const Instruction &inst : program.instructions) {
        const std::uint32_t ndeps = deps[at++];
        const std::size_t end = at + ndeps;
        forEachDep(inst, producers, [&](std::uint32_t dep) {
            if (at == end || deps[at++] != dep)
                throw std::runtime_error(
                    "decodeProgram: dep is not its src's producer");
        });
        if (at != end)
            throw std::runtime_error(
                "decodeProgram: dep is not its src's producer");
    }
}

} // namespace

std::uint32_t
encodingVersion()
{
    return kVersion;
}

std::uint32_t
minEncodingVersion()
{
    return kMinVersion;
}

std::vector<std::uint8_t>
encodeProgram(const Program &program)
{
    Writer w;
    w.pod(kMagic);
    w.pod(kVersion);
    w.str(program.name);
    w.pod(program.algorithm);
    w.pod(static_cast<std::uint8_t>(program.precision));
    w.pod(static_cast<std::uint64_t>(program.valueSlots));
    w.pod(static_cast<std::uint32_t>(program.deltas.size()));
    for (const DeltaBinding &binding : program.deltas) {
        w.pod(binding.key);
        w.pod(binding.slot);
    }
    w.pod(static_cast<std::uint32_t>(program.instructions.size()));
    const std::vector<std::uint32_t> producers = program.producers();
    for (const Instruction &inst : program.instructions)
        encodeInstruction(w, inst, program.payload(inst), producers);
    return w.take();
}

Program
decodeProgram(const std::vector<std::uint8_t> &bytes)
{
    Reader r(bytes);
    if (r.pod<std::uint32_t>() != kMagic)
        throw std::runtime_error("decodeProgram: bad magic");
    const auto version = r.pod<std::uint32_t>();
    if (version < kMinVersion || version > kVersion)
        throw std::runtime_error("decodeProgram: unsupported version");

    Program program;
    program.name = r.str();
    program.algorithm = r.pod<std::uint8_t>();
    if (version >= 3) {
        const auto raw = r.pod<std::uint8_t>();
        if (raw >= kPrecisionCount)
            throw std::runtime_error("decodeProgram: bad precision");
        program.precision = static_cast<Precision>(raw);
    }
    program.valueSlots =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    const auto ndeltas = r.pod<std::uint32_t>();
    for (std::uint32_t i = 0; i < ndeltas; ++i) {
        DeltaBinding binding;
        binding.key = r.pod<Key>();
        binding.slot = r.pod<std::uint32_t>();
        if (binding.slot >= program.valueSlots)
            throw std::runtime_error("decodeProgram: delta slot out of range");
        program.deltas.push_back(binding);
    }
    const auto ninstr = r.pod<std::uint32_t>();
    program.instructions.reserve(ninstr);
    std::vector<std::uint32_t> deps;
    for (std::uint32_t i = 0; i < ninstr; ++i)
        decodeInstruction(r, program, deps);
    if (!r.done())
        throw std::runtime_error("decodeProgram: trailing bytes");
    checkDeps(program, deps);
    return program;
}

void
saveProgram(const std::string &path, const Program &program)
{
    const auto bytes = encodeProgram(program);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("saveProgram: cannot open " + path);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        throw std::runtime_error("saveProgram: write failed");
}

Program
loadProgram(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("loadProgram: cannot open " + path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return decodeProgram(bytes);
}

} // namespace orianna::comp
