#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace orianna::mat::kernels {

/**
 * Runtime-dispatched SIMD kernel layer (DESIGN.md §10).
 *
 * Every dense microkernel exists at least twice: once as the scalar
 * reference (src/matrix/kernels.cpp — the exact ascending-index
 * accumulation chains the byte-identical schedule/delta contract is
 * built on) and optionally as per-ISA fast paths compiled in their
 * own translation units with their own arch flags (kernels_avx2.cpp
 * with -mavx2 -mfma, kernels_neon.cpp on aarch64). One KernelTable of
 * function pointers per tier is registered here; the active table is
 * picked once at startup — best supported tier, overridable with the
 * ORIANNA_SIMD env var or the tools' --simd flag — and the public
 * kernels::* entry points dispatch through a single relaxed atomic
 * pointer load.
 *
 * The scalar tier is always compiled and is the equivalence oracle:
 * fast-path tiers may reassociate reductions (wide accumulators,
 * FMA), so their results are only guaranteed to match the reference
 * within the documented tolerance (DESIGN.md §10), never bit-exactly.
 * Forcing ORIANNA_SIMD=scalar restores the bit-exact contract. Two
 * entries are bit-exact on every tier: transpose (no arithmetic) and
 * householderSweep (vectorized across independent columns, each
 * element keeping the scalar chain, with no FMA).
 */

/** Kernel tiers, in preference order (higher id wins under "auto"). */
enum class SimdTier : std::uint8_t { Scalar = 0, Neon = 1, Avx2 = 2 };

inline constexpr std::size_t kSimdTierCount = 3;

/** Lower-case tier name ("scalar", "neon", "avx2"). */
const char *simdTierName(SimdTier tier);

/**
 * One dispatchable implementation set. Signatures mirror kernels.hpp.
 * Two instantiations exist (DESIGN.md §12): `T = double` is the
 * reference precision, `T = float` the fp32 accelerator mode with
 * twice the SIMD lane width. Each tier's translation unit registers
 * both tables, so selecting a tier always switches the pair together.
 */
template <typename T> struct KernelTableT
{
    SimdTier tier;
    void (*gemm)(const T *a, const T *b, T *c, std::size_t m,
                 std::size_t k, std::size_t n);
    void (*gemmTransA)(const T *a, const T *b, T *c, std::size_t k,
                       std::size_t m, std::size_t n);
    void (*gemmTransB)(const T *a, const T *b, T *c, std::size_t m,
                       std::size_t k, std::size_t n);
    void (*transpose)(const T *a, T *out, std::size_t m,
                      std::size_t n);
    void (*gemv)(const T *a, const T *x, T *y, std::size_t m,
                 std::size_t n);
    void (*gemvTransA)(const T *a, const T *x, T *y, std::size_t m,
                       std::size_t n);
    T (*dot)(const T *a, const T *b, std::size_t n);
    T (*dotStrided)(const T *a, std::size_t stride_a, const T *b,
                    std::size_t stride_b, std::size_t n);
    T (*fusedSubtractDot)(T acc, const T *a, const T *x,
                          std::size_t n);
    void (*axpyNegStrided)(T *y, std::size_t stride_y, T alpha,
                           const T *x, std::size_t n);
    void (*givensRotate)(T *rj, T *ri, T c, T s, std::size_t n);
    void (*householderSweep)(T *a, std::size_t lda, const T *v,
                             T vnorm2, std::size_t m, std::size_t n);
};

using KernelTable = KernelTableT<double>;
using KernelTable32 = KernelTableT<float>;

/**
 * The scalar reference implementations (exact accumulation chains),
 * one template per kernel for T = double and T = float. Callable
 * directly — the parity tests and the kernel bench compare fast-path
 * tables against these. Defined and explicitly instantiated only in
 * kernels.cpp: a definition here would also be instantiated in the
 * -mfma AVX2 TU, where GCC contracts multiply-adds (DESIGN.md §10).
 */
namespace scalar {

template <typename T>
void gemm(const T *a, const T *b, T *c, std::size_t m, std::size_t k,
          std::size_t n);
template <typename T>
void gemmTransA(const T *a, const T *b, T *c, std::size_t k,
                std::size_t m, std::size_t n);
template <typename T>
void gemmTransB(const T *a, const T *b, T *c, std::size_t m,
                std::size_t k, std::size_t n);
template <typename T>
void transpose(const T *a, T *out, std::size_t m, std::size_t n);
template <typename T>
void gemv(const T *a, const T *x, T *y, std::size_t m, std::size_t n);
template <typename T>
void gemvTransA(const T *a, const T *x, T *y, std::size_t m,
                std::size_t n);
template <typename T> T dot(const T *a, const T *b, std::size_t n);
template <typename T>
T dotStrided(const T *a, std::size_t stride_a, const T *b,
             std::size_t stride_b, std::size_t n);
template <typename T>
T fusedSubtractDot(T acc, const T *a, const T *x, std::size_t n);
template <typename T>
void axpyNegStrided(T *y, std::size_t stride_y, T alpha, const T *x,
                    std::size_t n);
template <typename T>
void givensRotate(T *rj, T *ri, T c, T s, std::size_t n);
template <typename T>
void householderSweep(T *a, std::size_t lda, const T *v, T vnorm2,
                      std::size_t m, std::size_t n);

} // namespace scalar

/** fp64 table of @p tier, or nullptr when its TU was not compiled in. */
const KernelTable *kernelTable(SimdTier tier);

/** fp32 table of @p tier, or nullptr when its TU was not compiled in. */
const KernelTable32 *kernelTable32(SimdTier tier);

/** Whether @p tier's TU was compiled into this binary. */
bool tierCompiled(SimdTier tier);

/**
 * Whether @p tier can run on this host: compiled in and (for x86
 * tiers) confirmed by CPUID. Scalar is always supported.
 */
bool tierSupported(SimdTier tier);

/** Best supported tier on this host (what "auto" resolves to). */
SimdTier detectTier();

/** Every tier compiled into this binary, scalar first. */
std::vector<SimdTier> compiledTiers();

namespace detail {
/** Active tables, one per precision. Constant-initialized to scalar;
 *  the ORIANNA_SIMD env override is applied by a dynamic initializer
 *  in simd.cpp. selectTier() always switches the pair together. */
extern std::atomic<const KernelTable *> gActive;
extern std::atomic<const KernelTable32 *> gActive32;
} // namespace detail

/** The fp64 table every kernels::* call dispatches through. */
inline const KernelTable &
activeKernels()
{
    return *detail::gActive.load(std::memory_order_relaxed);
}

/** Same, fp32. */
inline const KernelTable32 &
activeKernels32()
{
    return *detail::gActive32.load(std::memory_order_relaxed);
}

/** Precision-generic access to the active table pair. */
template <typename T> const KernelTableT<T> &activeKernelsT();

template <>
inline const KernelTableT<double> &
activeKernelsT<double>()
{
    return activeKernels();
}

template <>
inline const KernelTableT<float> &
activeKernelsT<float>()
{
    return activeKernels32();
}

inline SimdTier
activeTier()
{
    return activeKernels().tier;
}

/**
 * Switch the active table. Returns false (and leaves the selection
 * unchanged) when @p tier is not supported on this host. Safe to call
 * concurrently with kernel execution — in-flight kernels finish on
 * the table they loaded — but results computed while switching mix
 * tiers, so serving code selects once at startup.
 */
bool selectTier(SimdTier tier);

/** Outcome of a spec-string selection (env var or --simd flag). */
struct SimdSelection
{
    bool ok = false;       //!< Spec was well-formed.
    SimdTier tier{};       //!< Tier actually selected (when ok).
    std::string message;   //!< Warning (ok) or error (!ok) text.
};

/**
 * Select from a user-facing spec: "scalar", "avx2", "neon" or "auto".
 * Unknown specs fail without changing the selection; a known tier
 * that this host cannot run falls back to detectTier() and reports a
 * warning in @c message.
 */
SimdSelection selectTierFromSpec(const std::string &spec);

/** One-line capability summary for diagnostics/health output, e.g.
 *  "active avx2 (compiled scalar,avx2; detected avx2)". */
std::string simdCapabilityString();

/** RAII tier pin for tests: selects @p tier, restores on destruction. */
class ScopedKernelTier
{
  public:
    explicit ScopedKernelTier(SimdTier tier)
        : previous_(activeTier()), ok_(selectTier(tier))
    {
    }

    ~ScopedKernelTier() { selectTier(previous_); }

    ScopedKernelTier(const ScopedKernelTier &) = delete;
    ScopedKernelTier &operator=(const ScopedKernelTier &) = delete;

    /** Whether the requested tier was actually selected. */
    bool ok() const { return ok_; }

  private:
    SimdTier previous_;
    bool ok_;
};

// --- Per-kernel call counters ---------------------------------------
//
// Dispatched kernel invocations are counted into relaxed cells
// sharded per thread: every pool worker bumps them on every kernel
// call. (runtime::Counter is one plain atomic; this layer keeps its
// own counters to stay free of runtime dependencies.) The runtime
// metrics registry mirrors these into its JSON export under
// "kernels" and resets them with the registry.

enum class KernelOp : std::uint8_t {
    Gemm = 0,
    GemmTransA,
    GemmTransB,
    Transpose,
    Gemv,
    GemvTransA,
    Dot,
    DotStrided,
    FusedSubtractDot,
    AxpyNegStrided,
    GivensRotate,
    HouseholderSweep,
};

inline constexpr std::size_t kKernelOpCount = 12;

/** Lower-case snake name of @p op ("gemm", "gemm_trans_a", ...). */
const char *kernelOpName(KernelOp op);

namespace detail {

inline constexpr std::size_t kCallCells = 16;

struct alignas(64) CallCell
{
    std::atomic<std::uint64_t> value{0};
};

extern CallCell gKernelCalls[kKernelOpCount][kCallCells];

std::size_t callCell();

} // namespace detail

/**
 * Count @p n dispatched calls of @p op at once: a hot loop that loads
 * the table itself tallies its dispatches and reports them here, once.
 */
inline void
countKernelCalls(KernelOp op, std::uint64_t n)
{
    detail::gKernelCalls[static_cast<std::size_t>(op)][detail::callCell()]
        .value.fetch_add(n, std::memory_order_relaxed);
}

inline void
countKernelCall(KernelOp op)
{
    countKernelCalls(op, 1);
}

/** Dispatched calls of @p op since start (or the last reset). */
std::uint64_t kernelCallCount(KernelOp op);

/** Zero every per-kernel call counter. */
void resetKernelCallCounts();

} // namespace orianna::mat::kernels
