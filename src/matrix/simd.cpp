// Kernel-tier registry and startup selection (DESIGN.md §10).
//
// The scalar table is constant-initialized as the active table, so
// kernels dispatched during other translation units' static
// initialization are always safe; a dynamic initializer in this TU
// then applies the ORIANNA_SIMD env override (or auto-detection
// stays, since auto is the scalar-or-better default applied lazily:
// see applyStartupSelection). Per-ISA tables register themselves via
// the *Table() hooks compiled in by CMake (ORIANNA_SIMD_AVX2 /
// ORIANNA_SIMD_NEON defines).

#include "matrix/simd.hpp"

#include <cstdio>
#include <cstdlib>

namespace orianna::mat::kernels {

namespace detail {

CallCell gKernelCalls[kKernelOpCount][kCallCells];

std::size_t
callCell()
{
    // Spread threads round-robin over the cells on first use; the
    // assignment is sticky for the thread's lifetime.
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t cell =
        next.fetch_add(1, std::memory_order_relaxed) % kCallCells;
    return cell;
}

} // namespace detail

// Per-ISA registration hooks, defined in their own TUs when CMake
// compiles them (each with its own arch flags). A tier registers both
// precisions or neither.
#ifdef ORIANNA_SIMD_AVX2
const KernelTable *avx2Table();
const KernelTable32 *avx2Table32();
#endif
#ifdef ORIANNA_SIMD_NEON
const KernelTable *neonTable();
const KernelTable32 *neonTable32();
#endif

namespace {

template <typename T>
constexpr KernelTableT<T> kScalarTable = {
    SimdTier::Scalar,           scalar::gemm<T>,
    scalar::gemmTransA<T>,      scalar::gemmTransB<T>,
    scalar::transpose<T>,       scalar::gemv<T>,
    scalar::gemvTransA<T>,      scalar::dot<T>,
    scalar::dotStrided<T>,      scalar::fusedSubtractDot<T>,
    scalar::axpyNegStrided<T>,  scalar::givensRotate<T>,
    scalar::householderSweep<T>,
};

/** One tier's tables, both null when its TU was not compiled in. */
struct TablePair
{
    const KernelTable *f64 = nullptr;
    const KernelTable32 *f32 = nullptr;
};

TablePair
tablesOf(SimdTier tier)
{
    switch (tier) {
    case SimdTier::Scalar:
        return {&kScalarTable<double>, &kScalarTable<float>};
    case SimdTier::Neon:
#ifdef ORIANNA_SIMD_NEON
        return {neonTable(), neonTable32()};
#endif
        break;
    case SimdTier::Avx2:
#ifdef ORIANNA_SIMD_AVX2
        return {avx2Table(), avx2Table32()};
#endif
        break;
    }
    return {};
}

} // namespace

namespace detail {
std::atomic<const KernelTable *> gActive{&kScalarTable<double>};
std::atomic<const KernelTable32 *> gActive32{&kScalarTable<float>};
} // namespace detail

const char *
simdTierName(SimdTier tier)
{
    switch (tier) {
    case SimdTier::Scalar:
        return "scalar";
    case SimdTier::Neon:
        return "neon";
    case SimdTier::Avx2:
        return "avx2";
    }
    return "unknown";
}

const KernelTable *
kernelTable(SimdTier tier)
{
    return tablesOf(tier).f64;
}

const KernelTable32 *
kernelTable32(SimdTier tier)
{
    return tablesOf(tier).f32;
}

bool
tierCompiled(SimdTier tier)
{
    return kernelTable(tier) != nullptr;
}

bool
tierSupported(SimdTier tier)
{
    if (!tierCompiled(tier))
        return false;
    switch (tier) {
    case SimdTier::Scalar:
        return true;
    case SimdTier::Neon:
        // The NEON TU is only compiled on aarch64, where Advanced
        // SIMD is part of the base ISA.
        return true;
    case SimdTier::Avx2:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
#else
        return false;
#endif
    }
    return false;
}

SimdTier
detectTier()
{
    for (SimdTier tier : {SimdTier::Avx2, SimdTier::Neon})
        if (tierSupported(tier))
            return tier;
    return SimdTier::Scalar;
}

std::vector<SimdTier>
compiledTiers()
{
    std::vector<SimdTier> tiers;
    for (std::size_t t = 0; t < kSimdTierCount; ++t)
        if (tierCompiled(static_cast<SimdTier>(t)))
            tiers.push_back(static_cast<SimdTier>(t));
    return tiers;
}

bool
selectTier(SimdTier tier)
{
    if (!tierSupported(tier))
        return false;
    // Both precisions switch together: a tier's TU registers both
    // tables, so fp32 sessions never run a different tier than fp64.
    const TablePair tables = tablesOf(tier);
    detail::gActive.store(tables.f64, std::memory_order_relaxed);
    detail::gActive32.store(tables.f32, std::memory_order_relaxed);
    return true;
}

SimdSelection
selectTierFromSpec(const std::string &spec)
{
    SimdSelection out;
    if (spec == "auto") {
        out.ok = true;
        out.tier = detectTier();
        selectTier(out.tier);
        return out;
    }
    for (std::size_t t = 0; t < kSimdTierCount; ++t) {
        const auto tier = static_cast<SimdTier>(t);
        if (spec != simdTierName(tier))
            continue;
        out.ok = true;
        if (tierSupported(tier)) {
            out.tier = tier;
        } else {
            out.tier = detectTier();
            out.message = std::string(simdTierName(tier)) +
                          " kernels unavailable on this host (" +
                          (tierCompiled(tier) ? "CPU lacks the ISA"
                                              : "not compiled in") +
                          "); using " + simdTierName(out.tier);
        }
        selectTier(out.tier);
        return out;
    }
    out.message = "unknown SIMD tier \"" + spec +
                  "\" (expected scalar, avx2, neon or auto)";
    return out;
}

std::string
simdCapabilityString()
{
    std::string out = "active ";
    out += simdTierName(activeTier());
    out += " (compiled";
    const char *sep = " ";
    for (SimdTier tier : compiledTiers()) {
        out += sep;
        out += simdTierName(tier);
        sep = ",";
    }
    out += "; detected ";
    out += simdTierName(detectTier());
    out += ")";
    return out;
}

const char *
kernelOpName(KernelOp op)
{
    switch (op) {
    case KernelOp::Gemm:
        return "gemm";
    case KernelOp::GemmTransA:
        return "gemm_trans_a";
    case KernelOp::GemmTransB:
        return "gemm_trans_b";
    case KernelOp::Transpose:
        return "transpose";
    case KernelOp::Gemv:
        return "gemv";
    case KernelOp::GemvTransA:
        return "gemv_trans_a";
    case KernelOp::Dot:
        return "dot";
    case KernelOp::DotStrided:
        return "dot_strided";
    case KernelOp::FusedSubtractDot:
        return "fused_subtract_dot";
    case KernelOp::AxpyNegStrided:
        return "axpy_neg_strided";
    case KernelOp::GivensRotate:
        return "givens_rotate";
    case KernelOp::HouseholderSweep:
        return "householder_sweep";
    }
    return "unknown";
}

std::uint64_t
kernelCallCount(KernelOp op)
{
    std::uint64_t total = 0;
    for (const detail::CallCell &cell :
         detail::gKernelCalls[static_cast<std::size_t>(op)])
        total += cell.value.load(std::memory_order_relaxed);
    return total;
}

void
resetKernelCallCounts()
{
    for (auto &cells : detail::gKernelCalls)
        for (detail::CallCell &cell : cells)
            cell.value.store(0, std::memory_order_relaxed);
}

namespace {

/**
 * Startup selection: ORIANNA_SIMD=scalar|avx2|neon|auto (unset means
 * auto — the best supported tier). A malformed value warns to stderr
 * and keeps auto-detection; a known-but-unsupported tier warns and
 * falls back, so a pinned CI leg degrades gracefully on hosts that
 * lack the ISA.
 */
bool
applyStartupSelection()
{
    const char *env = std::getenv("ORIANNA_SIMD");
    const SimdSelection selection =
        selectTierFromSpec(env != nullptr ? env : "auto");
    if (!selection.ok) {
        std::fprintf(stderr, "orianna: ORIANNA_SIMD: %s\n",
                     selection.message.c_str());
        selectTier(detectTier());
    } else if (!selection.message.empty()) {
        std::fprintf(stderr, "orianna: ORIANNA_SIMD: %s\n",
                     selection.message.c_str());
    }
    return true;
}

[[maybe_unused]] const bool gStartupSelectionApplied =
    applyStartupSelection();

} // namespace

} // namespace orianna::mat::kernels
