// Kernel-tier microbenchmark (DESIGN.md §10): times every dispatched
// microkernel through the scalar reference table and through the best
// SIMD table this host supports, per shape, and emits
// BENCH_kernels.json with GFLOP/s and the SIMD-over-scalar speedup.
//
// Both tiers are timed through their KernelTable entries directly —
// the same indirect call either tier pays in production — so the
// ratio isolates the kernel bodies from dispatch overhead.
//
// Usage: bench_micro_kernels [--gate-simd X] [-o out.json]
//
//   --gate-simd X   CI gate: on hosts whose detected tier is avx2,
//                   fail (exit 1) unless every gemm shape with
//                   n >= 64 — fp64 and fp32 rows alike — reaches at
//                   least X times its own scalar GFLOP/s. Hosts
//                   without AVX2 (scalar or NEON detected) print a
//                   note and exit 0, so the gate is safe to run on
//                   any runner.
//
// The fp32 rows ("gemm_fp32") time the single-precision tables of
// DESIGN.md §12 — same shapes, twice the SIMD lane width — so the
// report shows the fp32-over-fp64 throughput win alongside the
// SIMD-over-scalar one.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "matrix/simd.hpp"

using namespace orianna;
namespace kernels = mat::kernels;

namespace {

using Clock = std::chrono::steady_clock;

/** Minimum measured wall time per repetition, in seconds. */
constexpr double kMinRepSeconds = 0.008;
constexpr int kRepetitions = 3;

std::vector<double>
randomBuffer(std::size_t n, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> out(n);
    for (double &v : out)
        v = dist(rng);
    return out;
}

std::vector<float>
randomBufferF(std::size_t n, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    std::vector<float> out(n);
    for (float &v : out)
        v = dist(rng);
    return out;
}

/**
 * Best sustained rate of @p body (one kernel call) over kRepetitions
 * timed windows of at least kMinRepSeconds each, in GFLOP/s.
 */
template <typename Body>
double
measureGflops(double flops_per_call, Body body)
{
    body(); // Warm caches and fault in the buffers.
    double best_seconds_per_call = 1e30;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        std::size_t calls = 0;
        const Clock::time_point start = Clock::now();
        double elapsed = 0.0;
        do {
            body();
            ++calls;
            elapsed =
                std::chrono::duration<double>(Clock::now() - start)
                    .count();
        } while (elapsed < kMinRepSeconds);
        best_seconds_per_call =
            std::min(best_seconds_per_call,
                     elapsed / static_cast<double>(calls));
    }
    return flops_per_call / best_seconds_per_call / 1e9;
}

struct Entry
{
    std::string kernel;  //!< Dispatched kernel name (kernelOpName).
    std::string shape;   //!< Human-readable shape, e.g. "64x64x64".
    std::size_t n;       //!< Problem size the gate keys on.
    double scalar_gflops = 0.0;
    double simd_gflops = 0.0; //!< 0 when no fast tier is supported.
};

/** Time one kernel through @p table; dispatch by op. */
double
timeKernel(const kernels::KernelTable &table, kernels::KernelOp op,
           std::size_t m, std::size_t k, std::size_t n)
{
    using kernels::KernelOp;
    switch (op) {
    case KernelOp::Gemm: {
        const auto a = randomBuffer(m * k, 1);
        const auto b = randomBuffer(k * n, 2);
        std::vector<double> c(m * n);
        return measureGflops(
            2.0 * static_cast<double>(m * k * n), [&] {
                std::fill(c.begin(), c.end(), 0.0);
                table.gemm(a.data(), b.data(), c.data(), m, k, n);
            });
    }
    case KernelOp::GemmTransA: {
        const auto a = randomBuffer(k * m, 3);
        const auto b = randomBuffer(k * n, 4);
        std::vector<double> c(m * n);
        return measureGflops(
            2.0 * static_cast<double>(m * k * n), [&] {
                std::fill(c.begin(), c.end(), 0.0);
                table.gemmTransA(a.data(), b.data(), c.data(), k, m,
                                 n);
            });
    }
    case KernelOp::GemmTransB: {
        const auto a = randomBuffer(m * k, 5);
        const auto b = randomBuffer(n * k, 6);
        std::vector<double> c(m * n);
        return measureGflops(
            2.0 * static_cast<double>(m * k * n), [&] {
                table.gemmTransB(a.data(), b.data(), c.data(), m, k,
                                 n);
            });
    }
    case KernelOp::Gemv: {
        const auto a = randomBuffer(m * n, 7);
        const auto x = randomBuffer(n, 8);
        std::vector<double> y(m);
        return measureGflops(2.0 * static_cast<double>(m * n), [&] {
            table.gemv(a.data(), x.data(), y.data(), m, n);
        });
    }
    case KernelOp::Dot: {
        const auto a = randomBuffer(n, 9);
        const auto b = randomBuffer(n, 10);
        double sink = 0.0;
        const double out =
            measureGflops(2.0 * static_cast<double>(n), [&] {
                sink += table.dot(a.data(), b.data(), n);
            });
        // Keep the accumulation observable.
        if (sink == 0.12345)
            std::printf("#");
        return out;
    }
    case KernelOp::FusedSubtractDot: {
        const auto a = randomBuffer(n, 11);
        const auto x = randomBuffer(n, 12);
        double sink = 0.0;
        const double out =
            measureGflops(2.0 * static_cast<double>(n), [&] {
                sink = table.fusedSubtractDot(sink * 1e-300, a.data(),
                                              x.data(), n);
            });
        if (sink == 0.12345)
            std::printf("#");
        return out;
    }
    case KernelOp::AxpyNegStrided: {
        const auto x = randomBuffer(n, 13);
        auto y = randomBuffer(n, 14);
        return measureGflops(2.0 * static_cast<double>(n), [&] {
            table.axpyNegStrided(y.data(), 1, 1e-12, x.data(), n);
        });
    }
    case KernelOp::GivensRotate: {
        auto rj = randomBuffer(n, 15);
        auto ri = randomBuffer(n, 16);
        // c^2 + s^2 = 1 keeps the rows bounded over many calls.
        return measureGflops(6.0 * static_cast<double>(n), [&] {
            table.givensRotate(rj.data(), ri.data(), 0.8, 0.6, n);
        });
    }
    case KernelOp::HouseholderSweep: {
        auto a = randomBuffer(m * n, 17);
        const auto v = randomBuffer(m, 18);
        double vnorm2 = 0.0;
        for (const double x : v)
            vnorm2 += x * x;
        // The reflector is orthogonal, so repeated calls stay bounded.
        return measureGflops(4.0 * static_cast<double>(m * n), [&] {
            table.householderSweep(a.data(), n, v.data(), vnorm2, m, n);
        });
    }
    default:
        return 0.0;
    }
}

/** Time the fp32 gemm of @p table (the only fp32 row the bench and
 *  the gate track — it is the kernel the accelerator study leans on). */
double
timeGemm32(const kernels::KernelTable32 &table, std::size_t m,
           std::size_t k, std::size_t n)
{
    const auto a = randomBufferF(m * k, 21);
    const auto b = randomBufferF(k * n, 22);
    std::vector<float> c(m * n);
    return measureGflops(2.0 * static_cast<double>(m * k * n), [&] {
        std::fill(c.begin(), c.end(), 0.0f);
        table.gemm(a.data(), b.data(), c.data(), m, k, n);
    });
}

void
appendNumber(std::string &out, double v)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.4g", v);
    out += buffer;
}

} // namespace

int
main(int argc, char **argv)
{
    double gate = 0.0;
    std::string out_path = "BENCH_kernels.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--gate-simd" && i + 1 < argc) {
            gate = std::atof(argv[++i]);
            if (gate <= 0.0) {
                std::fprintf(stderr,
                             "error: --gate-simd needs a ratio > 0\n");
                return 2;
            }
        } else if (arg == "-o" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(
                stderr,
                "usage: %s [--gate-simd X] [-o out.json]\n", argv[0]);
            return 2;
        }
    }

    const kernels::SimdTier best = kernels::detectTier();
    const kernels::KernelTable *scalar_table =
        kernels::kernelTable(kernels::SimdTier::Scalar);
    const kernels::KernelTable *fast_table =
        best != kernels::SimdTier::Scalar ? kernels::kernelTable(best)
                                          : nullptr;
    std::printf("simd: %s\n",
                kernels::simdCapabilityString().c_str());

    struct Case
    {
        kernels::KernelOp op;
        std::size_t m, k, n;
    };
    std::vector<Case> cases;
    for (const std::size_t n : {16, 32, 64, 96, 128}) {
        cases.push_back({kernels::KernelOp::Gemm, n, n, n});
        cases.push_back({kernels::KernelOp::GemmTransA, n, n, n});
        cases.push_back({kernels::KernelOp::GemmTransB, n, n, n});
    }
    for (const std::size_t n : {64, 256, 1024})
        cases.push_back({kernels::KernelOp::Gemv, n, 0, n});
    for (const std::size_t n : {64, 256, 4096}) {
        cases.push_back({kernels::KernelOp::Dot, 0, 0, n});
        cases.push_back({kernels::KernelOp::FusedSubtractDot, 0, 0, n});
        cases.push_back({kernels::KernelOp::AxpyNegStrided, 0, 0, n});
        cases.push_back({kernels::KernelOp::GivensRotate, 0, 0, n});
    }
    // The first reflector of two dense QR shapes the CPU rung factors.
    for (const std::size_t n : {48, 63})
        cases.push_back({kernels::KernelOp::HouseholderSweep, n, 0, n});

    std::vector<Entry> entries;
    for (const Case &c : cases) {
        Entry entry;
        entry.kernel = kernels::kernelOpName(c.op);
        entry.n = c.n;
        if (c.op == kernels::KernelOp::Gemm ||
            c.op == kernels::KernelOp::GemmTransA ||
            c.op == kernels::KernelOp::GemmTransB)
            entry.shape = std::to_string(c.m) + "x" +
                          std::to_string(c.k) + "x" +
                          std::to_string(c.n);
        else if (c.op == kernels::KernelOp::Gemv ||
                 c.op == kernels::KernelOp::HouseholderSweep)
            entry.shape =
                std::to_string(c.m) + "x" + std::to_string(c.n);
        else
            entry.shape = std::to_string(c.n);
        entry.scalar_gflops =
            timeKernel(*scalar_table, c.op, c.m, c.k, c.n);
        if (fast_table != nullptr)
            entry.simd_gflops =
                timeKernel(*fast_table, c.op, c.m, c.k, c.n);
        const double speedup =
            entry.simd_gflops > 0.0 && entry.scalar_gflops > 0.0
                ? entry.simd_gflops / entry.scalar_gflops
                : 0.0;
        std::printf("%-18s %-12s scalar %7.3f GF/s",
                    entry.kernel.c_str(), entry.shape.c_str(),
                    entry.scalar_gflops);
        if (fast_table != nullptr)
            std::printf("  %s %7.3f GF/s  %.2fx",
                        kernels::simdTierName(best),
                        entry.simd_gflops, speedup);
        std::printf("\n");
        entries.push_back(entry);
    }

    // fp32 gemm rows: the single-precision tables over the same
    // square shapes. scalar_gflops is the fp32 *scalar* reference, so
    // the row's speedup is SIMD-over-scalar at equal precision.
    const kernels::KernelTable32 *scalar32 =
        kernels::kernelTable32(kernels::SimdTier::Scalar);
    const kernels::KernelTable32 *fast32 =
        best != kernels::SimdTier::Scalar
            ? kernels::kernelTable32(best)
            : nullptr;
    for (const std::size_t n : {16, 32, 64, 96, 128}) {
        Entry entry;
        entry.kernel = "gemm_fp32";
        entry.n = n;
        entry.shape = std::to_string(n) + "x" + std::to_string(n) +
                      "x" + std::to_string(n);
        entry.scalar_gflops = timeGemm32(*scalar32, n, n, n);
        if (fast32 != nullptr)
            entry.simd_gflops = timeGemm32(*fast32, n, n, n);
        std::printf("%-18s %-12s scalar %7.3f GF/s",
                    entry.kernel.c_str(), entry.shape.c_str(),
                    entry.scalar_gflops);
        if (fast32 != nullptr)
            std::printf("  %s %7.3f GF/s  %.2fx",
                        kernels::simdTierName(best),
                        entry.simd_gflops,
                        entry.simd_gflops / entry.scalar_gflops);
        std::printf("\n");
        entries.push_back(entry);
    }

    std::string json = "{\n  \"simd\": \"";
    json += kernels::simdCapabilityString();
    json += "\",\n  \"best_tier\": \"";
    json += kernels::simdTierName(best);
    json += "\",\n  \"kernels\": [";
    bool first = true;
    for (const Entry &entry : entries) {
        json += first ? "\n" : ",\n";
        first = false;
        json += "    {\"kernel\": \"" + entry.kernel +
                "\", \"shape\": \"" + entry.shape +
                "\", \"scalar_gflops\": ";
        appendNumber(json, entry.scalar_gflops);
        if (entry.simd_gflops > 0.0) {
            json += ", \"";
            json += kernels::simdTierName(best);
            json += "_gflops\": ";
            appendNumber(json, entry.simd_gflops);
            json += ", \"speedup\": ";
            appendNumber(json,
                         entry.simd_gflops / entry.scalar_gflops);
        }
        json += "}";
    }
    json += "\n  ]\n}\n";

    std::ofstream out(out_path);
    out << json;
    if (!out.good()) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());

    if (gate > 0.0) {
        if (best != kernels::SimdTier::Avx2) {
            // The gate's floor is calibrated for AVX2 runners (the
            // scalar TU's SSE2 baseline vs 256-bit FMA); on other
            // hosts it degrades to a no-op so CI can run it anywhere.
            std::printf("gate-simd: skipped (detected tier is %s, "
                        "gate applies to avx2 hosts)\n",
                        kernels::simdTierName(best));
            return 0;
        }
        bool ok = true;
        for (const Entry &entry : entries) {
            if ((entry.kernel != "gemm" &&
                 entry.kernel != "gemm_fp32") ||
                entry.n < 64)
                continue;
            const double speedup =
                entry.simd_gflops / entry.scalar_gflops;
            if (speedup < gate) {
                std::fprintf(stderr,
                             "gate-simd FAILED: %s %s speedup "
                             "%.2fx < %.2fx\n",
                             entry.kernel.c_str(),
                             entry.shape.c_str(), speedup, gate);
                ok = false;
            }
        }
        if (!ok)
            return 1;
        std::printf("gate-simd: OK (every gemm and gemm_fp32 shape "
                    "with n >= 64 reached %.2fx)\n",
                    gate);
    }
    return 0;
}
