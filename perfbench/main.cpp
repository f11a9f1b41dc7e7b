// Repository benchmark driver: one seeded workload per process.
//
//   perfbench --workload garage_batch|serve_mix|manhattan_stream
//             --seed N --seconds S --trace 0|1
//
// Prints diagnostics on stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer ledger with
// --trace 1. See README.md.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "matrix/simd.hpp"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload garage_batch|serve_mix|"
                 "manhattan_stream --seed N --seconds S --trace 0|1\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // runtime_server is built next to this binary.
    perfbench::Options options;
    const std::string self = argv[0];
    options.serverPath =
        self.substr(0, self.find_last_of('/') + 1) + "runtime_server";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const std::string value = argv[++i];
        if (arg == "--workload")
            options.workload = value;
        else if (arg == "--seed")
            options.seed = static_cast<unsigned>(std::stoul(value));
        else if (arg == "--seconds")
            options.seconds = std::stod(value);
        else if (arg == "--trace")
            options.trace = value == "1";
        else
            return usage(argv[0]);
    }
    if (options.seconds <= 0.0)
        return usage(argv[0]);

    // The environment does not choose the datapath: pass verification
    // off, the best kernel tier this host runs, and fp64 (every engine
    // pins it, and runtime_server gets --precision fp64).
    for (const char *name :
         {"ORIANNA_PRECISION", "ORIANNA_SIMD", "ORIANNA_VERIFY_PASSES"})
        unsetenv(name);
    namespace kernels = orianna::mat::kernels;
    kernels::selectTier(kernels::detectTier());
    options.simdTier = kernels::simdTierName(kernels::activeTier());
    std::fprintf(stderr, "datapath: fp64, kernels %s\n",
                 options.simdTier.c_str());

    // A dead server must surface as a write error, not kill the client.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        perfbench::HostClock clock;
        perfbench::Result result;
        if (options.workload == "garage_batch")
            result = perfbench::runGarageBatch(options, clock);
        else if (options.workload == "serve_mix")
            result = perfbench::runServeMix(options, clock);
        else if (options.workload == "manhattan_stream")
            result = perfbench::runManhattanStream(options, clock);
        else
            return usage(argv[0]);
        std::fprintf(stderr, "host: cpu %d, slowdown %.3f\n", clock.cpu(),
                     clock.slowdown());
        std::printf("%s\n", result.json().c_str());
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
}
