#include "compiler/pass_manager.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <typeinfo>

#include "compiler/executor.hpp"
#include "compiler/passes/passes.hpp"
#include "matrix/mac_counter.hpp"

namespace orianna::comp {

namespace {

using PassFactory = std::unique_ptr<Pass> (*)();

/** Registered passes, in default-pipeline order. */
constexpr PassFactory kFactories[] = {
    &passes::constantDedup,
    &passes::deadCodeElimination,
    &passes::commonSubexpressionElimination,
    &passes::peepholeFusion,
};

std::unique_ptr<Pass>
makePass(const std::string &name)
{
    for (PassFactory factory : kFactories) {
        std::unique_ptr<Pass> pass = factory();
        if (name == pass->name())
            return pass;
    }
    std::ostringstream msg;
    msg << "PassManager: unknown pass '" << name << "' (available:";
    for (PassFactory factory : kFactories)
        msg << " " << factory()->name();
    msg << ")";
    throw std::invalid_argument(msg.str());
}

/**
 * A probe run's per-variable deltas and MACs, or the exception it
 * threw: an outcome every pass must leave unchanged, like the deltas.
 */
struct ProbeResult
{
    std::map<Key, Vector> deltas;
    std::uint64_t macs = 0;
    std::optional<std::string> error; //!< Exception type and what().
};

ProbeResult
runProbe(const Program &program, const fg::Values &values)
{
    ProbeResult result;
    Executor executor(program);
    mat::MacScope scope;
    try {
        result.deltas = executor.run(values);
    } catch (const std::exception &e) {
        result.error = std::string(typeid(e).name()) + ": " + e.what();
    }
    result.macs = scope.elapsed();
    return result;
}

/** Bitwise comparison — NaNs and signed zeros must survive intact. */
bool
bitIdentical(const Vector &a, const Vector &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double x = a[i];
        const double y = b[i];
        if (std::memcmp(&x, &y, sizeof(double)) != 0)
            return false;
    }
    return true;
}

void
checkEquivalent(const ProbeResult &before, const ProbeResult &after,
                const char *pass)
{
    if (before.error || after.error) {
        if (before.error != after.error)
            throw std::runtime_error(
                std::string("pass verification failed: '") + pass +
                "' changed whether or how the probe throws");
        return;
    }
    if (before.deltas.size() != after.deltas.size())
        throw std::runtime_error(
            std::string("pass verification failed: '") + pass +
            "' changed the set of delta bindings");
    for (const auto &[key, delta] : before.deltas) {
        auto it = after.deltas.find(key);
        if (it == after.deltas.end() || !bitIdentical(delta, it->second))
            throw std::runtime_error(
                std::string("pass verification failed: '") + pass +
                "' changed the probe deltas");
    }
    if (after.macs > before.macs)
        throw std::runtime_error(
            std::string("pass verification failed: '") + pass +
            "' increased the executed MAC count");
}

} // namespace

void
PassManager::add(std::unique_ptr<Pass> pass)
{
    passes_.push_back(std::move(pass));
}

PassManager
PassManager::defaultPipeline()
{
    PassManager pm;
    for (PassFactory factory : kFactories)
        pm.add(factory());
    return pm;
}

PassManager
PassManager::parse(const std::string &spec)
{
    PassManager pm;
    std::string token;
    std::istringstream stream(spec);
    while (std::getline(stream, token, ',')) {
        const std::size_t first = token.find_first_not_of(" \t");
        if (first == std::string::npos)
            continue;
        const std::size_t last = token.find_last_not_of(" \t");
        token = token.substr(first, last - first + 1);
        if (token == "none")
            continue;
        if (token == "default") {
            for (PassFactory factory : kFactories)
                pm.add(factory());
            continue;
        }
        pm.add(makePass(token));
    }
    return pm;
}

std::vector<std::pair<std::string, std::string>>
PassManager::availablePasses()
{
    std::vector<std::pair<std::string, std::string>> out;
    for (PassFactory factory : kFactories) {
        std::unique_ptr<Pass> pass = factory();
        out.emplace_back(pass->name(), pass->description());
    }
    return out;
}

bool
PassManager::verifyFromEnv()
{
    const char *env = std::getenv("ORIANNA_VERIFY_PASSES");
    return env != nullptr && *env != '\0' &&
           std::string(env) != "0";
}

std::string
PassManager::spec() const
{
    std::string out;
    for (const auto &pass : passes_) {
        if (!out.empty())
            out += ",";
        out += pass->name();
    }
    return out.empty() ? "none" : out;
}

std::vector<PassStats>
PassManager::run(Program &program) const
{
    return run(program, RunOptions());
}

std::vector<PassStats>
PassManager::run(Program &program, const RunOptions &options) const
{
    const bool verify = options.verify && options.probe != nullptr;

    std::vector<PassStats> stats;
    stats.reserve(passes_.size());

    ProbeResult baseline;
    if (verify)
        baseline = runProbe(program, *options.probe);

    for (const auto &pass : passes_) {
        PassStats entry;
        entry.pass = pass->name();
        entry.before = program.instructions.size();
        const auto start = std::chrono::steady_clock::now();
        entry.rewrites = pass->run(program);
        const auto end = std::chrono::steady_clock::now();
        entry.after = program.instructions.size();
        entry.wallUs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                end - start)
                .count());
        if (verify) {
            ProbeResult result = runProbe(program, *options.probe);
            checkEquivalent(baseline, result, pass->name());
            baseline = std::move(result);
            entry.verified = true;
        }
        stats.push_back(std::move(entry));
    }
    // Codegen's growth slack survives in-place compaction; drop it so
    // cached programs hold exactly their instructions and payloads.
    program.instructions.shrink_to_fit();
    program.payloads.shrink_to_fit();
    return stats;
}

} // namespace orianna::comp
