#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/json.hpp"

namespace orianna::runtime {

/** One graph submission built by an application factory. */
struct SubmittedGraph
{
    fg::FactorGraph graph;
    fg::Values initial;
    double stepScale = 1.0;
};

/**
 * The JSON serving front-end (DESIGN.md §11): one request line in,
 * one response line out, over an Engine that owns the compiled
 * program caches (in-memory and, when configured, the persistent
 * ProgramStore tier).
 *
 * Request schema (schema-tolerant in the openrave jsonreader idiom:
 * unknown fields are ignored everywhere, malformed requests yield a
 * typed error response and never tear the server down):
 *
 *   {"op":"submit","app":A[,"algorithm":G][,"seed":N]
 *                 [,"precision":P][,"tenant":T]}
 *       -> {"ok":true,"op":"submit","session":S,"app":A,
 *           "fingerprint":"<16 hex>","precision":"fp64"|"fp32"}
 *          A "precision" field is an assertion, not a request: the
 *          engine's datapath is fixed at construction, so a value
 *          that parses but differs from the engine's mode is
 *          answered with "precision_mismatch" instead of silently
 *          serving the other width. A "tenant" tag attributes the
 *          session (and every later step on it) to that tenant in
 *          the per-tenant counters below. "seed" (default 1) is
 *          an integer in [0, 4294967295]; a larger one is answered
 *          with "bad_value", never truncated.
 *   {"op":"step","session":S[,"frames":N]}
 *       -> {"ok":true,"op":"step","session":S,"frames":N,
 *           "total_frames":T,"cycles":C,"objective":E}
 *   {"op":"values","session":S}
 *       -> {"ok":true,...,"values":{key:{"phi":[..],"t":[..]}|[..]}}
 *          (17-significant-digit doubles: byte-identical responses
 *          mean bit-identical state)
 *   {"op":"close","session":S}   -> {"ok":true,...}
 *   {"op":"apps"}                -> {"ok":true,"apps":[names]}
 *   {"op":"metrics"}             -> {"ok":true,"metrics":{registry},
 *                                    "tenants":{T:{counters}}}
 *          (the registry document compacted onto the response line)
 *   {"op":"health"}              -> {"ok":true,"health":{engine},
 *                                    "tenants":{T:{counters}}}
 *
 * Per-tenant counters (tagged submissions only, sorted by tenant):
 * {"sessions":N,"steps":N,"rejects":N} — sessions opened, frames
 * stepped, and requests answered {"ok":false,...} on that tenant's
 * behalf.
 *
 * Every error response is {"ok":false,"error":T,"message":M} with T
 * one of: "oversized", "parse_error", "bad_request" (top level not an
 * object), "missing_field", "bad_type", "bad_value", "unknown_op",
 * "unknown_app", "unknown_algorithm", "unknown_session",
 * "precision_mismatch", "internal" (the request was well-formed but
 * serving it threw — e.g. a frame exhausted the degradation ladder).
 *
 * Not thread-safe: one ProtocolServer serves one request stream, the
 * engine underneath is the shared, thread-safe tier.
 */
class ProtocolServer
{
  public:
    /**
     * Builds the graph of @p algorithm ("" = the app's default) for
     * one seed. @throws std::invalid_argument on an algorithm name
     * the app does not have (reported as "unknown_algorithm").
     */
    using AppFactory = std::function<SubmittedGraph(
        const std::string &algorithm, unsigned seed)>;

    /**
     * Requests longer than this are answered with an "oversized"
     * error without being parsed — the one line of defense a
     * line-delimited protocol needs against unbounded payloads.
     */
    static constexpr std::size_t kMaxRequestBytes = 1u << 20;

    explicit ProtocolServer(Engine &engine);

    /** Register @p factory under @p name (later wins on a dup). */
    void registerApp(std::string name, AppFactory factory);

    std::vector<std::string> appNames() const;

    /** Serve one request line; returns the response line (no '\n'). */
    std::string handle(const std::string &line);

    std::uint64_t requests() const { return requests_; }

    /** Requests answered with {"ok":false,...}. */
    std::uint64_t errors() const { return errors_; }

    std::size_t openSessions() const { return sessions_.size(); }

  private:
    struct SessionState
    {
        std::string app;
        std::string tenant;    //!< "" when the submit was untagged.
        fg::FactorGraph graph; //!< Kept for objective reporting.
        Session session;
    };

    /** Serving attribution for one tenant tag. */
    struct TenantStats
    {
        std::uint64_t sessions = 0; //!< Submits accepted.
        std::uint64_t steps = 0;    //!< Frames stepped.
        std::uint64_t rejects = 0;  //!< Requests answered ok:false.
    };

    std::string dispatch(const std::string &line);
    std::string handleSubmit(const json::Value &request);
    std::string handleStep(const json::Value &request);
    std::string handleValues(const json::Value &request);
    std::string handleClose(const json::Value &request);
    std::string tenantsJson() const;

    Engine &engine_;
    std::map<std::string, AppFactory> apps_;
    std::map<std::uint64_t, std::unique_ptr<SessionState>> sessions_;
    std::map<std::string, TenantStats> tenants_;
    std::uint64_t nextSession_ = 1;
    std::uint64_t requests_ = 0;
    std::uint64_t errors_ = 0;
};

} // namespace orianna::runtime
