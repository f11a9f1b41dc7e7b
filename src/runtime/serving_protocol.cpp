#include "runtime/serving_protocol.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "runtime/metrics.hpp"

namespace orianna::runtime {

namespace {

std::string
errorResponse(const char *type, const std::string &message)
{
    return std::string("{\"ok\":false,\"error\":\"") + type +
           "\",\"message\":" + json::quote(message) + "}";
}

std::string
hexFingerprint(std::uint64_t fingerprint)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return buffer;
}

/**
 * Tolerant field extraction: absent fields fall back to the default,
 * present fields must have the right shape. @p error is filled with a
 * ready error response on failure.
 */
bool
readUint(const json::Value &request, const char *name,
         std::uint64_t fallback, bool required, std::uint64_t &out,
         std::string *error)
{
    const json::Value *field = request.field(name);
    if (field == nullptr) {
        if (required) {
            *error = errorResponse(
                "missing_field",
                std::string("required field \"") + name +
                    "\" is absent");
            return false;
        }
        out = fallback;
        return true;
    }
    if (!field->isNumber()) {
        *error = errorResponse("bad_type",
                               std::string("field \"") + name +
                                   "\" must be a number");
        return false;
    }
    const double value = field->number;
    if (!(value >= 0) || value != std::floor(value) ||
        value > 1e15) {
        *error = errorResponse("bad_value",
                               std::string("field \"") + name +
                                   "\" must be a non-negative "
                                   "integer");
        return false;
    }
    out = static_cast<std::uint64_t>(value);
    return true;
}

bool
readString(const json::Value &request, const char *name,
           const std::string &fallback, bool required,
           std::string &out, std::string *error)
{
    const json::Value *field = request.field(name);
    if (field == nullptr) {
        if (required) {
            *error = errorResponse(
                "missing_field",
                std::string("required field \"") + name +
                    "\" is absent");
            return false;
        }
        out = fallback;
        return true;
    }
    if (!field->isString()) {
        *error = errorResponse("bad_type",
                               std::string("field \"") + name +
                                   "\" must be a string");
        return false;
    }
    out = field->text;
    return true;
}

/**
 * The ops the protocol serves and their latency histograms. Op
 * strings come from the client, so only these names are ever
 * registered: an unknown op, or a tenant tag, cannot grow the
 * registry.
 */
constexpr struct
{
    const char *op;
    const char *histogram;
} kOpLatency[] = {
    {"submit", "protocol.request_us.submit"},
    {"step", "protocol.request_us.step"},
    {"values", "protocol.request_us.values"},
    {"close", "protocol.request_us.close"},
    {"apps", "protocol.request_us.apps"},
    {"metrics", "protocol.request_us.metrics"},
    {"health", "protocol.request_us.health"},
};

/**
 * Observes the microseconds of its scope into one histogram, when
 * metrics are enabled and a histogram is named.
 */
class LatencyScope
{
  public:
    explicit LatencyScope(const char *histogram = nullptr)
        : histogram_(histogram)
    {}

    LatencyScope(const LatencyScope &) = delete;
    LatencyScope &operator=(const LatencyScope &) = delete;

    ~LatencyScope()
    {
        if (timer_.armed() && histogram_ != nullptr)
            MetricsRegistry::global().histogram(histogram_).observe(
                timer_.elapsedUs());
    }

    /** Name the histogram of @p op; an unknown op records nothing. */
    void
    attribute(const std::string &op)
    {
        for (const auto &entry : kOpLatency) {
            if (op == entry.op) {
                histogram_ = entry.histogram;
                return;
            }
        }
    }

  private:
    StageTimer timer_;
    const char *histogram_;
};

void
appendVector(std::string &out, const mat::Vector &v)
{
    out += "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0)
            out += ",";
        out += json::numberToJson(v[i]);
    }
    out += "]";
}

} // namespace

ProtocolServer::ProtocolServer(Engine &engine) : engine_(engine) {}

void
ProtocolServer::registerApp(std::string name, AppFactory factory)
{
    apps_[std::move(name)] = std::move(factory);
}

std::vector<std::string>
ProtocolServer::appNames() const
{
    std::vector<std::string> names;
    names.reserve(apps_.size());
    for (const auto &[name, factory] : apps_)
        names.push_back(name);
    return names;
}

std::string
ProtocolServer::handle(const std::string &line)
{
    ++requests_;
    const std::string response = dispatch(line);
    if (response.rfind("{\"ok\":false", 0) == 0)
        ++errors_;
    return response;
}

std::string
ProtocolServer::dispatch(const std::string &line)
{
    LatencyScope latency;
    if (line.size() > kMaxRequestBytes)
        return errorResponse(
            "oversized",
            "request of " + std::to_string(line.size()) +
                " bytes exceeds the " +
                std::to_string(kMaxRequestBytes) +
                "-byte limit");

    json::ValuePtr request;
    try {
        request = json::parse(line);
    } catch (const std::exception &error) {
        return errorResponse("parse_error", error.what());
    }
    if (!request->isObject())
        return errorResponse("bad_request",
                             "request must be a JSON object");

    std::string op;
    std::string error;
    if (!readString(*request, "op", "", /*required=*/true, op,
                    &error))
        return error;
    latency.attribute(op);

    try {
        if (op == "submit")
            return handleSubmit(*request);
        if (op == "step")
            return handleStep(*request);
        if (op == "values")
            return handleValues(*request);
        if (op == "close")
            return handleClose(*request);
        if (op == "apps") {
            std::string out = "{\"ok\":true,\"op\":\"apps\",\"apps\":[";
            bool first = true;
            for (const std::string &name : appNames()) {
                if (!first)
                    out += ",";
                first = false;
                out += json::quote(name);
            }
            out += "]}";
            return out;
        }
        if (op == "metrics")
            return "{\"ok\":true,\"op\":\"metrics\",\"metrics\":" +
                   json::compact(Engine::metricsJson()) +
                   ",\"tenants\":" + tenantsJson() + "}";
        if (op == "health")
            return "{\"ok\":true,\"op\":\"health\",\"health\":" +
                   engine_.healthJson() +
                   ",\"tenants\":" + tenantsJson() + "}";
        return errorResponse("unknown_op",
                             "unsupported op \"" + op + "\"");
    } catch (const std::exception &failure) {
        // A well-formed request whose serving threw — e.g. a frame
        // exhausted the degradation ladder, or a compile failed.
        return errorResponse("internal", failure.what());
    }
}

std::string
ProtocolServer::handleSubmit(const json::Value &request)
{
    std::string app;
    std::string algorithm;
    std::string precision;
    std::string tenant;
    std::uint64_t seed = 1;
    std::string error;
    if (!readString(request, "app", "", /*required=*/true, app,
                    &error) ||
        !readString(request, "algorithm", "", /*required=*/false,
                    algorithm, &error) ||
        !readString(request, "precision", "", /*required=*/false,
                    precision, &error) ||
        !readString(request, "tenant", "", /*required=*/false, tenant,
                    &error) ||
        !readUint(request, "seed", 1, /*required=*/false, seed,
                  &error)) {
        if (!tenant.empty())
            ++tenants_[tenant].rejects;
        return error;
    }

    auto reject = [&](const char *type, const std::string &message) {
        if (!tenant.empty())
            ++tenants_[tenant].rejects;
        return errorResponse(type, message);
    };

    // App factories take a 32-bit seed; never serve a truncated one.
    constexpr std::uint64_t kMaxSeed = std::numeric_limits<unsigned>::max();
    if (seed > kMaxSeed)
        return reject("bad_value", "field \"seed\" must be at most " +
                                       std::to_string(kMaxSeed));

    if (!precision.empty()) {
        comp::Precision requested = comp::Precision::Fp64;
        if (!comp::parsePrecision(precision.c_str(), requested))
            return reject("bad_value",
                          "field \"precision\" must be \"fp64\" or "
                          "\"fp32\"");
        if (requested != engine_.precision())
            return reject(
                "precision_mismatch",
                std::string("engine serves ") +
                    comp::precisionName(engine_.precision()) +
                    ", request asserted " +
                    comp::precisionName(requested));
    }

    auto factory = apps_.find(app);
    if (factory == apps_.end())
        return reject("unknown_app",
                      "no application \"" + app + "\"");

    SubmittedGraph submitted;
    try {
        const LatencyScope build("protocol.build_us");
        submitted = factory->second(
            algorithm, static_cast<unsigned>(seed));
    } catch (const std::invalid_argument &failure) {
        return reject("unknown_algorithm", failure.what());
    }

    const std::uint64_t fingerprint =
        graphFingerprint(submitted.graph, submitted.initial);
    auto state = std::make_unique<SessionState>(SessionState{
        app, tenant, fg::FactorGraph(),
        engine_.session(submitted.graph, std::move(submitted.initial),
                        submitted.stepScale, /*algorithm_tag=*/0,
                        app)});
    state->graph = std::move(submitted.graph);

    if (!tenant.empty())
        ++tenants_[tenant].sessions;
    const std::uint64_t id = nextSession_++;
    sessions_[id] = std::move(state);
    return "{\"ok\":true,\"op\":\"submit\",\"session\":" +
           std::to_string(id) + ",\"app\":" + json::quote(app) +
           ",\"fingerprint\":\"" + hexFingerprint(fingerprint) +
           "\",\"precision\":\"" +
           comp::precisionName(engine_.precision()) + "\"}";
}

std::string
ProtocolServer::handleStep(const json::Value &request)
{
    std::uint64_t id = 0;
    std::uint64_t frames = 1;
    std::string error;
    if (!readUint(request, "session", 0, /*required=*/true, id,
                  &error) ||
        !readUint(request, "frames", 1, /*required=*/false, frames,
                  &error))
        return error;
    if (frames < 1 || frames > 100000)
        return errorResponse("bad_value",
                             "field \"frames\" must be in [1, 1e5]");
    auto it = sessions_.find(id);
    if (it == sessions_.end())
        return errorResponse("unknown_session",
                             "no open session " + std::to_string(id));

    SessionState &state = *it->second;
    std::uint64_t cycles = 0;
    std::uint64_t stepped = 0;
    try {
        for (std::uint64_t frame = 0; frame < frames; ++frame) {
            cycles += state.session.step().cycles;
            ++stepped;
        }
    } catch (...) {
        // Attribute the work done and the rejection before the
        // dispatch-level handler turns the throw into "internal".
        if (!state.tenant.empty()) {
            TenantStats &stats = tenants_[state.tenant];
            stats.steps += stepped;
            ++stats.rejects;
        }
        throw;
    }
    if (!state.tenant.empty())
        tenants_[state.tenant].steps += stepped;
    return "{\"ok\":true,\"op\":\"step\",\"session\":" +
           std::to_string(id) +
           ",\"frames\":" + std::to_string(frames) +
           ",\"total_frames\":" +
           std::to_string(state.session.frames()) +
           ",\"cycles\":" + std::to_string(cycles) +
           ",\"objective\":" +
           json::numberToJson(
               state.graph.totalError(state.session.values())) +
           "}";
}

std::string
ProtocolServer::handleValues(const json::Value &request)
{
    std::uint64_t id = 0;
    std::string error;
    if (!readUint(request, "session", 0, /*required=*/true, id,
                  &error))
        return error;
    auto it = sessions_.find(id);
    if (it == sessions_.end())
        return errorResponse("unknown_session",
                             "no open session " + std::to_string(id));

    const fg::Values &values = it->second->session.values();
    std::string out = "{\"ok\":true,\"op\":\"values\",\"session\":" +
                      std::to_string(id) + ",\"values\":{";
    bool first = true;
    for (fg::Key key : values.keys()) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + std::to_string(key) + "\":";
        if (values.isPose(key)) {
            out += "{\"phi\":";
            appendVector(out, values.pose(key).phi());
            out += ",\"t\":";
            appendVector(out, values.pose(key).t());
            out += "}";
        } else {
            appendVector(out, values.vector(key));
        }
    }
    out += "}}";
    return out;
}

std::string
ProtocolServer::tenantsJson() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[tenant, stats] : tenants_) {
        if (!first)
            out += ",";
        first = false;
        out += json::quote(tenant) + ":{\"sessions\":" +
               std::to_string(stats.sessions) +
               ",\"steps\":" + std::to_string(stats.steps) +
               ",\"rejects\":" + std::to_string(stats.rejects) + "}";
    }
    out += "}";
    return out;
}

std::string
ProtocolServer::handleClose(const json::Value &request)
{
    std::uint64_t id = 0;
    std::string error;
    if (!readUint(request, "session", 0, /*required=*/true, id,
                  &error))
        return error;
    if (sessions_.erase(id) == 0)
        return errorResponse("unknown_session",
                             "no open session " + std::to_string(id));
    return "{\"ok\":true,\"op\":\"close\",\"session\":" +
           std::to_string(id) + "}";
}

} // namespace orianna::runtime
