// JSON serving-protocol conformance (DESIGN.md §11): every op
// round-trips in process through ProtocolServer with the responses
// checked by the shared test JSON parser; unknown fields are ignored
// (schema tolerance); and a table of malformed requests maps each
// failure shape to its typed error without disturbing server state.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "runtime/engine.hpp"
#include "runtime/metrics.hpp"
#include "runtime/serving_protocol.hpp"
#include "test_json.hpp"

namespace {

using namespace orianna;
using orianna::test::JsonPtr;
using orianna::test::numberField;
using orianna::test::parseJson;
using runtime::ProtocolServer;
using runtime::SubmittedGraph;

/** A server over the real benchmark apps, like runtime_server wires. */
class ProtocolTest : public ::testing::Test
{
  protected:
    /**
     * Pinned fp64 regardless of ORIANNA_PRECISION: the exact compile
     * counts and "precision":"fp64" assertions below are the fp64
     * contract (the fp32 side constructs its own engine).
     */
    static runtime::EngineOptions
    fp64Options()
    {
        runtime::EngineOptions options;
        options.precision = comp::Precision::Fp64;
        return options;
    }

    static void
    registerApps(ProtocolServer &server)
    {
        for (const apps::AppKind kind : apps::allApps()) {
            server.registerApp(
                apps::appName(kind),
                [kind](const std::string &algorithm, unsigned seed) {
                    apps::BenchmarkApp mission =
                        apps::buildMission(kind, seed);
                    core::Algorithm *chosen =
                        algorithm.empty() ? &mission.app.algorithm(0)
                                          : mission.app.find(algorithm);
                    if (chosen == nullptr)
                        throw std::invalid_argument(
                            "unknown algorithm: " + algorithm);
                    return SubmittedGraph{std::move(chosen->graph),
                                          std::move(chosen->values),
                                          chosen->stepScale};
                });
        }
    }

    ProtocolTest()
        : engine_(hw::AcceleratorConfig::minimal(true), fp64Options()),
          server_(engine_)
    {
        registerApps(server_);
    }

    /** Handle @p line and parse the response (throws when invalid). */
    JsonPtr
    roundTrip(const std::string &line)
    {
        return parseJson(server_.handle(line));
    }

    /** Expect a typed error response for @p line. */
    void
    expectError(const std::string &line, const std::string &type)
    {
        const JsonPtr response = roundTrip(line);
        EXPECT_FALSE(response->at("ok").boolean) << line;
        EXPECT_EQ(response->at("error").asString(), type) << line;
        EXPECT_FALSE(response->at("message").asString().empty())
            << line;
    }

    runtime::Engine engine_;
    ProtocolServer server_;
};

TEST_F(ProtocolTest, AppsListsEveryRegisteredApp)
{
    const JsonPtr response = roundTrip(R"({"op":"apps"})");
    EXPECT_TRUE(response->at("ok").boolean);
    const auto &apps_array = response->at("apps").asArray();
    ASSERT_EQ(apps_array.size(), apps::allApps().size());
    std::vector<std::string> names;
    for (const auto &item : apps_array)
        names.push_back(item->asString());
    for (const apps::AppKind kind : apps::allApps())
        EXPECT_NE(std::find(names.begin(), names.end(),
                            apps::appName(kind)),
                  names.end());
}

TEST_F(ProtocolTest, SubmitStepValuesCloseRoundTrip)
{
    const JsonPtr submit = roundTrip(
        R"({"op":"submit","app":"MobileRobot","seed":3})");
    ASSERT_TRUE(submit->at("ok").boolean);
    EXPECT_EQ(submit->at("op").asString(), "submit");
    EXPECT_EQ(submit->at("app").asString(), "MobileRobot");
    EXPECT_EQ(submit->at("fingerprint").asString().size(), 16u);
    const auto session =
        static_cast<std::uint64_t>(numberField(*submit, "session"));
    EXPECT_EQ(server_.openSessions(), 1u);
    EXPECT_EQ(engine_.stats().compiles, 1u);

    const JsonPtr step = roundTrip(
        R"({"op":"step","session":)" + std::to_string(session) +
        R"(,"frames":4})");
    ASSERT_TRUE(step->at("ok").boolean);
    EXPECT_EQ(numberField(*step, "frames"), 4.0);
    EXPECT_EQ(numberField(*step, "total_frames"), 4.0);
    EXPECT_GT(numberField(*step, "cycles"), 0.0);
    // The objective is a finite number (17-digit doubles, not null).
    EXPECT_TRUE(std::isfinite(numberField(*step, "objective")));

    // Two identical values queries are byte-identical: state only
    // moves on step.
    const std::string values_request =
        R"({"op":"values","session":)" + std::to_string(session) + "}";
    const std::string first = server_.handle(values_request);
    EXPECT_EQ(first, server_.handle(values_request));
    const JsonPtr values = parseJson(first);
    ASSERT_TRUE(values->at("ok").boolean);
    EXPECT_FALSE(values->at("values").asObject().empty());
    for (const auto &[key, value] : values->at("values").asObject()) {
        // Poses serialize as {"phi":[..],"t":[..]}, vectors as [..].
        if (value->kind == test::JsonValue::Kind::Object) {
            EXPECT_FALSE(value->at("phi").asArray().empty()) << key;
            EXPECT_FALSE(value->at("t").asArray().empty()) << key;
        } else {
            EXPECT_FALSE(value->asArray().empty()) << key;
        }
    }

    const JsonPtr close = roundTrip(
        R"({"op":"close","session":)" + std::to_string(session) + "}");
    EXPECT_TRUE(close->at("ok").boolean);
    EXPECT_EQ(server_.openSessions(), 0u);
    // The session is gone: further use reports unknown_session.
    expectError(R"({"op":"step","session":)" +
                    std::to_string(session) + "}",
                "unknown_session");
    EXPECT_EQ(server_.requests(), 6u);
    EXPECT_EQ(server_.errors(), 1u);
}

TEST_F(ProtocolTest, SecondSubmitOfSameGraphHitsTheCache)
{
    const JsonPtr first = roundTrip(
        R"({"op":"submit","app":"Quadrotor","seed":9})");
    const JsonPtr second = roundTrip(
        R"({"op":"submit","app":"Quadrotor","seed":9})");
    ASSERT_TRUE(first->at("ok").boolean);
    ASSERT_TRUE(second->at("ok").boolean);
    EXPECT_EQ(first->at("fingerprint").asString(),
              second->at("fingerprint").asString());
    EXPECT_NE(numberField(*first, "session"),
              numberField(*second, "session"));
    EXPECT_EQ(engine_.stats().compiles, 1u);
    EXPECT_EQ(engine_.stats().cacheHits, 1u);
}

TEST_F(ProtocolTest, ExplicitAlgorithmSelectionWorks)
{
    // Every app's first algorithm can also be requested by name.
    for (const apps::AppKind kind : apps::allApps()) {
        const apps::BenchmarkApp app = apps::buildApp(kind, 1);
        const std::string name = app.app.algorithm(0).name;
        const JsonPtr response = roundTrip(
            R"({"op":"submit","app":")" +
            std::string(apps::appName(kind)) + R"(","algorithm":")" +
            name + R"("})");
        EXPECT_TRUE(response->at("ok").boolean)
            << apps::appName(kind) << "/" << name;
    }
}

TEST_F(ProtocolTest, UnknownFieldsAreIgnoredEverywhere)
{
    // Schema tolerance: decorated requests behave like bare ones.
    const JsonPtr submit = roundTrip(
        R"({"op":"submit","app":"Manipulator","client":"t",)"
        R"("retry":3,"nested":{"deep":[1,2]},"seed":2})");
    ASSERT_TRUE(submit->at("ok").boolean);
    const auto session =
        static_cast<std::uint64_t>(numberField(*submit, "session"));
    const JsonPtr step = roundTrip(
        R"({"op":"step","session":)" + std::to_string(session) +
        R"(,"frames":1,"deadline_hint":99.5,"tags":["a"]})");
    EXPECT_TRUE(step->at("ok").boolean);
    EXPECT_EQ(server_.errors(), 0u);
}

TEST_F(ProtocolTest, MalformedRequestTableMapsToTypedErrors)
{
    const struct
    {
        const char *line;
        const char *error;
    } table[] = {
        {"{not json", "parse_error"},
        {"[1,2,3]", "bad_request"},
        {"\"just a string\"", "bad_request"},
        {"42", "bad_request"},
        {R"({"app":"MobileRobot"})", "missing_field"}, // No op.
        {R"({"op":17})", "bad_type"},
        {R"({"op":"warp"})", "unknown_op"},
        {R"({"op":"submit"})", "missing_field"}, // No app.
        {R"({"op":"submit","app":7})", "bad_type"},
        {R"({"op":"submit","app":"NoSuchApp"})", "unknown_app"},
        {R"({"op":"submit","app":"MobileRobot","algorithm":"x"})",
         "unknown_algorithm"},
        {R"({"op":"submit","app":"MobileRobot","seed":-1})",
         "bad_value"},
        {R"({"op":"submit","app":"MobileRobot","seed":1.5})",
         "bad_value"},
        // Numbers are strict JSON: exponents parse (and the seeds are
        // then rejected as -1 and 1.5), strtod's extensions do not.
        {R"({"op":"submit","app":"MobileRobot","seed":-1e0})",
         "bad_value"},
        {R"({"op":"submit","app":"MobileRobot","seed":15E-1})",
         "bad_value"},
        {R"({"op":"submit","app":"MobileRobot","seed":+0x10})",
         "parse_error"},
        {R"({"op":"submit","app":"MobileRobot","seed":0x2})",
         "parse_error"},
        {R"({"op":"submit","app":"MobileRobot","seed":02})",
         "parse_error"},
        {R"({"op":"submit","app":"MobileRobot","seed":nan})",
         "parse_error"},
        {R"({"op":"submit","app":"MobileRobot","seed":.5})",
         "parse_error"},
        {R"({"op":"step"})", "missing_field"}, // No session.
        {R"({"op":"step","session":"one"})", "bad_type"},
        {R"({"op":"step","session":404})", "unknown_session"},
        {R"({"op":"values","session":404})", "unknown_session"},
        {R"({"op":"close","session":404})", "unknown_session"},
    };
    std::uint64_t expected_errors = 0;
    for (const auto &row : table) {
        expectError(row.line, row.error);
        EXPECT_EQ(server_.errors(), ++expected_errors) << row.line;
    }
    // Frame-count bounds: zero, negative and absurd all reject.
    const JsonPtr submit = roundTrip(
        R"({"op":"submit","app":"MobileRobot"})");
    ASSERT_TRUE(submit->at("ok").boolean);
    const std::string id = std::to_string(
        static_cast<std::uint64_t>(numberField(*submit, "session")));
    for (const char *frames : {"0", "-3", "100001", "2.5"})
        expectError(R"({"op":"step","session":)" + id +
                        R"(,"frames":)" + frames + "}",
                    "bad_value");
    // The session survived all that abuse.
    EXPECT_TRUE(roundTrip(R"({"op":"step","session":)" + id + "}")
                    ->at("ok")
                    .boolean);
    EXPECT_EQ(server_.openSessions(), 1u);
}

TEST_F(ProtocolTest, OversizedRequestsAreRefusedUnparsed)
{
    // An "apps" request padded to @p bytes in a field nobody reads.
    const auto padded = [](std::size_t bytes) {
        const std::string head = R"({"op":"apps","padding":")";
        const std::string tail = R"("})";
        return head +
               std::string(bytes - head.size() - tail.size(), 'x') +
               tail;
    };
    expectError(padded(ProtocolServer::kMaxRequestBytes + 1),
                "oversized");
    // At the limit itself the request is still served.
    EXPECT_TRUE(roundTrip(padded(ProtocolServer::kMaxRequestBytes))
                    ->at("ok")
                    .boolean);
}

TEST_F(ProtocolTest, DeeplyNestedLinesAreParseErrorsNotCrashes)
{
    // Far under kMaxRequestBytes: only the parser's nesting bound
    // keeps this line from overflowing the stack.
    expectError(std::string(200000, '['), "parse_error");
    // Ordinary nesting in an ignored field is still served.
    std::string nested = "0";
    for (int i = 0; i < 32; ++i)
        nested = "[" + nested + "]";
    EXPECT_TRUE(roundTrip(R"({"op":"apps","extra":)" + nested + "}")
                    ->at("ok")
                    .boolean);
    EXPECT_EQ(server_.errors(), 1u);
}

TEST_F(ProtocolTest, ParseTimeIsLinearInTheNumbersOnALine)
{
    // A line of n numbers must cost O(n) to parse: a parser that
    // copies the rest of the line for every number spends about 60x
    // as long on an 8x longer line, one that reads in place about 9x.
    // The best of three runs keeps a loaded runner from faking either.
    const auto bestMs = [this](std::size_t numbers) {
        std::string line = R"({"op":"apps","pad":[0)";
        for (std::size_t i = 1; i < numbers; ++i)
            line += ",0";
        line += "]}";
        double best = std::numeric_limits<double>::infinity();
        for (int run = 0; run < 3; ++run) {
            const auto start = std::chrono::steady_clock::now();
            const std::string response = server_.handle(line);
            const double ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() -
                                  start)
                                  .count();
            EXPECT_TRUE(parseJson(response)->at("ok").boolean);
            best = std::min(best, ms);
        }
        return best;
    };
    const double small = bestMs(40000);
    const double large = bestMs(320000);
    EXPECT_LT(large, 24.0 * small)
        << "40k numbers: " << small << " ms, 320k numbers: " << large
        << " ms";
}

TEST_F(ProtocolTest, SeedsBeyond32BitsAreRejectedNotTruncated)
{
    // 2^32 + 1 must not wrap around to seed 1's mission.
    expectError(R"({"op":"submit","app":"MobileRobot","seed":4294967297})",
                "bad_value");
    EXPECT_EQ(server_.openSessions(), 0u);
    EXPECT_TRUE(
        roundTrip(R"({"op":"submit","app":"MobileRobot","seed":4294967295})")
            ->at("ok")
            .boolean);
}

TEST_F(ProtocolTest, MetricsAndHealthEmbedEngineState)
{
    // The metrics registry is process-global and registers counters
    // lazily, so read the starting value tolerantly (the counter may
    // not exist before the first compile of the process).
    const JsonPtr before = roundTrip(R"({"op":"metrics"})");
    const auto &counters_before =
        before->at("metrics").at("counters");
    const double compiles_before =
        counters_before.has("engine.compiles")
            ? counters_before.at("engine.compiles").asNumber()
            : 0.0;
    roundTrip(R"({"op":"submit","app":"AutoVehicle"})");
    const JsonPtr health = roundTrip(R"({"op":"health"})");
    ASSERT_TRUE(health->at("ok").boolean);
    const auto &engine_health = health->at("health");
    EXPECT_EQ(engine_health.at("status").asString(), "ok");
    // No storeDir configured: the persistent tier reports disarmed.
    EXPECT_FALSE(engine_health.at("store").boolean);
    EXPECT_EQ(numberField(engine_health, "compiles"), 1.0);
    EXPECT_EQ(numberField(engine_health, "store_hits"), 0.0);

    const JsonPtr metrics = roundTrip(R"({"op":"metrics"})");
    ASSERT_TRUE(metrics->at("ok").boolean);
    EXPECT_EQ(test::counterValue(metrics->at("metrics"),
                                 "engine.compiles"),
              compiles_before + 1.0);
}

TEST_F(ProtocolTest, RecordsRequestLatencyPerKnownOpAndBuildTime)
{
    // The registry is process-global: compare deltas.
    runtime::MetricsRegistry &registry = runtime::MetricsRegistry::global();
    const bool was_enabled = runtime::MetricsRegistry::enabled();
    runtime::MetricsRegistry::setEnabled(true);
    const auto count = [&](const char *name) {
        return registry.histogram(name).count();
    };
    const auto sum = [&](const char *name) {
        return registry.histogram(name).sumUs();
    };
    const std::uint64_t submits = count("protocol.request_us.submit");
    const std::uint64_t steps = count("protocol.request_us.step");
    const std::uint64_t builds = count("protocol.build_us");
    const std::uint64_t submit_us = sum("protocol.request_us.submit");
    const std::uint64_t build_us = sum("protocol.build_us");

    const JsonPtr submit =
        roundTrip(R"({"op":"submit","app":"Manipulator"})");
    ASSERT_TRUE(submit->at("ok").boolean);
    const std::string session =
        std::to_string(static_cast<int>(numberField(*submit, "session")));
    ASSERT_TRUE(
        roundTrip(R"({"op":"step","session":)" + session + "}")
            ->at("ok")
            .boolean);
    EXPECT_EQ(count("protocol.request_us.submit"), submits + 1);
    EXPECT_EQ(count("protocol.request_us.step"), steps + 1);
    EXPECT_EQ(count("protocol.build_us"), builds + 1);
    // The build runs inside its submit, on the same clock.
    EXPECT_LE(sum("protocol.build_us") - build_us,
              sum("protocol.request_us.submit") - submit_us);

    // Op strings and tenant tags come from the client: neither may
    // create an instrument.
    const auto histogramNames = [&] {
        const JsonPtr exported = parseJson(registry.toJson());
        std::vector<std::string> names;
        for (const auto &[name, value] :
             exported->at("histograms").fields)
            names.push_back(name);
        return names;
    };
    const std::vector<std::string> names = histogramNames();
    expectError(R"({"op":"zz","tenant":"u"})", "unknown_op");
    ASSERT_TRUE(
        roundTrip(R"({"op":"submit","app":"Manipulator","tenant":"v"})")
            ->at("ok")
            .boolean);
    EXPECT_EQ(histogramNames(), names);
    EXPECT_EQ(count("protocol.request_us.submit"), submits + 2);

    // Disabled metrics record nothing.
    runtime::MetricsRegistry::setEnabled(false);
    roundTrip(R"({"op":"submit","app":"Manipulator"})");
    runtime::MetricsRegistry::setEnabled(was_enabled);
    EXPECT_EQ(count("protocol.request_us.submit"), submits + 2);
    EXPECT_EQ(count("protocol.build_us"), builds + 2);
}

// The transport is line-delimited: a client reading one line per
// request stays in step only if every response, error or success,
// is a single line of valid JSON.
TEST_F(ProtocolTest, EveryResponseIsOneLineOfJson)
{
    const JsonPtr submit =
        roundTrip(R"({"op":"submit","app":"MobileRobot"})");
    ASSERT_TRUE(submit->at("ok").boolean);
    const std::string session = std::to_string(
        static_cast<std::uint64_t>(numberField(*submit, "session")));
    const std::vector<std::string> requests = {
        R"({"op":"submit","app":"Quadrotor"})",
        R"({"op":"step","session":)" + session + R"(,"frames":2})",
        R"({"op":"values","session":)" + session + "}",
        R"({"op":"apps"})",
        R"({"op":"metrics"})",
        R"({"op":"health"})",
        R"({"op":"close","session":)" + session + "}",
        R"({"op":"no_such_op"})",
        "not json",
    };
    for (const std::string &request : requests) {
        const std::string response = server_.handle(request);
        EXPECT_EQ(response.find('\n'), std::string::npos) << request;
        EXPECT_NO_THROW(parseJson(response)) << request;
    }
}

TEST_F(ProtocolTest, SubmitReportsAndAssertsPrecision)
{
    // The submit response always carries the engine's datapath.
    const JsonPtr plain = roundTrip(
        R"({"op":"submit","app":"MobileRobot"})");
    ASSERT_TRUE(plain->at("ok").boolean);
    EXPECT_EQ(plain->at("precision").asString(), "fp64");

    // A matching assertion is accepted ("double" is an alias)...
    const JsonPtr asserted = roundTrip(
        R"({"op":"submit","app":"MobileRobot","precision":"double"})");
    EXPECT_TRUE(asserted->at("ok").boolean);

    // ...a well-formed mismatch is a typed error, a malformed value a
    // bad_value — neither opens a session.
    const std::size_t open = server_.openSessions();
    expectError(
        R"({"op":"submit","app":"MobileRobot","precision":"fp32"})",
        "precision_mismatch");
    expectError(
        R"({"op":"submit","app":"MobileRobot","precision":"fp16"})",
        "bad_value");
    EXPECT_EQ(server_.openSessions(), open);

    // Health advertises the same datapath the submits asserted on.
    const JsonPtr health = roundTrip(R"({"op":"health"})");
    EXPECT_EQ(health->at("health").at("precision").asString(),
              "fp64");

    // And symmetrically for an fp32 engine's server.
    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp32;
    runtime::Engine engine32(hw::AcceleratorConfig::minimal(true),
                             options);
    ProtocolServer server32(engine32);
    registerApps(server32);
    const JsonPtr narrow = parseJson(server32.handle(
        R"({"op":"submit","app":"MobileRobot","precision":"fp32"})"));
    ASSERT_TRUE(narrow->at("ok").boolean);
    EXPECT_EQ(narrow->at("precision").asString(), "fp32");
    const JsonPtr wide = parseJson(server32.handle(
        R"({"op":"submit","app":"MobileRobot","precision":"fp64"})"));
    EXPECT_FALSE(wide->at("ok").boolean);
    EXPECT_EQ(wide->at("error").asString(), "precision_mismatch");
}

TEST_F(ProtocolTest, TenantTagsAttributeSessionsStepsAndRejects)
{
    // Untagged traffic leaves the tenant map empty.
    const JsonPtr none = roundTrip(R"({"op":"health"})");
    EXPECT_TRUE(none->at("tenants").asObject().empty());

    const JsonPtr a1 = roundTrip(
        R"({"op":"submit","app":"MobileRobot","tenant":"alice"})");
    ASSERT_TRUE(a1->at("ok").boolean);
    const std::string a_session = std::to_string(
        static_cast<std::uint64_t>(numberField(*a1, "session")));
    roundTrip(R"({"op":"submit","app":"Quadrotor","tenant":"bob"})");

    // alice steps 3 frames; bob's second submit is rejected.
    EXPECT_TRUE(roundTrip(R"({"op":"step","session":)" + a_session +
                          R"(,"frames":3})")
                    ->at("ok")
                    .boolean);
    expectError(
        R"({"op":"submit","app":"NoSuchApp","tenant":"bob"})",
        "unknown_app");

    for (const char *op : {"health", "metrics"}) {
        const JsonPtr snap = roundTrip(
            std::string("{\"op\":\"") + op + "\"}");
        ASSERT_TRUE(snap->at("ok").boolean) << op;
        const auto &tenants = snap->at("tenants");
        EXPECT_EQ(numberField(tenants.at("alice"), "sessions"), 1.0);
        EXPECT_EQ(numberField(tenants.at("alice"), "steps"), 3.0);
        EXPECT_EQ(numberField(tenants.at("alice"), "rejects"), 0.0);
        EXPECT_EQ(numberField(tenants.at("bob"), "sessions"), 1.0);
        EXPECT_EQ(numberField(tenants.at("bob"), "steps"), 0.0);
        EXPECT_EQ(numberField(tenants.at("bob"), "rejects"), 1.0);
    }

    // An untagged submit still goes uncounted alongside tagged ones.
    roundTrip(R"({"op":"submit","app":"MobileRobot","seed":8})");
    const JsonPtr after = roundTrip(R"({"op":"health"})");
    EXPECT_EQ(after->at("tenants").asObject().size(), 2u);
}

} // namespace
