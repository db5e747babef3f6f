/**
 * @file
 * The ufc_serve daemon, bottom-up:
 *
 *   ServeJson         — the strict bounded JSON parser for untrusted input
 *   ServeProtocol     — length-prefixed framing over a socketpair
 *   ServeAdmission    — admission control driven in-process through
 *                       Server::handleRequestText (no sockets, no
 *                       workers touching the queue: a Server that was
 *                       never start()ed just accumulates queued records,
 *                       which makes occupancy deterministic)
 *   ServeLifecycle    — a real daemon on an AF_UNIX socket: the soak
 *                       bit-identity to a serial runner, run-memo hits
 *                       on repeat submits, the trace-cache bound,
 *                       backpressure tiers with warm-spec admission,
 *                       queue-covering deadlines, drain under load,
 *                       stop-cancels-queued
 *   ServeInterruption — the runner's cancelFlag path and the
 *                       "interrupted" report marker (what sweep_all's
 *                       SIGINT handler produces)
 *
 * All suites match the `Serve*` aggregate filter (ctest label `serve`).
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "metrics/metrics.h"
#include "runner/report.h"
#include "runner/runner.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/accelerator.h"
#include "tfhe/params.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

using namespace ufc;
using serve::JsonValue;
using serve::parseJson;

namespace {

/** Small pbs trace serialized to text — the cheap job the daemon tests
 *  submit over and over. */
std::string
smallTraceText(int count)
{
    const trace::Trace tr =
        workloads::pbsThroughput(tfhe::TfheParams::t1(), count);
    std::ostringstream os;
    trace::writeTrace(tr, os);
    return os.str();
}

/** Build a {op:submit, tenant?, job:{...}} request document. */
JsonValue
submitReq(JsonValue job, const std::string &tenant = "")
{
    JsonValue req = JsonValue::makeObject();
    req.set("op", JsonValue::makeString("submit"));
    if (!tenant.empty())
        req.set("tenant", JsonValue::makeString(tenant));
    req.set("job", std::move(job));
    return req;
}

JsonValue
traceTextJob(const std::string &text, const std::string &label)
{
    JsonValue job = JsonValue::makeObject();
    job.set("trace_text", JsonValue::makeString(text));
    job.set("label", JsonValue::makeString(label));
    return job;
}

/** Error code of an {ok:false, error:{...}} response ("" when ok). */
std::string
errorCode(const JsonValue &resp)
{
    if (resp.getBool("ok", false))
        return "";
    const JsonValue *err = resp.find("error");
    return err != nullptr ? err->getString("code") : "(no error object)";
}

/** Dump with host_seconds pinned — the one field a host measurement is
 *  allowed to vary; everything else must be bit-identical. */
std::string
normalizedDump(const JsonValue &result)
{
    JsonValue copy = result;
    copy.set("host_seconds", JsonValue::makeDouble(0.0));
    return copy.dump();
}

/** Unique AF_UNIX path per test (short: sun_path is ~108 bytes). */
std::string
uniqueSocketPath()
{
    static std::atomic<int> n{0};
    return "/tmp/ufc_serve_t" + std::to_string(::getpid()) + "_" +
           std::to_string(n.fetch_add(1)) + ".sock";
}

} // namespace

// ---------------------------------------------------------------------------
// ServeJson

TEST(ServeJson, ParsesScalarsExactly)
{
    EXPECT_TRUE(parseJson("null").isNull());
    EXPECT_TRUE(parseJson("true").asBool());
    EXPECT_FALSE(parseJson("false").asBool());
    EXPECT_EQ(42, parseJson("42").asInt());
    EXPECT_EQ(-7, parseJson("-7").asInt());
    // 64-bit integers survive exactly (a double would round this).
    EXPECT_EQ(9007199254740993LL, parseJson("9007199254740993").asInt());
    EXPECT_DOUBLE_EQ(1.5, parseJson("1.5").asDouble());
    EXPECT_DOUBLE_EQ(-2e3, parseJson("-2e3").asDouble());
    EXPECT_EQ("hi", parseJson("\"hi\"").asString());
}

TEST(ServeJson, ParsesEscapesAndUnicode)
{
    EXPECT_EQ("a\"b\\c\n\t", parseJson("\"a\\\"b\\\\c\\n\\t\"").asString());
    EXPECT_EQ("\x24", parseJson("\"\\u0024\"").asString());
    EXPECT_EQ("\xc2\xa2", parseJson("\"\\u00a2\"").asString()); // ¢
    // Surrogate pair → 4-byte UTF-8.
    EXPECT_EQ("\xf0\x9d\x84\x9e",
              parseJson("\"\\ud834\\udd1e\"").asString());
}

TEST(ServeJson, ObjectsKeepOrderAndRoundTrip)
{
    const std::string doc =
        "{\"b\":1,\"a\":[true,null,{\"k\":\"v\"}],\"c\":-1.25}";
    const JsonValue v = parseJson(doc);
    EXPECT_EQ(doc, v.dump());
    EXPECT_EQ(1, v.getInt("b"));
    EXPECT_EQ(3u, v.find("a")->asArray().size());
    ASSERT_NE(nullptr, v.find("c"));
    EXPECT_EQ(nullptr, v.find("missing"));
    EXPECT_EQ("dflt", v.getString("missing", "dflt"));
}

TEST(ServeJson, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson(""), ConfigError);
    EXPECT_THROW(parseJson("{"), ConfigError);
    EXPECT_THROW(parseJson("{\"a\":}"), ConfigError);
    EXPECT_THROW(parseJson("[1,]"), ConfigError);
    EXPECT_THROW(parseJson("\"unterminated"), ConfigError);
    EXPECT_THROW(parseJson("\"bad \\x escape\""), ConfigError);
    EXPECT_THROW(parseJson("nul"), ConfigError);
    EXPECT_THROW(parseJson("1 2"), ConfigError); // trailing garbage
    EXPECT_THROW(parseJson("{} []"), ConfigError);
}

TEST(ServeJson, CapsNestingDepth)
{
    std::string deep;
    for (int i = 0; i < serve::kJsonMaxDepth + 8; ++i)
        deep += '[';
    for (int i = 0; i < serve::kJsonMaxDepth + 8; ++i)
        deep += ']';
    EXPECT_THROW(parseJson(deep), ConfigError);

    std::string ok;
    for (int i = 0; i < serve::kJsonMaxDepth - 1; ++i)
        ok += '[';
    for (int i = 0; i < serve::kJsonMaxDepth - 1; ++i)
        ok += ']';
    EXPECT_NO_THROW(parseJson(ok));
}

TEST(ServeJson, TypedLookupsNameTheKeyOnMismatch)
{
    const JsonValue v = parseJson("{\"n\":3,\"s\":\"x\"}");
    EXPECT_THROW(v.getString("n"), ConfigError);
    EXPECT_THROW(v.getBool("s"), ConfigError);
    EXPECT_EQ(3.0, v.getDouble("n")); // ints widen
    EXPECT_THROW(parseJson("1.5").asInt(), ConfigError);
}

// ---------------------------------------------------------------------------
// ServeProtocol

namespace {

struct SocketPair
{
    int a = -1, b = -1;
    SocketPair()
    {
        int fds[2];
        EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
        a = fds[0];
        b = fds[1];
    }
    ~SocketPair()
    {
        if (a >= 0)
            ::close(a);
        if (b >= 0)
            ::close(b);
    }
};

} // namespace

TEST(ServeProtocol, FramesRoundTrip)
{
    SocketPair sp;
    serve::writeFrame(sp.a, "{\"op\":\"health\"}");
    serve::writeFrame(sp.a, ""); // empty payload is a valid frame
    std::string payload;
    ASSERT_TRUE(serve::readFrame(sp.b, payload));
    EXPECT_EQ("{\"op\":\"health\"}", payload);
    ASSERT_TRUE(serve::readFrame(sp.b, payload));
    EXPECT_EQ("", payload);
}

TEST(ServeProtocol, CleanEofReturnsFalse)
{
    SocketPair sp;
    ::close(sp.a);
    sp.a = -1;
    std::string payload;
    EXPECT_FALSE(serve::readFrame(sp.b, payload));
}

TEST(ServeProtocol, TruncatedFrameThrowsConfigError)
{
    SocketPair sp;
    // A 100-byte length prefix followed by only 3 payload bytes.
    const unsigned char prefix[4] = {0, 0, 0, 100};
    ASSERT_EQ(4, ::send(sp.a, prefix, 4, 0));
    ASSERT_EQ(3, ::send(sp.a, "abc", 3, 0));
    ::close(sp.a);
    sp.a = -1;
    std::string payload;
    EXPECT_THROW(serve::readFrame(sp.b, payload), ConfigError);
}

TEST(ServeProtocol, OversizedPrefixThrowsOverloadWithoutReadingBody)
{
    SocketPair sp;
    const unsigned char prefix[4] = {0x20, 0, 0, 0}; // 512 MiB claim
    ASSERT_EQ(4, ::send(sp.a, prefix, 4, 0));
    std::string payload;
    try {
        serve::readFrame(sp.b, payload, serve::kDefaultMaxFrameBytes);
        FAIL() << "oversized prefix must throw";
    } catch (const OverloadError &e) {
        EXPECT_EQ("OverloadError", e.kind());
    }
}

TEST(ServeProtocol, ErrorResponseShape)
{
    const JsonValue resp =
        serve::errorResponse("OverloadError", serve::kCodeQueueFull,
                             "full", 250.0);
    EXPECT_FALSE(resp.getBool("ok", true));
    const JsonValue *err = resp.find("error");
    ASSERT_NE(nullptr, err);
    EXPECT_EQ("OverloadError", err->getString("kind"));
    EXPECT_EQ(serve::kCodeQueueFull, err->getString("code"));
    EXPECT_EQ(250, err->getInt("retry_after_ms"));
    // Negative hint means "do not retry" and is omitted entirely.
    const JsonValue noHint =
        serve::errorResponse("ConfigError", serve::kCodeBadJob, "bad");
    EXPECT_EQ(nullptr, noHint.find("error")->find("retry_after_ms"));
}

// ---------------------------------------------------------------------------
// ServeAdmission (in-process; the server is never start()ed)

namespace {

JsonValue
handle(serve::Server &server, const JsonValue &req)
{
    return parseJson(server.handleRequestText(req.dump()));
}

} // namespace

TEST(ServeAdmission, MalformedRequestsGetBadRequestNotACrash)
{
    serve::ServeConfig cfg;
    serve::Server server(cfg);
    for (const char *hostile :
         {"not json at all", "{\"op\":", "[1,2,3]", "{\"op\":\"nope\"}",
          "{}", "{\"op\":\"submit\"}", "{\"op\":\"submit\",\"job\":7}"}) {
        const JsonValue resp =
            parseJson(server.handleRequestText(hostile));
        EXPECT_FALSE(resp.getBool("ok", true)) << hostile;
    }
    EXPECT_GE(server.stats().protocolErrors, 5u);
}

TEST(ServeAdmission, RejectsInvalidJobSpecs)
{
    serve::ServeConfig cfg;
    serve::Server server(cfg);

    auto expectBadJob = [&](JsonValue job, const char *what) {
        const JsonValue resp = handle(server, submitReq(std::move(job)));
        EXPECT_EQ(serve::kCodeBadJob, errorCode(resp)) << what;
    };

    JsonValue job = JsonValue::makeObject();
    expectBadJob(job, "no source");

    job = JsonValue::makeObject();
    job.set("workload", JsonValue::makeString("pbs"));
    job.set("trace_text", JsonValue::makeString("x"));
    expectBadJob(job, "two sources");

    job = JsonValue::makeObject();
    job.set("workload", JsonValue::makeString("fhe_goes_brrr"));
    expectBadJob(job, "unknown workload");

    job = JsonValue::makeObject();
    job.set("workload", JsonValue::makeString("pbs"));
    job.set("machine", JsonValue::makeString("enigma"));
    expectBadJob(job, "unknown machine");

    job = JsonValue::makeObject();
    job.set("workload", JsonValue::makeString("pbs"));
    job.set("scale", JsonValue::makeInt(-1));
    expectBadJob(job, "negative scale");

    job = JsonValue::makeObject();
    job.set("workload", JsonValue::makeString("pbs"));
    job.set("retries", JsonValue::makeInt(99));
    expectBadJob(job, "retries over budget");

    job = JsonValue::makeObject();
    job.set("workload", JsonValue::makeString("pbs"));
    job.set("hold_ms", JsonValue::makeInt(60000));
    expectBadJob(job, "hold_ms over cap");

    job = JsonValue::makeObject();
    job.set("workload", JsonValue::makeString("pbs"));
    job.set("deadline_ms", JsonValue::makeDouble(-5.0));
    expectBadJob(job, "negative deadline");

    // None of those touched admission accounting.
    EXPECT_EQ(0u, server.stats().submitted);
    EXPECT_EQ(0u, server.stats().rejected);
}

TEST(ServeAdmission, QueueFullShedsWithRetryAfterHint)
{
    serve::ServeConfig cfg;
    cfg.queueCapacity = 4;
    cfg.shedLintAt = 2.0; // isolate tier 3: disable tiers 1-2
    cfg.shedCompileAt = 2.0;
    serve::Server server(cfg);

    JsonValue job = JsonValue::makeObject();
    job.set("workload", JsonValue::makeString("pbs"));
    job.set("scale", JsonValue::makeInt(8));

    for (int i = 0; i < 4; ++i) {
        const JsonValue resp = handle(server, submitReq(job));
        ASSERT_TRUE(resp.getBool("ok")) << "submit " << i;
        EXPECT_EQ("job-" + std::to_string(i + 1),
                  resp.getString("id"));
        EXPECT_EQ(i + 1, resp.getInt("queue_depth", -1));
    }
    EXPECT_EQ(4u, server.stats().submitted);
    EXPECT_EQ(3, server.degradeTier());

    const JsonValue shed = handle(server, submitReq(job));
    EXPECT_EQ(serve::kCodeQueueFull, errorCode(shed));
    const JsonValue *err = shed.find("error");
    EXPECT_EQ("OverloadError", err->getString("kind"));
    EXPECT_GE(err->getInt("retry_after_ms"), 25);
    EXPECT_LE(err->getInt("retry_after_ms"), 10000);
    EXPECT_EQ(1u, server.stats().shed);
    EXPECT_EQ(1u, server.stats().rejected);
    EXPECT_EQ(4u, server.stats().submitted); // unchanged
}

TEST(ServeAdmission, Tier2ShedsColdCompilesOnly)
{
    serve::ServeConfig cfg;
    cfg.queueCapacity = 4; // tier 1 at 2 queued, tier 2 at 3 queued
    serve::Server server(cfg);

    JsonValue job = JsonValue::makeObject();
    job.set("workload", JsonValue::makeString("pbs"));
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(handle(server, submitReq(job)).getBool("ok"));
    EXPECT_EQ(2, server.degradeTier());

    // Nothing ever completed, so every spec is cold: shed.
    const JsonValue shed = handle(server, submitReq(job));
    EXPECT_EQ(serve::kCodeShedCompile, errorCode(shed));
    EXPECT_EQ(1u, server.stats().shed);
}

TEST(ServeAdmission, Tier1ShedsLintPreflight)
{
    serve::ServeConfig cfg;
    cfg.queueCapacity = 4;
    serve::Server server(cfg);

    JsonValue job = JsonValue::makeObject();
    job.set("workload", JsonValue::makeString("pbs"));
    job.set("lint", JsonValue::makeBool(true));

    // Occupancy 0 and 1/4: lint honoured.
    EXPECT_EQ(nullptr, handle(server, submitReq(job)).find("lint_shed"));
    EXPECT_EQ(nullptr, handle(server, submitReq(job)).find("lint_shed"));
    // Occupancy 2/4 = tier 1: admitted, lint shed.
    const JsonValue resp = handle(server, submitReq(job));
    ASSERT_TRUE(resp.getBool("ok"));
    EXPECT_TRUE(resp.getBool("lint_shed"));
    EXPECT_EQ(1u, server.stats().lintShed);
    EXPECT_EQ(3u, server.stats().submitted);
}

TEST(ServeAdmission, TenantBucketsIsolateAggressors)
{
    serve::ServeConfig cfg;
    cfg.queueCapacity = 32;
    cfg.shedLintAt = 2.0;
    cfg.shedCompileAt = 2.0;
    cfg.tenantBurst = 2.0;
    cfg.tenantRatePerSec = 0.001; // effectively no refill mid-test
    serve::Server server(cfg);

    JsonValue job = JsonValue::makeObject();
    job.set("workload", JsonValue::makeString("pbs"));

    // Tenant "greedy" burns its burst of 2...
    ASSERT_TRUE(handle(server, submitReq(job, "greedy")).getBool("ok"));
    ASSERT_TRUE(handle(server, submitReq(job, "greedy")).getBool("ok"));
    const JsonValue limited = handle(server, submitReq(job, "greedy"));
    EXPECT_EQ(serve::kCodeRateLimited, errorCode(limited));
    EXPECT_GE(limited.find("error")->getInt("retry_after_ms"), 1);

    // ...while other tenants are unaffected.
    EXPECT_TRUE(handle(server, submitReq(job, "patient")).getBool("ok"));
    EXPECT_TRUE(handle(server, submitReq(job, "patient")).getBool("ok"));
    EXPECT_EQ(1u, server.stats().rateLimited);
    EXPECT_EQ(4u, server.stats().submitted);
}

TEST(ServeAdmission, CancelQueuedButNotTwice)
{
    serve::ServeConfig cfg;
    serve::Server server(cfg);

    JsonValue job = JsonValue::makeObject();
    job.set("workload", JsonValue::makeString("pbs"));
    const std::string id =
        handle(server, submitReq(job)).getString("id");
    ASSERT_FALSE(id.empty());

    JsonValue cancel = JsonValue::makeObject();
    cancel.set("op", JsonValue::makeString("cancel"));
    cancel.set("id", JsonValue::makeString(id));
    EXPECT_TRUE(handle(server, cancel).getBool("ok"));
    EXPECT_EQ(serve::kCodeNotCancellable,
              errorCode(handle(server, cancel)));
    EXPECT_EQ(1u, server.stats().cancelled);

    JsonValue status = JsonValue::makeObject();
    status.set("op", JsonValue::makeString("status"));
    status.set("id", JsonValue::makeString(id));
    const JsonValue st = handle(server, status);
    EXPECT_EQ("cancelled", st.getString("state"));
    EXPECT_EQ("skipped", st.getString("status"));

    // A non-waiting result fetch reports the cancellation as an error.
    JsonValue result = JsonValue::makeObject();
    result.set("op", JsonValue::makeString("result"));
    result.set("id", JsonValue::makeString(id));
    EXPECT_EQ("cancelled", errorCode(handle(server, result)));

    cancel.set("id", JsonValue::makeString("job-9999"));
    EXPECT_EQ(serve::kCodeUnknownId, errorCode(handle(server, cancel)));
}

TEST(ServeAdmission, DrainingRejectsNewSubmits)
{
    serve::ServeConfig cfg;
    serve::Server server(cfg);

    JsonValue drain = JsonValue::makeObject();
    drain.set("op", JsonValue::makeString("drain"));
    const JsonValue dresp = handle(server, drain);
    EXPECT_TRUE(dresp.getBool("ok"));
    EXPECT_TRUE(dresp.getBool("draining"));
    EXPECT_TRUE(server.drainRequested());

    JsonValue job = JsonValue::makeObject();
    job.set("workload", JsonValue::makeString("pbs"));
    const JsonValue resp = handle(server, submitReq(job));
    EXPECT_EQ(serve::kCodeDraining, errorCode(resp));
    // Draining is final — no retry hint.
    EXPECT_EQ(nullptr, resp.find("error")->find("retry_after_ms"));
}

TEST(ServeAdmission, ThreadCountsAboveTheBoundsAreConfigErrors)
{
    // Checked in the constructor, before start() spawns any thread.
    serve::ServeConfig cfg;
    cfg.workers = 100000;
    EXPECT_THROW({ serve::Server server(cfg); }, ConfigError);
    cfg.workers = serve::kMaxWorkers + 1;
    EXPECT_THROW({ serve::Server server(cfg); }, ConfigError);
    cfg.workers = 2;
    cfg.maxConnections = serve::kMaxConnections + 1;
    EXPECT_THROW({ serve::Server server(cfg); }, ConfigError);
}

// ---------------------------------------------------------------------------
// ServeLifecycle (real daemon over AF_UNIX)

TEST(ServeLifecycle, SubmitRunsAndReturnsEmbeddedResult)
{
    serve::ServeConfig cfg;
    cfg.socketPath = uniqueSocketPath();
    cfg.workers = 2;
    serve::Server server(cfg);
    server.start();

    serve::Client client;
    client.connect(cfg.socketPath, 5);
    const JsonValue sub =
        client.submit(traceTextJob(smallTraceText(8), "life/basic"));
    ASSERT_TRUE(sub.getBool("ok")) << sub.dump();

    const JsonValue res = client.waitResult(sub.getString("id"));
    ASSERT_TRUE(res.getBool("ok")) << res.dump();
    EXPECT_EQ("done", res.getString("state"));
    EXPECT_EQ("ok", res.getString("status"));
    const JsonValue *result = res.find("result");
    ASSERT_NE(nullptr, result);
    EXPECT_EQ("life/basic", result->getString("label"));
    EXPECT_GT(result->getDouble("seconds", -1.0), 0.0);
    const JsonValue *stats = result->find("stats");
    ASSERT_NE(nullptr, stats);
    EXPECT_GT(stats->getDouble("total_cycles", -1.0), 0.0);

    const JsonValue h = client.health();
    EXPECT_EQ("serving", h.getString("status"));
    EXPECT_EQ(1, h.find("stats")->getInt("completed"));
}

TEST(ServeLifecycle, RepeatSubmitIsARunMemoHit)
{
    serve::ServeConfig cfg;
    cfg.socketPath = uniqueSocketPath();
    cfg.workers = 1;
    serve::Server server(cfg);
    server.start();

    serve::Client client;
    client.connect(cfg.socketPath, 5);
    const std::string text = smallTraceText(8);
    std::vector<std::string> served;
    for (const char *label : {"memo/a", "memo/b"}) {
        const JsonValue sub = client.submit(traceTextJob(text, label));
        ASSERT_TRUE(sub.getBool("ok")) << sub.dump();
        const JsonValue res = client.waitResult(sub.getString("id"));
        ASSERT_TRUE(res.getBool("ok")) << res.dump();
        JsonValue result = *res.find("result");
        EXPECT_EQ(label, result.getString("label"));
        result.set("label", JsonValue::makeString(""));
        served.push_back(normalizedDump(result));
    }
    EXPECT_EQ(served[0], served[1]);

    const JsonValue h = client.health();
    EXPECT_EQ(1, h.find("caches")->getInt("result_misses"));
    EXPECT_EQ(1, h.find("caches")->getInt("result_hits"));
}

TEST(ServeLifecycle, GeneratedTraceCacheIsBounded)
{
    // Any client may name any scale; the generated-trace cache keeps
    // only the newest programCacheMaxEntries of them.
    serve::ServeConfig cfg;
    cfg.socketPath = uniqueSocketPath();
    cfg.workers = 1;
    cfg.programCacheMaxEntries = 3;
    serve::Server server(cfg);
    server.start();

    serve::Client client;
    client.connect(cfg.socketPath, 5);
    constexpr int kExtra = 4;
    for (int scale = 1; scale <= 3 + kExtra; ++scale) {
        JsonValue job = JsonValue::makeObject();
        job.set("workload", JsonValue::makeString("pbs"));
        job.set("scale", JsonValue::makeInt(scale));
        const JsonValue sub = client.submit(job);
        ASSERT_TRUE(sub.getBool("ok")) << sub.dump();
        ASSERT_TRUE(
            client.waitResult(sub.getString("id")).getBool("ok"))
            << scale;
    }
    const JsonValue h = client.health();
    EXPECT_EQ(3, h.find("caches")->getInt("traces"));
    EXPECT_EQ(3 + kExtra, h.find("stats")->getInt("completed"));
}

TEST(ServeLifecycle, SoakIsBitIdenticalToSerialRunner)
{
    // Two distinct specs, each submitted repeatedly from three client
    // threads: the daemon's concurrent, cache-warmed answers must be
    // bit-identical (modulo host_seconds) to a cold serial runner.
    const std::string textA = smallTraceText(12);
    const std::string textB = smallTraceText(24);

    std::string expectA, expectB;
    {
        auto model = std::make_shared<sim::UfcModel>();
        for (const auto *spec :
             {&textA, &textB}) {
            runner::Job job;
            job.label = spec == &textA ? "soak/a" : "soak/b";
            std::istringstream is(*spec);
            job.trace = std::make_shared<const trace::Trace>(
                trace::readTrace(is));
            job.model = model;
            job.options.label = job.label;
            sim::RunResult result;
            runner::JobOutcome outcome;
            runner::ExperimentRunner(runner::RunnerConfig{})
                .runOne(job, 0, result, outcome, nullptr);
            ASSERT_TRUE(outcome.ok()) << outcome.message;
            (spec == &textA ? expectA : expectB) =
                normalizedDump(parseJson(result.toJson()));
        }
    }

    serve::ServeConfig cfg;
    cfg.socketPath = uniqueSocketPath();
    cfg.workers = 3;
    cfg.queueCapacity = 64;
    serve::Server server(cfg);
    server.start();

    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t) {
        clients.emplace_back([&, t] {
            serve::Client client;
            client.connect(cfg.socketPath, 5);
            std::vector<std::pair<std::string, bool>> ids; // id, isA
            for (int i = 0; i < 4; ++i) {
                const bool isA = (t + i) % 2 == 0;
                const JsonValue sub = client.submit(
                    traceTextJob(isA ? textA : textB,
                                 isA ? "soak/a" : "soak/b"),
                    "soak-" + std::to_string(t));
                if (!sub.getBool("ok")) {
                    ++failures;
                    continue;
                }
                ids.emplace_back(sub.getString("id"), isA);
            }
            for (const auto &[id, isA] : ids) {
                const JsonValue res = client.waitResult(id, 120000.0);
                if (!res.getBool("ok")) {
                    ++failures;
                    continue;
                }
                const JsonValue *result = res.find("result");
                if (result == nullptr ||
                    normalizedDump(*result) != (isA ? expectA : expectB))
                    ++mismatches;
            }
        });
    }
    for (std::thread &th : clients)
        th.join();

    EXPECT_EQ(0, failures.load());
    EXPECT_EQ(0, mismatches.load());
    EXPECT_EQ(12u, server.stats().completed);

    // The shared caches actually carried the load: 2 distinct specs,
    // 12 jobs — exactly 2 compiles, everything else a hit.
    serve::Client probe;
    probe.connect(cfg.socketPath);
    const JsonValue h = probe.health();
    EXPECT_EQ(2, h.find("caches")->getInt("program_compiles"));
    EXPECT_GE(h.find("caches")->getInt("program_hits"), 10);
}

TEST(ServeLifecycle, WarmSpecsSurviveTier2AndFullQueueSheds)
{
    serve::ServeConfig cfg;
    cfg.socketPath = uniqueSocketPath();
    cfg.workers = 1;
    cfg.queueCapacity = 4;
    serve::Server server(cfg);
    server.start();

    serve::Client client;
    client.connect(cfg.socketPath, 5);
    const std::string warmText = smallTraceText(8);
    const std::string coldText = smallTraceText(10);

    // Warm one spec end-to-end while the daemon is idle.
    const JsonValue warmed = client.submit(traceTextJob(warmText, "warm"));
    ASSERT_TRUE(warmed.getBool("ok"));
    ASSERT_TRUE(
        client.waitResult(warmed.getString("id")).getBool("ok"));

    // Park the single worker and fill the queue to tier 2 (3 queued of
    // 4): hold_ms keeps the in-flight job busy long enough that the
    // occupancy cannot drain mid-assertion.
    for (int i = 0; i < 4; ++i) {
        JsonValue job = traceTextJob(warmText, "held");
        job.set("hold_ms", JsonValue::makeInt(1500));
        ASSERT_TRUE(client.submit(job).getBool("ok")) << "held " << i;
    }
    // Give the worker a beat to pop the first held job: queue settles
    // at exactly 3 for the next ~1.5 s.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ASSERT_EQ(2, server.degradeTier());

    // Cold spec: shed. Warm spec: admitted (now 4 queued = tier 3).
    EXPECT_EQ(serve::kCodeShedCompile,
              errorCode(client.submit(traceTextJob(coldText, "cold"))));
    EXPECT_TRUE(
        client.submit(traceTextJob(warmText, "warm2")).getBool("ok"));
    EXPECT_EQ(serve::kCodeQueueFull,
              errorCode(client.submit(traceTextJob(warmText, "warm3"))));

    server.beginDrain();
    server.awaitDrained();
    EXPECT_EQ(6u, server.stats().completed); // warm + 4 held + warm2
    EXPECT_EQ(2u, server.stats().shed);
}

TEST(ServeLifecycle, DeadlineCoversQueueWait)
{
    serve::ServeConfig cfg;
    cfg.socketPath = uniqueSocketPath();
    cfg.workers = 1;
    serve::Server server(cfg);
    server.start();

    serve::Client client;
    client.connect(cfg.socketPath, 5);

    // Block the single worker for ~700 ms...
    JsonValue blocker = traceTextJob(smallTraceText(8), "blocker");
    blocker.set("hold_ms", JsonValue::makeInt(700));
    ASSERT_TRUE(client.submit(blocker).getBool("ok"));

    // ...so this 100 ms-deadline job expires while still queued.
    JsonValue doomed = traceTextJob(smallTraceText(8), "doomed");
    doomed.set("deadline_ms", JsonValue::makeDouble(100.0));
    const JsonValue sub = client.submit(doomed);
    ASSERT_TRUE(sub.getBool("ok"));

    const JsonValue res = client.waitResult(sub.getString("id"));
    EXPECT_FALSE(res.getBool("ok", true));
    EXPECT_EQ("timed_out", res.getString("status"));
    EXPECT_EQ(0, res.getInt("attempts", -1));
    EXPECT_NE(std::string::npos,
              res.find("error")->getString("message").find(
                  "expired while queued"));
}

TEST(ServeLifecycle, DrainUnderLoadFinishesEverythingAccepted)
{
    serve::ServeConfig cfg;
    cfg.socketPath = uniqueSocketPath();
    cfg.workers = 2;
    cfg.queueCapacity = 16;
    cfg.shedLintAt = 2.0;
    cfg.shedCompileAt = 2.0;
    serve::Server server(cfg);
    server.start();

    serve::Client client;
    client.connect(cfg.socketPath, 5);
    const std::string text = smallTraceText(8);
    std::vector<std::string> ids;
    for (int i = 0; i < 6; ++i) {
        JsonValue job = traceTextJob(text, "drain/" + std::to_string(i));
        job.set("hold_ms", JsonValue::makeInt(150));
        const JsonValue sub = client.submit(job);
        ASSERT_TRUE(sub.getBool("ok"));
        ids.push_back(sub.getString("id"));
    }

    const JsonValue dresp = client.drain();
    EXPECT_TRUE(dresp.getBool("ok"));
    EXPECT_TRUE(dresp.getBool("draining"));
    server.awaitDrained();

    // Every accepted job ran to completion and stays queryable.
    for (const std::string &id : ids)
        EXPECT_TRUE(client.waitResult(id).getBool("ok")) << id;
    const auto batch = server.reportBatch();
    EXPECT_EQ(6u, batch.results.size());
    EXPECT_EQ(0u, batch.failureCount());
    EXPECT_FALSE(batch.interrupted());
    const auto st = server.stats();
    EXPECT_EQ(6u, st.submitted);
    EXPECT_EQ(6u, st.completed);
    EXPECT_EQ(0u, st.cancelled);
}

TEST(ServeLifecycle, StopCancelsQueuedJobsAndAccountsForThem)
{
    serve::ServeConfig cfg;
    cfg.socketPath = uniqueSocketPath();
    cfg.workers = 1;
    cfg.shedLintAt = 2.0;
    cfg.shedCompileAt = 2.0;
    serve::Server server(cfg);
    server.start();

    serve::Client client;
    client.connect(cfg.socketPath, 5);
    JsonValue held = traceTextJob(smallTraceText(8), "held");
    held.set("hold_ms", JsonValue::makeInt(400));
    ASSERT_TRUE(client.submit(held).getBool("ok"));
    // The three jobs below must still be queued at stop(), so wait for
    // the one worker to take the held job off the queue first.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (client.health().getInt("running") != 1) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "the worker never started the held job";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(
            client.submit(traceTextJob(smallTraceText(8), "queued"))
                .getBool("ok"));

    server.stop();

    const auto st = server.stats();
    EXPECT_EQ(4u, st.submitted);
    EXPECT_EQ(3u, st.cancelled);
    EXPECT_EQ(1u, st.completed + st.failed); // the in-flight one settled
    const auto batch = server.reportBatch();
    EXPECT_EQ(4u, batch.results.size());
    EXPECT_TRUE(batch.interrupted()); // skipped slots mark the report
}

TEST(ServeLifecycle, HealthAndMetricsExposition)
{
    metrics::setEnabled(true);
    serve::ServeConfig cfg;
    cfg.socketPath = uniqueSocketPath();
    serve::Server server(cfg);
    server.start();

    serve::Client client;
    client.connect(cfg.socketPath, 5);
    const JsonValue sub =
        client.submit(traceTextJob(smallTraceText(8), "obs"));
    ASSERT_TRUE(sub.getBool("ok"));
    ASSERT_TRUE(client.waitResult(sub.getString("id")).getBool("ok"));

    const JsonValue h = client.health();
    EXPECT_TRUE(h.getBool("ok"));
    EXPECT_EQ(serve::kProtocolVersion, h.getInt("protocol", -1));
    EXPECT_EQ("serving", h.getString("status"));
    EXPECT_EQ(2, h.getInt("workers", -1));
    EXPECT_GE(h.getDouble("uptime_s", -1.0), 0.0);
    EXPECT_GT(h.getDouble("ewma_job_ms", -1.0), 0.0);
    ASSERT_NE(nullptr, h.find("stats"));
    EXPECT_EQ(1, h.find("stats")->getInt("submitted"));
    ASSERT_NE(nullptr, h.find("caches"));
    EXPECT_GE(h.find("caches")->getInt("program_compiles"), 1);

    JsonValue mreq = JsonValue::makeObject();
    mreq.set("op", JsonValue::makeString("metrics"));
    const JsonValue m = client.requestText(mreq.dump());
    ASSERT_TRUE(m.getBool("ok"));
    const std::string prom = m.getString("prometheus");
    EXPECT_NE(std::string::npos, prom.find("ufc_serve_queue_depth"));
    EXPECT_NE(std::string::npos, prom.find("ufc_serve_submitted_total"));
    EXPECT_NE(std::string::npos,
              prom.find("ufc_serve_request_latency_us"));
    metrics::setEnabled(false);
}

TEST(ServeLifecycle, ConnectionLimitAnswersThenCloses)
{
    serve::ServeConfig cfg;
    cfg.socketPath = uniqueSocketPath();
    cfg.maxConnections = 1;
    serve::Server server(cfg);
    server.start();

    serve::Client first;
    first.connect(cfg.socketPath, 5);
    ASSERT_TRUE(first.health().getBool("ok"));

    // The refusal arrives unsolicited (the daemon answers, then closes
    // the connection), so read it rather than racing a request against
    // the close.
    serve::Client second;
    second.connect(cfg.socketPath);
    std::string payload;
    ASSERT_TRUE(serve::readFrame(second.fd(), payload));
    EXPECT_EQ(serve::kCodeTooManyConns, errorCode(parseJson(payload)));

    // Freeing the slot restores service.
    first.close();
    for (int i = 0; i < 50; ++i) {
        try {
            serve::Client retry;
            retry.connect(cfg.socketPath);
            if (retry.health().getBool("ok", false))
                return;
        } catch (const Error &) {
            // Still refused mid-close; keep polling.
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    FAIL() << "connection slot never freed";
}

// ---------------------------------------------------------------------------
// ServeInterruption (the sweep_all SIGINT/SIGTERM path, minus the signal)

TEST(ServeInterruption, CancelFlagSkipsPendingJobsAndMarksTheBatch)
{
    const std::string text = smallTraceText(8);
    std::vector<runner::Job> jobs;
    auto model = std::make_shared<sim::UfcModel>();
    for (int i = 0; i < 4; ++i) {
        runner::Job job;
        job.label = "int/" + std::to_string(i);
        std::istringstream is(text);
        job.trace =
            std::make_shared<const trace::Trace>(trace::readTrace(is));
        job.model = model;
        jobs.push_back(std::move(job));
    }

    // Flag already set: every job is skipped, none runs.
    std::atomic<bool> cancel{true};
    runner::RunnerConfig cfg;
    cfg.threads = 2;
    cfg.cancelFlag = &cancel;
    const auto batch = runner::ExperimentRunner(cfg).runAll(jobs);

    ASSERT_EQ(4u, batch.outcomes.size());
    for (const auto &outcome : batch.outcomes) {
        EXPECT_EQ(runner::JobStatus::Skipped, outcome.status);
        EXPECT_EQ(0, outcome.attempts);
    }
    EXPECT_TRUE(batch.interrupted());

    // The report sweep_all would flush carries the interrupted marker
    // and the skipped jobs in its failures block.
    runner::ReportMeta meta;
    meta.interrupted = batch.interrupted();
    std::ostringstream os;
    runner::writeJsonReport(batch, os, meta);
    EXPECT_NE(std::string::npos, os.str().find("\"interrupted\":true"));
    EXPECT_NE(std::string::npos, os.str().find("\"skipped\""));
}

TEST(ServeInterruption, UninterruptedBatchHasNoMarker)
{
    const std::string text = smallTraceText(8);
    runner::Job job;
    job.label = "int/clean";
    std::istringstream is(text);
    job.trace =
        std::make_shared<const trace::Trace>(trace::readTrace(is));
    job.model = std::make_shared<sim::UfcModel>();

    const auto batch =
        runner::ExperimentRunner(runner::RunnerConfig{}).runAll({job});
    EXPECT_FALSE(batch.interrupted());
    std::ostringstream os;
    runner::ReportMeta meta;
    meta.interrupted = batch.interrupted();
    runner::writeJsonReport(batch, os, meta);
    EXPECT_EQ(std::string::npos, os.str().find("interrupted"));
}
