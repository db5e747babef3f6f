/**
 * @file
 * ufc_loadgen: load + chaos client for the ufc_serve daemon.
 *
 * Happy path: T client threads each open their own connection, submit M
 * jobs, then collect every accepted job's result, measuring end-to-end
 * latency per job.  Overload rejections (queue_full / rate_limited /
 * shed_compile) are expected under pressure and counted, not fatal —
 * the acceptance rule is *zero leaked jobs*: every accepted id must
 * reach a terminal state.
 *
 * Chaos mode (--chaos) additionally throws hostile input at the daemon
 * on dedicated connections — malformed JSON, a truncated frame, an
 * oversized length prefix, deterministically corrupted trace text
 * (FaultInjector::corruptTraceText), and a deadline storm — and then
 * verifies the daemon still answers health and serves a normal job.
 *
 * Results land in a BENCH_serve.json-style record (--json): throughput,
 * latency percentiles, acceptance/shed counts, chaos verdicts.
 *
 *   ./build/bench/ufc_loadgen --socket /tmp/ufc.sock
 *   ./build/bench/ufc_loadgen --socket /tmp/ufc.sock --threads 8 \
 *       --jobs 16 --chaos --json BENCH_serve.json --drain
 *
 * exit status: 0 all accepted jobs terminal + daemon healthy, 1
 * otherwise, 2 usage.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/json.h"
#include "serve/client.h"
#include "serve/server.h"
#include "tfhe/params.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

using namespace ufc;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Tally
{
    std::mutex mu;
    std::vector<double> latenciesMs;
    u64 accepted = 0;
    u64 rejected = 0;
    u64 completed = 0;
    u64 failedJobs = 0;
    u64 leaked = 0; ///< accepted but never reached a terminal state
    u64 transportErrors = 0;
};

double
percentile(std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

struct Options
{
    std::string socketPath;
    int threads = 4;
    int jobsPerThread = 8;
    std::string workload = "pbs";
    i64 scale = 16;
    std::string machine = "ufc";
    double deadlineMs = 0.0;
    i64 holdMs = 0;
    bool chaos = false;
    bool drain = false;
    std::string jsonPath;
    u64 seed = 7;
};

void
clientThread(const Options &opt, int threadIndex, Tally &tally)
{
    serve::Client client;
    try {
        client.connect(opt.socketPath, 20);
    } catch (const Error &) {
        std::lock_guard<std::mutex> lk(tally.mu);
        ++tally.transportErrors;
        return;
    }
    const std::string tenant = "loadgen-" + std::to_string(threadIndex);

    struct Pending
    {
        std::string id;
        double submitAt = 0.0;
    };
    std::vector<Pending> pending;

    for (int j = 0; j < opt.jobsPerThread; ++j) {
        serve::JsonValue job = serve::JsonValue::makeObject();
        job.set("workload", serve::JsonValue::makeString(opt.workload));
        job.set("scale", serve::JsonValue::makeInt(opt.scale));
        job.set("machine", serve::JsonValue::makeString(opt.machine));
        job.set("label", serve::JsonValue::makeString(
                             "loadgen/" + tenant + "/" +
                             std::to_string(j)));
        if (opt.deadlineMs > 0.0)
            job.set("deadline_ms",
                    serve::JsonValue::makeDouble(opt.deadlineMs));
        if (opt.holdMs > 0)
            job.set("hold_ms", serve::JsonValue::makeInt(opt.holdMs));
        try {
            const double t0 = now();
            const serve::JsonValue resp = client.submit(job, tenant);
            std::lock_guard<std::mutex> lk(tally.mu);
            if (resp.getBool("ok")) {
                ++tally.accepted;
                pending.push_back({resp.getString("id"), t0});
            } else {
                ++tally.rejected;
            }
        } catch (const Error &) {
            std::lock_guard<std::mutex> lk(tally.mu);
            ++tally.transportErrors;
            return;
        }
    }

    for (const Pending &p : pending) {
        try {
            const serve::JsonValue resp =
                client.waitResult(p.id, 120000.0);
            const double ms = (now() - p.submitAt) * 1000.0;
            const std::string state = resp.getString("state");
            std::lock_guard<std::mutex> lk(tally.mu);
            if (state == "done") {
                ++tally.completed;
                tally.latenciesMs.push_back(ms);
            } else if (state == "failed" || state == "cancelled") {
                ++tally.failedJobs; // terminal — contained, not leaked
            } else {
                ++tally.leaked; // wait timed out: job never settled
            }
        } catch (const Error &) {
            std::lock_guard<std::mutex> lk(tally.mu);
            ++tally.transportErrors;
            ++tally.leaked;
            return;
        }
    }
}

/** One chaos probe: returns true when the daemon behaved as specified
 *  (typed error response or contained job failure, and it kept serving
 *  afterwards). */
bool
chaosMalformedJson(const Options &opt)
{
    serve::Client c;
    c.connect(opt.socketPath, 5);
    const serve::JsonValue resp =
        c.requestText("{\"op\": \"submit\", \"job\": [this is not json");
    return !resp.getBool("ok", true);
}

bool
chaosTruncatedFrame(const Options &opt)
{
    serve::Client c;
    c.connect(opt.socketPath, 5);
    // Length prefix claims 1000 bytes; send 10 and vanish.  The daemon
    // must treat it as a disconnect, not a crash or a stuck worker.
    std::string bytes;
    bytes.push_back('\0');
    bytes.push_back('\0');
    bytes.push_back(static_cast<char>(0x03));
    bytes.push_back(static_cast<char>(0xE8));
    bytes += "0123456789";
    c.sendRaw(bytes);
    c.close();
    // Daemon is alive iff a fresh connection still answers health.
    serve::Client check;
    check.connect(opt.socketPath, 5);
    return check.health().getBool("ok");
}

bool
chaosOversizedFrame(const Options &opt)
{
    serve::Client c;
    c.connect(opt.socketPath, 5);
    // 512 MiB length prefix: the daemon must answer oversized_frame
    // without ever allocating or reading that much.
    std::string bytes;
    bytes.push_back(static_cast<char>(0x20));
    bytes.push_back('\0');
    bytes.push_back('\0');
    bytes.push_back('\0');
    c.sendRaw(bytes);
    std::string payload;
    if (!serve::readFrame(c.fd(), payload))
        return false;
    const serve::JsonValue resp = serve::parseJson(payload);
    const serve::JsonValue *err = resp.find("error");
    return err != nullptr &&
           err->getString("code") == serve::kCodeOversizedFrame;
}

bool
chaosCorruptTrace(const Options &opt)
{
    // Serialize a tiny valid trace, corrupt it deterministically, and
    // submit it as trace_text.  Accepted-then-failed (TraceError) and
    // rejected-at-admission are both contained outcomes; what must not
    // happen is a daemon crash or a leaked job.
    std::ostringstream os;
    trace::writeTrace(workloads::pbsThroughput(tfhe::TfheParams::t1(), 4),
                      os);
    const FaultInjector chaosFaults(opt.seed);
    serve::Client c;
    c.connect(opt.socketPath, 5);
    bool contained = true;
    for (u64 salt = 0; salt < 6; ++salt) {
        const std::string hostile =
            chaosFaults.corruptTraceText(os.str(), salt);
        serve::JsonValue job = serve::JsonValue::makeObject();
        job.set("trace_text", serve::JsonValue::makeString(hostile));
        job.set("label", serve::JsonValue::makeString(
                             "chaos/corrupt-" + std::to_string(salt)));
        const serve::JsonValue resp = c.submit(job, "chaos");
        if (!resp.getBool("ok"))
            continue; // rejected at admission: contained
        const serve::JsonValue done =
            c.waitResult(resp.getString("id"), 60000.0);
        const std::string state = done.getString("state");
        // A corrupted trace may still parse (e.g. a duplicated line) and
        // then simulate fine; both "done" and "failed" are contained.
        if (state != "done" && state != "failed")
            contained = false;
    }
    return contained;
}

bool
chaosDeadlineStorm(const Options &opt)
{
    // Deadlines near zero with service-time inflation: jobs must settle
    // as timed_out (terminal), not hang.
    serve::Client c;
    c.connect(opt.socketPath, 5);
    std::vector<std::string> ids;
    for (int j = 0; j < 4; ++j) {
        serve::JsonValue job = serve::JsonValue::makeObject();
        job.set("workload", serve::JsonValue::makeString("pbs"));
        job.set("scale", serve::JsonValue::makeInt(4));
        job.set("deadline_ms", serve::JsonValue::makeDouble(1.0));
        job.set("hold_ms", serve::JsonValue::makeInt(50));
        job.set("label", serve::JsonValue::makeString(
                             "chaos/deadline-" + std::to_string(j)));
        const serve::JsonValue resp = c.submit(job, "chaos");
        if (resp.getBool("ok"))
            ids.push_back(resp.getString("id"));
    }
    for (const std::string &id : ids) {
        const serve::JsonValue done = c.waitResult(id, 60000.0);
        const std::string state = done.getString("state");
        if (state != "failed" && state != "done")
            return false; // never settled: leaked
    }
    return true;
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --socket PATH [options]\n"
        "  --socket PATH     daemon socket (required)\n"
        "  --threads T       client threads, one connection each\n"
        "                    (default 4, at most %d)\n"
        "  --jobs M          jobs per thread (default 8)\n"
        "  --workload W      pbs|tfhe_nn|helr|bootstrap|resnet20|\n"
        "                    sorting|knn (default pbs)\n"
        "  --scale N         workload scale knob (default 16)\n"
        "  --machine M       ufc|sharp|strix|composed (default ufc)\n"
        "  --deadline-ms D   per-job deadline (default none)\n"
        "  --hold-ms H       per-job service-time inflation (default 0)\n"
        "  --chaos           also run the hostile-input probes\n"
        "  --drain           send a drain request when finished\n"
        "  --seed S          chaos corruption seed (default 7)\n"
        "  --json PATH       write the benchmark record\n"
        "\n"
        "exit status: 0 zero leaked jobs and healthy daemon, 1 failure,\n"
        "2 usage\n",
        argv0, serve::kMaxConnections);
}

} // namespace

int
main(int argc, char **argv)
try {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--socket")
            opt.socketPath = value();
        else if (arg == "--threads")
            opt.threads =
                bench::numArg(arg, value(), 1, serve::kMaxConnections);
        else if (arg == "--jobs")
            opt.jobsPerThread = bench::numArg(arg, value(), 1);
        else if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--scale")
            opt.scale = bench::numArg<i64>(arg, value(), 0);
        else if (arg == "--machine")
            opt.machine = value();
        else if (arg == "--deadline-ms")
            opt.deadlineMs = bench::numArg(arg, value(), 0.0);
        else if (arg == "--hold-ms")
            opt.holdMs = bench::numArg<i64>(arg, value(), 0);
        else if (arg == "--chaos")
            opt.chaos = true;
        else if (arg == "--drain")
            opt.drain = true;
        else if (arg == "--seed")
            opt.seed = bench::numArg<u64>(arg, value(), 0);
        else if (arg == "--json")
            opt.jsonPath = value();
        else {
            usage(argv[0]);
            return arg == "--help" || arg == "-h" ? 0 : 2;
        }
    }
    if (opt.socketPath.empty() || opt.threads < 1 ||
        opt.jobsPerThread < 1) {
        usage(argv[0]);
        return 2;
    }

    Tally tally;
    const double t0 = now();
    {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(opt.threads));
        for (int t = 0; t < opt.threads; ++t)
            threads.emplace_back(clientThread, std::cref(opt), t,
                                 std::ref(tally));
        for (std::thread &th : threads)
            th.join();
    }
    const double loadWall = now() - t0;

    bool chaosOk = true;
    bool chaosMalformed = false;
    bool chaosTruncated = false;
    bool chaosOversized = false;
    bool chaosCorrupt = false;
    bool chaosDeadline = false;
    bool healthyAfter = true;
    if (opt.chaos) {
        chaosMalformed = chaosMalformedJson(opt);
        chaosTruncated = chaosTruncatedFrame(opt);
        chaosOversized = chaosOversizedFrame(opt);
        chaosCorrupt = chaosCorruptTrace(opt);
        chaosDeadline = chaosDeadlineStorm(opt);
        chaosOk = chaosMalformed && chaosTruncated && chaosOversized &&
                  chaosCorrupt && chaosDeadline;

        // The decisive post-chaos check: the daemon still serves a
        // normal request end to end.
        serve::Client c;
        c.connect(opt.socketPath, 5);
        serve::JsonValue job = serve::JsonValue::makeObject();
        job.set("workload", serve::JsonValue::makeString("pbs"));
        job.set("scale", serve::JsonValue::makeInt(4));
        job.set("label",
                serve::JsonValue::makeString("chaos/after-probe"));
        const serve::JsonValue resp = c.submit(job, "chaos");
        healthyAfter =
            resp.getBool("ok") &&
            c.waitResult(resp.getString("id"), 60000.0)
                    .getString("state") == "done";
    }

    std::sort(tally.latenciesMs.begin(), tally.latenciesMs.end());
    const double p50 = percentile(tally.latenciesMs, 0.50);
    const double p95 = percentile(tally.latenciesMs, 0.95);
    const double p99 = percentile(tally.latenciesMs, 0.99);
    const double maxMs =
        tally.latenciesMs.empty() ? 0.0 : tally.latenciesMs.back();
    double meanMs = 0.0;
    for (const double v : tally.latenciesMs)
        meanMs += v;
    if (!tally.latenciesMs.empty())
        meanMs /= static_cast<double>(tally.latenciesMs.size());
    const double throughput =
        loadWall > 0.0 ? static_cast<double>(tally.completed) / loadWall
                       : 0.0;

    std::printf("loadgen: %llu accepted, %llu rejected, %llu completed, "
                "%llu failed, %llu leaked, %llu transport errors in "
                "%.2f s (%.1f jobs/s)\n",
                static_cast<unsigned long long>(tally.accepted),
                static_cast<unsigned long long>(tally.rejected),
                static_cast<unsigned long long>(tally.completed),
                static_cast<unsigned long long>(tally.failedJobs),
                static_cast<unsigned long long>(tally.leaked),
                static_cast<unsigned long long>(tally.transportErrors),
                loadWall, throughput);
    std::printf("latency ms: p50 %.1f  p95 %.1f  p99 %.1f  mean %.1f  "
                "max %.1f\n", p50, p95, p99, meanMs, maxMs);
    if (opt.chaos)
        std::printf("chaos: malformed %s, truncated %s, oversized %s, "
                    "corrupt-trace %s, deadline-storm %s, healthy-after "
                    "%s\n",
                    chaosMalformed ? "ok" : "FAIL",
                    chaosTruncated ? "ok" : "FAIL",
                    chaosOversized ? "ok" : "FAIL",
                    chaosCorrupt ? "ok" : "FAIL",
                    chaosDeadline ? "ok" : "FAIL",
                    healthyAfter ? "ok" : "FAIL");

    if (opt.drain) {
        serve::Client c;
        c.connect(opt.socketPath, 5);
        c.drain();
    }

    if (!opt.jsonPath.empty()) {
        std::ofstream f(opt.jsonPath);
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         opt.jsonPath.c_str());
            return 1;
        }
        char buf[64];
        const auto num = [&buf](double v) -> const char * {
            std::snprintf(buf, sizeof(buf), "%.3f", v);
            return buf;
        };
        f << "{\n  \"benchmark\": "
          << json::quote("ufc_serve load/chaos") << ",\n"
          << "  \"threads\": " << opt.threads << ",\n"
          << "  \"jobs_per_thread\": " << opt.jobsPerThread << ",\n"
          << "  \"workload\": " << json::quote(opt.workload) << ",\n"
          << "  \"scale\": " << opt.scale << ",\n"
          << "  \"accepted\": " << tally.accepted << ",\n"
          << "  \"rejected\": " << tally.rejected << ",\n"
          << "  \"completed\": " << tally.completed << ",\n"
          << "  \"failed\": " << tally.failedJobs << ",\n"
          << "  \"leaked\": " << tally.leaked << ",\n"
          << "  \"transport_errors\": " << tally.transportErrors << ",\n"
          << "  \"wall_seconds\": " << num(loadWall) << ",\n"
          << "  \"throughput_jobs_per_s\": " << num(throughput) << ",\n"
          << "  \"latency_ms\": {\n"
          << "    \"p50\": " << num(p50) << ",\n"
          << "    \"p95\": " << num(p95) << ",\n"
          << "    \"p99\": " << num(p99) << ",\n"
          << "    \"mean\": " << num(meanMs) << ",\n"
          << "    \"max\": " << num(maxMs) << "\n  },\n"
          << "  \"chaos\": {\n"
          << "    \"enabled\": " << (opt.chaos ? "true" : "false")
          << ",\n"
          << "    \"malformed_json\": "
          << (chaosMalformed ? "true" : "false") << ",\n"
          << "    \"truncated_frame\": "
          << (chaosTruncated ? "true" : "false") << ",\n"
          << "    \"oversized_frame\": "
          << (chaosOversized ? "true" : "false") << ",\n"
          << "    \"corrupt_trace\": "
          << (chaosCorrupt ? "true" : "false") << ",\n"
          << "    \"deadline_storm\": "
          << (chaosDeadline ? "true" : "false") << ",\n"
          << "    \"healthy_after\": "
          << (healthyAfter ? "true" : "false") << "\n  },\n"
          << "  \"zero_leaked\": "
          << (tally.leaked == 0 ? "true" : "false") << "\n}\n";
        std::printf("wrote %s\n", opt.jsonPath.c_str());
    }

    const bool ok = tally.leaked == 0 && tally.transportErrors == 0 &&
                    (!opt.chaos || (chaosOk && healthyAfter));
    return ok ? 0 : 1;
} catch (const ufc::Error &e) {
    std::fprintf(stderr, "error: %s: %s\n", e.kind().c_str(), e.what());
    return 1;
}
