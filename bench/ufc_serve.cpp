/**
 * @file
 * ufc_serve: the long-lived simulation daemon (serve/server.h) as a
 * CLI.  Binds an AF_UNIX socket, serves submit/status/result/cancel/
 * health/metrics/drain requests, and shuts down cleanly on SIGINT/
 * SIGTERM or a protocol `drain`: admission stops, queued and in-flight
 * jobs finish, a final `ufc.report/v2` envelope (every accepted job,
 * successes and failures alike) plus optional Prometheus metrics are
 * flushed, and the exit status is 0.
 *
 *   ./build/bench/ufc_serve --socket /tmp/ufc.sock
 *   ./build/bench/ufc_serve --socket /tmp/ufc.sock --workers 4 \
 *       --queue 128 --report serve_report.json --metrics-out serve.prom
 *
 * exit status: 0 clean drain, 1 startup failure, 2 usage.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench_util.h"
#include "common/error.h"
#include "metrics/metrics.h"
#include "runner/report.h"
#include "serve/server.h"

using namespace ufc;

namespace {

std::atomic<bool> gShutdown{false};

extern "C" void
onSignal(int)
{
    gShutdown.store(true, std::memory_order_relaxed);
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --socket PATH [options]\n"
        "  --socket PATH     AF_UNIX socket to listen on (required)\n"
        "  --workers N       job-executor threads (default 2, at most\n"
        "                    %d)\n"
        "  --queue N         admission queue capacity (default 64)\n"
        "  --max-conns N     concurrent connections (default 64, at\n"
        "                    most %d)\n"
        "  --deadline-ms D   default per-request deadline incl. queue\n"
        "                    wait (default 0 = none)\n"
        "  --retries N       default retry budget per job (default 0)\n"
        "  --retry-backoff-ms B  base retry backoff delay (default 25)\n"
        "  --tenant-burst N  token-bucket burst per tenant (default 64;\n"
        "                    0 disables tenant rate limiting)\n"
        "  --tenant-rate R   token refill per second (default 32)\n"
        "  --lint            lint pre-flight on jobs by default (shed\n"
        "                    under load, tier >= 1)\n"
        "  --program-cache N bound on the compiled-program cache and\n"
        "                    on the generated-trace cache (default 256\n"
        "                    entries each; 0 = unbounded)\n"
        "  --retention N     terminal results retained for queries and\n"
        "                    the final report (default 8192)\n"
        "  --report PATH     final ufc.report/v2 envelope on drain\n"
        "                    (default ufc_serve_report.json; \"\" skips)\n"
        "  --metrics-out PATH  Prometheus exposition written on drain\n"
        "  --no-metrics      disable the metrics registry (on by\n"
        "                    default here)\n"
        "\n"
        "exit status: 0 clean drain, 1 startup failure, 2 usage\n",
        argv0, serve::kMaxWorkers, serve::kMaxConnections);
}

} // namespace

int
main(int argc, char **argv)
try {
    serve::ServeConfig cfg;
    std::string reportPath = "ufc_serve_report.json";
    std::string metricsOutPath;
    bool noMetrics = false;

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
            cfg.socketPath = value();
        else if (arg == "--workers")
            cfg.workers =
                bench::numArg(arg, value(), 1, serve::kMaxWorkers);
        else if (arg == "--queue")
            cfg.queueCapacity = bench::numArg<std::size_t>(arg, value(), 1);
        else if (arg == "--max-conns")
            cfg.maxConnections =
                bench::numArg(arg, value(), 1, serve::kMaxConnections);
        else if (arg == "--deadline-ms")
            cfg.defaultDeadlineMs = bench::numArg(arg, value(), 0.0);
        else if (arg == "--retries")
            cfg.maxRetries = bench::numArg(arg, value(), 0);
        else if (arg == "--retry-backoff-ms")
            cfg.retryBackoff.baseMs = bench::numArg(arg, value(), 0.0);
        else if (arg == "--tenant-burst")
            cfg.tenantBurst = bench::numArg(arg, value(), 0.0);
        else if (arg == "--tenant-rate")
            cfg.tenantRatePerSec = bench::numArg(arg, value(), 0.0);
        else if (arg == "--lint")
            cfg.lintPreflight = true;
        else if (arg == "--program-cache")
            cfg.programCacheMaxEntries =
                bench::numArg<std::size_t>(arg, value(), 0);
        else if (arg == "--retention")
            cfg.resultRetention =
                bench::numArg<std::size_t>(arg, value(), 1);
        else if (arg == "--report")
            reportPath = value();
        else if (arg == "--metrics-out")
            metricsOutPath = value();
        else if (arg == "--no-metrics")
            noMetrics = true;
        else {
            usage(argv[0]);
            return arg == "--help" || arg == "-h" ? 0 : 2;
        }
    }
    if (cfg.socketPath.empty()) {
        usage(argv[0]);
        return 2;
    }

    // Like sweep_all: the daemon is a scrape surface, so metrics
    // recording defaults ON (observation-only; results unaffected).
    metrics::setEnabled(!noMetrics);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    serve::Server server(cfg);
    server.start();
    std::printf("ufc_serve listening on %s (%d workers, queue %zu)\n",
                cfg.socketPath.c_str(), cfg.workers, cfg.queueCapacity);
    std::fflush(stdout);

    // Serve until a signal or a protocol-level drain request.
    while (!gShutdown.load(std::memory_order_relaxed) &&
           !server.drainRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::printf("ufc_serve draining...\n");
    std::fflush(stdout);
    server.beginDrain();
    server.awaitDrained();

    // Flush the final report while results are still queryable, then
    // give drain-aware clients a beat to fetch what they were waiting
    // on before connections close.
    const auto batch = server.reportBatch();
    const auto st = server.stats();
    if (!reportPath.empty()) {
        runner::ReportMeta meta;
        meta.generator = "ufc-serve";
        meta.threads = cfg.workers;
        runner::saveJsonReport(batch, reportPath, meta);
        std::printf("wrote %s (%zu jobs, %zu failures)\n",
                    reportPath.c_str(), batch.results.size(),
                    batch.failureCount());
    }
    if (!metricsOutPath.empty() && !noMetrics) {
        metrics::savePrometheus(metricsOutPath);
        std::printf("wrote %s\n", metricsOutPath.c_str());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    server.stop();

    std::printf("ufc_serve done: %llu submitted, %llu completed, "
                "%llu failed, %llu cancelled, %llu shed, %llu "
                "rate-limited\n",
                static_cast<unsigned long long>(st.submitted),
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.failed),
                static_cast<unsigned long long>(st.cancelled),
                static_cast<unsigned long long>(st.shed),
                static_cast<unsigned long long>(st.rateLimited));
    return 0;
} catch (const ufc::Error &e) {
    std::fprintf(stderr, "error: %s: %s\n", e.kind().c_str(), e.what());
    return 1;
}
