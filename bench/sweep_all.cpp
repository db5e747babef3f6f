/**
 * @file
 * One-shot parallel reproduction of the paper's entire evaluation sweep
 * (Figures 10(a), 10(b), 11, 12, 13, 14, 15): every workload x
 * accelerator x configuration job from runner::paperSweeps() executed
 * across a thread pool, with a structured JSON (and optionally CSV)
 * report.  After the batch it prints the paper-claims table
 * (runner/claims.h) for every figure whose sweep ran; the report
 * carries the same rows as its "paper" block.
 *
 * Fault tolerance: each job runs inside the runner's isolation boundary,
 * so a corrupt user trace, an invalid configuration, or a watchdog trip
 * fails only its own job.  The batch always completes; failures land in
 * the report's "failures" block and the exit code turns nonzero.
 *
 *   ./build/bench/sweep_all                          # all cores -> ufc_sweep.json
 *   ./build/bench/sweep_all --threads 4 --csv out.csv
 *   ./build/bench/sweep_all --compare-serial         # verify + time vs serial
 *   ./build/bench/sweep_all --sweep fig13 --list
 *   ./build/bench/sweep_all --no-paper --trace my.ufctrace --retries 1
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/error.h"
#include "metrics/metrics.h"
#include "runner/claims.h"
#include "runner/report.h"
#include "runner/sweeps.h"

using namespace ufc;

namespace {

/// Set by the SIGINT/SIGTERM handler; the runner checks it before each
/// job (RunnerConfig::cancelFlag), so an interrupted sweep finishes its
/// in-flight jobs, marks the rest "skipped", and still flushes a
/// partial report before exiting 130.
std::atomic<bool> gInterrupted{false};

extern "C" void
onInterrupt(int)
{
    gInterrupted.store(true, std::memory_order_relaxed);
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Everything except hostSeconds (a host-side measurement) must match. */
bool
identicalSimulated(const sim::RunResult &a, const sim::RunResult &b)
{
    if (a.label != b.label || a.machine != b.machine ||
        a.workload != b.workload || a.seconds != b.seconds ||
        a.energyJ != b.energyJ || a.powerW != b.powerW ||
        a.areaMm2 != b.areaMm2 ||
        a.energyStaticJ != b.energyStaticJ ||
        a.energyHbmJ != b.energyHbmJ ||
        a.stats.totalCycles != b.stats.totalCycles ||
        a.stats.hbmBytes != b.stats.hbmBytes ||
        a.stats.hbmBusyCycles != b.stats.hbmBusyCycles ||
        a.stats.spadHitBytes != b.stats.spadHitBytes ||
        a.stats.instCount != b.stats.instCount)
        return false;
    for (int i = 0; i < isa::kNumResources; ++i)
        if (a.stats.busyCycles[i] != b.stats.busyCycles[i])
            return false;
    for (int i = 0; i < isa::kNumHwOps; ++i) {
        const auto &ao = a.stats.opStats[i];
        const auto &bo = b.stats.opStats[i];
        if (ao.count != bo.count || ao.cycles != bo.cycles ||
            ao.computeCycles != bo.computeCycles ||
            ao.stallCycles != bo.stallCycles ||
            ao.fillCycles != bo.fillCycles || ao.hbmBytes != bo.hbmBytes)
            return false;
    }
    const auto &as = a.stats.stalls;
    const auto &bs = b.stats.stalls;
    return as.hbmBound == bs.hbmBound &&
           as.dependency == bs.dependency &&
           as.pipelineFill == bs.pipelineFill &&
           as.spadSpillCycles == bs.spadSpillCycles &&
           as.spadWritebackBytes == bs.spadWritebackBytes &&
           as.spadEvictions == bs.spadEvictions;
}

/** "dir/helr.ufctrace" -> "helr" (label component for --trace jobs). */
std::string
traceStem(const std::string &path)
{
    const std::size_t slash = path.find_last_of("/\\");
    std::string stem =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = stem.rfind('.');
    if (dot != std::string::npos && dot > 0)
        stem = stem.substr(0, dot);
    return stem.empty() ? path : stem;
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --threads N       worker threads (default: all cores)\n"
        "  --serial          single-threaded execution\n"
        "  --json PATH       JSON report path (default: ufc_sweep.json)\n"
        "  --csv PATH        also write a CSV report\n"
        "  --sweep NAME      only run one sweep (fig10a|fig10b|fig11|"
        "fig12|fig13|fig14|fig15); repeatable\n"
        "  --trace FILE      also simulate FILE on the UFC machine\n"
        "                    (repeatable; loaded inside the job's fault\n"
        "                    isolation, so a corrupt file fails only its\n"
        "                    job)\n"
        "  --no-paper        skip the paper sweeps (only --trace jobs)\n"
        "  --retries N       extra attempts for failed jobs (default 0)\n"
        "  --retry-backoff-ms B  base delay of the seeded exponential\n"
        "                    backoff between retry attempts (default 25;\n"
        "                    0 restores immediate retry)\n"
        "  --timeout S       per-job host deadline in seconds\n"
        "  --max-cycles N    simulated-cycle watchdog per job "
        "(default: unlimited)\n"
        "  --lint            static-analysis pre-flight on every job's\n"
        "                    trace (RunOptions::lintTraces); a trace\n"
        "                    with lint errors fails its job only\n"
        "  --dataflow        abstract-interpretation pre-flight on every\n"
        "                    job (RunOptions::dataflowLint): trace-level\n"
        "                    df-* rules plus the program-level rules on\n"
        "                    the compiled bytecode; results of passing\n"
        "                    jobs are bit-identical to a lint-off run\n"
        "  --bounds          static cost-bound gate per job\n"
        "                    (RunOptions::boundsCheck): every job must\n"
        "                    satisfy static_lower <= dynamic <=\n"
        "                    static_upper on cycles and HBM bytes; the\n"
        "                    per-job bound ratios are printed after the\n"
        "                    sweep\n"
        "  --compare-serial  run parallel then serial, verify identical\n"
        "                    results, report the speedup\n"
        "  --progress        per-job status lines on stderr\n"
        "                    (\"[jobs_done/jobs_total] <label> ...\")\n"
        "  --metrics-out PATH  write the metrics registry as Prometheus\n"
        "                    text exposition after the sweep\n"
        "  --no-metrics      disable the metrics registry (on by default\n"
        "                    here; results are bit-identical either way)\n"
        "  --list            print the selected jobs and exit\n"
        "\n"
        "exit status: 0 all jobs ok, 1 at least one job failed, 2 usage,\n"
        "             130 interrupted by SIGINT/SIGTERM (partial report\n"
        "             written with \"interrupted\":true)\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
try {
    runner::RunnerConfig cfg;
    std::string jsonPath = "ufc_sweep.json";
    std::string csvPath;
    std::vector<std::string> only;
    std::vector<std::string> userTraces;
    u64 maxCycles = 0;
    bool lint = false;
    bool dataflow = false;
    bool bounds = false;
    bool noPaper = false;
    bool compareSerial = false;
    std::string metricsOutPath;
    bool noMetrics = false;
    bool list = false;

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
        if (arg == "--threads")
            cfg.threads = bench::numArg(arg, value(), 0);
        else if (arg == "--serial")
            cfg.threads = 1;
        else if (arg == "--json")
            jsonPath = value();
        else if (arg == "--csv")
            csvPath = value();
        else if (arg == "--sweep")
            only.push_back(value());
        else if (arg == "--trace")
            userTraces.push_back(value());
        else if (arg == "--no-paper")
            noPaper = true;
        else if (arg == "--retries")
            cfg.maxRetries = bench::numArg(arg, value(), 0);
        else if (arg == "--retry-backoff-ms")
            cfg.retryBackoff.baseMs = bench::numArg(arg, value(), 0.0);
        else if (arg == "--timeout")
            cfg.jobTimeoutSeconds = bench::numArg(arg, value(), 0.0);
        else if (arg == "--max-cycles")
            maxCycles = bench::numArg<long long>(arg, value(), 0);
        else if (arg == "--lint")
            lint = true;
        else if (arg == "--dataflow")
            dataflow = true;
        else if (arg == "--bounds")
            bounds = true;
        else if (arg == "--compare-serial")
            compareSerial = true;
        else if (arg == "--metrics-out")
            metricsOutPath = value();
        else if (arg == "--no-metrics")
            noMetrics = true;
        else if (arg == "--progress")
            cfg.progress = true;
        else if (arg == "--list")
            list = true;
        else {
            usage(argv[0]);
            return arg == "--help" || arg == "-h" ? 0 : 2;
        }
    }

    // Cooperative interruption: SIGINT/SIGTERM stop launching new jobs
    // but let in-flight ones finish, then the partial report is written
    // with "interrupted":true and the exit status is 130.
    std::signal(SIGINT, onInterrupt);
    std::signal(SIGTERM, onInterrupt);
    cfg.cancelFlag = &gInterrupted;

    // The sweep binary is the scrape surface for the metrics layer, so
    // recording defaults ON here (library default is off).  Metrics are
    // observation-only: on-vs-off runs are bit-identical on every
    // simulated observable (the CI metrics-differential job asserts it).
    metrics::setEnabled(!noMetrics);

    std::vector<runner::Sweep> sweeps;
    if (!noPaper) {
        sweeps = runner::paperSweeps();
        for (const auto &name : only) {
            if (std::ranges::none_of(sweeps, [&](const runner::Sweep &s) {
                    return s.name == name;
                })) {
                std::string valid;
                for (const auto &sweep : sweeps)
                    valid += " " + sweep.name;
                std::fprintf(stderr, "unknown --sweep %s (valid:%s)\n",
                             name.c_str(), valid.c_str());
                return 2;
            }
        }
        if (!only.empty())
            std::erase_if(sweeps, [&](const runner::Sweep &sweep) {
                return std::ranges::find(only, sweep.name) == only.end();
            });
    }
    auto jobs = runner::allJobs(sweeps);

    // User traces run on the UFC machine, loaded lazily inside each
    // job's isolation boundary (Job::traceFile).
    if (!userTraces.empty()) {
        const auto ufcModel = std::make_shared<sim::UfcModel>();
        for (const auto &path : userTraces) {
            runner::Job job;
            job.label = "user/" + traceStem(path) + "/ufc";
            job.model = ufcModel;
            job.traceFile = path;
            jobs.push_back(std::move(job));
        }
    }
    if (maxCycles > 0)
        for (auto &job : jobs)
            job.options.maxCycles = maxCycles;
    if (lint)
        for (auto &job : jobs)
            job.options.lintTraces = true;
    if (dataflow)
        for (auto &job : jobs)
            job.options.dataflowLint = true;
    if (bounds)
        for (auto &job : jobs)
            job.options.boundsCheck = true;
    if (jobs.empty()) {
        std::fprintf(stderr, "no jobs selected (--no-paper without "
                             "--trace?)\n");
        return 2;
    }

    std::printf("paper sweep: %zu sweeps, %zu simulation jobs\n",
                sweeps.size(), jobs.size());
    for (const auto &sweep : sweeps)
        std::printf("  %-8s %4zu jobs  %s\n", sweep.name.c_str(),
                    sweep.jobs.size(), sweep.title.c_str());
    if (!userTraces.empty())
        std::printf("  %-8s %4zu jobs  user traces on UFC\n", "user",
                    userTraces.size());
    if (list) {
        for (const auto &job : jobs)
            std::printf("%s\n", job.label.c_str());
        return 0;
    }

    const runner::ExperimentRunner exec(cfg);
    const int threads = exec.effectiveThreads(jobs.size());
    std::printf("running on %d thread%s...\n", threads,
                threads == 1 ? "" : "s");

    const double t0 = now();
    const auto batch = exec.runAll(jobs);
    const double parallelWall = now() - t0;
    std::printf("parallel sweep: %.2f s wall (%zu/%zu jobs ok)\n",
                parallelWall, batch.results.size() - batch.failureCount(),
                batch.results.size());
    if (bounds) {
        // Per-job static-bound audit: every checked job already passed
        // static_lower <= dynamic <= static_upper (a violation fails
        // the job), so this table reports how tight the bounds are.
        std::printf("static cost bounds (dynamic position inside "
                    "[lower, upper]):\n");
        double worstCycles = 0.0;
        double worstHbm = 0.0;
        std::size_t checked = 0;
        for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
            const auto &oc = batch.outcomes[i];
            if (!oc.ok() || !oc.boundsChecked)
                continue;
            ++checked;
            const double cr = oc.cyclesLower > 0.0
                                  ? oc.cyclesUpper / oc.cyclesLower
                                  : 0.0;
            const double hr =
                oc.hbmLower > 0.0 ? oc.hbmUpper / oc.hbmLower : 0.0;
            worstCycles = std::max(worstCycles, cr);
            worstHbm = std::max(worstHbm, hr);
            std::printf("  %-44s cycles x%-7.3f hbm x%.3f\n",
                        batch.results[i].label.c_str(), cr, hr);
        }
        std::printf("bounds held on %zu/%zu checked job(s); worst "
                    "upper/lower ratio: cycles x%.3f, hbm x%.3f\n",
                    checked, checked, worstCycles, worstHbm);
    }

    const auto claims = runner::evaluateClaims(batch);
    if (!claims.empty())
        std::printf("\npaper claims:\n%s\n",
                    runner::renderClaims(claims).c_str());

    const bool interrupted = batch.interrupted();
    if (interrupted)
        std::fprintf(stderr,
                     "sweep interrupted by signal; writing partial "
                     "report (finished jobs are valid)\n");

    if (!batch.allOk() && !interrupted) {
        std::fprintf(stderr, "%zu job(s) failed:\n",
                     batch.failureCount());
        for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
            const auto &oc = batch.outcomes[i];
            if (oc.ok())
                continue;
            std::fprintf(stderr, "  %s %s attempts=%d %s: %s\n",
                         batch.results[i].label.c_str(),
                         runner::jobStatusName(oc.status), oc.attempts,
                         oc.errorKind.c_str(), oc.message.c_str());
        }
    }

    if (compareSerial && !interrupted) {
        runner::RunnerConfig serialCfg = cfg;
        serialCfg.cancelFlag = nullptr;
        serialCfg.threads = 1;
        const runner::ExperimentRunner serialExec(serialCfg);
        const double s0 = now();
        const auto serialBatch = serialExec.runAll(jobs);
        const double serialWall = now() - s0;
        std::printf("serial sweep:   %.2f s wall (%.2fx speedup on %d "
                    "threads)\n", serialWall, serialWall / parallelWall,
                    threads);

        if (batch.results.size() != serialBatch.results.size()) {
            std::fprintf(stderr, "FAIL: result count mismatch\n");
            return 1;
        }
        for (std::size_t i = 0; i < batch.results.size(); ++i) {
            if (batch.outcomes[i].status !=
                serialBatch.outcomes[i].status) {
                std::fprintf(stderr,
                             "FAIL: parallel and serial job status "
                             "differ at %s\n",
                             batch.results[i].label.c_str());
                return 1;
            }
            if (batch.outcomes[i].ok() &&
                !identicalSimulated(batch.results[i],
                                    serialBatch.results[i])) {
                std::fprintf(stderr,
                             "FAIL: parallel and serial results differ "
                             "at %s\n", batch.results[i].label.c_str());
                return 1;
            }
        }
        std::printf("parallel results are bit-identical to serial.\n");
    }

    runner::ReportMeta meta;
    meta.generator = "ufc-sweep-all";
    meta.threads = threads;
    meta.wallSeconds = parallelWall;
    meta.interrupted = interrupted;
    if (!jsonPath.empty()) {
        runner::saveJsonReport(batch, jsonPath, meta);
        std::printf("wrote %s (%zu runs, %zu failures)\n",
                    jsonPath.c_str(),
                    batch.results.size() - batch.failureCount(),
                    batch.failureCount());
    }
    if (!csvPath.empty()) {
        runner::saveCsvReport(batch, csvPath);
        std::printf("wrote %s\n", csvPath.c_str());
    }
    if (!metricsOutPath.empty()) {
        if (noMetrics) {
            std::fprintf(stderr, "--metrics-out requires metrics "
                                 "(drop --no-metrics)\n");
            return 2;
        }
        metrics::savePrometheus(metricsOutPath);
        std::printf("wrote %s\n", metricsOutPath.c_str());
    }
    if (interrupted)
        return 130; // conventional fatal-signal exit, report flushed
    return batch.allOk() ? 0 : 1;
} catch (const ufc::Error &e) {
    std::fprintf(stderr, "error: %s: %s\n", e.kind().c_str(), e.what());
    return 1;
}
