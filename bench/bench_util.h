/**
 * @file
 * Shared helpers for the figure/table reproduction binaries: banner
 * formatting plus a thin CLI wrapper over the parallel experiment
 * runner, so every figure bench accepts the same flags:
 *
 *   --threads N   worker threads (default: all hardware threads)
 *   --serial      force single-threaded execution
 *   --json PATH   also write the structured JSON report
 *   --csv PATH    also write the CSV report
 */

#ifndef UFC_BENCH_BENCH_UTIL_H
#define UFC_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runner/report.h"
#include "runner/sweeps.h"

namespace ufc {
namespace bench {

inline void
header(const std::string &title, const std::string &paperRef)
{
    std::printf("\n================================================="
                "=============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("(reproduces %s)\n", paperRef.c_str());
    std::printf("==================================================="
                "===========================\n");
}

inline void
footnote(const std::string &text)
{
    std::printf("note: %s\n", text.c_str());
}

/** Common CLI options shared by all sweep-driven benches. */
struct SweepCli
{
    runner::RunnerConfig runnerConfig;
    std::string jsonPath;
    std::string csvPath;
};

inline SweepCli
parseSweepCli(int argc, char **argv)
{
    SweepCli cli;
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
        if (arg == "--threads") {
            cli.runnerConfig.threads = std::atoi(value());
        } else if (arg == "--serial") {
            cli.runnerConfig.threads = 1;
        } else if (arg == "--json") {
            cli.jsonPath = value();
        } else if (arg == "--csv") {
            cli.csvPath = value();
        } else {
            std::fprintf(stderr,
                         "unknown option %s (supported: --threads N, "
                         "--serial, --json PATH, --csv PATH)\n",
                         arg.c_str());
            std::exit(2);
        }
    }
    return cli;
}

/** Run one figure's sweep through the parallel runner, honouring the
 *  common CLI flags, and return the labelled results.  The reports are
 *  written before the first failure, if any, is thrown. */
inline runner::ResultSet
runSweep(const runner::Sweep &sweep, int argc, char **argv)
{
    const SweepCli cli = parseSweepCli(argc, argv);
    const runner::ExperimentRunner exec(cli.runnerConfig);
    const int threads = exec.effectiveThreads(sweep.jobs.size());

    const auto t0 = std::chrono::steady_clock::now();
    runner::BatchResult batch = exec.runAll(sweep.jobs);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    std::printf("[%zu runs on %d threads in %.2f s]\n",
                sweep.jobs.size(), threads, wall);

    if (!cli.jsonPath.empty() || !cli.csvPath.empty()) {
        runner::ReportMeta meta;
        meta.generator = "ufc-bench/" + sweep.name;
        meta.threads = threads;
        meta.wallSeconds = wall;
        if (!cli.jsonPath.empty())
            runner::saveJsonReport(batch, cli.jsonPath, meta);
        if (!cli.csvPath.empty())
            runner::saveCsvReport(batch, cli.csvPath);
    }
    batch.throwFirstFailure();
    return runner::ResultSet(std::move(batch.results));
}

} // namespace bench
} // namespace ufc

#endif // UFC_BENCH_BENCH_UTIL_H
