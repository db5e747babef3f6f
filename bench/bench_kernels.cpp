/**
 * @file
 * Kernel-layer microbenchmark: optimized vs reference NTT kernels,
 * constant-geometry transforms, and serial vs limb-parallel RNS
 * polynomial operations.
 *
 * Unlike the other benches this does not drive the accelerator
 * simulator; it times the host kernels directly with steady_clock and
 * reports per-op wall time.  Results can be exported in the standard
 * ufc.report/v2 envelope (--json / --csv), with one run entry per
 * kernel variant: `seconds` is the mean per-operation time and
 * `host_seconds` the total measured wall-clock for that variant.
 *
 * Usage: bench_kernels [--threads N] [--serial] [--json PATH] [--csv PATH]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "math/cg_ntt.h"
#include "math/ntt.h"
#include "math/primes.h"
#include "poly/rns_poly.h"
#include "runner/report.h"

using namespace ufc;

namespace {

std::vector<u64>
randomPoly(u64 n, u64 q, u64 seed)
{
    Rng rng(seed);
    std::vector<u64> a(n);
    for (auto &x : a)
        x = rng.uniform(q);
    return a;
}

struct Timing
{
    double perOpSeconds = 0.0;
    double totalSeconds = 0.0;
    int reps = 0;
};

/** Mean per-op time over `reps` runs after a short warmup. */
Timing
timeOp(const std::function<void()> &op, int reps)
{
    for (int i = 0; i < reps / 8 + 1; ++i)
        op();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i)
        op();
    const auto t1 = std::chrono::steady_clock::now();
    Timing t;
    t.reps = reps;
    t.totalSeconds = std::chrono::duration<double>(t1 - t0).count();
    t.perOpSeconds = t.totalSeconds / reps;
    return t;
}

struct Row
{
    std::string label;    ///< report label, also printed
    std::string workload; ///< human description
    Timing timing;
};

class Suite
{
  public:
    void
    add(const std::string &label, const std::string &workload,
        const std::function<void()> &op, int reps)
    {
        Row row;
        row.label = label;
        row.workload = workload;
        row.timing = timeOp(op, reps);
        std::printf("  %-36s %12.0f ns/op   (%d reps)\n", label.c_str(),
                    row.timing.perOpSeconds * 1e9, row.timing.reps);
        rows_.push_back(std::move(row));
    }

    double
    nsOf(const std::string &label) const
    {
        for (const auto &r : rows_)
            if (r.label == label)
                return r.timing.perOpSeconds * 1e9;
        return 0.0;
    }

    void
    speedup(const std::string &what, const std::string &refLabel,
            const std::string &optLabel) const
    {
        const double ref = nsOf(refLabel);
        const double opt = nsOf(optLabel);
        if (ref > 0 && opt > 0)
            std::printf("  %-36s %12.2fx  (%.0f -> %.0f ns)\n",
                        what.c_str(), ref / opt, ref, opt);
    }

    /** One report row per kernel variant; every outcome is ok. */
    runner::BatchResult
    batch() const
    {
        runner::BatchResult out;
        for (const auto &r : rows_) {
            sim::RunResult res;
            res.label = r.label;
            res.machine = "host-cpu";
            res.workload = r.workload;
            res.seconds = r.timing.perOpSeconds;
            res.hostSeconds = r.timing.totalSeconds;
            res.stats.instCount = static_cast<u64>(r.timing.reps);
            res.verbosity = sim::StatsVerbosity::Compact;
            out.results.push_back(std::move(res));
        }
        out.outcomes.resize(out.results.size());
        return out;
    }

  private:
    std::vector<Row> rows_;
};

void
benchNtt(Suite &suite, int logN, int qBits)
{
    const u64 n = 1ULL << logN;
    const u64 q = findNttPrime(qBits, 2 * n);
    NttTable ntt(n, q);
    const int reps = static_cast<int>(
        std::max<u64>(8, (1ULL << 22) / n));
    const std::string tag =
        "n" + std::to_string(logN) + "/q" + std::to_string(qBits);
    const std::string desc = "N=2^" + std::to_string(logN) + " q=" +
                             std::to_string(qBits) + "bit" +
                             (ntt.usesAvx512() ? " (avx512-ifma)"
                                               : " (scalar)");
    auto a = randomPoly(n, q, 1);

    suite.add("kernels/ntt-fwd/ref/" + tag, "forward NTT ref " + desc,
              [&] { ntt.forwardReference(a.data()); }, reps);
    suite.add("kernels/ntt-fwd/opt/" + tag, "forward NTT opt " + desc,
              [&] { ntt.forward(a.data()); }, reps);
    suite.add("kernels/ntt-inv/ref/" + tag, "inverse NTT ref " + desc,
              [&] { ntt.inverseReference(a.data()); }, reps);
    suite.add("kernels/ntt-inv/opt/" + tag, "inverse NTT opt " + desc,
              [&] { ntt.inverse(a.data()); }, reps);
    suite.speedup("ntt forward speedup " + tag,
                  "kernels/ntt-fwd/ref/" + tag,
                  "kernels/ntt-fwd/opt/" + tag);
    suite.speedup("ntt inverse speedup " + tag,
                  "kernels/ntt-inv/ref/" + tag,
                  "kernels/ntt-inv/opt/" + tag);
}

void
benchCgNtt(Suite &suite, int logN)
{
    const u64 n = 1ULL << logN;
    const u64 q = findNttPrime(50, 2 * n);
    CgNtt cg(n, q);
    const int reps = static_cast<int>(
        std::max<u64>(8, (1ULL << 21) / n));
    const std::string tag = "n" + std::to_string(logN);
    auto a = randomPoly(n, q, 2);

    suite.add("kernels/cg-fwd/" + tag,
              "constant-geometry forward N=2^" + std::to_string(logN),
              [&] { cg.forward(a); }, reps);
    suite.add("kernels/cg-inv/" + tag,
              "constant-geometry inverse N=2^" + std::to_string(logN),
              [&] { cg.inverse(a); }, reps);
    const u64 m = std::min<u64>(n, 1ULL << 10);
    suite.add("kernels/cg-packed-fwd/" + tag,
              "packed forward M=2^10 N=2^" + std::to_string(logN),
              [&] { cg.packedForward(a, m); }, reps);
}

void
benchRns(Suite &suite, int logN, int limbs)
{
    const u64 n = 1ULL << logN;
    RingContext ring(n);
    std::vector<u64> moduli;
    for (int i = 0; i < limbs; ++i)
        moduli.push_back(findNttPrime(45, 2 * n, i));

    RnsPoly a(&ring, moduli, PolyForm::Coeff);
    RnsPoly b(&ring, moduli, PolyForm::Coeff);
    Rng rng(7);
    a.sampleUniform(rng);
    b.sampleUniform(rng);
    b.toEval();
    const int reps = static_cast<int>(
        std::max<u64>(4, (1ULL << 22) / (n * limbs)));
    const std::string tag =
        "n" + std::to_string(logN) + "/L" + std::to_string(limbs);
    const std::string desc = " N=2^" + std::to_string(logN) + " L=" +
                             std::to_string(limbs);

    for (const bool parallel : {false, true}) {
        setKernelThreads(parallel ? 0 : 1);
        const std::string mode = parallel ? "par" : "ser";
        suite.add("kernels/rns-ntt-roundtrip/" + mode + "/" + tag,
                  "RNS toEval+toCoeff " + mode + desc,
                  [&] {
                      a.toEval();
                      a.toCoeff();
                  },
                  reps);
        suite.add("kernels/rns-mul-eval/" + mode + "/" + tag,
                  "RNS eval-domain multiply " + mode + desc,
                  [&] {
                      a.toEval();
                      a.mulEvalInPlace(b);
                      a.toCoeff();
                  },
                  reps);
    }
    setKernelThreads(0);
    suite.speedup("rns round-trip parallel speedup",
                  "kernels/rns-ntt-roundtrip/ser/" + tag,
                  "kernels/rns-ntt-roundtrip/par/" + tag);
}

struct Cli
{
    int threads = 0; ///< kernel pool threads; 0 keeps the default
    std::string jsonPath;
    std::string csvPath;
};

Cli
parseCli(int argc, char **argv)
{
    Cli cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--serial") {
            cli.threads = 1;
        } else if ((arg == "--threads" || arg == "--json" ||
                    arg == "--csv") && i + 1 < argc) {
            const char *v = argv[++i];
            if (arg == "--threads")
                cli.threads = bench::numArg(arg, v, 0);
            else
                (arg == "--json" ? cli.jsonPath : cli.csvPath) = v;
        } else {
            std::fprintf(stderr, "bad option %s (supported: --threads N, "
                         "--serial, --json PATH, --csv PATH)\n",
                         arg.c_str());
            std::exit(2);
        }
    }
    return cli;
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli = parseCli(argc, argv);
    if (cli.threads > 0)
        setKernelThreads(cli.threads);

    bench::header("Kernel-layer microbenchmarks",
                  "the software baseline of Section VI; host kernels only");
    std::printf("kernel pool threads: %d\n\n", kernelThreads());

    Suite suite;
    const auto t0 = std::chrono::steady_clock::now();

    std::printf("classical NTT (optimized dispatch vs reference):\n");
    benchNtt(suite, 12, 50);
    benchNtt(suite, 14, 50);
    benchNtt(suite, 14, 59); // above the IFMA bound: scalar Harvey path
    std::printf("\nconstant-geometry NTT:\n");
    benchCgNtt(suite, 14);
    std::printf("\nRNS polynomial ops (serial vs limb-parallel):\n");
    benchRns(suite, 13, 8);

    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    std::printf("\n[total %.2f s]\n", wall);
    bench::footnote("per-op times are means over the printed rep counts; "
                    "`ref` rows are the pre-optimization kernels kept as "
                    "the differential-testing oracle");

    if (!cli.jsonPath.empty() || !cli.csvPath.empty()) {
        runner::ReportMeta meta;
        meta.generator = "ufc-bench/bench_kernels";
        meta.threads = kernelThreads();
        meta.wallSeconds = wall;
        const runner::BatchResult batch = suite.batch();
        if (!cli.jsonPath.empty())
            runner::saveJsonReport(batch, cli.jsonPath, meta);
        if (!cli.csvPath.empty())
            runner::saveCsvReport(batch, cli.csvPath);
    }
    return 0;
}
