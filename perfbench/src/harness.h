/**
 * @file
 * Shared pieces of ufc_perfbench: options, the result record each
 * workload fills, order statistics, the in-memory span tracer and the
 * probes that fill the metrics a workload's own loop does not produce.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point a)
{
    return secondsBetween(a, Clock::now());
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Directory for run-time files (the serve socket).
    std::string workDir = ".";
    /// Number of jobs or requests to make fail on purpose; used by the
    /// benchmark's own tests.
    int injectFailures = 0;
    /// Number of op probe ops to make fail on purpose (tests).
    int injectOpFailures = 0;
    /// Print the seeded inputs' digest and exit (tests).
    bool dumpInputs = false;
};

/** What one run measured and checked. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Failed checks and failed units, in the order they were found.
    std::vector<std::string> errors;
    std::map<std::string, std::pair<double, std::string>> metrics;
    /// Simulated values that have a paper counterpart (paper_err input).
    std::map<std::string, double> paperSim;
    /// FNV-1a digest over every simulated result the run checked.
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    /// Informational lines printed before the result.
    std::vector<std::string> notes;

    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Count one unit of work and whether it succeeded. */
    void unit(bool ok, const std::string &what);
    /** Record a failed run-level check (not tied to one unit). */
    void check(bool ok, const std::string &what);
    void note(const std::string &line) { notes.push_back(line); }
    void mixDigest(const std::string &bytes);
};

/** Median of `v` (0 for an empty vector). */
double median(std::vector<double> v);

/** Linear-interpolated quantile q in [0, 1] (0 for an empty vector). */
double quantile(std::vector<double> v, double q);

/**
 * Fastest of repeated timings of the same work (0 for an empty vector).
 * On a shared host other tenants only ever add time, in spells of
 * seconds to tens of seconds that can cover most of a run; the fastest
 * sample estimates the work's own cost and moves far less between runs
 * than the median or a low decile does (see README.md).
 */
double fastest(const std::vector<double> &v);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** FNV-1a over bytes, continuing from `h`. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/** A run's canonical serialization with the host-time field zeroed, so
 *  two runs of the same job compare bit for bit. */
std::string canonicalResult(const ufc::sim::RunResult &r);

/** Per-opcode cycles summed in table order; must equal total_cycles. */
bool opCyclesSumToTotal(const ufc::sim::RunResult &r);

/** Current value of a process-wide metrics counter. */
std::uint64_t counterValue(const std::string &name);

// ---------------------------------------------------------------------
// Tracing

/** One recorded interval.  Parent is an index into the span list. */
struct Span
{
    std::string layer; ///< module the call went into, or "bench"
    std::string name;  ///< "<layer>.<function>"
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    std::uint64_t request = 0;
};

/**
 * In-memory span recorder.  Spans nest per thread through a thread-local
 * "current span"; a span opened on another thread names its parent
 * explicitly.  Nothing is written until the run ends.
 */
class Tracer
{
  public:
    bool on() const { return on_; }
    void enable(bool on) { on_ = on; }

    /** Open a span; returns its index (-1 when tracing is off).  The
     *  parent defaults (-2) to the span this thread has open. */
    int begin(const char *layer, const char *name,
              std::uint64_t request = 0, int parent = -2);
    void end(int index);
    /** Record a span whose interval is already known. */
    int record(const char *layer, const char *name, Clock::time_point start,
               Clock::time_point end, int parent = -1,
               std::uint64_t request = 0);

    /** Set the end of a span opened with record() (any thread). */
    void close(int index, Clock::time_point end);

    /** Copy of the spans recorded so far. */
    std::vector<Span> spans() const;
    /** Index of the next span to be recorded. */
    std::size_t mark() const;

  private:
    bool on_ = false;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

Tracer &tracer();

/** RAII span around one call into a layer. */
class Scope
{
  public:
    Scope(const char *layer, const char *name, std::uint64_t request = 0,
          int parent = -2)
        : index_(tracer().begin(layer, name, request, parent))
    {}
    ~Scope() { tracer().end(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int index() const { return index_; }

  private:
    int index_;
};

/** Per-layer totals over the spans recorded since `from`. */
struct LayerTimes
{
    std::map<std::string, double> selfSeconds;  ///< by layer
    std::map<std::string, double> totalSeconds; ///< by span name
    std::map<std::string, std::vector<double>> durations; ///< by span name
    double rootSeconds = 0.0; ///< summed duration of root spans
};

LayerTimes layerTimes(const std::vector<Span> &spans, std::size_t from = 0);

/** Print each layer's self time and the share root spans leave
 *  unattributed; returns the share covered by named layers. */
double reportLayerShares(const LayerTimes &lt, Report &rep);

// ---------------------------------------------------------------------
// Workloads and probes

void runCkksDse(const Options &opt, Report &rep);
void runServeWarm(const Options &opt, Report &rep);

/**
 * Traced substrate rounds with the kernel pool at its default size, for
 * at least `seconds` (and at least eight rounds): fills the math, ckks,
 * tfhe and common per-layer metrics.  The tracer must be on.
 */
void traceSubstrate(std::uint64_t seed, double seconds, Report &rep);

/** Digests of the seeded inputs (serve schedule, substrate operands);
 *  the same seed must give the same digest. */
std::string serveScheduleDigest(std::uint64_t seed);
std::string substrateInputDigest(std::uint64_t seed);

/**
 * Substrate op probe, run by every workload (their timed sections run no
 * FHE kernel): fills ckks_mult_ms, ckks_rotate_ms and tfhe_pbs_ms.  The
 * workload calls round() between its own timed units, so the probe's
 * samples spread over the run like the workload's own.  The kernel pool
 * runs at one thread (those workloads never use it).
 */
class OpProbe
{
  public:
    /** `failOps` ops are checked against the wrong answer (tests). */
    OpProbe(std::uint64_t seed, int failOps, Report &rep);
    ~OpProbe();
    OpProbe(const OpProbe &) = delete;
    OpProbe &operator=(const OpProbe &) = delete;

    /** One multiply, one rotate and four gate bootstraps, checked. */
    void round();
    /** Write the three op metrics. */
    void finish();

  private:
    struct State;
    std::unique_ptr<State> s_;
};

/** Paper probe: runs the Figure 12 jobs and fills the Figure 12
 *  paper_sim entries (workloads whose timed section runs no paper
 *  sweep). */
void runPaperProbe(Report &rep);

/** Fill Figure 12 utilization entries from the UFC results of one CKKS
 *  suite (C2) and one TFHE suite (T2). */
void addFig12(const std::vector<const ufc::sim::RunResult *> &ckks,
              const std::vector<const ufc::sim::RunResult *> &tfhe,
              Report &rep);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
