/**
 * @file
 * Thread-pool-backed batch experiment runner with per-job fault
 * isolation.
 *
 * The paper's evaluation is a sweep — every workload x accelerator x
 * configuration point of Figures 10-15 — and each figure binary used to
 * hand-roll its own serial loop over AcceleratorModel::run().  The runner
 * replaces those loops: callers declare a list of Jobs (model + trace +
 * RunOptions), the runner executes them across a pool of worker threads,
 * and the results come back in job order, bit-identical to a serial run
 * (AcceleratorModel::run is const and re-entrant; see accelerator.h).
 *
 * Failure containment: a job that throws ufc::Error (malformed trace
 * file, invalid RunOptions, unexecutable workload, watchdog/deadline
 * trip, injected fault) is recorded in its JobOutcome slot — with a
 * bounded retry for transient faults — and the rest of the batch runs
 * to completion.  The successful jobs' results are bit-identical to
 * what a clean batch would have produced: jobs share nothing, so a
 * neighbour's failure cannot perturb them.
 */

#ifndef UFC_RUNNER_RUNNER_H
#define UFC_RUNNER_RUNNER_H

#include <atomic>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/backoff.h"
#include "common/fault.h"
#include "sim/accelerator.h"
#include "trace/trace.h"

namespace ufc {
namespace runner {

/**
 * Batch-scoped cache of compiled Programs keyed on (lowering key, trace
 * content hash) — see AcceleratorModel::loweringKey().  An entry holds
 * the first Program lowered for its key plus one Program per model that
 * asked for it:
 *   - a repeat (model, trace) request returns that model's installed
 *     Program (a hit; nothing is re-costed);
 *   - a new model whose key matches an installed entry gets
 *     model.recost() of the installed Program, which shares its body;
 *   - any other request compiles.
 * So a DSE sweep lowers each trace once per distinct lowering key and
 * pays only a per-shape re-cost for every further machine point.
 *
 * Run memo: each (model, Program) pair also keeps the results of its
 * finished runs (run()).  The simulator is deterministic, so a result
 * depends only on the Program, the model and the run options that can
 * change a result byte (RunKey); a repeat returns a copy re-stamped
 * with the caller's label.  Timeline runs bypass the memo and a run
 * that throws is never stored, so errors re-derive on every repeat.
 * The memo lives and dies with its entry: the entry bound and the
 * batch runner's use limits bound it too.
 *
 * Concurrency: the first requester of a (key, model) pair installs a
 * shared future and compiles or re-costs outside the map lock; later
 * requesters block on that future.  A compile error is cached too and
 * rethrown to every requester of the key — lowering is deterministic
 * and keys separate model classes, so retrying cannot succeed.
 *
 * Lifetime: entries hold raw model pointers, and default lowering keys
 * are derived from model addresses, so a cache must not outlive the
 * models it has seen.  The runner builds one per batch (the jobs'
 * shared_ptrs keep the models alive); standalone users with longer-
 * lived models may keep one for as long as those models exist.
 */
class ProgramCache
{
  public:
    /** What a request is keyed on. */
    struct Key
    {
        u64 lowering = 0; ///< AcceleratorModel::loweringKey(trace)
        u64 trace = 0;    ///< trace::contentHash(trace)

        bool
        operator==(const Key &o) const
        {
            return lowering == o.lowering && trace == o.trace;
        }
    };
    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            // Splitmix-style combine of the two 64-bit halves.
            u64 h = k.lowering;
            h ^= k.trace + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
            return static_cast<std::size_t>(h);
        }
    };

    /** The run options that can change a result byte. */
    struct RunKey
    {
        int prefetchWindow = 0; ///< sim::resolvedPrefetchWindow()
        u64 maxCycles = 0;

        bool
        operator==(const RunKey &o) const
        {
            return prefetchWindow == o.prefetchWindow &&
                   maxCycles == o.maxCycles;
        }
    };

    /** Finished runs of one (model, Program) pair, oldest first. */
    struct RunMemo
    {
        std::mutex mu;
        std::vector<std::pair<RunKey, sim::RunResult>> runs;
    };

    /** A model's Program for a trace, and the memo of its runs. */
    struct Slot
    {
        std::shared_ptr<const compiler::Program> program;
        std::shared_ptr<RunMemo> memo;
    };

    /** Results kept per (model, Program) pair; the oldest goes first. */
    static constexpr std::size_t kMaxRunsPerProgram = 8;

    /** `maxEntries` bounds the cache (0 = unbounded, the default).
     *  When an insert exceeds the bound the oldest entry is evicted
     *  (FIFO by insertion) — safe even while the evicted compile is
     *  still in flight, since every waiter holds its own copy of the
     *  shared future and the Program is shared_ptr-owned. */
    explicit ProgramCache(std::size_t maxEntries = 0)
        : maxEntries_(maxEntries)
    {}

    /** The Program for `tr` on `model`, compiling or re-costing on
     *  first use.  Thread-safe; throws whatever compile() threw. */
    std::shared_ptr<const compiler::Program>
    get(const sim::AcceleratorModel &model, const trace::Trace &tr);

    /** get() with the key already computed (`key` must equal
     *  {model.loweringKey(tr), trace::contentHash(tr)}) and the pair's
     *  run memo alongside: the batch runner hashes each trace once. */
    Slot slot(const sim::AcceleratorModel &model, const trace::Trace &tr,
              const Key &key);

    /** `model.execute(*slot.program, opts)`, or a copy of the memoized
     *  result of an identical earlier run with `opts.label` stamped on
     *  it.  Thread-safe; throws whatever execute() threw. */
    sim::RunResult run(const sim::AcceleratorModel &model,
                       const Slot &slot, const sim::RunOptions &opts);

    /** Drop `key`'s entry after `uses` more get()/slot() calls, so its
     *  body lives only as long as the Programs its last user holds.
     *  Keys without a limit stay until evicted. */
    void limitUses(const Key &key, u64 uses);

    /** Requests served from an already-installed Program. */
    u64 hits() const { return hits_.load(std::memory_order_relaxed); }
    /** compile() calls actually performed — lowerings (== distinct
     *  keys seen, counting re-compiles of evicted keys). */
    u64
    compiles() const
    {
        return compiles_.load(std::memory_order_relaxed);
    }
    /** recost() calls: new models served from an installed body. */
    u64
    recosts() const
    {
        return recosts_.load(std::memory_order_relaxed);
    }
    /** Entries dropped by the maxEntries bound. */
    u64
    evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }
    /** run() calls answered from the memo. */
    u64 runHits() const { return runHits_.load(std::memory_order_relaxed); }
    /** run() calls that executed (timeline runs not counted). */
    u64
    runMisses() const
    {
        return runMisses_.load(std::memory_order_relaxed);
    }

  private:
    using Future =
        std::shared_future<std::shared_ptr<const compiler::Program>>;

    /// One requesting model's Program and run memo.
    struct Served
    {
        const sim::AcceleratorModel *model = nullptr;
        Future program;
        std::shared_ptr<RunMemo> memo;
    };

    struct Entry
    {
        /// The Program compiled for the key: the recost() source.
        Future lowered;
        /// One Program per requesting model, `lowered`'s model first.
        std::vector<Served> programs;
        u64 usesLeft = 0; ///< 0 = no limit (see limitUses)
    };

    const std::size_t maxEntries_;
    std::mutex mu_;
    std::unordered_map<Key, Entry, KeyHash> entries_;
    /// Keys with an installed Program, in insertion order (FIFO
    /// eviction); entries that only carry a use limit are not counted.
    std::deque<Key> order_;
    std::atomic<u64> hits_{0};
    std::atomic<u64> compiles_{0};
    std::atomic<u64> recosts_{0};
    std::atomic<u64> evictions_{0};
    std::atomic<u64> runHits_{0};
    std::atomic<u64> runMisses_{0};
};

/**
 * One experiment: a trace simulated on a model under given options.
 * Model and trace are shared so a sweep can cross N models with M traces
 * without copying either.
 *
 * The trace may be given eagerly (`trace`) or as a file path
 * (`traceFile`) that is loaded *inside* the job's fault isolation, so a
 * corrupt or truncated file fails only its own job instead of the batch
 * assembly.  Exactly one of the two must be set.
 */
struct Job
{
    /// Unique key for result lookup; copied into RunOptions::label (and
    /// from there into RunResult::label) when options.label is empty.
    std::string label;
    std::shared_ptr<const sim::AcceleratorModel> model;
    std::shared_ptr<const trace::Trace> trace;
    sim::RunOptions options;
    /// Lazy alternative to `trace`: path to a serialized ufctrace file,
    /// deserialized per attempt inside the job's isolation boundary.
    std::string traceFile;
};

/** Runner knobs. */
struct RunnerConfig
{
    /// Worker threads; <= 0 means std::thread::hardware_concurrency().
    int threads = 0;
    /// Emit one machine-readable status line to stderr as each job
    /// finishes ("[jobs_done/jobs_total] <label> status=... ...").
    /// Lines are serialized under a mutex so concurrent completions
    /// cannot interleave characters.  Progress output never affects
    /// results (stderr only, completion order).
    bool progress = false;
    /// Extra attempts after a failed one (not applied to timeouts — a
    /// hung job would hang again).  0 = fail on the first error.
    int maxRetries = 0;
    /// Delay schedule between retry attempts: capped exponential with
    /// deterministic seeded jitter keyed on the job label (see
    /// common/backoff.h).  Replaces the immediate re-run: a correlated
    /// transient fault gets time to clear instead of burning the retry
    /// budget instantly.  Set baseMs <= 0 to restore immediate retry.
    /// Sleeping never affects results — only host wall-clock.
    BackoffPolicy retryBackoff;
    /// Optional cooperative cancellation flag (not owned): once it reads
    /// true, jobs not yet started are marked JobStatus::Skipped instead
    /// of running, and runAll() returns as soon as in-flight jobs
    /// finish.  sweep_all points this at its SIGINT/SIGTERM flag so an
    /// interrupted sweep still flushes a partial report.
    const std::atomic<bool> *cancelFlag = nullptr;
    /// Per-attempt cooperative deadline in host seconds, enforced via
    /// the cycle engine's poll points; <= 0 disables.  A tripped
    /// deadline marks the job timed_out without disturbing the batch.
    double jobTimeoutSeconds = 0.0;
    /// Optional deterministic fault source (tests): consulted at the
    /// top of every job attempt; an injected fault follows the normal
    /// failure/retry path.  Not owned.
    const FaultInjector *faults = nullptr;
};

/** Terminal state of one job within a batch. */
enum class JobStatus
{
    Ok,        ///< first attempt succeeded
    RetriedOk, ///< a retry succeeded after >= 1 failed attempts
    Failed,    ///< all attempts failed (last error captured)
    TimedOut,  ///< deadline/watchdog tripped (never retried)
    Skipped,   ///< batch cancelled before this job started
};

/** Stable lower-case tag for reports: "ok", "retried_ok", "failed",
 *  "timed_out", "skipped". */
const char *jobStatusName(JobStatus status);

/** Per-job diagnostic record filled by ExperimentRunner::runAll(). */
struct JobOutcome
{
    JobStatus status = JobStatus::Ok;
    /// Attempts consumed (1 = no retry).
    int attempts = 1;
    /// ufc::Error::kind() of the captured error ("TraceError",
    /// "ConfigError", "SimError"); empty for a clean Ok.  RetriedOk
    /// keeps the kind/message of the last *failed* attempt as the
    /// retry diagnostic.
    std::string errorKind;
    /// Captured what() of the error; empty for a clean Ok.
    std::string message;
    /// Formatted tail of the metrics flight recorder captured when the
    /// job settled as Failed/TimedOut (empty on success, or when metrics
    /// are off).  The events are process-wide — neighbouring jobs'
    /// entries appear too, which is exactly the post-mortem context a
    /// failure in a 100-job sweep needs.
    std::vector<std::string> recentEvents;
    /// Static cost-bound audit (RunOptions::boundsCheck).  Host-side
    /// only — never serialized into RunResult, so reports stay
    /// bit-identical with the gate on or off.  When boundsChecked is
    /// true the bounds below were computed before execution; a
    /// violation fails the job (SimError) with the fields still filled.
    bool boundsChecked = false;
    double cyclesLower = 0.0; ///< guaranteed min total cycles
    double cyclesUpper = 0.0; ///< guaranteed max total cycles
    double hbmLower = 0.0;    ///< guaranteed min HBM bytes
    double hbmUpper = 0.0;    ///< guaranteed max HBM bytes

    /// Did the job produce a valid result?
    bool
    ok() const
    {
        return status == JobStatus::Ok || status == JobStatus::RetriedOk;
    }
};

/**
 * A completed batch: one result slot and one outcome per job, in job
 * order.  Failed/timed-out slots hold a placeholder RunResult carrying
 * only the job's label; consult outcomes[i].ok() before reading a slot.
 */
struct BatchResult
{
    std::vector<sim::RunResult> results;
    std::vector<JobOutcome> outcomes;

    std::size_t failureCount() const;
    bool allOk() const { return failureCount() == 0; }

    /// True when the batch was cancelled before every job ran (some
    /// outcome is JobStatus::Skipped).
    bool interrupted() const;

    /// Results of the successful jobs only (job order preserved).
    std::vector<sim::RunResult> okResults() const;

    /// Throw the first failure as a typed ufc::Error (TimedOut as
    /// TimeoutError); no-op when allOk().
    void throwFirstFailure() const;
};

/**
 * Executes a batch of jobs concurrently.  Results are returned in job
 * order regardless of scheduling, so `run(jobs)` with any thread count
 * produces the same vector (only hostSeconds, a host-side measurement,
 * varies).
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(const RunnerConfig &cfg = RunnerConfig{});

    /**
     * Run every job with per-job fault isolation; blocks until all
     * complete.  Never throws for job-level failures — each job's
     * fate lands in its JobOutcome, and the sibling jobs' results are
     * bit-identical to a batch without the failing jobs.
     */
    BatchResult runAll(const std::vector<Job> &jobs) const;

    /** Run every job; blocks until all complete.  Convenience wrapper
     *  over runAll() that throws the first failure's typed ufc::Error
     *  (after the whole batch has finished) — for callers that treat
     *  any failure as fatal. */
    std::vector<sim::RunResult> run(const std::vector<Job> &jobs) const;

    /**
     * Execute ONE job on the calling thread with the full isolation
     * machinery (typed-error capture, bounded retries with backoff,
     * deadline mapping, flight-recorder post-mortem on failure) and
     * the job metrics (ufc_runner_jobs_*, ufc_runner_job_duration_us).
     * This is the unit of work runAll() schedules, and the one a
     * long-lived service schedules: the ufc_serve daemon calls it per
     * accepted request from its own worker threads, passing its
     * persistent ProgramCache so compiled programs stay warm across
     * requests.  `cache` may be null (no program sharing); `key`, when
     * given, is the job's precomputed ProgramCache key.  Never throws
     * for job-level failures.
     */
    void runOne(const Job &job, std::size_t index,
                sim::RunResult &result, JobOutcome &outcome,
                ProgramCache *cache,
                const ProgramCache::Key *key = nullptr) const;

    /** Threads the pool would use for a batch of `jobs` jobs. */
    int effectiveThreads(std::size_t jobs) const;

    const RunnerConfig &config() const { return cfg_; }

  private:
    RunnerConfig cfg_;
};

/**
 * Label-indexed view over a batch's results.  Lookup keys are the Job
 * labels (== RunResult::label).
 */
class ResultSet
{
  public:
    ResultSet() = default;
    explicit ResultSet(std::vector<sim::RunResult> results);

    /** Result with the given label; throws ufc::ConfigError if absent. */
    const sim::RunResult &at(const std::string &label) const;
    bool contains(const std::string &label) const;

    const std::vector<sim::RunResult> &all() const { return results_; }
    std::size_t size() const { return results_.size(); }

  private:
    std::vector<sim::RunResult> results_;
    std::unordered_map<std::string, std::size_t> byLabel_;
};

/** Canonical label format shared by the sweep builders and the claims
 *  table: "<sweep>/<group>/<workload>/<machine>". */
std::string jobLabel(const std::string &sweep, const std::string &group,
                     const std::string &workload,
                     const std::string &machine);

} // namespace runner
} // namespace ufc

#endif // UFC_RUNNER_RUNNER_H
