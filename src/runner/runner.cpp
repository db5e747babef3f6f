/**
 * @file
 * Experiment runner implementation, built on the shared fork-join pool
 * in common/parallel.h.  Each worker claims the next unstarted job and
 * writes its result into the job's slot, so completion order never
 * affects output order.  A fresh pool is built per batch with the
 * configured thread count; kernel-level parallelFor calls issued from
 * inside a job run inline on the job's worker (see parallel.h), so the
 * runner's thread budget is the true process concurrency.
 *
 * Fault isolation: runOne() wraps one job attempt in a catch-all, maps
 * the error to a JobOutcome (typed kind + message), and applies the
 * bounded retry policy.  Exceptions never cross the pool boundary
 * (parallelFor would terminate), and a failed job's slot holds a
 * labelled placeholder so reports stay aligned with the job list.
 */

#include "runner/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "analysis/analyzer.h"
#include "analysis/cost_bounds.h"
#include "analysis/domains.h"
#include "common/error.h"
#include "compiler/bytecode.h"
#include "common/parallel.h"
#include "metrics/flight_recorder.h"
#include "metrics/metrics.h"
#include "trace/serialize.h"

namespace ufc {
namespace runner {

namespace {

/// Serializes --progress stderr lines: stdio does not guarantee that
/// concurrent fprintf calls cannot interleave characters, so completion
/// lines from different workers go through one lock.
std::mutex gProgressMutex;

/// How many flight-recorder events a failed job attaches to its outcome.
constexpr std::size_t kFailureEventTail = 16;

/// Registry instruments for the batch job lifecycle, resolved once.
struct RunnerMetrics
{
    metrics::Counter &jobs = metrics::counter(
        "ufc_runner_jobs_total", "Jobs executed by the experiment runner");
    metrics::Counter &jobsOk = metrics::counter(
        "ufc_runner_jobs_ok_total", "Jobs that succeeded first try");
    metrics::Counter &jobsRetried = metrics::counter(
        "ufc_runner_jobs_retried_total",
        "Jobs that succeeded after at least one retry");
    metrics::Counter &jobsFailed = metrics::counter(
        "ufc_runner_jobs_failed_total", "Jobs whose every attempt failed");
    metrics::Counter &jobsTimeout = metrics::counter(
        "ufc_runner_jobs_timeout_total",
        "Jobs cancelled by the deadline/watchdog");
    metrics::Counter &retries = metrics::counter(
        "ufc_runner_retries_total", "Extra attempts after a failed one");
    metrics::Histogram &jobUs = metrics::histogram(
        "ufc_runner_job_duration_us",
        "Per-job wall clock in microseconds, retries included");
};

RunnerMetrics &
runnerMetrics()
{
    static RunnerMetrics *m = new RunnerMetrics(); // never freed
    return *m;
}

/// Registry instruments for the batch-scoped ProgramCache.
struct ProgramCacheMetrics
{
    metrics::Counter &hits = metrics::counter(
        "ufc_program_cache_hits_total",
        "Program-cache requests served from an installed entry");
    metrics::Counter &misses = metrics::counter(
        "ufc_program_cache_misses_total",
        "Program-cache requests that triggered a compile");
    metrics::Counter &recosts = metrics::counter(
        "ufc_program_cache_recosts_total",
        "Program-cache requests served by re-costing an installed body");
    metrics::Counter &evictions = metrics::counter(
        "ufc_program_cache_evictions_total",
        "Program-cache entries dropped by the maxEntries bound");
    metrics::Gauge &entries = metrics::gauge(
        "ufc_program_cache_entries",
        "Entries in the most recently touched program cache");
};

ProgramCacheMetrics &
programCacheMetrics()
{
    static ProgramCacheMetrics *m = new ProgramCacheMetrics();
    return *m;
}

/// Registry instruments for the ProgramCache run memo.
struct RunMemoMetrics
{
    metrics::Counter &hits = metrics::counter(
        "ufc_run_memo_hits_total",
        "Runs answered with a memoized result of an identical run");
    metrics::Counter &misses = metrics::counter(
        "ufc_run_memo_misses_total",
        "Runs executed because no identical run was memoized");
};

RunMemoMetrics &
runMemoMetrics()
{
    static RunMemoMetrics *m = new RunMemoMetrics();
    return *m;
}

} // namespace

std::shared_ptr<const compiler::Program>
ProgramCache::get(const sim::AcceleratorModel &model,
                  const trace::Trace &tr)
{
    return slot(model, tr,
                Key{model.loweringKey(tr), trace::contentHash(tr)})
        .program;
}

void
ProgramCache::limitUses(const Key &key, u64 uses)
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_[key].usesLeft = uses;
}

ProgramCache::Slot
ProgramCache::slot(const sim::AcceleratorModel &model,
                   const trace::Trace &tr, const Key &key)
{
    enum class Action { Hit, Compile, Recost };
    std::promise<std::shared_ptr<const compiler::Program>> promise;
    Future entry;
    std::shared_ptr<RunMemo> memo;
    Future source; // Recost: the installed Program to re-cost
    Action action = Action::Hit;
    u64 evicted = 0;
    std::size_t entryCount = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = entries_.try_emplace(key).first;
        Entry &e = it->second;
        for (const Served &sv : e.programs) {
            if (sv.model == &model) {
                entry = sv.program;
                memo = sv.memo;
                break;
            }
        }
        if (entry.valid()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
        } else {
            entry = promise.get_future().share();
            if (e.programs.empty()) {
                action = Action::Compile;
                e.lowered = entry;
                order_.push_back(key);
            } else {
                action = Action::Recost;
                source = e.lowered;
            }
            memo = std::make_shared<RunMemo>();
            e.programs.push_back({&model, entry, memo});
        }
        // Multiplicity-aware retention: the key's last expected user
        // takes the entry out, so its body dies with that job's Program.
        if (e.usesLeft > 0 && --e.usesLeft == 0) {
            order_.erase(std::find(order_.begin(), order_.end(), key));
            entries_.erase(it);
        }
        // FIFO eviction: drop the oldest entry while over the bound.
        // Evicting an in-flight compile is safe — waiters hold their
        // own shared_future copies — and the key can be re-inserted
        // (and re-compiled) later; compilation is deterministic, so
        // only host time changes.
        while (maxEntries_ > 0 && order_.size() > maxEntries_) {
            entries_.erase(order_.front());
            order_.pop_front();
            evictions_.fetch_add(1, std::memory_order_relaxed);
            ++evicted;
        }
        entryCount = order_.size();
    }

    if (metrics::enabled()) {
        ProgramCacheMetrics &m = programCacheMetrics();
        switch (action) {
          case Action::Hit: m.hits.inc(); break;
          case Action::Compile: m.misses.inc(); break;
          case Action::Recost: m.recosts.inc(); break;
        }
        if (evicted > 0)
            m.evictions.inc(evicted);
        m.entries.set(static_cast<i64>(entryCount));
        metrics::flightRecorder().record(
            action == Action::Hit ? metrics::EventKind::CacheHit
                                  : metrics::EventKind::CacheMiss,
            "program_cache",
            std::string(action == Action::Recost ? "recost " : "") +
                "workload=" + tr.name);
        if (evicted > 0)
            metrics::flightRecorder().record(
                metrics::EventKind::CacheEvict, "program_cache",
                "evicted=" + std::to_string(evicted));
    }

    // The first requester of a (key, model) pair builds its Program
    // outside the lock (so unrelated keys are not serialized behind a
    // slow compile) and publishes it — or the typed error — to everyone
    // waiting on the shared future.
    if (action != Action::Hit) {
        try {
            if (action == Action::Compile) {
                compiles_.fetch_add(1, std::memory_order_relaxed);
                promise.set_value(std::make_shared<const compiler::Program>(
                    model.compileWithHash(tr, key.trace)));
            } else {
                recosts_.fetch_add(1, std::memory_order_relaxed);
                const std::shared_ptr<const compiler::Program> lowered =
                    source.get(); // rethrows the key's compile error
                promise.set_value(std::make_shared<const compiler::Program>(
                    model.recost(*lowered)));
            }
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return {entry.get(), std::move(memo)};
}

sim::RunResult
ProgramCache::run(const sim::AcceleratorModel &model, const Slot &slot,
                  const sim::RunOptions &opts)
{
    // A timeline is filled by the run itself, so only a real run can
    // serve it.
    if (opts.timeline != nullptr)
        return model.execute(*slot.program, opts);

    const RunKey key{sim::resolvedPrefetchWindow(opts), opts.maxCycles};
    RunMemo &memo = *slot.memo;
    {
        std::lock_guard<std::mutex> lock(memo.mu);
        for (const auto &[k, stored] : memo.runs) {
            if (k == key) {
                runHits_.fetch_add(1, std::memory_order_relaxed);
                if (metrics::enabled())
                    runMemoMetrics().hits.inc();
                sim::RunResult r = stored;
                r.label = opts.label;
                return r;
            }
        }
    }
    runMisses_.fetch_add(1, std::memory_order_relaxed);
    if (metrics::enabled())
        runMemoMetrics().misses.inc();

    // Executed outside the lock; a throw propagates before the store,
    // so a failing run re-derives its error on every repeat.  Racing
    // misses compute identical results and the first store wins.
    sim::RunResult r = model.execute(*slot.program, opts);
    std::lock_guard<std::mutex> lock(memo.mu);
    const bool stored = std::any_of(
        memo.runs.begin(), memo.runs.end(),
        [&](const auto &held) { return held.first == key; });
    if (!stored) {
        if (memo.runs.size() == kMaxRunsPerProgram)
            memo.runs.erase(memo.runs.begin());
        memo.runs.emplace_back(key, r);
    }
    return r;
}

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok: return "ok";
      case JobStatus::RetriedOk: return "retried_ok";
      case JobStatus::Failed: return "failed";
      case JobStatus::TimedOut: return "timed_out";
      case JobStatus::Skipped: return "skipped";
    }
    return "unknown";
}

std::size_t
BatchResult::failureCount() const
{
    std::size_t n = 0;
    for (const auto &oc : outcomes)
        if (!oc.ok())
            ++n;
    return n;
}

bool
BatchResult::interrupted() const
{
    for (const auto &oc : outcomes)
        if (oc.status == JobStatus::Skipped)
            return true;
    return false;
}

std::vector<sim::RunResult>
BatchResult::okResults() const
{
    std::vector<sim::RunResult> out;
    out.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        if (outcomes[i].ok())
            out.push_back(results[i]);
    return out;
}

void
BatchResult::throwFirstFailure() const
{
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const auto &oc = outcomes[i];
        if (oc.ok())
            continue;
        const std::string msg = "job '" + results[i].label +
                                "' " + jobStatusName(oc.status) +
                                " after " + std::to_string(oc.attempts) +
                                " attempt(s): " + oc.message;
        if (oc.status == JobStatus::TimedOut)
            throw TimeoutError(msg);
        if (oc.status == JobStatus::Skipped)
            throw SimError(msg);
        if (oc.errorKind == "TraceError")
            throw TraceError(msg);
        if (oc.errorKind == "ConfigError")
            throw ConfigError(msg);
        throw SimError(msg);
    }
}

ExperimentRunner::ExperimentRunner(const RunnerConfig &cfg) : cfg_(cfg) {}

int
ExperimentRunner::effectiveThreads(std::size_t jobs) const
{
    int t = cfg_.threads;
    if (t <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        t = hw > 0 ? static_cast<int>(hw) : 1;
    }
    if (static_cast<std::size_t>(t) > jobs)
        t = static_cast<int>(jobs);
    return t < 1 ? 1 : t;
}

void
ExperimentRunner::runOne(const Job &job, std::size_t index,
                         sim::RunResult &result, JobOutcome &outcome,
                         ProgramCache *cache,
                         const ProgramCache::Key *key) const
{
    const int maxAttempts = 1 + (cfg_.maxRetries > 0 ? cfg_.maxRetries
                                                     : 0);
    const std::string label =
        !job.label.empty() ? job.label
                           : "job#" + std::to_string(index);

    // Every job is counted and timed here, retries included, whether
    // runAll() or a service worker called in.
    RunnerMetrics &m = runnerMetrics();
    const metrics::ScopedDurationUs jobTimer(m.jobUs);
    if (metrics::enabled()) {
        m.jobs.inc();
        metrics::flightRecorder().record(metrics::EventKind::JobStart,
                                         label);
    }

    for (int attempt = 1; attempt <= maxAttempts; ++attempt) {
        outcome.attempts = attempt;
        if (attempt > 1 && metrics::enabled()) {
            m.retries.inc();
            metrics::flightRecorder().record(metrics::EventKind::JobRetry,
                                             label,
                                             "attempt=" +
                                                 std::to_string(attempt));
        }
        try {
            UFC_EXPECT(job.model != nullptr, ConfigError,
                       "runner job '" << label << "' has no model");
            UFC_EXPECT((job.trace != nullptr) != !job.traceFile.empty(),
                       ConfigError,
                       "runner job '" << label
                           << "' must set exactly one of trace and "
                              "traceFile");
            if (cfg_.faults)
                cfg_.faults->maybeFailJob(label, attempt);

            // Deserialization happens inside the isolation boundary so
            // a corrupt file fails this job, not the batch.
            std::shared_ptr<const trace::Trace> tr = job.trace;
            if (!tr)
                tr = std::make_shared<const trace::Trace>(
                    trace::loadTrace(job.traceFile));

            // Opt-in static-analysis pre-flight: a semantically corrupt
            // trace fails fast as a typed TraceError (carrying the
            // first diagnostic) instead of mis-simulating.  Trace-level
            // passes only — instruction-level verification depends on
            // the model's lowering options, and ufc_lint covers it
            // offline.
            if (job.options.lintTraces || job.options.dataflowLint) {
                static const analysis::Analyzer linter;
                const analysis::DiagnosticReport rep =
                    job.options.dataflowLint ? linter.analyzeDataflow(*tr)
                                             : linter.analyze(*tr);
                if (const analysis::Diagnostic *first =
                        rep.firstError()) {
                    throw TraceError(
                        "lint failed for trace '" + tr->name + "' (" +
                        std::to_string(rep.errorCount()) +
                        " error(s)): " + first->format());
                }
            }

            sim::RunOptions opts = job.options;
            if (opts.label.empty())
                opts.label = label;
            if (cfg_.jobTimeoutSeconds > 0.0)
                opts.hostDeadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            cfg_.jobTimeoutSeconds));

            const auto t0 = std::chrono::steady_clock::now();
            // Bad options fail before paying for a compile, as in the
            // run() shim; execute() re-validates.
            sim::validateRunOptions(opts);
            ProgramCache::Slot slot;
            if (cache) {
                // Lower-once path: sibling jobs share the Program (same
                // model) or its body (equal lowering key).
                slot = cache->slot(
                    *job.model, *tr,
                    key ? *key
                        : ProgramCache::Key{job.model->loweringKey(*tr),
                                            trace::contentHash(*tr)});
            } else {
                slot.program = std::make_shared<const compiler::Program>(
                    job.model->compile(*tr));
            }
            const compiler::Program *program = slot.program.get();
            if (job.options.dataflowLint) {
                // Program-level rules on the cached bytecode (the
                // trace-level dataflow passes already ran in the
                // pre-flight above — no re-lowering).
                analysis::DiagnosticReport rep;
                compiler::verifyProgram(*program, rep);
                analysis::runProgramDataflow(*program, rep);
                if (const analysis::Diagnostic *first = rep.firstError()) {
                    throw TraceError("dataflow lint failed for program '" +
                                     program->workload + "' (" +
                                     std::to_string(rep.errorCount()) +
                                     " error(s)): " + first->format());
                }
            }
            analysis::CostBounds bounds;
            if (job.options.boundsCheck)
                bounds = analysis::analyzeCostBounds(*program);
            result = cache ? cache->run(*job.model, slot, opts)
                           : job.model->execute(*program, opts);
            if (job.options.boundsCheck) {
                outcome.boundsChecked = true;
                outcome.cyclesLower = bounds.cyclesLower;
                outcome.cyclesUpper = bounds.cyclesUpper;
                outcome.hbmLower = bounds.hbmLower;
                outcome.hbmUpper = bounds.hbmUpper;
                const double cycles = result.stats.totalCycles;
                const double hbm = result.stats.hbmBytes;
                UFC_EXPECT(cycles >= bounds.cyclesLower &&
                               cycles <= bounds.cyclesUpper,
                           SimError,
                           "static cycle bound violated for '"
                               << label << "': dynamic " << cycles
                               << " outside [" << bounds.cyclesLower
                               << ", " << bounds.cyclesUpper << "]");
                UFC_EXPECT(hbm >= bounds.hbmLower && hbm <= bounds.hbmUpper,
                           SimError,
                           "static HBM bound violated for '"
                               << label << "': dynamic " << hbm
                               << " outside [" << bounds.hbmLower << ", "
                               << bounds.hbmUpper << "]");
            }
            result.hostSeconds = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count();
            // On a retry success, keep the previous failure's
            // kind/message as the captured diagnostic.
            outcome.status = attempt == 1 ? JobStatus::Ok
                                          : JobStatus::RetriedOk;
            if (metrics::enabled()) {
                (attempt == 1 ? m.jobsOk : m.jobsRetried).inc();
                metrics::flightRecorder().record(
                    metrics::EventKind::JobOk, label,
                    attempt == 1 ? std::string()
                                 : "attempt=" + std::to_string(attempt));
            }
            return;
        } catch (const TimeoutError &e) {
            // Deadline/watchdog trips are terminal: retrying a hung job
            // would hang again.
            outcome.status = JobStatus::TimedOut;
            outcome.errorKind = e.kind();
            outcome.message = e.what();
            break;
        } catch (const Error &e) {
            outcome.status = JobStatus::Failed;
            outcome.errorKind = e.kind();
            outcome.message = e.what();
        } catch (const std::exception &e) {
            outcome.status = JobStatus::Failed;
            outcome.errorKind = "std::exception";
            outcome.message = e.what();
        }
        // Capped exponential backoff with deterministic jitter before
        // the next attempt (common/backoff.h) — a correlated transient
        // fault gets time to clear.  Sleeping only affects host
        // wall-clock, never simulated results.
        if (attempt < maxAttempts)
            backoffSleep(cfg_.retryBackoff, label, attempt);
    }
    // All attempts failed (or timed out): leave a labelled placeholder
    // so result slots stay aligned with the job list.
    result = sim::RunResult{};
    result.label = label;
    if (job.model)
        result.machine = job.model->name();
    if (job.trace)
        result.workload = job.trace->name;
    if (metrics::enabled()) {
        const bool timedOut = outcome.status == JobStatus::TimedOut;
        (timedOut ? m.jobsTimeout : m.jobsFailed).inc();
        metrics::flightRecorder().record(
            timedOut ? metrics::EventKind::JobTimeout
                     : metrics::EventKind::JobFailed,
            label, outcome.errorKind);
        // Attach the post-mortem: the recorder's recent tail, including
        // this job's own terminal event.
        outcome.recentEvents =
            metrics::flightRecorder().formatTail(kFailureEventTail);
    }
}

BatchResult
ExperimentRunner::runAll(const std::vector<Job> &jobs) const
{
    BatchResult batch;
    batch.results.resize(jobs.size());
    batch.outcomes.resize(jobs.size());

    std::atomic<std::size_t> jobsDone{0};
    // Batch-scoped: the jobs' shared_ptrs keep every model alive for at
    // least as long as the cache (see ProgramCache lifetime contract).
    ProgramCache cache;
    // Register the cache series even when no job ends up sharing a
    // program (a scrape should see the counters at zero, not miss the
    // series entirely).
    if (metrics::enabled()) {
        (void)programCacheMetrics();
        (void)runMemoMetrics();
    }

    // Key every job with an eager trace up front, hashing each trace
    // object once; the key feeds the cache lookup, the use count below
    // and Program::traceHash.  A Program (and its body) is only
    // worth retaining until the last job with its key has fetched it:
    // the cache drops each key after its counted uses, so a singleton's
    // Program dies with its job — the allocator then recycles those
    // already-faulted pages for the next compile — and the batch peak
    // RSS stays bounded by the bodies still waiting for users.  (A
    // retried job fetches again; at worst that re-lowers a sibling's
    // key, which costs host time only.)
    std::vector<ProgramCache::Key> keys(jobs.size());
    std::vector<char> keyed(jobs.size(), 0);
    {
        std::unordered_map<const trace::Trace *, u64> traceHashes;
        std::unordered_map<ProgramCache::Key, u64, ProgramCache::KeyHash>
            uses;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const Job &job = jobs[i];
            if (!job.model || !job.trace)
                continue;
            const auto [it, fresh] =
                traceHashes.try_emplace(job.trace.get(), 0);
            if (fresh)
                it->second = trace::contentHash(*job.trace);
            keys[i] = {job.model->loweringKey(*job.trace), it->second};
            keyed[i] = 1;
            ++uses[keys[i]];
        }
        for (const auto &[key, n] : uses)
            cache.limitUses(key, n);
    }

    ThreadPool pool(effectiveThreads(jobs.size()));
    pool.parallelFor(jobs.size(), [&](std::size_t i) {
        // Cooperative cancellation (SIGINT/SIGTERM in sweep_all): jobs
        // not yet started are marked Skipped so the partial report
        // still accounts for every job, and in-flight siblings finish
        // normally — their results stay bit-identical to an
        // uninterrupted run.
        if (cfg_.cancelFlag &&
            cfg_.cancelFlag->load(std::memory_order_relaxed)) {
            auto &oc = batch.outcomes[i];
            oc.status = JobStatus::Skipped;
            oc.attempts = 0;
            oc.errorKind = "Interrupted";
            oc.message = "batch cancelled before this job started";
            auto &r = batch.results[i];
            r = sim::RunResult{};
            r.label = !jobs[i].label.empty()
                          ? jobs[i].label
                          : "job#" + std::to_string(i);
            return;
        }
        // Per-job wall clock (retries included) for the --progress
        // line; read only when progress is on.
        const auto t0 = cfg_.progress
                            ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
        runOne(jobs[i], i, batch.results[i], batch.outcomes[i],
               keyed[i] ? &cache : nullptr, keyed[i] ? &keys[i] : nullptr);
        if (cfg_.progress) {
            const double wallMs = std::chrono::duration<double, std::milli>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count();
            const std::size_t done =
                jobsDone.fetch_add(1, std::memory_order_relaxed) + 1;
            const auto &r = batch.results[i];
            const auto &oc = batch.outcomes[i];
            // One line per completed job, serialized so concurrent
            // completions cannot interleave characters.
            std::lock_guard<std::mutex> lock(gProgressMutex);
            if (oc.ok()) {
                std::fprintf(stderr,
                             "[%zu/%zu] %s status=%s machine=%s "
                             "workload=%s wall_ms=%.1f\n",
                             done, jobs.size(), r.label.c_str(),
                             jobStatusName(oc.status),
                             r.machine.c_str(), r.workload.c_str(),
                             wallMs);
            } else {
                std::fprintf(stderr,
                             "[%zu/%zu] %s status=%s attempts=%d "
                             "wall_ms=%.1f error=%s: %s\n",
                             done, jobs.size(), r.label.c_str(),
                             jobStatusName(oc.status), oc.attempts,
                             wallMs, oc.errorKind.c_str(),
                             oc.message.c_str());
            }
        }
    });
    return batch;
}

std::vector<sim::RunResult>
ExperimentRunner::run(const std::vector<Job> &jobs) const
{
    BatchResult batch = runAll(jobs);
    batch.throwFirstFailure();
    return std::move(batch.results);
}

ResultSet::ResultSet(std::vector<sim::RunResult> results)
    : results_(std::move(results))
{
    for (std::size_t i = 0; i < results_.size(); ++i) {
        if (results_[i].label.empty())
            continue;
        const bool fresh =
            byLabel_.emplace(results_[i].label, i).second;
        UFC_EXPECT(fresh, ConfigError,
                   "duplicate run label: " << results_[i].label);
    }
}

const sim::RunResult &
ResultSet::at(const std::string &label) const
{
    const auto it = byLabel_.find(label);
    UFC_EXPECT(it != byLabel_.end(), ConfigError,
               "no run labelled: " << label);
    return results_[it->second];
}

bool
ResultSet::contains(const std::string &label) const
{
    return byLabel_.find(label) != byLabel_.end();
}

std::string
jobLabel(const std::string &sweep, const std::string &group,
         const std::string &workload, const std::string &machine)
{
    return sweep + "/" + group + "/" + workload + "/" + machine;
}

} // namespace runner
} // namespace ufc
