/**
 * @file
 * Process-wide metrics registry: counters, gauges, and log2-bucketed
 * histograms, with Prometheus text and `ufc.metrics/v1` JSON exposition.
 *
 * Per-opcode attribution and timelines make a single *run* explainable;
 * this registry makes the *system* observable: batch latency
 * percentiles, cache hit rates, thread-pool pressure, watchdog activity
 * — the signals a long-lived simulation service needs for admission
 * control and monitoring.  It is the one host-timing registry.  The
 * instrumented layers are the runner job lifecycle, runner::ProgramCache
 * (with its run memo), trace::TraceReader, the shared ThreadPool, and
 * the engine watchdog poll/trip points.
 *
 * ## Contract
 *
 * The layer is observation-only.  Metrics never influence scheduling,
 * caching decisions or any simulated observable: a run with metrics on is
 * bit-identical to a run with metrics off on cycles, energy, attribution,
 * timelines and error bytes (enforced by the `metrics` ctest label and
 * the CI metrics-differential job).  When off — the default — every
 * instrumentation site costs one relaxed atomic load and a predicted
 * branch.
 *
 * ## Thread safety
 *
 * The hot path is lock-free: recording is relaxed atomic arithmetic on
 * site-cached metric objects.  Registration (first use of a name) is
 * serialized behind a mutex; instruments are never freed, so a cached
 * `Counter &` stays valid for the process lifetime.  snapshot() performs
 * relaxed loads while recorders run: each scalar is read atomically and
 * counters are monotone, but cross-metric consistency is not guaranteed
 * (a histogram's sum may briefly lead or lag its buckets by one in-flight
 * record).
 *
 * ## Enabling
 *
 * UFC_METRICS=1 in the environment (read once, on first query), or
 * setEnabled() programmatically.  `sweep_all` enables the registry by
 * default (opt out with --no-metrics).
 */

#ifndef UFC_METRICS_METRICS_H
#define UFC_METRICS_METRICS_H

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string>

#include "common/types.h"

namespace ufc {
namespace metrics {

namespace detail {

/// -1 = unresolved (read UFC_METRICS on first query), 0/1 = resolved.
/// Constant-initialized so enabled() is safe during static init.
extern std::atomic<int> gState;

/// Slow path of enabled(): resolve from the environment, once.
bool initFromEnv();

} // namespace detail

/** Whether recording is on.  Hot path: one relaxed load + one branch. */
inline bool
enabled()
{
    const int s = detail::gState.load(std::memory_order_relaxed);
    if (s >= 0)
        return s != 0;
    return detail::initFromEnv();
}

/** Programmatic override (CLIs, tests; takes precedence over the env). */
void setEnabled(bool on);

/** Monotone event count.  Recording is a relaxed fetch_add. */
class Counter
{
  public:
    Counter(std::string name, std::string help)
        : name_(std::move(name)), help_(std::move(help))
    {}

    void
    inc(u64 n = 1)
    {
        if (enabled())
            v_.fetch_add(n, std::memory_order_relaxed);
    }

    u64 value() const { return v_.load(std::memory_order_relaxed); }
    const std::string &name() const { return name_; }
    const std::string &help() const { return help_; }

    void zero() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::string name_;
    std::string help_;
    std::atomic<u64> v_{0};
};

/** Point-in-time level plus its high-water mark (e.g. queue depth,
 *  peak buffered bytes).  set()/add() also raise the high-water mark. */
class Gauge
{
  public:
    Gauge(std::string name, std::string help)
        : name_(std::move(name)), help_(std::move(help))
    {}

    void
    set(i64 v)
    {
        if (!enabled())
            return;
        v_.store(v, std::memory_order_relaxed);
        raiseMax(v);
    }

    void
    add(i64 d)
    {
        if (!enabled())
            return;
        const i64 nv = v_.fetch_add(d, std::memory_order_relaxed) + d;
        raiseMax(nv);
    }

    void sub(i64 d) { add(-d); }

    i64 value() const { return v_.load(std::memory_order_relaxed); }
    i64
    highWater() const
    {
        return max_.load(std::memory_order_relaxed);
    }
    const std::string &name() const { return name_; }
    const std::string &help() const { return help_; }

    void
    zero()
    {
        v_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
    }

  private:
    void
    raiseMax(i64 v)
    {
        i64 cur = max_.load(std::memory_order_relaxed);
        while (v > cur &&
               !max_.compare_exchange_weak(cur, v,
                                           std::memory_order_relaxed)) {
        }
    }

    std::string name_;
    std::string help_;
    std::atomic<i64> v_{0};
    std::atomic<i64> max_{0};
};

/**
 * Log2-bucketed histogram over u64 samples (typically microseconds).
 * Bucket i holds samples whose bit width is i: bucket 0 is exactly the
 * value 0, bucket i >= 1 covers [2^(i-1), 2^i - 1], and bucket 64 ends
 * at the maximum u64.  Recording is two relaxed fetch_adds; percentiles
 * are derived from the bucket counts at read time (the reported value is
 * the upper bound of the bucket containing the requested rank, so it is
 * conservative by at most 2x).  sum() wraps modulo 2^64 like any u64
 * accumulator.
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 65;

    Histogram(std::string name, std::string help)
        : name_(std::move(name)), help_(std::move(help))
    {}

    static int
    bucketOf(u64 v)
    {
        return static_cast<int>(std::bit_width(v));
    }

    /** Inclusive upper bound of bucket i. */
    static u64
    bucketUpperBound(int i)
    {
        if (i <= 0)
            return 0;
        if (i >= 64)
            return ~u64{0};
        return (u64{1} << i) - 1;
    }

    void
    record(u64 v)
    {
        if (!enabled())
            return;
        buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }

    u64
    bucketCount(int i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }
    u64 count() const;
    u64 sum() const { return sum_.load(std::memory_order_relaxed); }

    /** Upper bound of the bucket holding the q-quantile sample
     *  (q in [0, 1]); 0 when the histogram is empty. */
    u64 percentile(double q) const;

    const std::string &name() const { return name_; }
    const std::string &help() const { return help_; }

    void zero();

  private:
    std::string name_;
    std::string help_;
    std::atomic<u64> buckets_[kBuckets] = {};
    std::atomic<u64> sum_{0};
};

/**
 * Look up (or create, on first use) a registry instrument.  Returned
 * references are valid for the process lifetime; instrumentation sites
 * cache them in a function-local static so the registry lock is taken
 * once per site.  Registering an existing name as a different instrument
 * type throws ufc::ConfigError.
 */
Counter &counter(const std::string &name, const std::string &help = "");
Gauge &gauge(const std::string &name, const std::string &help = "");
Histogram &histogram(const std::string &name,
                     const std::string &help = "");

/**
 * Write the whole registry in Prometheus text exposition format
 * (sorted by name; histograms as cumulative `_bucket{le="..."}` series
 * plus `_sum`/`_count`; gauges additionally expose a
 * `<name>_high_water` gauge).
 */
void writePrometheus(std::ostream &os);

/** Write the whole registry as one `ufc.metrics/v1` JSON object:
 *  {"schema":"ufc.metrics/v1","counters":{...},"gauges":{...},
 *   "histograms":{...}} — histograms carry count/sum/p50/p95/p99 and
 *  their non-empty buckets (non-cumulative, unlike Prometheus). */
void writeJson(std::ostream &os);

/** Schema identifier written by writeJson(). */
inline constexpr const char *kMetricsSchema = "ufc.metrics/v1";

/** File wrapper over writePrometheus(); throws ufc::ConfigError when
 *  the path cannot be opened. */
void savePrometheus(const std::string &path);

/** Zero every registered instrument and clear the flight recorder
 *  (registration survives).  Tests only — not synchronized against
 *  concurrent recorders beyond per-scalar atomicity. */
void resetForTest();

/** RAII timer recording its scope's duration in microseconds into a
 *  Histogram when metrics are on. */
class ScopedDurationUs
{
  public:
    explicit ScopedDurationUs(Histogram &h)
        : hist_(enabled() ? &h : nullptr)
    {
        if (hist_)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedDurationUs()
    {
        if (hist_) {
            const auto dt = std::chrono::steady_clock::now() - start_;
            hist_->record(static_cast<u64>(
                std::chrono::duration_cast<std::chrono::microseconds>(dt)
                    .count()));
        }
    }

    ScopedDurationUs(const ScopedDurationUs &) = delete;
    ScopedDurationUs &operator=(const ScopedDurationUs &) = delete;

  private:
    Histogram *hist_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace metrics
} // namespace ufc

#endif // UFC_METRICS_METRICS_H
