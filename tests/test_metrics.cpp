/**
 * @file
 * Metrics-layer tests: the process-wide registry (counters, gauges,
 * log2 histograms), the Prometheus / ufc.metrics-v1 expositions, the
 * flight recorder's wrap-around ordering, the ProgramCache eviction
 * bound, the runner's job metrics, and the guarantee that turning
 * metrics on changes no simulated result.
 *
 * Run as `ctest -L metrics` (the `metrics_suite` aggregate target); the
 * CI metrics-differential job additionally runs it under TSan, which is
 * what the concurrent snapshot/record tests are for.
 */

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "metrics/flight_recorder.h"
#include "metrics/metrics.h"
#include "runner/report.h"
#include "runner/runner.h"
#include "sim/accelerator.h"
#include "trace/trace.h"
#include "workloads/workloads.h"

namespace ufc {
namespace {

using metrics::Counter;
using metrics::EventKind;
using metrics::FlightRecorder;
using metrics::Gauge;
using metrics::Histogram;
using sim::RunOptions;
using sim::RunResult;

constexpr u64 kU64Max = ~u64{0};

/** A small hybrid trace exercising both schemes (same as the
 *  observability tests). */
trace::Trace
smallHybridTrace()
{
    return workloads::hybridKnn(ckks::CkksParams::c2(),
                                tfhe::TfheParams::t1(), 256, 16, 4);
}

/**
 * Every test in this file runs with metrics ON and a zeroed registry,
 * and leaves the process with metrics OFF and a zeroed registry so the
 * surrounding tests (which assume the default-off state) are
 * undisturbed.  The registry is process-global, so assertions on
 * metrics that instrumented layers also touch must be delta-based;
 * metrics with test-unique `ufc_test_*` names can assert absolutes.
 */
class MetricsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        metrics::setEnabled(true);
        metrics::resetForTest();
    }

    void
    TearDown() override
    {
        metrics::resetForTest();
        metrics::setEnabled(false);
    }
};

// ---------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------

TEST_F(MetricsTest, HistogramBucketMath)
{
    // Bucket 0 is exactly the value 0; bucket i >= 1 covers
    // [2^(i-1), 2^i - 1]; bucket 64 ends at the maximum u64.
    EXPECT_EQ(Histogram::bucketOf(0), 0);
    EXPECT_EQ(Histogram::bucketOf(1), 1);
    EXPECT_EQ(Histogram::bucketOf(2), 2);
    EXPECT_EQ(Histogram::bucketOf(3), 2);
    EXPECT_EQ(Histogram::bucketOf(4), 3);
    for (int i = 2; i < 64; ++i) {
        const u64 lo = u64{1} << (i - 1);
        EXPECT_EQ(Histogram::bucketOf(lo), i) << "lower edge of " << i;
        EXPECT_EQ(Histogram::bucketOf(2 * lo - 1), i)
            << "upper edge of " << i;
    }
    EXPECT_EQ(Histogram::bucketOf(kU64Max), 64);

    EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(Histogram::bucketUpperBound(2), 3u);
    EXPECT_EQ(Histogram::bucketUpperBound(10), 1023u);
    EXPECT_EQ(Histogram::bucketUpperBound(64), kU64Max);

    // bucketOf and bucketUpperBound agree: every upper bound lands in
    // its own bucket, and the next value lands in the next.
    for (int i = 0; i < 64; ++i) {
        const u64 ub = Histogram::bucketUpperBound(i);
        EXPECT_EQ(Histogram::bucketOf(ub), i);
        EXPECT_EQ(Histogram::bucketOf(ub + 1), i + 1);
    }
}

TEST_F(MetricsTest, HistogramRecordsEdgeValues)
{
    Histogram h("ufc_test_edges", "");
    h.record(0);
    h.record(1);
    h.record(kU64Max);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(64), 1u);
    EXPECT_EQ(h.count(), 3u);
}

TEST_F(MetricsTest, HistogramSumWrapsModulo64)
{
    Histogram h("ufc_test_wrap", "");
    h.record(kU64Max);
    h.record(2);
    // Documented modular behaviour, not an error: max + 2 == 1 mod 2^64.
    EXPECT_EQ(h.sum(), 1u);
    EXPECT_EQ(h.count(), 2u);
}

TEST_F(MetricsTest, HistogramPercentilesAreBucketUpperBounds)
{
    Histogram h("ufc_test_pct", "");
    EXPECT_EQ(h.percentile(0.5), 0u); // empty

    // 90 fast samples (value 1) and 10 slow ones (value 1000,
    // bucket 10, upper bound 1023).
    for (int i = 0; i < 90; ++i)
        h.record(1);
    for (int i = 0; i < 10; ++i)
        h.record(1000);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.percentile(0.50), 1u);
    EXPECT_EQ(h.percentile(0.90), 1u);    // rank 90 is the last fast one
    EXPECT_EQ(h.percentile(0.95), 1023u); // conservative upper bound
    EXPECT_EQ(h.percentile(0.99), 1023u);
    EXPECT_EQ(h.percentile(1.0), 1023u);
    // Out-of-range quantiles clamp instead of misbehaving.
    EXPECT_EQ(h.percentile(-0.5), 1u);
    EXPECT_EQ(h.percentile(2.0), 1023u);

    h.zero();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.99), 0u);
}

// ---------------------------------------------------------------------
// Counter / gauge semantics and the enabled() gate
// ---------------------------------------------------------------------

TEST_F(MetricsTest, CounterAndGaugeBasics)
{
    Counter c("ufc_test_ctr", "");
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);

    Gauge g("ufc_test_gauge", "");
    g.set(5);
    EXPECT_EQ(g.value(), 5);
    EXPECT_EQ(g.highWater(), 5);
    g.set(3); // dropping the level keeps the high-water mark
    EXPECT_EQ(g.value(), 3);
    EXPECT_EQ(g.highWater(), 5);
    g.add(10);
    EXPECT_EQ(g.value(), 13);
    EXPECT_EQ(g.highWater(), 13);
    g.sub(20);
    EXPECT_EQ(g.value(), -7);
    EXPECT_EQ(g.highWater(), 13);
}

TEST_F(MetricsTest, DisabledRecordingIsNoOp)
{
    Counter c("ufc_test_off_ctr", "");
    Gauge g("ufc_test_off_gauge", "");
    Histogram h("ufc_test_off_hist", "");

    metrics::setEnabled(false);
    c.inc(7);
    g.set(7);
    h.record(7);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(g.highWater(), 0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);

    metrics::setEnabled(true);
    c.inc(7);
    EXPECT_EQ(c.value(), 7u);
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST_F(MetricsTest, RegistryReturnsTheSameInstrumentPerName)
{
    Counter &a = metrics::counter("ufc_test_same_name");
    Counter &b = metrics::counter("ufc_test_same_name");
    EXPECT_EQ(&a, &b);
    a.inc(3);
    EXPECT_EQ(b.value(), 3u);
}

TEST_F(MetricsTest, RegistryRejectsCrossTypeNameClash)
{
    metrics::counter("ufc_test_clash");
    EXPECT_THROW(metrics::gauge("ufc_test_clash"), ConfigError);
    EXPECT_THROW(metrics::histogram("ufc_test_clash"), ConfigError);
    // The original registration is unharmed.
    EXPECT_NO_THROW(metrics::counter("ufc_test_clash").inc());
}

// ---------------------------------------------------------------------
// Exposition formats
// ---------------------------------------------------------------------

TEST_F(MetricsTest, PrometheusExposition)
{
    metrics::counter("ufc_test_prom_total", "Test events.").inc(3);
    metrics::gauge("ufc_test_prom_depth", "Test depth.").set(7);
    Histogram &h = metrics::histogram("ufc_test_prom_us", "Test lat.");
    h.record(1);
    h.record(1000);

    std::ostringstream os;
    metrics::writePrometheus(os);
    const std::string out = os.str();

    EXPECT_NE(out.find("# HELP ufc_test_prom_total Test events.\n"),
              std::string::npos) << out;
    EXPECT_NE(out.find("# TYPE ufc_test_prom_total counter\n"),
              std::string::npos) << out;
    EXPECT_NE(out.find("ufc_test_prom_total 3\n"), std::string::npos);

    EXPECT_NE(out.find("# TYPE ufc_test_prom_depth gauge\n"),
              std::string::npos);
    EXPECT_NE(out.find("ufc_test_prom_depth 7\n"), std::string::npos);
    EXPECT_NE(out.find("ufc_test_prom_depth_high_water 7\n"),
              std::string::npos);

    EXPECT_NE(out.find("# TYPE ufc_test_prom_us histogram\n"),
              std::string::npos);
    // Cumulative buckets: the value-1 bucket holds 1, the 1000 sample
    // lands in le="1023", and +Inf carries the total.
    EXPECT_NE(out.find("ufc_test_prom_us_bucket{le=\"1\"} 1\n"),
              std::string::npos) << out;
    EXPECT_NE(out.find("ufc_test_prom_us_bucket{le=\"1023\"} 2\n"),
              std::string::npos) << out;
    EXPECT_NE(out.find("ufc_test_prom_us_bucket{le=\"+Inf\"} 2\n"),
              std::string::npos) << out;
    EXPECT_NE(out.find("ufc_test_prom_us_sum 1001\n"), std::string::npos);
    EXPECT_NE(out.find("ufc_test_prom_us_count 2\n"), std::string::npos);
}

/** Minimal structural JSON check: balanced braces/brackets outside
 *  strings, and no trailing garbage. */
void
expectBalancedJson(const std::string &s)
{
    int depth = 0;
    bool inStr = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (inStr) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inStr = false;
            continue;
        }
        if (c == '"')
            inStr = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            --depth;
            ASSERT_GE(depth, 0) << s;
        }
    }
    EXPECT_FALSE(inStr) << s;
    EXPECT_EQ(depth, 0) << s;
}

TEST_F(MetricsTest, JsonSnapshotShape)
{
    metrics::counter("ufc_test_json_total").inc(5);
    metrics::gauge("ufc_test_json_depth").set(2);
    Histogram &h = metrics::histogram("ufc_test_json_us");
    h.record(0);
    h.record(9);

    std::ostringstream os;
    metrics::writeJson(os);
    const std::string out = os.str();

    expectBalancedJson(out);
    EXPECT_EQ(out.find("{\"schema\":\"ufc.metrics/v1\""), 0u) << out;
    EXPECT_NE(out.find("\"ufc_test_json_total\":5"), std::string::npos);
    EXPECT_NE(out.find(
                  "\"ufc_test_json_depth\":{\"value\":2,\"high_water\":2}"),
              std::string::npos) << out;
    // Histogram block: count/sum/percentiles plus the non-empty,
    // non-cumulative buckets keyed by inclusive upper bound.
    EXPECT_NE(out.find("\"ufc_test_json_us\":{\"count\":2,\"sum\":9"),
              std::string::npos) << out;
    EXPECT_NE(out.find("\"buckets\":{\"0\":1,\"15\":1}"),
              std::string::npos) << out;
}

// ---------------------------------------------------------------------
// Snapshot-while-recording (the TSan target)
// ---------------------------------------------------------------------

TEST_F(MetricsTest, SnapshotWhileRecordingIsRaceFree)
{
    Counter &c = metrics::counter("ufc_test_hammer_total");
    Histogram &h = metrics::histogram("ufc_test_hammer_us");
    Gauge &g = metrics::gauge("ufc_test_hammer_depth");

    constexpr int kThreads = 4;
    constexpr int kIters = 5000;
    std::atomic<bool> stop{false};

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                c.inc();
                h.record(static_cast<u64>(t * kIters + i));
                g.set(i);
            }
        });
    }
    // Concurrently snapshot both expositions while recorders run.
    std::thread snapshotter([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            std::ostringstream prom, js;
            metrics::writePrometheus(prom);
            metrics::writeJson(js);
            EXPECT_FALSE(prom.str().empty());
        }
    });
    for (auto &w : workers)
        w.join();
    stop.store(true, std::memory_order_relaxed);
    snapshotter.join();

    // Once the recorders are quiescent the totals are exact.
    EXPECT_EQ(c.value(), u64{kThreads} * kIters);
    EXPECT_EQ(h.count(), u64{kThreads} * kIters);
    EXPECT_EQ(g.highWater(), kIters - 1);
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST_F(MetricsTest, FlightRecorderFillsBelowCapacity)
{
    FlightRecorder fr(8);
    fr.record(EventKind::JobStart, "a");
    fr.record(EventKind::CacheHit, "b");
    fr.record(EventKind::JobOk, "c");
    EXPECT_EQ(fr.totalRecorded(), 3u);

    const auto t = fr.tail(8);
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0].seq, 0u);
    EXPECT_EQ(t[0].label, "a");
    EXPECT_EQ(t[2].seq, 2u);
    EXPECT_EQ(t[2].kind, EventKind::JobOk);
    // A short tail keeps only the newest.
    const auto t1 = fr.tail(1);
    ASSERT_EQ(t1.size(), 1u);
    EXPECT_EQ(t1[0].label, "c");
}

TEST_F(MetricsTest, FlightRecorderWrapAroundKeepsNewestInOrder)
{
    FlightRecorder fr(8);
    for (int i = 0; i < 20; ++i)
        fr.record(EventKind::CacheMiss,
                  std::string("e").append(std::to_string(i)));
    EXPECT_EQ(fr.totalRecorded(), 20u);

    // Only the last 8 survive the wrap, oldest first, in sequence order.
    const auto t = fr.tail(100);
    ASSERT_EQ(t.size(), 8u);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(t[i].seq, 12 + i);
        EXPECT_EQ(t[i].label, std::string("e").append(std::to_string(12 + i)));
    }
    // Timestamps are monotone with sequence numbers.
    for (std::size_t i = 1; i < t.size(); ++i)
        EXPECT_GE(t[i].nsSinceStart, t[i - 1].nsSinceStart);

    fr.clear();
    EXPECT_EQ(fr.totalRecorded(), 0u);
    EXPECT_TRUE(fr.tail(8).empty());
}

TEST_F(MetricsTest, FlightRecorderDisabledRecordsNothing)
{
    FlightRecorder fr(8);
    metrics::setEnabled(false);
    fr.record(EventKind::JobStart, "ghost");
    EXPECT_EQ(fr.totalRecorded(), 0u);
    EXPECT_TRUE(fr.tail(8).empty());
}

TEST_F(MetricsTest, FlightRecorderEventFormat)
{
    FlightRecorder fr(4);
    fr.record(EventKind::WatchdogTrip, "host_deadline", "cycles=42");
    const auto lines = fr.formatTail(4);
    ASSERT_EQ(lines.size(), 1u);
    // `#<seq> +<ms>ms <kind> <label> <detail>`
    EXPECT_EQ(lines[0].find("#0 +"), 0u) << lines[0];
    EXPECT_NE(lines[0].find("ms watchdog_trip host_deadline cycles=42"),
              std::string::npos) << lines[0];
}

// ---------------------------------------------------------------------
// ProgramCache eviction bound
// ---------------------------------------------------------------------

TEST_F(MetricsTest, ProgramCacheEvictsFifoAtBound)
{
    const auto model = std::make_shared<sim::UfcModel>();
    // Three content-distinct traces => three distinct cache keys.
    const auto t1 = smallHybridTrace();
    const auto t2 = workloads::hybridKnn(ckks::CkksParams::c2(),
                                         tfhe::TfheParams::t1(), 256, 8, 4);
    const auto t3 = workloads::hybridKnn(ckks::CkksParams::c2(),
                                         tfhe::TfheParams::t1(), 256, 16, 2);

    const u64 evictBefore =
        metrics::counter("ufc_program_cache_evictions_total").value();

    runner::ProgramCache cache(2);
    const auto p1 = cache.get(*model, t1);
    const auto p2 = cache.get(*model, t2);
    ASSERT_NE(p1, nullptr);
    ASSERT_NE(p2, nullptr);
    EXPECT_EQ(cache.compiles(), 2u);
    EXPECT_EQ(cache.evictions(), 0u);

    // Same key twice is a hit, not an insert — nothing is evicted.
    (void)cache.get(*model, t2);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.evictions(), 0u);

    // A third key exceeds the bound and evicts the oldest (t1).
    (void)cache.get(*model, t3);
    EXPECT_EQ(cache.compiles(), 3u);
    EXPECT_EQ(cache.evictions(), 1u);

    // t1 was evicted: fetching it again re-compiles (deterministically,
    // so the Program is equivalent) rather than hitting.
    const auto p1b = cache.get(*model, t1);
    ASSERT_NE(p1b, nullptr);
    EXPECT_EQ(cache.compiles(), 4u);
    EXPECT_EQ(cache.hits(), 1u);

    // The registry counter moved with the member counter.
    EXPECT_GE(
        metrics::counter("ufc_program_cache_evictions_total").value(),
        evictBefore + 2); // t1 evicted, then t2 evicted by t1's return
}

TEST_F(MetricsTest, ProgramCacheUnboundedNeverEvicts)
{
    const auto model = std::make_shared<sim::UfcModel>();
    runner::ProgramCache cache; // maxEntries = 0: unbounded
    (void)cache.get(*model, smallHybridTrace());
    (void)cache.get(*model,
                    workloads::hybridKnn(ckks::CkksParams::c2(),
                                         tfhe::TfheParams::t1(), 256, 8,
                                         4));
    (void)cache.get(*model, smallHybridTrace());
    EXPECT_EQ(cache.compiles(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.evictions(), 0u);
}

// ---------------------------------------------------------------------
// Metrics change nothing (differential)
// ---------------------------------------------------------------------

TEST(MetricsDifferential, ModelRunBitIdenticalOnVsOff)
{
    const auto tr = smallHybridTrace();
    const sim::UfcModel model;

    metrics::setEnabled(false);
    const std::string off = model.run(tr).toJson();

    metrics::setEnabled(true);
    metrics::resetForTest();
    const std::string on = model.run(tr).toJson();
    metrics::resetForTest();
    metrics::setEnabled(false);

    // Every serialized observable — cycles, energy, stalls, attribution
    // — is byte-identical.  (hostSeconds is 0 on both sides: only the
    // runner fills it.)
    EXPECT_EQ(off, on);
}

TEST(MetricsDifferential, RunnerBatchBitIdenticalOnVsOff)
{
    const auto model = std::make_shared<sim::UfcModel>();
    const auto knn = std::make_shared<trace::Trace>(smallHybridTrace());
    const auto pbs = std::make_shared<trace::Trace>(
        workloads::pbsThroughput(tfhe::TfheParams::t1(), 64));
    std::vector<runner::Job> jobs;
    jobs.push_back({"knn", model, knn, RunOptions{}, ""});
    jobs.push_back({"pbs", model, pbs, RunOptions{}, ""});

    runner::RunnerConfig cfg;
    cfg.threads = 2;

    metrics::setEnabled(false);
    auto off = runner::ExperimentRunner(cfg).run(jobs);

    metrics::setEnabled(true);
    metrics::resetForTest();
    auto on = runner::ExperimentRunner(cfg).run(jobs);
    metrics::resetForTest();
    metrics::setEnabled(false);

    ASSERT_EQ(on.size(), off.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
        // Host wall-clock is the one field allowed to differ.
        off[i].hostSeconds = on[i].hostSeconds = 0.0;
        EXPECT_EQ(off[i].toJson(), on[i].toJson()) << off[i].label;
        EXPECT_EQ(off[i].toCsvRow(), on[i].toCsvRow()) << off[i].label;
    }
}

// ---------------------------------------------------------------------
// Runner integration: report envelope and failure post-mortem
// ---------------------------------------------------------------------

TEST_F(MetricsTest, RunOneCountsAndTimesEveryJob)
{
    // ufc_serve's workers call runOne() directly, not through runAll():
    // their jobs must land in the same counters and latency histogram.
    runner::Job job;
    job.label = "direct";
    job.model = std::make_shared<sim::UfcModel>();
    job.trace = std::make_shared<const trace::Trace>(smallHybridTrace());
    const runner::ExperimentRunner runner;
    runner::ProgramCache cache;
    constexpr u64 kJobs = 3;
    for (u64 i = 0; i < kJobs; ++i) {
        sim::RunResult result;
        runner::JobOutcome outcome;
        runner.runOne(job, i, result, outcome, &cache);
        ASSERT_TRUE(outcome.ok()) << outcome.message;
    }
    EXPECT_EQ(metrics::counter("ufc_runner_jobs_total").value(), kJobs);
    EXPECT_EQ(metrics::counter("ufc_runner_jobs_ok_total").value(), kJobs);
    EXPECT_EQ(metrics::histogram("ufc_runner_job_duration_us").count(),
              kJobs);
}

TEST_F(MetricsTest, EngineStepsCountEveryDynamicInstruction)
{
    // ufc_engine_steps_total is recorded once per engine run with the
    // run's instCount, so over a batch of distinct jobs (no run-memo
    // hit) it is the sum of the results' instruction counts.
    const auto ufcm = std::make_shared<sim::UfcModel>();
    const auto sharp = std::make_shared<sim::SharpModel>();
    std::vector<runner::Job> jobs;
    jobs.push_back({"knn", ufcm,
                    std::make_shared<trace::Trace>(smallHybridTrace()),
                    RunOptions{}, ""});
    jobs.push_back({"pbs", ufcm,
                    std::make_shared<trace::Trace>(workloads::pbsThroughput(
                        tfhe::TfheParams::t1(), 64)),
                    RunOptions{}, ""});
    jobs.push_back({"helr", sharp,
                    std::make_shared<trace::Trace>(
                        workloads::helr(ckks::CkksParams::c2(), 2)),
                    RunOptions{}, ""});
    const runner::BatchResult batch = runner::ExperimentRunner().runAll(jobs);
    ASSERT_TRUE(batch.allOk());
    u64 insts = 0;
    for (const sim::RunResult &r : batch.results)
        insts += r.stats.instCount;
    EXPECT_GT(insts, 0u);
    EXPECT_EQ(metrics::counter("ufc_engine_steps_total").value(), insts);
}

TEST_F(MetricsTest, BatchReportEmbedsMetricsBlockOnlyWhenOn)
{
    const auto model = std::make_shared<sim::UfcModel>();
    const auto tr = std::make_shared<trace::Trace>(smallHybridTrace());
    // Two jobs sharing one (model, trace) pair: the runner arms the
    // batch ProgramCache only for genuinely shared programs.
    std::vector<runner::Job> jobs;
    jobs.push_back({"knn-a", model, tr, RunOptions{}, ""});
    jobs.push_back({"knn-b", model, tr, RunOptions{}, ""});
    const runner::ExperimentRunner runner;

    // Metrics on: the ufc.report/v2 envelope carries a metrics block
    // with the runner latency histogram and cache counters.
    const auto batchOn = runner.runAll(jobs);
    std::ostringstream on;
    runner::writeJsonReport(batchOn, on, runner::ReportMeta{});
    expectBalancedJson(on.str());
    EXPECT_NE(on.str().find("\"metrics\":{\"schema\":\"ufc.metrics/v1\""),
              std::string::npos) << on.str();
    EXPECT_NE(on.str().find("\"ufc_runner_jobs_total\":2"),
              std::string::npos) << on.str();
    EXPECT_NE(on.str().find("\"ufc_runner_job_duration_us\""),
              std::string::npos) << on.str();
    // One compile, one reuse across the shared pair.
    EXPECT_NE(on.str().find("\"ufc_program_cache_misses_total\":1"),
              std::string::npos) << on.str();
    EXPECT_NE(on.str().find("\"ufc_program_cache_hits_total\":1"),
              std::string::npos) << on.str();
    // The pair's two identical runs went through the run memo.
    EXPECT_NE(on.str().find("\"ufc_run_memo_misses_total\":"),
              std::string::npos) << on.str();
    EXPECT_NE(on.str().find("\"ufc_run_memo_hits_total\":"),
              std::string::npos) << on.str();

    // Metrics off: byte-stable v2 envelope with no metrics block.
    metrics::setEnabled(false);
    const auto batchOff = runner.runAll(jobs);
    std::ostringstream off;
    runner::writeJsonReport(batchOff, off, runner::ReportMeta{});
    expectBalancedJson(off.str());
    EXPECT_EQ(off.str().find("\"metrics\":"), std::string::npos);
}

TEST_F(MetricsTest, FailedJobCarriesFlightRecorderTail)
{
    const auto model = std::make_shared<sim::UfcModel>();
    const auto good = std::make_shared<trace::Trace>(smallHybridTrace());
    std::vector<runner::Job> jobs;
    jobs.push_back({"ok-job", model, good, RunOptions{}, ""});
    // traceFile is loaded inside the job's isolation: a missing file
    // fails only this job.
    jobs.push_back(
        {"bad-job", model, nullptr, RunOptions{}, "/nonexistent.ufctrace"});

    runner::RunnerConfig cfg;
    cfg.threads = 1;
    const auto batch = runner::ExperimentRunner(cfg).runAll(jobs);

    ASSERT_EQ(batch.outcomes.size(), 2u);
    EXPECT_TRUE(batch.outcomes[0].ok());
    EXPECT_TRUE(batch.outcomes[0].recentEvents.empty());

    const auto &bad = batch.outcomes[1];
    ASSERT_FALSE(bad.ok());
    ASSERT_FALSE(bad.recentEvents.empty());
    // The tail ends with this job's own failure event and includes the
    // neighbouring job lifecycle for context.
    const std::string &last = bad.recentEvents.back();
    EXPECT_NE(last.find("job_failed bad-job"), std::string::npos) << last;
    bool sawNeighbour = false;
    for (const auto &line : bad.recentEvents)
        if (line.find("ok-job") != std::string::npos)
            sawNeighbour = true;
    EXPECT_TRUE(sawNeighbour);

    // The failure report serializes the tail as "recent_events".
    std::ostringstream os;
    runner::writeJsonReport(batch, os, runner::ReportMeta{});
    expectBalancedJson(os.str());
    EXPECT_NE(os.str().find("\"recent_events\":["), std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("job_failed bad-job"), std::string::npos);
}

TEST_F(MetricsTest, FailedJobWithMetricsOffHasNoEvents)
{
    metrics::setEnabled(false);
    const auto model = std::make_shared<sim::UfcModel>();
    std::vector<runner::Job> jobs;
    jobs.push_back(
        {"bad-job", model, nullptr, RunOptions{}, "/nonexistent.ufctrace"});
    const auto batch = runner::ExperimentRunner().runAll(jobs);
    ASSERT_EQ(batch.outcomes.size(), 1u);
    ASSERT_FALSE(batch.outcomes[0].ok());
    EXPECT_TRUE(batch.outcomes[0].recentEvents.empty());
}

} // namespace
} // namespace ufc
