/**
 * @file
 * Fault-tolerance tests: the typed error hierarchy, per-job isolation
 * and retry in the experiment runner, the maxCycles watchdog, the
 * hardened trace parser (malformed-input corpus, inline and on-disk),
 * deterministic fault injection, and the batch report's failures block.
 *
 * The acceptance test for the PR lives here: a sweep containing one
 * corrupt trace, one invalid RunOptions, and one watchdog-tripping job
 * completes all remaining jobs bit-identically to a clean run, reports
 * the three failures in structured output, and makes the batch non-ok.
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/fault.h"
#include "runner/report.h"
#include "runner/runner.h"
#include "sim/bc_engine.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

#include "hand_built.h"

namespace ufc {
namespace {

using runner::BatchResult;
using runner::ExperimentRunner;
using runner::Job;
using runner::JobStatus;
using runner::RunnerConfig;
using trace::OpKind;
using trace::Trace;

/** Small CKKS trace that lowers and simulates in microseconds. */
Trace
smallTrace(const std::string &name, int limbs, int muls)
{
    Trace tr;
    tr.name = name;
    workloads::setCkksParams(tr, ckks::CkksParams::c1());
    tr.beginPhase("body");
    for (int i = 0; i < muls; ++i)
        tr.push(OpKind::CkksMult, limbs, /*count=*/1, /*fanIn=*/2,
                /*keyId=*/1);
    tr.push(OpKind::CkksAdd, limbs, /*count=*/2, /*fanIn=*/2,
            /*keyId=*/0);
    tr.endPhase();
    return tr;
}

/** A job with default RunOptions, built member by member: GCC 12 at
 *  -O3 reports the aggregate Job{label, model, trace, {}, file} as
 *  reading RunOptions::label uninitialized (-Wmaybe-uninitialized). */
Job
makeJob(std::string label, std::shared_ptr<const sim::AcceleratorModel> model,
        std::shared_ptr<const Trace> trace, std::string traceFile = "")
{
    Job job;
    job.label = std::move(label);
    job.model = std::move(model);
    job.trace = std::move(trace);
    job.traceFile = std::move(traceFile);
    return job;
}

std::string
serialized(const Trace &tr)
{
    std::stringstream ss;
    trace::writeTrace(tr, ss);
    return ss.str();
}

std::string
writeTempFile(const std::string &name, const std::string &text)
{
    // Per-process name: ctest runs this binary concurrently.
    const std::string path =
        testing::TempDir() + std::to_string(::getpid()) + "_" + name;
    std::ofstream os(path);
    os << text;
    EXPECT_TRUE(os.good()) << path;
    return path;
}

/** Expect readTrace(text) to throw TraceError whose message contains
 *  `needle`. */
void
expectTraceError(const std::string &text, const std::string &needle)
{
    std::stringstream ss(text);
    try {
        trace::readTrace(ss);
        FAIL() << "expected TraceError containing '" << needle
               << "' for input:\n" << text;
    } catch (const TraceError &e) {
        EXPECT_EQ(e.kind(), "TraceError");
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message was: " << e.what();
    }
}

/** The simulated (host-independent) fields two runs must share bit-for-
 *  bit. */
void
expectIdenticalSimulated(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.stats.totalCycles, b.stats.totalCycles);
    EXPECT_EQ(a.stats.instCount, b.stats.instCount);
    EXPECT_EQ(a.stats.hbmBytes, b.stats.hbmBytes);
}

// ---------------------------------------------------------------------------
// Typed error hierarchy.

TEST(Robustness, ErrorHierarchyAndKinds)
{
    EXPECT_EQ(TraceError("x").kind(), "TraceError");
    EXPECT_EQ(ConfigError("x").kind(), "ConfigError");
    EXPECT_EQ(SimError("x").kind(), "SimError");
    // TimeoutError is a SimError (the watchdog satellite requires the
    // watchdog to surface as SimError) distinguished by catch type.
    EXPECT_EQ(TimeoutError("x").kind(), "SimError");

    // Every typed error is catchable as ufc::Error and std::exception.
    try {
        UFC_THROW(TraceError, "value " << 42);
        FAIL();
    } catch (const Error &e) {
        EXPECT_EQ(e.kind(), "TraceError");
        EXPECT_NE(std::string(e.what()).find("value 42"),
                  std::string::npos);
    }
    EXPECT_THROW(UFC_EXPECT(false, ConfigError, "nope"), ConfigError);
    EXPECT_NO_THROW(UFC_EXPECT(true, ConfigError, "nope"));
}

TEST(Robustness, InvalidRunOptionsThrowConfigError)
{
    sim::RunOptions bad;
    bad.prefetchWindow = -5;
    EXPECT_THROW(sim::validateRunOptions(bad), ConfigError);
    sim::UfcModel m;
    const auto tr = smallTrace("badopts", 4, 1);
    EXPECT_THROW(m.run(tr, bad), ConfigError);
}

// ---------------------------------------------------------------------------
// maxCycles watchdog (satellite c): serial and parallel.

TEST(Robustness, MaxCyclesWatchdogTripsSerially)
{
    sim::UfcModel m;
    const auto tr = smallTrace("watchdog", 16, 8);
    sim::RunOptions opts;
    opts.maxCycles = 10; // any real lowering exceeds 10 cycles
    EXPECT_THROW(m.run(tr, opts), SimError);
    try {
        m.run(tr, opts);
        FAIL();
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("maxCycles watchdog"),
                  std::string::npos)
            << e.what();
    }
    // Unlimited (default) still completes.
    EXPECT_NO_THROW(m.run(tr));
}

TEST(Robustness, MaxCyclesWatchdogTripsInParallelBatch)
{
    const auto model = std::make_shared<sim::UfcModel>();
    const auto good = std::make_shared<const Trace>(smallTrace("g", 4, 2));
    const auto hung = std::make_shared<const Trace>(smallTrace("h", 16, 8));

    std::vector<Job> jobs;
    for (int i = 0; i < 3; ++i)
        jobs.push_back(makeJob("ok" + std::to_string(i), model, good));
    Job watchdog = makeJob("watchdog", model, hung);
    watchdog.options.maxCycles = 10;
    jobs.push_back(watchdog);

    RunnerConfig cfg;
    cfg.threads = 2;
    cfg.maxRetries = 3; // must NOT be applied to timeouts
    const auto batch = ExperimentRunner(cfg).runAll(jobs);

    ASSERT_EQ(batch.outcomes.size(), 4u);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(batch.outcomes[i].ok()) << batch.outcomes[i].message;
    const auto &oc = batch.outcomes[3];
    EXPECT_EQ(oc.status, JobStatus::TimedOut);
    EXPECT_EQ(oc.errorKind, "SimError");
    EXPECT_EQ(oc.attempts, 1); // timeouts are never retried
    EXPECT_EQ(batch.failureCount(), 1u);
    EXPECT_THROW(batch.throwFirstFailure(), TimeoutError);
}

// ---------------------------------------------------------------------------
// Runner isolation, job validation, retry.

// ---------------------------------------------------------------------
// Tick range: hand-built Programs with huge cost rows, run on the
// engine directly.

/** One Stream instruction of `row`, executed `trips` times. */
compiler::Program
hugeRowProgram(const compiler::CostRow &row, u64 trips)
{
    compiler::Program p;
    p.workload = "huge";
    p.machine = "unit";
    p.shapes.edit().push_back(compiler::CostShape{});
    p.costs.push_back(row);
    p.code.edit().push_back(compiler::BcInst{});
    if (trips > 1)
        p.loops.edit().push_back(compiler::BcLoop{1, 1, trips});
    countShapes(p);
    return p;
}

sim::RunStats
runEngine(const compiler::Program &p, u64 maxCycles = 0)
{
    sim::BytecodeEngine engine(&p, sim::BytecodeEngine::kDefaultPrefetchWindow);
    engine.setMaxCycles(maxCycles);
    return engine.run();
}

/** The SimError `fn` throws; fails the test if it throws none or a
 *  TimeoutError (the watchdog, not the range guard). */
template <typename Fn>
std::string
rangeError(Fn &&fn)
{
    try {
        fn();
    } catch (const TimeoutError &e) {
        ADD_FAILURE() << "watchdog tripped instead: " << e.what();
        return "";
    } catch (const SimError &e) {
        return e.what();
    }
    ADD_FAILURE() << "no SimError";
    return "";
}

TEST(Robustness, ClockPastTickRangeThrowsSimError)
{
    // Four instructions of the largest term reach the clock limit
    // exactly; the fifth would pass it.
    compiler::CostRow row;
    row.computeTicks = sim::kMaxTermTicks;
    EXPECT_EQ(runEngine(hugeRowProgram(row, 4)).totalCycles,
              4.0 * sim::fromTicks(sim::kMaxTermTicks));
    for (const u64 maxCycles : {u64{0}, UINT64_MAX})
        EXPECT_NE(rangeError([&] {
                      runEngine(hugeRowProgram(row, 5), maxCycles);
                  }).find("tick range"),
                  std::string::npos);
    // A term past the per-instruction limit is refused before running.
    row.computeTicks = sim::kMaxTermTicks + 1;
    EXPECT_NE(rangeError([&] { runEngine(hugeRowProgram(row, 1)); })
                  .find("tick range"),
              std::string::npos);
}

TEST(Robustness, AccumulatorPastTickRangeThrowsSimError)
{
    // The clock stays tiny, but sixteen executions of the largest NoC
    // term sum past 2^64 ticks.
    compiler::CostRow row;
    row.computeTicks = 1;
    row.nocTicks = sim::kMaxTermTicks;
    EXPECT_NE(rangeError([&] { runEngine(hugeRowProgram(row, 16)); })
                  .find("tick range"),
              std::string::npos);
    EXPECT_NO_THROW(runEngine(hugeRowProgram(row, 7)));
}

TEST(Robustness, MaxCyclesSaturatesInTicks)
{
    // 2^44 cycles per instruction, four instructions: 2^46 cycles.
    compiler::CostRow row;
    row.computeTicks = sim::kMaxTermTicks >> 1;
    const compiler::Program p = hugeRowProgram(row, 4);
    const double cycles = 4.0 * sim::fromTicks(row.computeTicks);
    // UINT64_MAX cycles converts to a saturated tick bound: never trips.
    EXPECT_EQ(runEngine(p, UINT64_MAX).totalCycles, cycles);
    EXPECT_EQ(runEngine(p, u64{1} << 46).totalCycles, cycles);
    // One cycle less trips on the fourth instruction.
    try {
        runEngine(p, (u64{1} << 46) - 1);
        ADD_FAILURE() << "maxCycles did not trip";
    } catch (const TimeoutError &e) {
        EXPECT_NE(std::string(e.what()).find("after 4 instructions"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Robustness, JobMustSetExactlyOneTraceSource)
{
    const auto model = std::make_shared<sim::UfcModel>();
    const auto tr = std::make_shared<const Trace>(smallTrace("t", 4, 1));

    Job neither = makeJob("neither", model, nullptr);
    Job both = makeJob("both", model, tr, "/tmp/also-a-file");
    const auto batch = ExperimentRunner().runAll({neither, both});
    for (const auto &oc : batch.outcomes) {
        EXPECT_EQ(oc.status, JobStatus::Failed);
        EXPECT_EQ(oc.errorKind, "ConfigError");
        EXPECT_NE(oc.message.find("exactly one"), std::string::npos)
            << oc.message;
    }
}

TEST(Robustness, InjectedFaultsRetryDeterministically)
{
    const auto model = std::make_shared<sim::UfcModel>();
    const auto tr = std::make_shared<const Trace>(smallTrace("t", 4, 1));
    std::vector<Job> jobs;
    for (int i = 0; i < 4; ++i)
        jobs.push_back(
            makeJob("retry/" + std::to_string(i), model, tr));

    int retriedOk = 0;
    for (u64 seed = 1; seed <= 5; ++seed) {
        const FaultInjector faults(seed, /*jobFailProb=*/0.5);
        RunnerConfig cfg;
        cfg.threads = 2;
        cfg.maxRetries = 8;
        cfg.faults = &faults;
        const ExperimentRunner exec(cfg);
        const auto batch = exec.runAll(jobs);

        for (const auto &oc : batch.outcomes) {
            if (oc.status == JobStatus::RetriedOk) {
                ++retriedOk;
                // The retry diagnostic keeps the last failure.
                EXPECT_EQ(oc.errorKind, "SimError");
                EXPECT_GT(oc.attempts, 1);
            } else if (!oc.ok()) {
                // Only possible by exhausting every attempt on the
                // injected fault.
                EXPECT_EQ(oc.errorKind, "SimError");
                EXPECT_EQ(oc.attempts, 9);
            }
        }

        // Determinism: same seed, same config => same outcome statuses,
        // regardless of thread count.
        RunnerConfig serialCfg = cfg;
        serialCfg.threads = 1;
        const auto again = ExperimentRunner(serialCfg).runAll(jobs);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(batch.outcomes[i].status, again.outcomes[i].status);
            EXPECT_EQ(batch.outcomes[i].attempts,
                      again.outcomes[i].attempts);
        }
    }
    EXPECT_GE(retriedOk, 1) << "fault injection never exercised a retry";
}

// ---------------------------------------------------------------------------
// The PR acceptance test: faulty sweep == clean sweep + 3 contained
// failures, serial and parallel.

TEST(Robustness, FaultySweepMatchesCleanSweepAndReportsFailures)
{
    const auto model = std::make_shared<sim::UfcModel>();
    std::vector<Job> clean;
    for (int i = 0; i < 4; ++i) {
        const auto tr = std::make_shared<const Trace>(
            smallTrace("w" + std::to_string(i), 4 + i, 1 + i));
        clean.push_back(
            makeJob("clean/" + std::to_string(i), model, tr));
    }

    // Reference: the clean batch, serial.
    RunnerConfig serialCfg;
    serialCfg.threads = 1;
    const auto reference = ExperimentRunner(serialCfg).runAll(clean);
    ASSERT_TRUE(reference.allOk());

    // The faulty batch: clean jobs plus three poisoned ones.
    std::vector<Job> faulty = clean;

    const std::string corruptPath = writeTempFile(
        "ufc_corrupt.ufctrace",
        "xfctrace 3\n" + serialized(smallTrace("c", 4, 1)).substr(11));
    Job corrupt =
        makeJob("bad/corrupt-trace", model, nullptr, corruptPath);
    faulty.push_back(corrupt);

    Job badOpts =
        makeJob("bad/run-options", model,
                std::make_shared<const Trace>(smallTrace("b", 4, 1)));
    badOpts.options.prefetchWindow = -5;
    faulty.push_back(badOpts);

    Job watchdog =
        makeJob("bad/watchdog", model,
                std::make_shared<const Trace>(smallTrace("wd", 16, 8)));
    watchdog.options.maxCycles = 10;
    faulty.push_back(watchdog);

    for (const int threads : {1, 4}) {
        RunnerConfig cfg;
        cfg.threads = threads;
        const auto batch = ExperimentRunner(cfg).runAll(faulty);

        // The batch completed: every slot has an outcome.
        ASSERT_EQ(batch.outcomes.size(), faulty.size());
        EXPECT_FALSE(batch.allOk());
        EXPECT_EQ(batch.failureCount(), 3u);

        // Every clean job succeeded, bit-identically to the clean run.
        for (std::size_t i = 0; i < clean.size(); ++i) {
            ASSERT_TRUE(batch.outcomes[i].ok())
                << batch.outcomes[i].message;
            expectIdenticalSimulated(batch.results[i],
                                     reference.results[i]);
        }

        // The three failures carry the expected typed kinds.
        const auto &corruptOc = batch.outcomes[clean.size()];
        EXPECT_EQ(corruptOc.status, JobStatus::Failed);
        EXPECT_EQ(corruptOc.errorKind, "TraceError");

        const auto &optsOc = batch.outcomes[clean.size() + 1];
        EXPECT_EQ(optsOc.status, JobStatus::Failed);
        EXPECT_EQ(optsOc.errorKind, "ConfigError");

        const auto &wdOc = batch.outcomes[clean.size() + 2];
        EXPECT_EQ(wdOc.status, JobStatus::TimedOut);
        EXPECT_EQ(wdOc.errorKind, "SimError");

        // Structured report: schema v2 with a 3-entry failures block.
        std::ostringstream json;
        runner::writeJsonReport(batch, json);
        const std::string doc = json.str();
        EXPECT_NE(doc.find("\"schema\":\"ufc.report/v2\""),
                  std::string::npos);
        EXPECT_NE(doc.find("\"failure_count\":3"), std::string::npos);
        EXPECT_NE(doc.find("\"label\":\"bad/corrupt-trace\""),
                  std::string::npos);
        EXPECT_NE(doc.find("\"error_kind\":\"TraceError\""),
                  std::string::npos);
        EXPECT_NE(doc.find("\"status\":\"timed_out\""),
                  std::string::npos);

        std::ostringstream csv;
        runner::writeCsvReport(batch, csv);
        EXPECT_NE(csv.str().find(",status,attempts,error_kind,error"),
                  std::string::npos);
        EXPECT_NE(csv.str().find("timed_out"), std::string::npos);

        // A fail-fast caller still gets a typed error (=> nonzero exit).
        EXPECT_THROW(batch.throwFirstFailure(), Error);
    }
}

// ---------------------------------------------------------------------------
// Batch report / result-set edge cases.

TEST(Robustness, ReportRefusesUnwritablePath)
{
    const runner::BatchResult none;
    EXPECT_THROW(
        runner::saveJsonReport(none, "/nonexistent-dir/out.json"),
        ConfigError);
    EXPECT_THROW(runner::saveCsvReport(none, "/nonexistent-dir/out.csv"),
                 ConfigError);
}

TEST(Robustness, ResultSetRejectsDuplicateAndMissingLabels)
{
    sim::RunResult a;
    a.label = "same";
    EXPECT_THROW(runner::ResultSet({a, a}), ConfigError);
    const runner::ResultSet rs({a});
    EXPECT_THROW(rs.at("absent"), ConfigError);
}

TEST(Robustness, EmptyBatchReportIsWellFormed)
{
    const BatchResult empty;
    std::ostringstream json;
    runner::writeJsonReport(empty, json);
    EXPECT_NE(json.str().find("\"failure_count\":0"), std::string::npos);
    EXPECT_NE(json.str().find("\"failures\":[]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Malformed-trace corpus (satellite d), inline for v2 and v3.

std::string
header(int version, const std::string &name = "x")
{
    return "ufctrace " + std::to_string(version) + "\ntrace " + name +
           "\nckks 65536 44 1 3 54\ntfhe 1024 630 2 8 32\nlive 16\n";
}

TEST(TraceCorpus, TruncatedInput)
{
    for (const int v : {2, 3}) {
        expectTraceError(header(v), "missing 'end' marker");
        expectTraceError("ufctrace " + std::to_string(v),
                         "missing 'end' marker");
        // Mid-line truncation of a header field.
        expectTraceError("ufctrace " + std::to_string(v) +
                             "\ntrace x\nckks 65536 44\nend\n",
                         "malformed ckks header line");
    }
    expectTraceError("", "missing 'end' marker");
}

TEST(TraceCorpus, BadMagic)
{
    expectTraceError("xfctrace 3\ntrace x\nend\n", "missing 'ufctrace'");
    expectTraceError("trace legacy\nend\n", "missing 'ufctrace'");
}

TEST(TraceCorpus, WrongVersion)
{
    expectTraceError("ufctrace 1\ntrace x\nend\n",
                     "unsupported trace format version 1");
    expectTraceError("ufctrace 99\ntrace x\nend\n",
                     "unsupported trace format version 99");
    expectTraceError("ufctrace banana\ntrace x\nend\n",
                     "unsupported trace format version");
}

TEST(TraceCorpus, OutOfRangeOpcodeAndFields)
{
    for (const int v : {2, 3}) {
        expectTraceError(header(v) + "op bogus.op 1 1 0 0\nend\n",
                         "unknown trace op");
        expectTraceError(header(v) + "op ckks.add -1 1 0 0\nend\n",
                         "op field out of range");
        expectTraceError(header(v) + "op ckks.add 1 0 0 0\nend\n",
                         "op field out of range");
        expectTraceError(header(v) + "op ckks.add 9999999 1 0 0\nend\n",
                         "op field out of range");
        expectTraceError(header(v) + "op ckks.add 1 1 0\nend\n",
                         "malformed op line");
    }
    expectTraceError(
        "ufctrace 2\ntrace x\nckks 999999999999 44 1 3 54\nend\n",
        "ckks parameter out of range");
    expectTraceError("ufctrace 2\ntrace x\nckks 65536 44 1 3 999\nend\n",
                     "ckks parameter out of range");
}

TEST(TraceCorpus, DuplicateHeaderLines)
{
    expectTraceError("ufctrace 2\ntrace x\ntrace y\nend\n",
                     "duplicate 'trace' header");
    expectTraceError("ufctrace 2\ntrace x\nckks 1024 4 1 3 54\n"
                     "ckks 1024 4 1 3 54\nend\n",
                     "duplicate 'ckks' header");
    expectTraceError("ufctrace 2\ntrace x\nlive 4\nlive 4\nend\n",
                     "duplicate 'live' header");
}

TEST(TraceCorpus, PhaseMarkerCorruption)
{
    // Phase lines are a v3 feature.
    expectTraceError(header(2) + "phase begin 0 boot\nphase end 0\nend\n",
                     "phase markers require trace format v3");
    // Duplicate begin marker.
    expectTraceError(header(3) + "op ckks.add 1 1 0 0\n"
                                 "phase begin 0 boot\n"
                                 "phase begin 0 boot\nphase end 1\n"
                                 "phase end 1\nend\n",
                     "duplicate phase marker");
    // Unbalanced regions, both directions.
    expectTraceError(header(3) + "phase begin 0 boot\nend\n",
                     "unclosed phase region");
    expectTraceError(header(3) + "phase end 0\nend\n",
                     "without an open region");
    // Markers must be non-decreasing in opIndex.
    expectTraceError(header(3) + "op ckks.add 1 1 0 0\n"
                                 "phase begin 1 a\nphase end 1\n"
                                 "phase begin 0 b\nphase end 0\nend\n",
                     "out of order");
    // Marker index past the end of the op stream.
    expectTraceError(header(3) + "phase begin 5 late\nphase end 5\nend\n",
                     "past the end of the op stream");
}

TEST(TraceCorpus, GarbageTagRejected)
{
    expectTraceError(header(2) + "zzz 3 1 4 1 5\nend\n",
                     "unknown trace line tag");
}

TEST(TraceCorpus, ValidV2AndV3StillLoad)
{
    // v2: no phase lines.
    std::stringstream v2(header(2) + "op ckks.mult 8 1 2 1\nend\n");
    const Trace t2 = trace::readTrace(v2);
    EXPECT_EQ(t2.ops.size(), 1u);
    EXPECT_TRUE(t2.phases.empty());

    // v3: interleaved phase lines, including the legal
    // identical-consecutive-end shape emitted by nested regions.
    std::stringstream v3(header(3) +
                         "phase begin 0 outer\nphase begin 0 inner\n"
                         "op ckks.mult 8 1 2 1\nop ckks.add 8 1 2 0\n"
                         "phase end 2\nphase end 2\nend\n");
    const Trace t3 = trace::readTrace(v3);
    EXPECT_EQ(t3.ops.size(), 2u);
    EXPECT_EQ(t3.phases.size(), 4u);

    // Round trip of a generator-built trace (writer emits the current
    // version).
    std::stringstream rt(serialized(smallTrace("rt", 4, 2)));
    EXPECT_NO_THROW(trace::readTrace(rt));
}

// Fixture corpus on disk (satellite d + CLI tests share these files).
TEST(TraceCorpus, FixtureFiles)
{
    const std::string dir = UFC_FIXTURE_DIR;
    EXPECT_NO_THROW(trace::loadTrace(dir + "/valid_small.ufctrace"));
    for (const char *f :
         {"truncated_header", "bad_magic", "bad_version", "bad_opcode",
          "dup_phase"}) {
        EXPECT_THROW(
            trace::loadTrace(dir + "/" + std::string(f) + ".ufctrace"),
            TraceError)
            << f;
    }
    EXPECT_THROW(trace::loadTrace(dir + "/does_not_exist.ufctrace"),
                 TraceError);
}

// ---------------------------------------------------------------------------
// Deterministic fault injection.

TEST(FaultInjector, DecisionsAreDeterministicAndSeedDependent)
{
    const FaultInjector a(7, 0.5);
    const FaultInjector b(7, 0.5);
    const FaultInjector c(8, 0.5);
    int aFails = 0, diffs = 0;
    for (int i = 0; i < 64; ++i) {
        const std::string label = "job/" + std::to_string(i);
        for (int attempt = 1; attempt <= 3; ++attempt) {
            const bool fa = a.shouldFailJob(label, attempt);
            EXPECT_EQ(fa, b.shouldFailJob(label, attempt));
            aFails += fa;
            diffs += fa != c.shouldFailJob(label, attempt);
        }
    }
    // p=0.5 over 192 draws: both some failures and some seed-dependent
    // divergence are certain for any sane hash.
    EXPECT_GT(aFails, 0);
    EXPECT_LT(aFails, 192);
    EXPECT_GT(diffs, 0);
}

TEST(FaultInjector, ProbabilityEdges)
{
    const FaultInjector never(1, 0.0);
    const FaultInjector always(1, 1.0);
    for (int i = 0; i < 16; ++i) {
        const std::string label = std::to_string(i);
        EXPECT_FALSE(never.shouldFailJob(label, 1));
        EXPECT_TRUE(always.shouldFailJob(label, 1));
    }
    EXPECT_NO_THROW(never.maybeFailJob("x", 1));
    EXPECT_THROW(always.maybeFailJob("x", 1), SimError);
}

TEST(FaultInjector, CorruptedTracesParseOrThrowNeverAbort)
{
    const std::string good = serialized(smallTrace("fuzz", 6, 3));
    const FaultInjector faults(2026, 0.0);
    int rejected = 0;
    for (u64 salt = 0; salt < 96; ++salt) {
        const std::string hostile = faults.corruptTraceText(good, salt);
        // Determinism: the same (seed, salt) yields the same bytes.
        EXPECT_EQ(hostile, faults.corruptTraceText(good, salt));
        std::stringstream ss(hostile);
        try {
            trace::readTrace(ss); // some corruptions stay parseable
        } catch (const TraceError &) {
            ++rejected; // the only acceptable failure mode
        }
    }
    // The corpus must actually bite: most corruption modes invalidate
    // the file.
    EXPECT_GT(rejected, 32);
}

} // namespace
} // namespace ufc
