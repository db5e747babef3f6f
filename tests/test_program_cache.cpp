/**
 * @file
 * Coverage for the ProgramCache: single-use (model, trace) pairs must
 * release their compiled Program at job end instead of retaining it for
 * the whole batch (asserted via the live-Program instance counter), a
 * concurrent shared_future get() of one pair must compile exactly once,
 * the run memo must answer exact repeats bit-identically and nothing
 * else, and BcLoop repeat folding at trip-count edge values must execute
 * identically to the unrolled stream.
 */

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "compiler/bytecode.h"
#include "runner/runner.h"
#include "sim/accelerator.h"
#include "sim/bc_engine.h"
#include "sim/timeline.h"
#include "sim/ufc_perf.h"
#include "workloads/workloads.h"

namespace ufc {
namespace {

using runner::ExperimentRunner;
using runner::Job;
using runner::ProgramCache;
using runner::RunnerConfig;
using sim::UfcModel;

TEST(ProgramCacheGaps, ConcurrentGetCompilesExactlyOnce)
{
    // Many threads race get() on one (model, trace) pair: the first
    // requester installs a shared future and compiles outside the map
    // lock, the rest must block on it — exactly one compile, one shared
    // instance.  Run under -DUFC_SANITIZE=thread to certify the
    // synchronization, not just the counters.
    const auto model = std::make_shared<UfcModel>();
    const auto tr = std::make_shared<trace::Trace>(
        workloads::ckksBootstrapping(ckks::CkksParams::c1()));

    constexpr int kThreads = 8;
    ProgramCache cache;
    std::vector<std::shared_ptr<const compiler::Program>> got(kThreads);
    {
        std::vector<std::thread> pool;
        pool.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t)
            pool.emplace_back(
                [&, t] { got[t] = cache.get(*model, *tr); });
        for (auto &th : pool)
            th.join();
    }
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(got[t], nullptr) << t;
        EXPECT_EQ(got[t].get(), got[0].get()) << t;
    }
    EXPECT_EQ(cache.compiles(), 1u);
    EXPECT_EQ(cache.hits(), static_cast<u64>(kThreads - 1));
}

TEST(ProgramCacheGaps, CompileErrorCachedAndRethrownToAll)
{
    // A deterministic compile failure is cached too: every requester
    // gets the same typed error and the compile runs once.
    const auto model = std::make_shared<sim::SharpModel>();
    const auto tr = std::make_shared<trace::Trace>(
        workloads::pbsThroughput(tfhe::TfheParams::t4(), 16));
    ProgramCache cache;
    for (int attempt = 0; attempt < 3; ++attempt)
        EXPECT_THROW((void)cache.get(*model, *tr), ConfigError)
            << attempt;
    EXPECT_EQ(cache.compiles(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(ProgramCacheGaps, SingleUseJobsReleaseTheirPrograms)
{
    // A batch of all-distinct (model, trace) pairs gains nothing from
    // retention: each job must compile, run and free its Program before
    // the batch ends, so the allocator can recycle those pages.  With
    // retention the peak live count would grow by ~one Program per job;
    // single-use jobs must keep it flat (composed models make several
    // Program instances per compile, hence the loose bound).
    const auto cp = ckks::CkksParams::c1();
    const auto tp = tfhe::TfheParams::t4();
    std::vector<Job> jobs;
    const auto add = [&](const trace::Trace &tr) {
        Job job;
        job.label = "single/" + tr.name;
        job.model = std::make_shared<UfcModel>();
        job.trace = std::make_shared<trace::Trace>(tr);
        jobs.push_back(std::move(job));
    };
    add(workloads::helr(cp, 2));
    add(workloads::ckksBootstrapping(cp));
    add(workloads::sorting(cp, 256));
    add(workloads::pbsThroughput(tp, 16));
    add(workloads::hybridKnn(cp, tp, 64));
    add(workloads::resnet20(cp));

    const u64 liveBefore = compiler::livePrograms();
    compiler::resetPeakLivePrograms();
    RunnerConfig cfg;
    cfg.threads = 1; // deterministic peak: one job in flight at a time
    const auto batch = ExperimentRunner(cfg).runAll(jobs);
    EXPECT_TRUE(batch.allOk());

    // Nothing may survive the batch...
    EXPECT_EQ(compiler::livePrograms(), liveBefore);
    // ...and the in-flight peak must stay near one job's worth of
    // Programs, far below the sum a retaining cache would accumulate
    // (each job's compile makes >= 1 Program; retention across these 6
    // jobs would push the peak past liveBefore + 6).
    EXPECT_LE(compiler::peakLivePrograms(), liveBefore + 3);
}

TEST(ProgramCacheGaps, SharedPairsRetainUntilBatchEnd)
{
    // Counter-case: two jobs sharing one (model, trace) pair go through
    // the cache, which holds the Program for the batch; it must still
    // be freed once the batch (and its cache) is gone.
    const auto model = std::make_shared<UfcModel>();
    const auto tr = std::make_shared<trace::Trace>(
        workloads::ckksBootstrapping(ckks::CkksParams::c1()));
    std::vector<Job> jobs(2);
    jobs[0].label = "shared/a";
    jobs[0].model = model;
    jobs[0].trace = tr;
    jobs[1].label = "shared/b";
    jobs[1].model = model;
    jobs[1].trace = tr;
    jobs[1].options.prefetchWindow = 0; // distinct options, same Program

    const u64 liveBefore = compiler::livePrograms();
    RunnerConfig cfg;
    cfg.threads = 2;
    const auto batch = ExperimentRunner(cfg).runAll(jobs);
    EXPECT_TRUE(batch.allOk());
    EXPECT_EQ(compiler::livePrograms(), liveBefore);
    // Shared options must not leak across jobs: window 0 degrades
    // overlap, so the two results must differ.
    EXPECT_NE(batch.results[0].toJson(), batch.results[1].toJson());
}

// ---------------------------------------------------------------------
// The run memo: a repeat of a (model, trace, run options) triple returns
// the first run's result; anything that could change a byte misses.

/** A result's JSON with its label blanked, for label-aside equality. */
std::string
unlabelled(sim::RunResult r)
{
    r.label.clear();
    return r.toJson();
}

/** The cached bootstrapping Program and a model to run it on. */
struct MemoFixture
{
    UfcModel model;
    trace::Trace tr =
        workloads::ckksBootstrapping(ckks::CkksParams::c1(), 2);
    ProgramCache cache;
    ProgramCache::Slot slot = cache.slot(
        model, tr, {model.loweringKey(tr), trace::contentHash(tr)});
};

TEST(ProgramCacheGaps, RepeatRunIsAMemoHit)
{
    MemoFixture f;
    sim::RunOptions opts;
    opts.label = "first";
    const sim::RunResult first = f.cache.run(f.model, f.slot, opts);
    opts.label = "second";
    const sim::RunResult second = f.cache.run(f.model, f.slot, opts);
    EXPECT_EQ(f.cache.runMisses(), 1u);
    EXPECT_EQ(f.cache.runHits(), 1u);
    EXPECT_EQ(second.label, "second");
    EXPECT_EQ(unlabelled(second), unlabelled(first));
    // The memoized bytes are what execution produces.
    EXPECT_EQ(unlabelled(f.model.execute(*f.slot.program)),
              unlabelled(first));

    // Through the runner: the repeat job is a hit, with its own label
    // and host time.
    Job job;
    job.label = "runner/repeat";
    job.model = std::make_shared<UfcModel>();
    job.trace = std::make_shared<trace::Trace>(f.tr);
    ProgramCache cache;
    const ExperimentRunner runner;
    sim::RunResult a, b;
    runner::JobOutcome oa, ob;
    runner.runOne(job, 0, a, oa, &cache);
    runner.runOne(job, 1, b, ob, &cache);
    ASSERT_TRUE(oa.ok() && ob.ok());
    EXPECT_EQ(cache.runHits(), 1u);
    EXPECT_EQ(b.label, "runner/repeat");
    EXPECT_GT(b.hostSeconds, 0.0);
    a.hostSeconds = b.hostSeconds = 0.0;
    EXPECT_EQ(a.toJson(), b.toJson());
}

TEST(ProgramCacheGaps, RunMemoCountsHitsAndMisses)
{
    // Each Program keeps its own memo: in one cache, two distinct traces
    // miss once each and then hit once each, and the counters start at
    // zero.
    MemoFixture f;
    EXPECT_EQ(f.cache.runHits(), 0u);
    EXPECT_EQ(f.cache.runMisses(), 0u);

    const trace::Trace other =
        workloads::pbsThroughput(tfhe::TfheParams::t4(), 16);
    const ProgramCache::Slot otherSlot = f.cache.slot(
        f.model, other,
        {f.model.loweringKey(other), trace::contentHash(other)});
    EXPECT_EQ(f.cache.compiles(), 2u);

    const std::string boot = f.cache.run(f.model, f.slot, {}).toJson();
    EXPECT_EQ(f.cache.runMisses(), 1u);
    const std::string pbs = f.cache.run(f.model, otherSlot, {}).toJson();
    EXPECT_EQ(f.cache.runMisses(), 2u);
    EXPECT_EQ(f.cache.runHits(), 0u);
    EXPECT_NE(boot, pbs);

    EXPECT_EQ(f.cache.run(f.model, otherSlot, {}).toJson(), pbs);
    EXPECT_EQ(f.cache.run(f.model, f.slot, {}).toJson(), boot);
    EXPECT_EQ(f.cache.runHits(), 2u);
    EXPECT_EQ(f.cache.runMisses(), 2u);
}

TEST(ProgramCacheGaps, RunMemoKeysOnResultChangingOptions)
{
    MemoFixture f;
    const sim::RunResult base = f.cache.run(f.model, f.slot, {});

    // The -1 sentinel and the default window it resolves to are one key.
    sim::RunOptions explicitWindow;
    explicitWindow.prefetchWindow =
        sim::BytecodeEngine::kDefaultPrefetchWindow;
    EXPECT_EQ(f.cache.run(f.model, f.slot, explicitWindow).toJson(),
              base.toJson());
    EXPECT_EQ(f.cache.runHits(), 1u);

    // A different window or watchdog budget misses; each result
    // matches a direct execution under the same options.
    sim::RunOptions window0;
    window0.prefetchWindow = 0;
    sim::RunOptions budget;
    budget.maxCycles = u64(1) << 60; // never trips: same numbers
    u64 misses = f.cache.runMisses();
    for (const sim::RunOptions &opts : {window0, budget}) {
        const sim::RunResult r = f.cache.run(f.model, f.slot, opts);
        EXPECT_EQ(f.cache.runMisses(), ++misses);
        EXPECT_EQ(r.toJson(), f.model.execute(*f.slot.program, opts).toJson());
    }
    EXPECT_NE(f.cache.run(f.model, f.slot, window0).toJson(),
              base.toJson());
    EXPECT_EQ(f.cache.runHits(), 2u);

    // A client may vary maxCycles without end: past kMaxRunsPerProgram
    // keys the oldest (the default run) is dropped and runs again.
    sim::RunOptions more;
    for (std::size_t k = 3; k <= ProgramCache::kMaxRunsPerProgram; ++k) {
        more.maxCycles = (u64(1) << 60) + k;
        (void)f.cache.run(f.model, f.slot, more);
    }
    misses = f.cache.runMisses();
    EXPECT_EQ(f.cache.run(f.model, f.slot, {}).toJson(), base.toJson());
    EXPECT_EQ(f.cache.runMisses(), misses + 1);
}

TEST(ProgramCacheGaps, WatchdogTripsAreNeverMemoized)
{
    // A tripping run throws the same bytes on every repeat: it re-runs
    // each time instead of being stored, and the memoized result of the
    // same Program without a watchdog does not answer it.
    MemoFixture f;
    (void)f.cache.run(f.model, f.slot, {});
    sim::RunOptions opts;
    opts.maxCycles = 500000;
    std::string first;
    for (int attempt = 0; attempt < 3; ++attempt) {
        try {
            (void)f.cache.run(f.model, f.slot, opts);
            FAIL() << "watchdog did not trip (attempt " << attempt << ")";
        } catch (const TimeoutError &e) {
            if (attempt == 0)
                first = e.what();
            EXPECT_EQ(std::string(e.what()), first) << attempt;
        }
    }
    EXPECT_EQ(f.cache.runMisses(), 4u);
    EXPECT_EQ(f.cache.runHits(), 0u);
}

TEST(ProgramCacheGaps, TimelineRunsBypassTheMemo)
{
    MemoFixture f;
    (void)f.cache.run(f.model, f.slot, {}); // memoize the plain run

    sim::Timeline direct;
    sim::RunOptions directOpts;
    directOpts.timeline = &direct;
    (void)f.model.execute(*f.slot.program, directOpts);

    sim::Timeline viaCache;
    sim::RunOptions opts;
    opts.timeline = &viaCache;
    (void)f.cache.run(f.model, f.slot, opts);
    EXPECT_EQ(f.cache.runHits(), 0u);
    EXPECT_EQ(f.cache.runMisses(), 1u);

    ASSERT_FALSE(viaCache.slices().empty());
    ASSERT_EQ(viaCache.slices().size(), direct.slices().size());
    for (std::size_t i = 0; i < direct.slices().size(); ++i) {
        const auto &a = direct.slices()[i];
        const auto &b = viaCache.slices()[i];
        EXPECT_TRUE(a.track == b.track && a.depth == b.depth &&
                    a.name == b.name && a.beginCycle == b.beginCycle &&
                    a.endCycle == b.endCycle && a.bytes == b.bytes)
            << i;
    }
}

TEST(ProgramCacheGaps, ConcurrentRunsOfOnePairAgree)
{
    // Eight threads race slot() and run() on one key: one compile, every
    // result identical (racing misses both execute; the first store
    // wins).  Part of the sim_runner_reentrancy TSan slice.
    const UfcModel model;
    const trace::Trace tr =
        workloads::ckksBootstrapping(ckks::CkksParams::c1(), 2);
    const ProgramCache::Key key{model.loweringKey(tr),
                                trace::contentHash(tr)};
    constexpr int kThreads = 8;
    ProgramCache cache;
    std::vector<std::string> got(kThreads);
    {
        std::vector<std::thread> pool;
        pool.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t)
            pool.emplace_back([&, t] {
                got[t] = cache.run(model, cache.slot(model, tr, key), {})
                             .toJson();
            });
        for (auto &th : pool)
            th.join();
    }
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[t], got[0]) << t;
    EXPECT_EQ(cache.compiles(), 1u);
    EXPECT_EQ(cache.runHits() + cache.runMisses(),
              static_cast<u64>(kThreads));
    EXPECT_GE(cache.runMisses(), 1u);
}

// ---------------------------------------------------------------------
// BcLoop repeat folding at trip-count edge values.

/** Expand every folded loop of `p` back into a flat stream, shifting
 *  the downstream events like the builder would have emitted them
 *  unrolled. */
compiler::Program
unrolled(const compiler::Program &p)
{
    compiler::Program out = p;
    out.code = {};
    out.loops = {};
    out.phaseEvents = {};
    auto &code = out.code.edit();
    auto &events = out.phaseEvents.edit();

    std::size_t li = 0;
    std::size_t ev = 0;
    for (std::size_t i = 0; i <= p.code.size(); ++i) {
        while (ev < p.phaseEvents.size() && p.phaseEvents[ev].inst == i) {
            events.push_back({code.size(), p.phaseEvents[ev].name});
            ++ev;
        }
        if (li < p.loops.size() && p.loops[li].end == i) {
            const auto &lp = p.loops[li];
            const std::size_t bodyBegin = i - lp.bodyLen;
            for (u64 t = 1; t < lp.trips; ++t)
                for (std::size_t k = bodyBegin; k < i; ++k)
                    code.push_back(p.code[k]);
            ++li;
        }
        if (i < p.code.size())
            code.push_back(p.code[i]);
    }
    return out;
}

TEST(ProgramCacheGaps, FoldedLoopExecutesIdenticallyToUnrolled)
{
    const UfcModel model;
    const compiler::Program folded = model.compile(
        workloads::pbsThroughput(tfhe::TfheParams::t4(), 64));
    ASSERT_FALSE(folded.loops.empty());
    const compiler::Program flat = unrolled(folded);
    ASSERT_GT(flat.code.size(), folded.code.size());
    EXPECT_EQ(flat.totalInsts(), folded.totalInsts());
    EXPECT_EQ(model.execute(flat).toJson(),
              model.execute(folded).toJson());
}

TEST(ProgramCacheGaps, RepeatOfferEdgeTripCounts)
{
    // Drive ProgramBuilder's beginRepeat directly at the edge values:
    // trips < 2 must be refused (the producer then unrolls itself), and
    // an accepted fold at any trip count must execute identically to
    // the same stream emitted flat.
    const sim::UfcPerf perf{sim::UfcConfig::tableII()};
    isa::HwInst inst;
    inst.op = isa::HwOp::Ewma;
    inst.logDegree = 16;
    inst.batch = 1;
    inst.words = 1u << 16;
    inst.work = 1u << 16;
    isa::BufferRef ref;
    ref.id = 1;
    ref.bytes = u64(8) << 16;
    ref.streaming = true; // pure Stream body: foldable
    inst.buffers = {&ref, 1};

    const auto build = [&](u64 trips,
                           bool &accepted) -> compiler::Program {
        compiler::Program p;
        compiler::ProgramBuilder builder(&p);
        accepted = builder.beginRepeat(trips);
        builder.issue(inst);
        if (accepted)
            builder.endRepeat();
        else // refused: the producer must emit every trip itself
            for (u64 t = 1; t < trips; ++t)
                builder.issue(inst);
        builder.finish();
        compiler::costProgram(p, perf, "UFC");
        p.workload = "edge";
        return p;
    };
    const auto flat = [&](u64 trips) -> compiler::Program {
        compiler::Program p;
        compiler::ProgramBuilder builder(&p);
        for (u64 t = 0; t < trips; ++t)
            builder.issue(inst);
        builder.finish();
        compiler::costProgram(p, perf, "UFC");
        p.workload = "edge";
        return p;
    };

    const UfcModel model;
    bool accepted = false;

    // trips = 0: refused; "repeat zero times" still means the producer
    // emitted the body once up front (the offer wraps the first
    // emission), so it must equal a single flat instruction.
    compiler::Program p0 = build(0, accepted);
    EXPECT_FALSE(accepted);
    EXPECT_TRUE(p0.loops.empty());
    EXPECT_EQ(p0.totalInsts(), 1u);

    // trips = 1: refused, single emission, no loop row.
    compiler::Program p1 = build(1, accepted);
    EXPECT_FALSE(accepted);
    EXPECT_TRUE(p1.loops.empty());
    EXPECT_EQ(model.execute(p1).toJson(),
              model.execute(flat(1)).toJson());

    // trips = 2 (smallest legal fold) and a large trip count near the
    // practical max: folded == unrolled, bit for bit.
    for (const u64 trips : {u64(2), u64(7), u64(100000)}) {
        compiler::Program folded = build(trips, accepted);
        EXPECT_TRUE(accepted) << trips;
        ASSERT_EQ(folded.loops.size(), 1u) << trips;
        EXPECT_EQ(folded.loops[0].trips, trips);
        EXPECT_EQ(folded.totalInsts(), trips);
        EXPECT_EQ(model.execute(folded).toJson(),
                  model.execute(flat(trips)).toJson())
            << trips;
    }
}

} // namespace
} // namespace ufc
