/**
 * @file
 * Differential and unit tests for the phase-level result memoization
 * cache (sim/phase_cache.h): cache-on vs cache-off must be bit-identical
 * on every observable — cycles, energy, per-op attribution, stall
 * causes, timeline slices, watchdog error bytes — across builtins, the
 * fixture corpus and fuzzed traces; entry-state keying must prevent
 * wrong replays even under forced content-hash collisions; and repeat
 * runs must actually hit.
 */

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "common/error.h"
#include "common/fault.h"
#include "compiler/bytecode.h"
#include "sim/accelerator.h"
#include "sim/phase_cache.h"
#include "sim/timeline.h"
#include "sim/ufc_perf.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

namespace ufc {
namespace {

using sim::PhaseCache;
using sim::RunOptions;
using sim::RunResult;
using sim::UfcModel;
using trace::Trace;

std::vector<Trace>
builtinTraces()
{
    const auto cp = ckks::CkksParams::c1();
    const auto tp = tfhe::TfheParams::t4();
    return {workloads::helr(cp, 2),
            workloads::ckksBootstrapping(cp, 2),
            workloads::sorting(cp, 256),
            workloads::pbsThroughput(tp, 16),
            workloads::hybridKnn(cp, tp, 64)};
}

RunResult
runCached(const UfcModel &model, const Trace &tr, PhaseCache &cache,
          RunOptions opts = {})
{
    opts.phaseCache = &cache;
    return model.run(tr, opts);
}

/** Trace-level lint gate matching the runner's pre-flight. */
bool
simulatable(const Trace &tr)
{
    static const analysis::Analyzer linter;
    return linter.analyze(tr).errorCount() == 0;
}

// ---------------------------------------------------------------------
// Differential suite: cache on == cache off, bit for bit.

TEST(PhaseCacheDifferential, BuiltinsBitIdentical)
{
    const UfcModel model;
    for (const Trace &tr : builtinTraces()) {
        const std::string uncached = model.run(tr).toJson();
        PhaseCache cache;
        // Twice through the same cache: the first run populates (all
        // misses), the second replays — both must match the uncached
        // bytes exactly, covering cycles, energy, per-op attribution
        // and stall causes (all part of the RunResult JSON).
        EXPECT_EQ(runCached(model, tr, cache).toJson(), uncached)
            << tr.name << " (populating run)";
        EXPECT_EQ(runCached(model, tr, cache).toJson(), uncached)
            << tr.name << " (replaying run)";
        if (model.compile(tr).segments.empty())
            EXPECT_EQ(cache.lookups(), 0u) << tr.name;
        else
            EXPECT_GT(cache.hits(), 0u) << tr.name;
    }
}

TEST(PhaseCacheDifferential, FixtureCorporaBitIdentical)
{
    const UfcModel model;
    int compared = 0;
    for (const auto &entry : std::filesystem::recursive_directory_iterator(
             UFC_FIXTURE_DIR)) {
        if (entry.path().extension() != ".ufctrace")
            continue;
        Trace tr;
        try {
            tr = trace::loadTrace(entry.path().string());
        } catch (const TraceError &) {
            continue; // unparseable: neither path simulates
        }
        if (!simulatable(tr))
            continue;
        PhaseCache cache;
        EXPECT_EQ(runCached(model, tr, cache).toJson(),
                  model.run(tr).toJson())
            << entry.path();
        ++compared;
    }
    EXPECT_GE(compared, 3);
}

TEST(PhaseCacheDifferential, FuzzedTracesBitIdentical)
{
    std::ostringstream os;
    trace::writeTrace(workloads::sorting(ckks::CkksParams::c1(), 256),
                      os);
    const std::string good = os.str();
    const FaultInjector faults(2026, 0.0);
    const UfcModel model;
    int compared = 0;
    for (u64 salt = 0; salt < 48; ++salt) {
        const std::string hostile = faults.corruptTraceText(good, salt);
        std::stringstream ss(hostile);
        Trace tr;
        try {
            tr = trace::readTrace(ss);
        } catch (const TraceError &) {
            continue;
        }
        if (!simulatable(tr))
            continue;
        PhaseCache cache;
        EXPECT_EQ(runCached(model, tr, cache).toJson(),
                  model.run(tr).toJson())
            << "salt " << salt;
        ++compared;
    }
    EXPECT_GT(compared, 0);
}

TEST(PhaseCacheDifferential, WatchdogErrorBytesIdentical)
{
    // The maxCycles watchdog must trip at the same point with the same
    // message whether or not a cache is armed (maxCycles is part of the
    // cache key, so a watchdog run never replays a full-run snapshot).
    const UfcModel model;
    const Trace tr =
        workloads::ckksBootstrapping(ckks::CkksParams::c1(), 2);
    RunOptions opts;
    opts.maxCycles = 500000;

    std::string uncachedWhat;
    try {
        model.run(tr, opts);
        FAIL() << "uncached watchdog did not trip";
    } catch (const TimeoutError &e) {
        uncachedWhat = e.what();
    }
    PhaseCache cache;
    for (int attempt = 0; attempt < 2; ++attempt) {
        try {
            runCached(model, tr, cache, opts);
            FAIL() << "cached watchdog did not trip (attempt "
                   << attempt << ")";
        } catch (const TimeoutError &e) {
            EXPECT_EQ(std::string(e.what()), uncachedWhat)
                << "attempt " << attempt;
        }
    }
}

TEST(PhaseCacheDifferential, TimelineRunsBypassAndMatch)
{
    // A timeline-recording run bypasses the cache (slices would be
    // skipped on a replay), and its slices must match an uncached
    // timeline run exactly even with a populated cache armed.
    const UfcModel model;
    const Trace tr =
        workloads::ckksBootstrapping(ckks::CkksParams::c1(), 2);

    sim::Timeline plain;
    RunOptions plainOpts;
    plainOpts.timeline = &plain;
    model.run(tr, plainOpts);

    PhaseCache cache;
    runCached(model, tr, cache); // populate
    const u64 lookupsBefore = cache.lookups();

    sim::Timeline cached;
    RunOptions cachedOpts;
    cachedOpts.timeline = &cached;
    runCached(model, tr, cache, cachedOpts);
    EXPECT_EQ(cache.lookups(), lookupsBefore)
        << "timeline run consulted the cache";

    ASSERT_EQ(cached.slices().size(), plain.slices().size());
    for (std::size_t i = 0; i < plain.slices().size(); ++i) {
        const auto &a = plain.slices()[i];
        const auto &b = cached.slices()[i];
        EXPECT_EQ(a.track, b.track) << i;
        EXPECT_EQ(a.depth, b.depth) << i;
        EXPECT_EQ(a.name, b.name) << i;
        EXPECT_EQ(a.beginCycle, b.beginCycle) << i;
        EXPECT_EQ(a.endCycle, b.endCycle) << i;
        EXPECT_EQ(a.bytes, b.bytes) << i;
    }
}

TEST(PhaseCacheDifferential, PrefetchWindowsShareOneCacheSafely)
{
    // The prefetch window is part of the key base: different windows
    // sharing one cache must each stay bit-identical to their own
    // uncached run (a cross-window replay would corrupt both).
    const UfcModel model;
    const Trace tr =
        workloads::ckksBootstrapping(ckks::CkksParams::c1(), 2);
    PhaseCache cache;
    for (int window : {0, 1, 4, 64}) {
        RunOptions opts;
        opts.prefetchWindow = window;
        const std::string uncached = model.run(tr, opts).toJson();
        EXPECT_EQ(runCached(model, tr, cache, opts).toJson(), uncached)
            << "window " << window << " (populating)";
        EXPECT_EQ(runCached(model, tr, cache, opts).toJson(), uncached)
            << "window " << window << " (replaying)";
    }
}

TEST(PhaseCacheDifferential, ForcedCollisionDoesNotReplayWrongState)
{
    // A genuine content-hash collision: two top-level phases built from
    // the *same* instruction stream digest identically, yet the engine
    // state entering phase 2 differs from the state entering phase 1
    // (clocks and stats have advanced), so entry-state keying must keep
    // them apart — zero hits on the first run, bit-identical output.
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
    ref.streaming = true;
    inst.buffers.push_back(ref);

    compiler::Program program;
    compiler::ProgramBuilder builder(&program);
    for (const char *phase : {"twin_a", "twin_b"}) {
        builder.beginPhase(phase);
        for (u64 i = 0; i < compiler::kMinSegmentInsts; ++i)
            builder.issue(inst);
        builder.endPhase();
    }
    builder.finish();
    compiler::costProgram(program, perf, "UFC");
    program.workload = "twin";

    ASSERT_EQ(program.segments.size(), 2u);
    EXPECT_EQ(compiler::segmentContentHash(program,
                                           program.segments[0].begin,
                                           program.segments[0].end),
              compiler::segmentContentHash(program,
                                           program.segments[1].begin,
                                           program.segments[1].end))
        << "twin phases should digest identically";

    const UfcModel model;
    const std::string uncached = model.execute(program).toJson();
    PhaseCache cache;
    RunOptions opts;
    opts.phaseCache = &cache;
    EXPECT_EQ(model.execute(program, opts).toJson(), uncached);
    EXPECT_EQ(cache.hits(), 0u)
        << "colliding phases replayed across different entry states";
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.entries(), 2u);

    // An identical rerun enters each phase in the same state as the
    // populating run did, so now both segments replay.
    EXPECT_EQ(model.execute(program, opts).toJson(), uncached);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(PhaseCacheDifferential, RepeatRunsHitEverySegment)
{
    const UfcModel model;
    const Trace tr =
        workloads::ckksBootstrapping(ckks::CkksParams::c1(), 2);
    const compiler::Program program = model.compile(tr);
    ASSERT_GE(program.segments.size(), 2u);

    PhaseCache cache;
    RunOptions opts;
    opts.phaseCache = &cache;
    const std::string first = model.execute(program, opts).toJson();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), program.segments.size());

    const std::string second = model.execute(program, opts).toJson();
    EXPECT_EQ(second, first);
    EXPECT_EQ(cache.hits(), program.segments.size())
        << "identical rerun should replay every memoized phase";
}

TEST(PhaseCacheDifferential, SharedAcrossTracesKeepsEachBitIdentical)
{
    // One cache across a mini-batch of distinct traces (the runner's
    // sharing mode): every result must match its own uncached bytes.
    const UfcModel model;
    PhaseCache cache;
    for (const Trace &tr : builtinTraces())
        EXPECT_EQ(runCached(model, tr, cache).toJson(),
                  model.run(tr).toJson())
            << tr.name;
}

// ---------------------------------------------------------------------
// Unit tests for the cache container and the engine's guard rails.

TEST(PhaseCacheUnit, CountsHitsAndMisses)
{
    PhaseCache cache;
    EXPECT_EQ(cache.find(42), nullptr);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    auto state = std::make_shared<sim::PhaseExitState>();
    state->computeClock = 7.0;
    cache.insert(42, state);
    EXPECT_EQ(cache.entries(), 1u);

    const auto hit = cache.find(42);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->computeClock, 7.0);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.lookups(), 2u);
}

TEST(PhaseCacheUnit, FirstInsertWinsOnRace)
{
    // Two threads may race to insert the same key; both computed the
    // same state (same key == same content + entry state), so keeping
    // the first is correct and the second is dropped, not overwritten.
    PhaseCache cache;
    auto a = std::make_shared<sim::PhaseExitState>();
    a->computeClock = 1.0;
    auto b = std::make_shared<sim::PhaseExitState>();
    b->computeClock = 2.0;
    cache.insert(9, a);
    cache.insert(9, b);
    EXPECT_EQ(cache.entries(), 1u);
    const auto hit = cache.find(9);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->computeClock, 1.0);
}

TEST(PhaseCacheUnit, MalformedSegmentTableRejectedWhenCacheArmed)
{
    // The engine trusts segment bounds for its skip jumps, so a
    // mutated table must be screened out before execution.
    const UfcModel model;
    compiler::Program program = model.compile(
        workloads::ckksBootstrapping(ckks::CkksParams::c1(), 2));
    ASSERT_FALSE(program.segments.empty());
    program.segments.edit().front().end = program.code.size() + 5;

    // Without a cache the table is inert and the program still runs.
    EXPECT_NO_THROW(model.execute(program));

    PhaseCache cache;
    RunOptions opts;
    opts.phaseCache = &cache;
    EXPECT_THROW(model.execute(program, opts), ConfigError);
}

TEST(PhaseCacheUnit, IrModeIgnoresCache)
{
    // The trace-IR interpreter has no segment stream; a cache handed to
    // it must be ignored, not consulted.
    const UfcModel model;
    const Trace tr =
        workloads::ckksBootstrapping(ckks::CkksParams::c1(), 2);
    PhaseCache cache;
    RunOptions opts;
    opts.execMode = sim::ExecMode::TraceIr;
    opts.phaseCache = &cache;
    const std::string viaIr = model.run(tr, opts).toJson();
    EXPECT_EQ(cache.lookups(), 0u);

    RunOptions plain;
    plain.execMode = sim::ExecMode::TraceIr;
    EXPECT_EQ(viaIr, model.run(tr, plain).toJson());
}

} // namespace
} // namespace ufc
