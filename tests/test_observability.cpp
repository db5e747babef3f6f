/**
 * @file
 * Observability-layer tests: per-opcode attribution invariants, stall
 * accounting, the Chrome trace-event (Perfetto) timeline export, the
 * prefetch-window sentinel, and the guarantee that turning observation
 * on changes no simulated result.
 */

#include <cctype>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/metrics.h"
#include "runner/runner.h"
#include "sim/accelerator.h"
#include "sim/bc_engine.h"
#include "sim/engine.h"
#include "sim/timeline.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

namespace ufc {
namespace {

using sim::RunOptions;
using sim::RunResult;
using sim::Timeline;

/** A small hybrid trace exercising both schemes and phase markers. */
trace::Trace
smallHybridTrace()
{
    return workloads::hybridKnn(ckks::CkksParams::c2(),
                                tfhe::TfheParams::t1(), 256, 16, 4);
}

double
opCycleSum(const sim::RunStats &stats)
{
    double sum = 0.0;
    for (const auto &op : stats.opStats)
        sum += op.cycles;
    return sum;
}

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON validator: enough to assert the
// exported trace is well-formed without a JSON dependency.
// ---------------------------------------------------------------------

struct JsonCursor
{
    const std::string &s;
    size_t i = 0;

    void skipWs()
    {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    }
    bool eat(char c)
    {
        skipWs();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return false;
    }
    bool value(); // forward
    bool string()
    {
        if (!eat('"'))
            return false;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\')
                ++i;
            ++i;
        }
        return eat('"');
    }
    bool number()
    {
        skipWs();
        const size_t start = i;
        if (i < s.size() && (s[i] == '-' || s[i] == '+'))
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' || s[i] == '-' ||
                s[i] == '+'))
            ++i;
        return i > start;
    }
    bool object()
    {
        if (!eat('{'))
            return false;
        skipWs();
        if (eat('}'))
            return true;
        do {
            if (!string() || !eat(':') || !value())
                return false;
        } while (eat(','));
        return eat('}');
    }
    bool array()
    {
        if (!eat('['))
            return false;
        skipWs();
        if (eat(']'))
            return true;
        do {
            if (!value())
                return false;
        } while (eat(','));
        return eat(']');
    }
};

bool
JsonCursor::value()
{
    skipWs();
    if (i >= s.size())
        return false;
    switch (s[i]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': i += 4; return true;
      case 'f': i += 5; return true;
      case 'n': i += 4; return true;
      default: return number();
    }
}

bool
validJson(const std::string &text)
{
    JsonCursor c{text};
    if (!c.value())
        return false;
    c.skipWs();
    return c.i >= text.size();
}

// ---------------------------------------------------------------------
// Attribution invariants
// ---------------------------------------------------------------------

TEST(Observability, PerOpcodeCyclesSumToTotalExactly)
{
    const auto tr = smallHybridTrace();
    const auto ckksTr =
        workloads::ckksBootstrapping(ckks::CkksParams::c2());
    const auto tfheTr =
        workloads::pbsThroughput(tfhe::TfheParams::t1(), 32);
    // Exact by construction: the engine sums the per-op rows in integer
    // ticks.  Holds for every single-engine machine (the baselines only
    // accept their own scheme's operations).
    for (const RunResult &r :
         {sim::UfcModel().run(tr), sim::SharpModel().run(ckksTr),
          sim::StrixModel().run(tfheTr)}) {
        EXPECT_EQ(opCycleSum(r.stats), r.stats.totalCycles) << r.machine;
        EXPECT_GT(r.stats.totalCycles, 0.0) << r.machine;
    }
    // The composed machine merges two engines' tables: sums of whole
    // ticks, exact in a double, so the reordered sum is still equal.
    const RunResult c = sim::ComposedModel().run(tr);
    EXPECT_EQ(opCycleSum(c.stats), c.stats.totalCycles);
}

TEST(Observability, PerOpRowsDecomposeAndStallsBalance)
{
    const auto tr = smallHybridTrace();
    const RunResult r = sim::UfcModel().run(tr);

    double stallSum = 0.0, fillSum = 0.0;
    u64 countSum = 0;
    for (const auto &o : r.stats.opStats) {
        // Each row: cycles = compute + stall + fill, exactly (integer
        // ticks, converted to doubles without rounding).
        EXPECT_EQ(o.cycles, o.computeCycles + o.stallCycles + o.fillCycles);
        EXPECT_GE(o.stallCycles, 0.0);
        stallSum += o.stallCycles;
        fillSum += o.fillCycles;
        countSum += o.count;
    }
    EXPECT_EQ(countSum, r.stats.instCount);
    // Stall causes partition the waits; fill matches the per-op fill.
    EXPECT_EQ(r.stats.stalls.hbmBound + r.stats.stalls.dependency,
              stallSum);
    EXPECT_EQ(r.stats.stalls.pipelineFill, fillSum);
    EXPECT_GE(r.stats.stalls.hbmBound, 0.0);
    EXPECT_GE(r.stats.stalls.dependency, 0.0);
    // The hybrid workload misses in the scratchpad, so stall accounting
    // has something to attribute.
    EXPECT_GT(r.stats.stalls.hbmBound, 0.0);
}

TEST(Observability, BreakdownSurvivesJsonAndCsvWithV1KeysUnchanged)
{
    const auto tr = smallHybridTrace();
    const RunResult r = sim::UfcModel().run(tr);

    const std::string json = r.toJson();
    EXPECT_TRUE(validJson(json)) << json.substr(0, 200);
    EXPECT_NE(json.find("\"schema\":\"ufc.runresult/v2\""),
              std::string::npos);
    // v1 keys all still present.
    for (const char *key :
         {"\"label\":", "\"machine\":", "\"workload\":", "\"seconds\":",
          "\"energy_j\":", "\"power_w\":", "\"area_mm2\":", "\"edp\":",
          "\"edap\":", "\"host_seconds\":", "\"total_cycles\":",
          "\"inst_count\":", "\"hbm_bytes\":", "\"spad_hit_bytes\":",
          "\"hbm_utilization\":", "\"pe_utilization\":",
          "\"utilization\":"})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    // v2 block present.
    for (const char *key :
         {"\"breakdown\":", "\"stalls\":", "\"hbm_bound\":",
          "\"dependency\":", "\"pipeline_fill\":", "\"per_op\":",
          "\"energy\":", "\"static_j\":", "\"hbm_j\":", "\"dynamic_j\":"})
        EXPECT_NE(json.find(key), std::string::npos) << key;

    // CSV: header and row agree on column count; v1 columns lead.
    const std::string header = RunResult::csvHeader();
    const std::string row = r.toCsvRow();
    const auto count = [](const std::string &s) {
        size_t n = 1;
        bool quoted = false;
        for (char c : s) {
            if (c == '"')
                quoted = !quoted;
            else if (c == ',' && !quoted)
                ++n;
        }
        return n;
    };
    EXPECT_EQ(count(header), count(row));
    EXPECT_EQ(header.rfind("label,machine,workload,seconds,", 0), 0u);
    EXPECT_NE(header.find("stall_hbm_bound"), std::string::npos);
    EXPECT_NE(header.find("cycles_ntt"), std::string::npos);

    // Compact rows pad the same number of columns.
    RunResult compact = r;
    compact.verbosity = sim::StatsVerbosity::Compact;
    EXPECT_EQ(count(compact.toCsvRow()), count(header));
}

TEST(Observability, EnergySplitIsConsistent)
{
    const auto tr = smallHybridTrace();
    const RunResult r = sim::UfcModel().run(tr);
    EXPECT_GT(r.energyStaticJ, 0.0);
    EXPECT_GT(r.energyHbmJ, 0.0);
    EXPECT_GT(r.energyDynamicJ(), 0.0);
    EXPECT_LT(r.energyStaticJ + r.energyHbmJ, r.energyJ);
    // Per-opcode energies sum back to the total (shares sum to 1).
    double sum = 0.0;
    for (int i = 0; i < isa::kNumHwOps; ++i)
        sum += r.opEnergyJ(static_cast<isa::HwOp>(i));
    EXPECT_NEAR(sum, r.energyJ, 1e-9 * r.energyJ);
}

// ---------------------------------------------------------------------
// Timeline / Perfetto export
// ---------------------------------------------------------------------

TEST(Observability, TimelineExportIsValidStableAndNested)
{
    const auto tr = smallHybridTrace();
    const sim::UfcModel model;

    Timeline timeline;
    RunOptions opts;
    opts.timeline = &timeline;
    const RunResult r = model.run(tr, opts);

    ASSERT_FALSE(timeline.empty());
    EXPECT_EQ(timeline.openPhaseDepth(), 0u);

    // Slices are sane: non-negative durations, monotonic per track, and
    // every phase nests strictly within any enclosing phase.
    std::vector<double> lastEnd(Timeline::kNumTracks, 0.0);
    for (const auto &s : timeline.slices()) {
        ASSERT_GE(s.track, 0);
        ASSERT_LT(s.track, Timeline::kNumTracks);
        EXPECT_LE(s.beginCycle, s.endCycle);
        EXPECT_FALSE(s.name.empty());
        if (s.track != Timeline::kPhaseTrack) {
            // Resource/HBM lanes never overlap (in-order engines).
            EXPECT_GE(s.beginCycle, lastEnd[s.track] - 1e-9);
            lastEnd[s.track] = s.endCycle;
        }
    }
    // Phase nesting: a slice at depth d+1 recorded before the enclosing
    // depth-d slice closes must lie inside it.  Completed-slice order is
    // close-time order, so scan backwards for enclosure.
    const auto &slices = timeline.slices();
    for (size_t i = 0; i < slices.size(); ++i) {
        if (slices[i].track != Timeline::kPhaseTrack ||
            slices[i].depth == 0)
            continue;
        bool enclosed = false;
        for (size_t j = i + 1; j < slices.size(); ++j) {
            if (slices[j].track != Timeline::kPhaseTrack ||
                slices[j].depth != slices[i].depth - 1)
                continue;
            if (slices[j].beginCycle <= slices[i].beginCycle + 1e-9 &&
                slices[j].endCycle >= slices[i].endCycle - 1e-9) {
                enclosed = true;
                break;
            }
        }
        EXPECT_TRUE(enclosed)
            << slices[i].name << " [" << slices[i].beginCycle << ", "
            << slices[i].endCycle << ") depth " << slices[i].depth;
    }

    // Workload phases made it through the compiler into the timeline.
    std::vector<std::string> phaseNames;
    for (const auto &s : slices)
        if (s.track == Timeline::kPhaseTrack)
            phaseNames.push_back(s.name);
    const auto has = [&](const char *n) {
        for (const auto &p : phaseNames)
            if (p == n)
                return true;
        return false;
    };
    EXPECT_TRUE(has("bootstrap"));
    EXPECT_TRUE(has("key_switch"));
    EXPECT_TRUE(has("blind_rotate"));
    EXPECT_TRUE(has("ckks_distance"));
    EXPECT_TRUE(has("tfhe_topk"));

    // The JSON export parses, is stable across exports, and still
    // matches a run repeated from scratch (golden-stability property).
    std::ostringstream os1, os2;
    timeline.writeChromeTrace(os1);
    timeline.writeChromeTrace(os2);
    EXPECT_EQ(os1.str(), os2.str());
    EXPECT_TRUE(validJson(os1.str()));
    EXPECT_NE(os1.str().find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(os1.str().find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(os1.str().find("\"thread_name\""), std::string::npos);

    Timeline timeline2;
    RunOptions opts2;
    opts2.timeline = &timeline2;
    const RunResult r2 = model.run(tr, opts2);
    std::ostringstream os3;
    timeline2.writeChromeTrace(os3);
    EXPECT_EQ(os1.str(), os3.str());
    EXPECT_EQ(r.stats.totalCycles, r2.stats.totalCycles);

    // Per-opcode cycles still sum to the run total with recording on.
    EXPECT_EQ(opCycleSum(r.stats), r.stats.totalCycles);
}

TEST(Observability, PhaseMarksRoundTripThroughTraceSerialization)
{
    const auto tr = smallHybridTrace();
    ASSERT_FALSE(tr.phases.empty());
    std::ostringstream os;
    trace::writeTrace(tr, os);
    std::istringstream is(os.str());
    const auto back = trace::readTrace(is);
    ASSERT_EQ(back.phases.size(), tr.phases.size());
    for (size_t i = 0; i < tr.phases.size(); ++i) {
        EXPECT_EQ(back.phases[i].opIndex, tr.phases[i].opIndex);
        EXPECT_EQ(back.phases[i].name, tr.phases[i].name);
        EXPECT_EQ(back.phases[i].begin, tr.phases[i].begin);
    }
    // And a phase-bearing trace simulates identically after the trip.
    const sim::UfcModel model;
    EXPECT_EQ(model.run(tr).stats.totalCycles,
              model.run(back).stats.totalCycles);
}

// ---------------------------------------------------------------------
// Observation changes nothing (determinism)
// ---------------------------------------------------------------------

TEST(Observability, InstrumentedRunIsBitIdenticalSerialAndParallel)
{
    const auto cp = ckks::CkksParams::c2();
    const auto tp = tfhe::TfheParams::t1();
    const auto knn =
        std::make_shared<trace::Trace>(smallHybridTrace());
    const auto boot =
        std::make_shared<trace::Trace>(workloads::ckksBootstrapping(cp));
    const auto pbs =
        std::make_shared<trace::Trace>(workloads::pbsThroughput(tp, 64));
    const auto ufcm = std::make_shared<sim::UfcModel>();

    std::vector<runner::Job> jobs;
    jobs.push_back({"knn", ufcm, knn, RunOptions{}, ""});
    jobs.push_back({"boot", ufcm, boot, RunOptions{}, ""});
    jobs.push_back({"pbs", ufcm, pbs, RunOptions{}, ""});

    // Baseline: uninstrumented, serial.
    runner::RunnerConfig serialCfg;
    serialCfg.threads = 1;
    const auto baseline = runner::ExperimentRunner(serialCfg).run(jobs);

    // Instrumented: metrics registry on, a timeline per job, parallel
    // execution with progress lines.
    metrics::setEnabled(true);
    std::vector<Timeline> timelines(jobs.size());
    auto instrumented = jobs;
    for (size_t i = 0; i < jobs.size(); ++i)
        instrumented[i].options.timeline = &timelines[i];
    runner::RunnerConfig parCfg;
    parCfg.threads = 3;
    parCfg.progress = true;
    testing::internal::CaptureStderr();
    const auto observed =
        runner::ExperimentRunner(parCfg).run(instrumented);
    const std::string progressOut = testing::internal::GetCapturedStderr();
    metrics::setEnabled(false);

    ASSERT_EQ(observed.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
        const auto &a = baseline[i];
        const auto &b = observed[i];
        EXPECT_EQ(a.seconds, b.seconds) << a.label;
        EXPECT_EQ(a.energyJ, b.energyJ) << a.label;
        EXPECT_EQ(a.powerW, b.powerW) << a.label;
        EXPECT_EQ(a.energyStaticJ, b.energyStaticJ) << a.label;
        EXPECT_EQ(a.energyHbmJ, b.energyHbmJ) << a.label;
        EXPECT_EQ(a.stats.totalCycles, b.stats.totalCycles) << a.label;
        EXPECT_EQ(a.stats.hbmBytes, b.stats.hbmBytes) << a.label;
        EXPECT_EQ(a.stats.instCount, b.stats.instCount) << a.label;
        for (int op = 0; op < isa::kNumHwOps; ++op) {
            EXPECT_EQ(a.stats.opStats[op].cycles,
                      b.stats.opStats[op].cycles) << a.label;
            EXPECT_EQ(a.stats.opStats[op].count,
                      b.stats.opStats[op].count) << a.label;
        }
        EXPECT_EQ(a.stats.stalls.hbmBound, b.stats.stalls.hbmBound);
        EXPECT_EQ(a.stats.stalls.dependency, b.stats.stalls.dependency);
        EXPECT_FALSE(timelines[i].empty()) << a.label;
    }
    // Progress emitted one line per job, machine-readable done/total,
    // with per-job wall clock.
    EXPECT_NE(progressOut.find("[1/3]"), std::string::npos) << progressOut;
    EXPECT_NE(progressOut.find("[3/3]"), std::string::npos) << progressOut;
    EXPECT_NE(progressOut.find("wall_ms="), std::string::npos)
        << progressOut;
}

// ---------------------------------------------------------------------
// Prefetch-window sentinel (satellite 2)
// ---------------------------------------------------------------------

TEST(Observability, PrefetchWindowZeroIsExplicitNotDefault)
{
    const auto tr = smallHybridTrace();
    const sim::UfcModel model;

    RunOptions defOpts; // -1 sentinel: model default window
    EXPECT_EQ(defOpts.prefetchWindow, -1);
    const RunResult def = model.run(tr, defOpts);

    RunOptions defExplicit;
    defExplicit.prefetchWindow =
        sim::BytecodeEngine::kDefaultPrefetchWindow;
    const RunResult defExp = model.run(tr, defExplicit);
    EXPECT_EQ(def.stats.totalCycles, defExp.stats.totalCycles);

    RunOptions zeroOpts; // 0: a requestable no-lookahead window
    zeroOpts.prefetchWindow = 0;
    const RunResult zero = model.run(tr, zeroOpts);
    // No lookahead serializes fetch behind compute: strictly slower than
    // the default window on a memory-heavy trace.
    EXPECT_GT(zero.stats.totalCycles, def.stats.totalCycles);
    // The attribution identity holds in every window mode.
    EXPECT_EQ(opCycleSum(zero.stats), zero.stats.totalCycles);
    // With no overlap, every wait is covered by transfer time: nothing
    // is attributable to the prefetch-window dependency bound.
    EXPECT_NEAR(zero.stats.stalls.dependency, 0.0, 1e-6);

    // Intermediate windows are monotone between the two extremes.
    RunOptions midOpt;
    midOpt.prefetchWindow = 4;
    const RunResult mid = model.run(tr, midOpt);
    EXPECT_GE(mid.stats.totalCycles, def.stats.totalCycles);
    EXPECT_LE(mid.stats.totalCycles, zero.stats.totalCycles);
}

// ---------------------------------------------------------------------
// peUtilization unclamped (satellite 1)
// ---------------------------------------------------------------------

TEST(Observability, PeUtilizationIsExportedUnclamped)
{
    sim::RunStats stats;
    stats.totalCycles = 100.0;
    stats.busyCycles[static_cast<int>(isa::Resource::Butterfly)] = 60.0;
    stats.busyCycles[static_cast<int>(isa::Resource::VectorAlu)] = 39.0;
    EXPECT_DOUBLE_EQ(stats.peUtilization(), 0.99);
    // A real run stays within [0, 1] without any clamp.
    const RunResult r = sim::UfcModel().run(smallHybridTrace());
    EXPECT_GE(r.stats.peUtilization(), 0.0);
    EXPECT_LE(r.stats.peUtilization(), 1.0);
}

#ifndef NDEBUG
TEST(ObservabilityDeathTest, PeUtilizationAssertsWhenOverUnity)
{
    sim::RunStats stats;
    stats.totalCycles = 10.0;
    stats.busyCycles[static_cast<int>(isa::Resource::Butterfly)] = 11.0;
    EXPECT_DEATH((void)stats.peUtilization(), "PE busy cycles");
}
#endif

} // namespace
} // namespace ufc
