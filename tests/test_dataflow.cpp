/**
 * @file
 * Tests for the dataflow & abstract-interpretation layer: CFG recovery
 * from both IRs, the worklist solvers, per-rule positive/negative pairs
 * for every df-* rule, the committed df-* fixture corpus, static
 * cost-bound soundness (differentially against the bytecode engine
 * across the full paper sweep), and the runner's dataflowLint /
 * boundsCheck gates (including results bit-identity).
 */

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/cost_bounds.h"
#include "analysis/dataflow.h"
#include "analysis/domains.h"
#include "common/error.h"
#include "compiler/bytecode.h"
#include "compiler/lowering.h"
#include "runner/runner.h"
#include "runner/sweeps.h"
#include "sim/accelerator.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

namespace ufc {
namespace {

using analysis::Analyzer;
using analysis::Cfg;
using analysis::CfgBlock;
using analysis::CostBounds;
using analysis::DiagnosticReport;
using trace::OpKind;
using trace::Trace;

const Analyzer &
linter()
{
    static const Analyzer a;
    return a;
}

std::set<std::string>
rulesIn(const DiagnosticReport &rep)
{
    std::set<std::string> out;
    for (const auto &d : rep.diagnostics())
        out.insert(d.rule);
    return out;
}

/** CKKS-parameterized empty trace; recipes push ops at levels relative
 *  to tr.ckksLevels so they track the parameter set. */
Trace
ckksTrace()
{
    Trace tr;
    tr.name = "dataflow_unit";
    workloads::setCkksParams(tr, ckks::CkksParams::c2());
    return tr;
}

// ---------------------------------------------------------------------
// Hand-built Programs (non-synthetic buffer ids unless a test says so:
// the lowering's ciphertext-pool ids model locality, and the value-flow
// rules skip them — see DataflowProgramRules.SyntheticIdsAreSkipped).

compiler::Program
progSkeleton(u32 spadSlots, double scratchpadBytes)
{
    compiler::Program p;
    p.workload = "dataflow_unit";
    p.machine = "unit";
    p.hbmBytesPerCycle = 8.0;
    p.scratchpadBytes = scratchpadBytes;
    p.spadSlots = spadSlots;
    return p;
}

struct Operand
{
    u32 slot;
    u64 id;
    double bytes;
    bool write;
};

/** Append a cost shape and its cost row; returns the shape id. */
u32
addShape(compiler::Program &p, double computeCycles, double fetchBytes)
{
    compiler::CostShape shape;
    shape.staticFetchBytes = fetchBytes;
    compiler::CostRow row;
    row.computeCycles = computeCycles;
    row.staticFetchBytes = fetchBytes;
    row.staticMemCycles = fetchBytes / p.hbmBytesPerCycle;
    p.shapes.edit().push_back(shape);
    p.costs.push_back(row);
    return static_cast<u32>(p.costs.size() - 1);
}

u64
addMemInst(compiler::Program &p, const std::vector<Operand> &operands,
           double computeCycles = 10.0)
{
    compiler::BcInst inst;
    inst.kind = compiler::BcKind::Mem;
    inst.shape = addShape(p, computeCycles, 0.0);
    inst.bufBegin = static_cast<u32>(p.bufs.size());
    inst.bufCount = static_cast<u16>(operands.size());
    for (const Operand &o : operands) {
        compiler::BcBuf buf;
        buf.id = o.id;
        buf.bytes = o.bytes;
        buf.slot = o.slot;
        buf.write = o.write;
        p.bufs.edit().push_back(buf);
    }
    p.code.edit().push_back(inst);
    return p.code.size() - 1;
}

u64
addStreamInst(compiler::Program &p, double fetchBytes = 64.0)
{
    compiler::BcInst inst;
    inst.kind = compiler::BcKind::Stream;
    inst.shape = addShape(p, 10.0, fetchBytes);
    p.code.edit().push_back(inst);
    return p.code.size() - 1;
}

DiagnosticReport
programReport(const compiler::Program &p)
{
    DiagnosticReport rep;
    analysis::runProgramDataflow(p, rep);
    return rep;
}

// ---------------------------------------------------------------------
// CFG recovery.

TEST(DataflowCfg, TraceCfgSplitsAtPhaseBoundaries)
{
    Trace tr = ckksTrace();
    const int l = tr.ckksLevels;
    tr.push(OpKind::CkksMult, l);
    tr.beginPhase("stage");
    tr.push(OpKind::CkksRescale, l);
    tr.push(OpKind::CkksRotate, l - 1, 1, 0, 3);
    tr.endPhase();
    tr.push(OpKind::CkksMult, l - 1);

    const Cfg cfg = analysis::cfgFromTrace(tr);
    ASSERT_EQ(cfg.blocks.size(), 3u);
    EXPECT_EQ(cfg.blocks[0].begin, 0u);
    EXPECT_EQ(cfg.blocks[0].end, 1u);
    EXPECT_EQ(cfg.blocks[1].begin, 1u);
    EXPECT_EQ(cfg.blocks[1].end, 3u);
    EXPECT_EQ(cfg.blocks[2].begin, 3u);
    EXPECT_EQ(cfg.blocks[2].end, 4u);
    EXPECT_EQ(cfg.totalUnits(), 4u);

    // Fallthrough chain, no loops anywhere in a trace CFG.
    ASSERT_EQ(cfg.blocks[0].succs, std::vector<u32>{1});
    ASSERT_EQ(cfg.blocks[1].succs, std::vector<u32>{2});
    EXPECT_TRUE(cfg.blocks[2].succs.empty());
    for (const CfgBlock &b : cfg.blocks)
        EXPECT_FALSE(b.isLoop());

    // The middle block carries the phase attribution.
    EXPECT_EQ(cfg.blocks[0].phase, -1);
    ASSERT_GE(cfg.blocks[1].phase, 0);
    EXPECT_EQ(cfg.phaseNames[static_cast<std::size_t>(
                  cfg.blocks[1].phase)],
              "stage");
    EXPECT_EQ(cfg.blocks[2].phase, -1);
}

TEST(DataflowCfg, ProgramCfgLoopBodyCarriesTripsAndSelfEdge)
{
    compiler::Program p = progSkeleton(0, 0.0);
    for (int i = 0; i < 4; ++i)
        addStreamInst(p);
    p.loops.edit().push_back(compiler::BcLoop{3, 2, 5}); // body [1, 3) x5

    const Cfg cfg = analysis::cfgFromProgram(p);
    ASSERT_EQ(cfg.blocks.size(), 3u);
    EXPECT_EQ(cfg.blocks[1].begin, 1u);
    EXPECT_EQ(cfg.blocks[1].end, 3u);
    EXPECT_EQ(cfg.blocks[1].trips, 5u);
    EXPECT_TRUE(cfg.blocks[1].isLoop());
    // The body's self back edge, on top of the fallthrough chain.
    EXPECT_NE(std::find(cfg.blocks[1].succs.begin(),
                        cfg.blocks[1].succs.end(), 1u),
              cfg.blocks[1].succs.end());
    // totalUnits weights the body by its trips: 1 + 2*5 + 1.
    EXPECT_EQ(cfg.totalUnits(), 12u);
}

TEST(DataflowCfg, ComposedProgramIsRejected)
{
    compiler::Program p = progSkeleton(0, 0.0);
    p.parts.emplace_back();
    EXPECT_THROW(analysis::cfgFromProgram(p), ConfigError);
}

// ---------------------------------------------------------------------
// Worklist solvers.

/** Three-block diamondless chain with a self loop on block 1. */
Cfg
loopyCfg()
{
    Cfg cfg;
    cfg.blocks.resize(3);
    for (u32 b = 0; b < 3; ++b) {
        cfg.blocks[b].begin = b;
        cfg.blocks[b].end = b + 1;
    }
    cfg.blocks[0].succs = {1};
    cfg.blocks[1].preds = {0, 1};
    cfg.blocks[1].succs = {1, 2};
    cfg.blocks[1].trips = 4;
    cfg.blocks[2].preds = {1};
    return cfg;
}

TEST(DataflowSolver, ForwardFixpointPropagatesThroughLoop)
{
    const Cfg cfg = loopyCfg();
    using State = u32; // bitmask of blocks on some path to the entry
    const auto meet = [](State &into, const State &from) {
        const State merged = into | from;
        const bool changed = merged != into;
        into = merged;
        return changed;
    };
    const auto transfer = [](u32 b, const State &in) {
        return in | (1u << b);
    };
    const std::vector<State> in = analysis::solveForward(
        cfg, State(1u << 31), State(0), meet, transfer);
    ASSERT_EQ(in.size(), 3u);
    EXPECT_EQ(in[0], 1u << 31);            // entry untouched
    EXPECT_EQ(in[1], (1u << 31) | 3u);     // via block 0 and itself
    EXPECT_EQ(in[2], (1u << 31) | 3u);     // everything upstream
}

TEST(DataflowSolver, BackwardFixpointPropagatesThroughLoop)
{
    const Cfg cfg = loopyCfg();
    using State = u32;
    const auto meet = [](State &into, const State &from) {
        const State merged = into | from;
        const bool changed = merged != into;
        into = merged;
        return changed;
    };
    const auto transfer = [](u32 b, const State &out) {
        return out | (1u << b);
    };
    const std::vector<State> out = analysis::solveBackward(
        cfg, State(1u << 31), State(0), meet, transfer);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[2], 1u << 31);           // exit untouched
    EXPECT_EQ(out[1], (1u << 31) | 6u);    // via block 2 and itself
    EXPECT_EQ(out[0], (1u << 31) | 6u);
}

TEST(DataflowSolver, NonConvergingDomainThrowsInsteadOfHanging)
{
    const Cfg cfg = loopyCfg();
    // A "meet" that always reports change never converges on the self
    // loop; the visit cap must turn that into a typed error.
    const auto meet = [](u64 &into, const u64 &from) {
        into = from + 1;
        return true;
    };
    const auto transfer = [](u32, const u64 &in) { return in; };
    EXPECT_THROW(
        analysis::solveForward(cfg, u64(0), u64(0), meet, transfer),
        SimError);
}

// ---------------------------------------------------------------------
// Trace-level df-* rules: one positive/negative pair per rule.

TEST(DataflowTraceRules, ChainUnderflowPositiveAndNegative)
{
    Trace bad = ckksTrace();
    bad.push(OpKind::CkksMult, 3); // nothing ever reaches level 3
    const auto badRules = rulesIn(linter().analyzeDataflow(bad));
    EXPECT_TRUE(badRules.count("df-chain-underflow")) << bad.name;

    Trace good = ckksTrace();
    const int l = good.ckksLevels;
    good.push(OpKind::CkksMult, l);
    good.push(OpKind::CkksRescale, l);
    good.push(OpKind::CkksMultPlain, l - 1); // level l-1 fed by rescale
    const auto goodRules = rulesIn(linter().analyzeDataflow(good));
    EXPECT_FALSE(goodRules.count("df-chain-underflow"));
    EXPECT_TRUE(linter().analyzeDataflow(good).empty());
}

TEST(DataflowTraceRules, ChainUnderflowSeesThroughModRaiseAndRepack)
{
    // A repack publishes its level even with nothing else producing it.
    Trace tr = ckksTrace();
    workloads::setTfheParams(tr, tfhe::TfheParams::t3());
    tr.push(OpKind::SwitchRepack, 5);
    tr.push(OpKind::CkksMultPlain, 5);
    EXPECT_FALSE(
        rulesIn(linter().analyzeDataflow(tr)).count("df-chain-underflow"));
}

TEST(DataflowTraceRules, DoubleRescalePositiveAndNegative)
{
    Trace bad = ckksTrace();
    bad.push(OpKind::CkksRescale, bad.ckksLevels); // nothing pending
    EXPECT_TRUE(
        rulesIn(linter().analyzeDataflow(bad)).count("df-double-rescale"));

    Trace good = ckksTrace();
    good.push(OpKind::CkksMult, good.ckksLevels);
    good.push(OpKind::CkksRescale, good.ckksLevels);
    EXPECT_TRUE(linter().analyzeDataflow(good).empty());
}

TEST(DataflowTraceRules, MissedRescalePositiveAndNegative)
{
    Trace bad = ckksTrace();
    const int l = bad.ckksLevels;
    bad.push(OpKind::CkksMult, l);
    bad.push(OpKind::CkksRescale, l);
    bad.push(OpKind::CkksMult, l - 1); // consumes the lone rescale output
    bad.push(OpKind::CkksMult, l - 1); // no operands, product pending
    EXPECT_TRUE(
        rulesIn(linter().analyzeDataflow(bad)).count("df-missed-rescale"));

    Trace good = ckksTrace();
    good.push(OpKind::CkksMult, l);
    good.push(OpKind::CkksRescale, l);
    good.push(OpKind::CkksMult, l - 1);
    good.push(OpKind::CkksRescale, l - 1); // rescale between products
    good.push(OpKind::CkksMult, l - 2);
    EXPECT_TRUE(linter().analyzeDataflow(good).empty());
}

TEST(DataflowTraceRules, ScaleMismatchPositiveAndNegative)
{
    Trace bad = ckksTrace();
    const int l = bad.ckksLevels;
    bad.push(OpKind::CkksMult, l);
    bad.push(OpKind::CkksRescale, l);
    bad.push(OpKind::CkksMultPlain, l - 1); // drains the level's supply
    bad.push(OpKind::CkksRescale, l - 1);
    bad.push(OpKind::CkksAdd, l - 1); // nothing left at l-1
    EXPECT_TRUE(
        rulesIn(linter().analyzeDataflow(bad)).count("df-scale-mismatch"));

    Trace good = ckksTrace();
    good.push(OpKind::CkksMult, l);
    good.push(OpKind::CkksRescale, l);
    good.push(OpKind::CkksRotate, l - 1, 1, 0, 3); // replenishes supply
    good.push(OpKind::CkksAdd, l - 1);
    EXPECT_TRUE(linter().analyzeDataflow(good).empty());
}

TEST(DataflowTraceRules, DataflowPassesSkipWhenBaseReportHasErrors)
{
    Trace bad = ckksTrace();
    bad.push(OpKind::CkksMult, 3);
    bad.ops.push_back(trace::TraceOp{OpKind::CkksMult, 999, 1, 0, 0});
    const auto rules = rulesIn(linter().analyzeDataflow(bad));
    EXPECT_TRUE(rules.count("limb-range"));
    // Garbage levels must not feed the abstract domains.
    EXPECT_FALSE(rules.count("df-chain-underflow"));
}

// ---------------------------------------------------------------------
// Program-level df-* rules over hand-built bytecode.

TEST(DataflowProgramRules, UseBeforeDefPositiveAndNegative)
{
    compiler::Program bad = progSkeleton(2, 4096.0);
    addMemInst(bad, {{0, 7, 100.0, false}}); // read before ...
    addMemInst(bad, {{0, 7, 100.0, true}});  // ... the defining write
    EXPECT_TRUE(
        rulesIn(programReport(bad)).count("df-slot-use-before-def"));

    compiler::Program good = progSkeleton(2, 4096.0);
    addMemInst(good, {{0, 7, 100.0, true}});
    addMemInst(good, {{0, 7, 100.0, false}});
    EXPECT_TRUE(programReport(good).empty());
}

TEST(DataflowProgramRules, ReadOnlySlotsNeverFlagUseBeforeDef)
{
    // Evaluation keys are fetched from HBM on miss and never written by
    // the program: read-only slots are legal.
    compiler::Program p = progSkeleton(1, 4096.0);
    addMemInst(p, {{0, 9, 100.0, false}});
    addMemInst(p, {{0, 9, 100.0, false}});
    EXPECT_TRUE(programReport(p).empty());
}

TEST(DataflowProgramRules, DeadStorePositiveAndNegative)
{
    compiler::Program bad = progSkeleton(1, 4096.0);
    addMemInst(bad, {{0, 7, 100.0, true}}); // overwritten before a read
    addMemInst(bad, {{0, 7, 100.0, true}});
    addMemInst(bad, {{0, 7, 100.0, false}});
    const auto rep = programReport(bad);
    EXPECT_TRUE(rulesIn(rep).count("df-slot-dead-store"));
    // Exactly the first write is dead.
    ASSERT_EQ(rep.diagnostics().size(), 1u);
    EXPECT_EQ(rep.diagnostics()[0].opIndex, 0);

    // Final writes are program outputs: the exit state keeps every slot
    // live, so a trailing write is never flagged.
    compiler::Program good = progSkeleton(1, 4096.0);
    addMemInst(good, {{0, 7, 100.0, true}});
    addMemInst(good, {{0, 7, 100.0, false}});
    addMemInst(good, {{0, 7, 100.0, true}});
    EXPECT_TRUE(programReport(good).empty());
}

TEST(DataflowProgramRules, SpadOvercommitPositiveAndNegative)
{
    compiler::Program bad = progSkeleton(2, 150.0);
    addMemInst(bad, {{0, compiler::kCtBase + 1, 100.0, false},
                     {1, compiler::kCtBase + 2, 100.0, false}});
    // Traffic rules count synthetic-ciphertext accesses too.
    EXPECT_TRUE(rulesIn(programReport(bad)).count("df-spad-overcommit"));

    compiler::Program good = progSkeleton(2, 4096.0);
    addMemInst(good, {{0, compiler::kCtBase + 1, 100.0, false},
                      {1, compiler::kCtBase + 2, 100.0, false}});
    EXPECT_TRUE(programReport(good).empty());
}

TEST(DataflowProgramRules, LoopMemdepPositiveAndNegative)
{
    compiler::Program bad = progSkeleton(1, 4096.0);
    addStreamInst(bad);
    addMemInst(bad, {{0, 7, 100.0, false}});
    bad.loops.edit().push_back(compiler::BcLoop{2, 1, 3}); // body = the Mem inst
    EXPECT_TRUE(rulesIn(programReport(bad)).count("df-loop-memdep"));

    compiler::Program good = progSkeleton(0, 4096.0);
    addStreamInst(good);
    addStreamInst(good);
    good.loops.edit().push_back(compiler::BcLoop{2, 1, 3});
    EXPECT_TRUE(programReport(good).empty());
}

TEST(DataflowProgramRules, SyntheticCiphertextIdsAreSkippedByValueFlow)
{
    // Identical shape to the use-before-def positive, but the buffer id
    // sits in the lowering's pseudorandom ciphertext pool — def-use
    // order there is the locality model rolling dice, not value flow.
    compiler::Program p = progSkeleton(2, 4096.0);
    addMemInst(p, {{0, compiler::kCtBase + 5, 100.0, false}});
    addMemInst(p, {{0, compiler::kCtBase + 5, 100.0, true}});
    EXPECT_TRUE(programReport(p).empty());

    EXPECT_TRUE(compiler::syntheticCiphertextId(compiler::kCtBase));
    EXPECT_FALSE(compiler::syntheticCiphertextId(compiler::kEvkBase));
    EXPECT_FALSE(compiler::syntheticCiphertextId(7));
}

TEST(DataflowProgramRules, ComposedProgramsRecurseIntoParts)
{
    compiler::Program outer = progSkeleton(0, 0.0);
    compiler::Program part = progSkeleton(2, 4096.0);
    addMemInst(part, {{0, 7, 100.0, false}});
    addMemInst(part, {{0, 7, 100.0, true}});
    outer.parts.push_back(std::move(part));
    EXPECT_TRUE(
        rulesIn(programReport(outer)).count("df-slot-use-before-def"));
}

// ---------------------------------------------------------------------
// Builtins are dataflow-clean end to end (trace + compiled Program).

TEST(DataflowPipeline, BuiltinCkksSuiteIsDataflowClean)
{
    const sim::UfcModel model;
    for (const Trace &tr : workloads::ckksSuite(ckks::CkksParams::c2())) {
        const compiler::Program program = model.compile(tr);
        const DiagnosticReport rep =
            linter().analyzeDataflow(tr, program);
        EXPECT_TRUE(rep.empty()) << tr.name << ":\n" << rep.toText();
    }
}

TEST(DataflowPipeline, BuiltinTfheSuiteIsDataflowCleanOnUfc)
{
    const sim::UfcModel model;
    for (const Trace &tr : workloads::tfheSuite(tfhe::TfheParams::t3())) {
        const compiler::Program program = model.compile(tr);
        const DiagnosticReport rep =
            linter().analyzeDataflow(tr, program);
        EXPECT_TRUE(rep.empty()) << tr.name << ":\n" << rep.toText();
    }
}

TEST(DataflowPipeline, StrixPbsOvercommitsItsScratchpad)
{
    // A real finding, kept as a characterization test: one PBS
    // bootstrap-key operand (~29 MB at T3) exceeds Strix's 16 MiB
    // scratchpad, so the operand can never be resident and every touch
    // streams.  UFC's larger scratchpad absorbs it (test above).
    const sim::StrixModel model;
    const Trace tr = workloads::pbsThroughput(tfhe::TfheParams::t3());
    const DiagnosticReport rep =
        linter().analyzeDataflow(tr, model.compile(tr));
    EXPECT_EQ(rep.errorCount(), 0u) << rep.toText();
    EXPECT_TRUE(rulesIn(rep).count("df-spad-overcommit"))
        << rep.toText();
}

// ---------------------------------------------------------------------
// Static cost bounds.

TEST(DataflowBounds, FittingWorkingSetMakesHbmBoundsExact)
{
    compiler::Program p = progSkeleton(1, 4096.0);
    addMemInst(p, {{0, 7, 100.0, false}}, 50.0);
    const CostBounds b = analysis::analyzeCostBounds(p);
    EXPECT_TRUE(b.fits);
    // First-touch read only, no writeback: exact up to the guard band.
    EXPECT_NEAR(b.hbmLower, 100.0, 1e-3);
    EXPECT_NEAR(b.hbmUpper, 100.0, 1e-3);
    EXPECT_LE(b.hbmLower, b.hbmUpper);
    EXPECT_NEAR(b.computeCycles, 50.0, 1e-9);
    EXPECT_GE(b.cyclesUpper, b.cyclesLower);
    EXPECT_NEAR(b.peakLiveSlotBytes, 100.0, 1e-9);
}

TEST(DataflowBounds, OverflowingWorkingSetWidensHbmBounds)
{
    compiler::Program p = progSkeleton(2, 150.0);
    // Two slots that cannot co-reside, re-read: reads may hit or miss.
    addMemInst(p, {{0, 7, 100.0, false}});
    addMemInst(p, {{1, 8, 100.0, false}});
    addMemInst(p, {{0, 7, 100.0, false}});
    const CostBounds b = analysis::analyzeCostBounds(p);
    EXPECT_FALSE(b.fits);
    EXPECT_LT(b.hbmLower, b.hbmUpper);
    EXPECT_NEAR(b.hbmLower, 200.0, 1e-3); // first touch of both slots
    EXPECT_NEAR(b.hbmUpper, 300.0, 1e-3); // every read misses
}

TEST(DataflowBounds, LoopTripsWeighTheBounds)
{
    compiler::Program p = progSkeleton(0, 0.0);
    addStreamInst(p, 80.0); // 10 compute + 10 mem cycles at 8 B/cycle
    compiler::Program looped = progSkeleton(0, 0.0);
    addStreamInst(looped, 80.0);
    looped.loops.edit().push_back(compiler::BcLoop{1, 1, 4});

    const CostBounds once = analysis::analyzeCostBounds(p);
    const CostBounds four = analysis::analyzeCostBounds(looped);
    EXPECT_NEAR(four.computeCycles, 4.0 * once.computeCycles, 1e-6);
    EXPECT_NEAR(four.hbmUpper, 4.0 * once.hbmUpper, 1e-3);
}

TEST(DataflowBounds, BoundsBracketTheEngineOnABuiltin)
{
    const sim::UfcModel model;
    const Trace tr = workloads::helr(ckks::CkksParams::c2(), 2);
    const compiler::Program program = model.compile(tr);
    const CostBounds b = analysis::analyzeCostBounds(program);
    const sim::RunResult r = model.execute(program);
    EXPECT_LE(b.cyclesLower, r.stats.totalCycles);
    EXPECT_LE(r.stats.totalCycles, b.cyclesUpper);
    EXPECT_LE(b.hbmLower, r.stats.hbmBytes);
    EXPECT_LE(r.stats.hbmBytes, b.hbmUpper);
    EXPECT_GT(b.cyclesLower, 0.0);
    EXPECT_GT(b.hbmLower, 0.0);
}

// ---------------------------------------------------------------------
// Runner gates: soundness across the full paper sweep, results
// bit-identity, and the pre-flight failure path.

TEST(DataflowRunner, BoundsHoldAcrossFullPaperSweepBitIdentically)
{
    std::vector<runner::Job> plain =
        runner::allJobs(runner::paperSweeps());
    // Every paper job, the composed SHARP+Strix ones of Fig. 11
    // included: their bounds add up the two chips' sub-Programs.
    ASSERT_EQ(plain.size(), 150u);
    std::vector<runner::Job> gated = plain;
    for (runner::Job &j : gated) {
        j.options.dataflowLint = true;
        j.options.boundsCheck = true;
    }

    const runner::ExperimentRunner exec;
    runner::BatchResult base = exec.runAll(plain);
    runner::BatchResult audited = exec.runAll(gated);

    ASSERT_TRUE(base.allOk());
    ASSERT_TRUE(audited.allOk());
    ASSERT_EQ(base.results.size(), audited.results.size());
    for (std::size_t i = 0; i < base.results.size(); ++i) {
        // The gates observe, never perturb: full serialized records are
        // bit-identical once host time, the one legal delta, is zeroed.
        base.results[i].hostSeconds = audited.results[i].hostSeconds = 0.0;
        EXPECT_EQ(base.results[i].toJson(), audited.results[i].toJson())
            << plain[i].label;

        const runner::JobOutcome &o = audited.outcomes[i];
        EXPECT_TRUE(o.boundsChecked) << plain[i].label;
        EXPECT_GT(o.cyclesLower, 0.0) << plain[i].label;
        EXPECT_LE(o.cyclesLower, audited.results[i].stats.totalCycles)
            << plain[i].label;
        EXPECT_LE(audited.results[i].stats.totalCycles, o.cyclesUpper)
            << plain[i].label;
        EXPECT_LE(o.hbmLower, audited.results[i].stats.hbmBytes)
            << plain[i].label;
        EXPECT_LE(audited.results[i].stats.hbmBytes, o.hbmUpper)
            << plain[i].label;
    }
}

TEST(DataflowRunner, DataflowLintPreflightFailsOnlyTheBadJob)
{
    const auto model = std::make_shared<sim::UfcModel>();
    const auto good = std::make_shared<Trace>(
        workloads::helr(ckks::CkksParams::c2(), 2));
    Trace badTrace = ckksTrace();
    badTrace.name = "chain_underflow";
    badTrace.push(OpKind::CkksMult, 3);
    const auto bad = std::make_shared<Trace>(std::move(badTrace));

    sim::RunOptions opts;
    opts.dataflowLint = true;
    std::vector<runner::Job> jobs;
    jobs.push_back(runner::Job{"good", model, good, opts, ""});
    jobs.push_back(runner::Job{"bad", model, bad, opts, ""});

    const runner::BatchResult batch =
        runner::ExperimentRunner(runner::RunnerConfig{}).runAll(jobs);
    ASSERT_EQ(batch.outcomes.size(), 2u);
    EXPECT_TRUE(batch.outcomes[0].ok());
    EXPECT_FALSE(batch.outcomes[1].ok());
    EXPECT_EQ(batch.outcomes[1].errorKind, "TraceError");
    EXPECT_NE(batch.outcomes[1].message.find("df-chain-underflow"),
              std::string::npos)
        << batch.outcomes[1].message;
}

// ---------------------------------------------------------------------
// Committed df-* fixture corpus: each file flags exactly its rule id.

TEST(DataflowFixtures, CorpusFilesFlagTheirNamedRule)
{
    const std::vector<std::string> rules = {
        "df-chain-underflow",
        "df-double-rescale",
        "df-missed-rescale",
        "df-scale-mismatch",
    };
    for (const std::string &rule : rules) {
        const std::string path =
            std::string(UFC_FIXTURE_DIR) + "/lint/" + rule + ".ufctrace";
        const Trace tr = trace::loadTrace(path);
        const DiagnosticReport rep = linter().analyzeDataflow(tr);
        const auto present = rulesIn(rep);
        EXPECT_TRUE(present.count(rule)) << path << ":\n" << rep.toText();
        for (const auto &d : rep.diagnostics())
            EXPECT_EQ(d.rule, rule) << path << ":\n" << rep.toText();
    }
}

} // namespace
} // namespace ufc
