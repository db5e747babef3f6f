/**
 * @file
 * Differential gate for the trace-to-bytecode JIT: the compiled-Program
 * path (compile + execute on sim::BytecodeEngine), the only engine a job
 * runs on, must be bit-identical to the reference trace-IR engine
 * (AcceleratorModel::runTraceIr: compiler::Lowering feeding
 * sim::CycleEngine) on every observable — cycles, energy, per-opcode
 * attribution, stall causes, timeline slices, and typed-error
 * diagnostics — across the builtin workloads, the malformed/lint
 * fixture corpora, and fuzzed trace text.
 *
 * Comparison discipline: RunResult::toJson() prints doubles with
 * round-trip precision, so JSON string equality is bit equality over
 * the whole result (label, machine, workload, stats, breakdown).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "analysis/analyzer.h"
#include "common/error.h"
#include "common/fault.h"
#include "compiler/bytecode.h"
#include "runner/runner.h"
#include "runner/sweeps.h"
#include "sim/accelerator.h"
#include "sim/timeline.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

namespace ufc {
namespace sim {
namespace {

/** Both engines on one (model, trace, options) point must agree on the
 *  full serialized result. */
void
expectBitIdentical(const AcceleratorModel &model, const trace::Trace &tr,
                   const RunOptions &opts = RunOptions{})
{
    const RunResult bc = model.run(tr, opts);
    const RunResult ir = model.runTraceIr(tr, opts);
    EXPECT_EQ(bc.toJson(), ir.toJson())
        << model.name() << " on " << tr.name;
}

/** The builtin workload x machine grid the paper sweeps. */
std::vector<trace::Trace>
ckksTraces()
{
    const auto cp = ckks::CkksParams::c1();
    return {workloads::ckksBootstrapping(cp),
            workloads::sorting(cp, 1024),
            workloads::helr(cp, 2)};
}

std::vector<trace::Trace>
tfheTraces()
{
    const auto tp = tfhe::TfheParams::t4();
    return {workloads::pbsThroughput(tp, 64),
            workloads::tfheNn(tp, 2)};
}

trace::Trace
hybridTrace()
{
    return workloads::hybridKnn(ckks::CkksParams::c1(),
                                tfhe::TfheParams::t4(), 256);
}

TEST(BytecodeDifferential, UfcMatchesIrOnAllBuiltins)
{
    const UfcModel model;
    for (const auto &tr : ckksTraces())
        expectBitIdentical(model, tr);
    for (const auto &tr : tfheTraces())
        expectBitIdentical(model, tr);
    expectBitIdentical(model, hybridTrace());
}

TEST(BytecodeDifferential, BaselinesMatchIrOnTheirSchemes)
{
    const SharpModel sharp;
    for (const auto &tr : ckksTraces())
        expectBitIdentical(sharp, tr);
    const StrixModel strix;
    for (const auto &tr : tfheTraces())
        expectBitIdentical(strix, tr);
}

TEST(BytecodeDifferential, ComposedMatchesIrIncludingPartitioning)
{
    const ComposedModel composed;
    expectBitIdentical(composed, hybridTrace());
    // Degenerate partitions: all-CKKS (idle Strix) and all-TFHE (idle
    // SHARP) still agree, including the idle chip's static-energy term.
    expectBitIdentical(composed, ckksTraces().front());
    expectBitIdentical(composed, tfheTraces().front());
}

TEST(BytecodeDifferential, PrefetchWindowSweepMatchesIr)
{
    const UfcModel model;
    const auto tr = workloads::ckksBootstrapping(ckks::CkksParams::c1());
    for (int window : {0, 1, 4, 64}) {
        RunOptions opts;
        opts.prefetchWindow = window;
        expectBitIdentical(model, tr, opts);
    }
}

TEST(BytecodeDifferential, TimelineSlicesMatchIrBitExact)
{
    const auto tr = workloads::ckksBootstrapping(ckks::CkksParams::c1());
    const UfcModel ufc;
    const SharpModel sharp;
    for (const AcceleratorModel *model :
         std::initializer_list<const AcceleratorModel *>{&ufc, &sharp}) {
        Timeline bcTl;
        RunOptions bcOpts;
        bcOpts.timeline = &bcTl;
        const RunResult bc = model->run(tr, bcOpts);

        Timeline irTl;
        RunOptions irOpts;
        irOpts.timeline = &irTl;
        const RunResult ir = model->runTraceIr(tr, irOpts);

        EXPECT_EQ(bc.toJson(), ir.toJson());
        ASSERT_EQ(bcTl.slices().size(), irTl.slices().size())
            << model->name();
        for (size_t i = 0; i < bcTl.slices().size(); ++i) {
            const TimelineSlice &a = bcTl.slices()[i];
            const TimelineSlice &b = irTl.slices()[i];
            EXPECT_EQ(a.track, b.track) << i;
            EXPECT_EQ(a.depth, b.depth) << i;
            EXPECT_EQ(a.name, b.name) << i;
            EXPECT_EQ(a.beginCycle, b.beginCycle) << i;
            EXPECT_EQ(a.endCycle, b.endCycle) << i;
            EXPECT_EQ(a.bytes, b.bytes) << i;
        }
        // Observation changes nothing: with the timeline detached the
        // result is still the same.
        EXPECT_EQ(model->run(tr).stats.totalCycles, bc.stats.totalCycles);
    }
}

TEST(BytecodeDifferential, MaxCyclesTripsIdenticallyMidProgram)
{
    const UfcModel model;
    const auto tr = workloads::ckksBootstrapping(ckks::CkksParams::c1());
    RunOptions opts;
    opts.maxCycles = 50000; // trips well inside the program

    std::string bcWhat;
    try {
        model.run(tr, opts);
        FAIL() << "bytecode watchdog did not trip";
    } catch (const TimeoutError &e) {
        bcWhat = e.what();
    }
    std::string irWhat;
    try {
        model.runTraceIr(tr, opts);
        FAIL() << "IR watchdog did not trip";
    } catch (const TimeoutError &e) {
        irWhat = e.what();
    }
    // Same instruction, same simulated clock, same message bytes.
    EXPECT_EQ(bcWhat, irWhat);
    EXPECT_NE(bcWhat.find("maxCycles watchdog"), std::string::npos);
}

TEST(BytecodeDifferential, RunOptionsValidationParity)
{
    const UfcModel model;
    const auto tr = workloads::sorting(ckks::CkksParams::c1(), 256);
    RunOptions bad;
    bad.prefetchWindow = -5;
    EXPECT_THROW(model.run(tr, bad), ConfigError);
    EXPECT_THROW(model.runTraceIr(tr, bad), ConfigError);
    EXPECT_THROW(model.execute(model.compile(tr), bad), ConfigError);
}

/** what() of the ConfigError `fn` throws; "" when it throws none. */
template <typename Fn>
std::string
configErrorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

/** A chip fed a trace of a scheme it does not admit rejects it with the
 *  same ConfigError message on every path: run(), the reference
 *  runTraceIr(), compile(), compileStream() and a runner batch job. */
void
expectRejectedEverywhere(const std::shared_ptr<const AcceleratorModel> &model,
                         const trace::Trace &tr, const std::string &expected)
{
    SCOPED_TRACE(model->name() + " on " + tr.name);
    EXPECT_EQ(expected, configErrorOf([&] { model->run(tr); }));
    EXPECT_EQ(expected, configErrorOf([&] { model->runTraceIr(tr, {}); }));
    EXPECT_EQ(expected, configErrorOf([&] { model->compile(tr); }));
    std::stringstream text;
    trace::writeTrace(tr, text);
    EXPECT_EQ(expected, configErrorOf([&] { model->compileStream(text); }));

    runner::Job job;
    job.label = "reject";
    job.model = model;
    job.trace = std::make_shared<const trace::Trace>(tr);
    const auto batch = runner::ExperimentRunner().runAll({job});
    ASSERT_EQ(1u, batch.outcomes.size());
    EXPECT_EQ(runner::JobStatus::Failed, batch.outcomes[0].status);
    EXPECT_EQ("ConfigError", batch.outcomes[0].errorKind);
    EXPECT_EQ(expected, batch.outcomes[0].message);
}

TEST(BytecodeDifferential, SchemeRejectionParity)
{
    const auto tfhe = tfheTraces().front();
    expectRejectedEverywhere(
        std::make_shared<SharpModel>(), tfhe,
        "SHARP only supports SIMD-scheme (CKKS) operations; trace '" +
            tfhe.name + "' contains TFHE ops");
    const auto ckks = ckksTraces().front();
    expectRejectedEverywhere(
        std::make_shared<StrixModel>(), ckks,
        "Strix only supports logic-scheme (TFHE) operations; trace '" +
            ckks.name + "' contains non-TFHE ops");
}

/** Run both engines on a parsed trace; returns true when the outcomes
 *  (success JSON or typed-error kind+message) are identical.  A
 *  maxCycles net bounds hostile inputs — tripping it identically on
 *  both paths is itself the parity being asserted. */
testing::AssertionResult
outcomesMatch(const AcceleratorModel &model, const trace::Trace &tr)
{
    RunOptions base;
    base.maxCycles = 100000000; // hostile-input safety net
    const auto outcome = [](const auto &run) -> std::string {
        try {
            return "ok:" + run().toJson();
        } catch (const Error &e) {
            return std::string("error:") + e.kind() + ":" + e.what();
        }
    };
    const std::string bcOut = outcome([&] { return model.run(tr, base); });
    const std::string irOut =
        outcome([&] { return model.runTraceIr(tr, base); });
    if (bcOut == irOut)
        return testing::AssertionSuccess();
    return testing::AssertionFailure()
           << "trace '" << tr.name << "' diverged:\n  bytecode: "
           << bcOut.substr(0, 200) << "\n  trace-ir: "
           << irOut.substr(0, 200);
}

/** Trace-level lint gate, as the runner's lintTraces pre-flight: a
 *  trace with Error-severity findings feeds garbage geometry (division
 *  by zero decomposition levels, log2 of a non-power-of-two) into any
 *  lowering, so neither engine path may legally simulate it. */
bool
simulatable(const trace::Trace &tr)
{
    static const analysis::Analyzer linter;
    return linter.analyze(tr).errorCount() == 0;
}

TEST(BytecodeDifferential, FixtureCorporaParity)
{
    const UfcModel model;
    int compared = 0;
    for (const auto &entry : std::filesystem::recursive_directory_iterator(
             UFC_FIXTURE_DIR)) {
        if (entry.path().extension() != ".ufctrace")
            continue;
        trace::Trace tr;
        try {
            tr = trace::loadTrace(entry.path().string());
        } catch (const TraceError &) {
            continue; // unparseable: no simulation on either path
        }
        if (!simulatable(tr))
            continue; // runner pre-flight rejects before either engine
        EXPECT_TRUE(outcomesMatch(model, tr)) << entry.path();
        ++compared;
    }
    // The corpus must actually exercise the comparison (valid_small
    // plus the warning-severity lint fixtures).
    EXPECT_GE(compared, 3);
}

TEST(BytecodeDifferential, FuzzedTracesParity)
{
    std::ostringstream os;
    trace::writeTrace(workloads::sorting(ckks::CkksParams::c1(), 256),
                      os);
    const std::string good = os.str();
    const FaultInjector faults(2026, 0.0);
    const UfcModel model;
    int compared = 0;
    for (u64 salt = 0; salt < 64; ++salt) {
        const std::string hostile = faults.corruptTraceText(good, salt);
        std::stringstream ss(hostile);
        trace::Trace tr;
        try {
            tr = trace::readTrace(ss);
        } catch (const TraceError &) {
            continue; // rejected at parse: no simulation on either path
        }
        if (!simulatable(tr))
            continue;
        EXPECT_TRUE(outcomesMatch(model, tr)) << "salt " << salt;
        ++compared;
    }
    EXPECT_GT(compared, 0);
}

// ---------------------------------------------------------------------
// Compile/execute API surface.

TEST(BytecodeProgram, RunShimEqualsCompileThenExecute)
{
    const UfcModel model;
    const auto tr = workloads::ckksBootstrapping(ckks::CkksParams::c1());
    const compiler::Program program = model.compile(tr);
    EXPECT_EQ(model.run(tr).toJson(), model.execute(program).toJson());
    // A Program is immutable: executing it again gives the same bytes.
    EXPECT_EQ(model.execute(program).toJson(),
              model.execute(program).toJson());
}

TEST(BytecodeProgram, StampsWorkloadMachineAndHash)
{
    const UfcModel model;
    const auto tr = workloads::sorting(ckks::CkksParams::c1(), 512);
    const compiler::Program program = model.compile(tr);
    EXPECT_EQ(program.workload, tr.name);
    EXPECT_EQ(program.machine, model.name());
    EXPECT_EQ(program.traceHash, trace::contentHash(tr));
    EXPECT_FALSE(program.code.empty());
    EXPECT_FALSE(program.composed());
}

TEST(BytecodeProgram, RejectsForeignAndComposedPrograms)
{
    const auto tr = ckksTraces().front();
    const UfcModel ufc;
    const SharpModel sharp;
    // Compiled-for-UFC executed on SHARP: machine mismatch.
    EXPECT_THROW(sharp.execute(ufc.compile(tr)), ConfigError);
    // A composed Program cannot run on a single-chip model...
    const ComposedModel composed;
    const compiler::Program hybrid = composed.compile(hybridTrace());
    EXPECT_TRUE(hybrid.composed());
    EXPECT_THROW(ufc.execute(hybrid), ConfigError);
    // ...and a single-chip Program cannot run on the composed system.
    EXPECT_THROW(composed.execute(ufc.compile(tr)), ConfigError);
}

TEST(BytecodeProgram, ContentHashTracksContent)
{
    const auto cp = ckks::CkksParams::c1();
    auto a = workloads::sorting(cp, 512);
    auto b = workloads::sorting(cp, 512);
    EXPECT_EQ(trace::contentHash(a), trace::contentHash(b));
    b.name = "renamed";
    EXPECT_NE(trace::contentHash(a), trace::contentHash(b));
    auto c = workloads::sorting(cp, 512);
    c.ops.back().count += 1;
    EXPECT_NE(trace::contentHash(a), trace::contentHash(c));
}

TEST(BytecodeProgram, ProgramCacheCompilesOncePerModelTracePair)
{
    runner::ProgramCache cache;
    const auto model = std::make_shared<UfcModel>();
    const auto tr = workloads::sorting(ckks::CkksParams::c1(), 512);

    const auto p1 = cache.get(*model, tr);
    const auto p2 = cache.get(*model, tr);
    EXPECT_EQ(p1.get(), p2.get()); // same shared Program object
    EXPECT_EQ(cache.compiles(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // A different model instance gets its own Program, but one with an
    // equal lowering key re-costs the installed body instead of
    // lowering the trace again (DSE points share code, not costs).
    const auto other = std::make_shared<UfcModel>();
    const auto p3 = cache.get(*other, tr);
    EXPECT_NE(p1.get(), p3.get());
    EXPECT_TRUE(p3->code.sharesWith(p1->code));
    EXPECT_EQ(cache.compiles(), 1u);
    EXPECT_EQ(cache.recosts(), 1u);

    // Cached Programs execute identically to a fresh run.
    EXPECT_EQ(model->execute(*p1).toJson(), model->run(tr).toJson());
}

TEST(BytecodeProgram, RunnerBatchMatchesIrBatch)
{
    const auto model = std::make_shared<UfcModel>();
    const auto tr = std::make_shared<const trace::Trace>(
        workloads::ckksBootstrapping(ckks::CkksParams::c1()));
    std::vector<runner::Job> jobs;
    for (int window : {0, 4, 64}) {
        runner::Job job;
        job.label = "bc/w" + std::to_string(window);
        job.model = model;
        job.trace = tr;
        job.options.prefetchWindow = window;
        jobs.push_back(job);
    }
    const auto batch = runner::ExperimentRunner().runAll(jobs);
    ASSERT_TRUE(batch.allOk());
    for (size_t i = 0; i < jobs.size(); ++i) {
        auto bc = batch.results[i];
        auto ir = model->runTraceIr(*tr, jobs[i].options);
        // Normalize the per-job fields that legitimately differ.
        ir.label = bc.label;
        ir.hostSeconds = bc.hostSeconds = 0.0;
        EXPECT_EQ(bc.toJson(), ir.toJson()) << jobs[i].label;
    }
}

TEST(BytecodeProgram, OnePassAnalyzeLoweredStaysCleanOnBuiltins)
{
    // analyzeLowered verifies through the same one-pass lowering that
    // emits bytecode (VerifyingSink composed with ProgramBuilder), plus
    // the bytecode program checks; builtin workloads stay clean.
    const analysis::Analyzer analyzer;
    const UfcModel model;
    for (const auto &tr : ckksTraces()) {
        const auto rep =
            analyzer.analyzeLowered(tr, model.loweringOptions());
        EXPECT_TRUE(rep.clean()) << tr.name << "\n" << rep.toText();
    }
}

TEST(BytecodeProgram, CompileReservesBodyExactly)
{
    // compileTrace's sizing pre-pass reserves the record, operand and
    // phase-event arrays exactly; the slack that growth by doubling
    // would leave is what keeps a compile-bound sweep's peak RSS down.
    // edit() does not copy here: a freshly compiled Program is its
    // arrays' only owner.
    std::size_t checked = 0;
    for (const runner::Job &job : runner::allJobs(runner::paperSweeps())) {
        compiler::Program program = job.model->compile(*job.trace);
        if (program.composed())
            continue;
        const auto &code = program.code.edit();
        const auto &bufs = program.bufs.edit();
        const auto &events = program.phaseEvents.edit();
        EXPECT_EQ(code.capacity(), code.size()) << job.label;
        EXPECT_EQ(bufs.capacity(), bufs.size()) << job.label;
        EXPECT_EQ(events.capacity(), events.size()) << job.label;
        ++checked;
    }
    EXPECT_GT(checked, 0u);
}

// ---------------------------------------------------------------------
// Structural repeat folding (Program::loops).

/** A TFHE program whose blind rotate folded into Program loops. */
compiler::Program
foldedTfheProgram(const UfcModel &model)
{
    const compiler::Program program = model.compile(
        workloads::pbsThroughput(tfhe::TfheParams::t4(), 64));
    EXPECT_FALSE(program.loops.empty())
        << "TVLP blind rotate should fold its key-reusing iterations";
    return program;
}

TEST(BytecodeLoops, TfheProgramFoldsAndReplaysExactly)
{
    const UfcModel model;
    const compiler::Program program = foldedTfheProgram(model);
    // Folding must shrink the stored stream without losing executions:
    // the executor steps exactly as many instructions as the IR
    // interpreter issues.
    EXPECT_GT(program.totalInsts(), program.code.size());
    const RunResult run = model.execute(program);
    EXPECT_EQ(run.stats.instCount, program.totalInsts());

    analysis::DiagnosticReport rep;
    compiler::verifyProgram(program, rep);
    EXPECT_TRUE(rep.clean()) << rep.toText();
}

TEST(BytecodeLoops, LoopedProgramMatchesIrAcrossPrefetchWindows)
{
    const UfcModel model;
    const auto tr = workloads::pbsThroughput(tfhe::TfheParams::t4(), 64);
    for (int window : {0, 1, 4, 64}) {
        RunOptions opts;
        opts.prefetchWindow = window;
        expectBitIdentical(model, tr, opts);
    }
}

TEST(BytecodeLoops, LoopedTimelineSlicesMatchIrBitExact)
{
    // Phase markers recorded at a fold's end index must fire once,
    // after the final trip — exactly where the unrolled IR stream puts
    // them — and every replayed body instruction emits its own slices.
    const UfcModel model;
    const auto tr = workloads::pbsThroughput(tfhe::TfheParams::t4(), 16);
    Timeline bcTl;
    RunOptions bcOpts;
    bcOpts.timeline = &bcTl;
    const RunResult bc = model.run(tr, bcOpts);

    Timeline irTl;
    RunOptions irOpts;
    irOpts.timeline = &irTl;
    const RunResult ir = model.runTraceIr(tr, irOpts);

    EXPECT_EQ(bc.toJson(), ir.toJson());
    ASSERT_EQ(bcTl.slices().size(), irTl.slices().size());
    for (size_t i = 0; i < bcTl.slices().size(); ++i) {
        const TimelineSlice &a = bcTl.slices()[i];
        const TimelineSlice &b = irTl.slices()[i];
        EXPECT_EQ(a.track, b.track) << i;
        EXPECT_EQ(a.name, b.name) << i;
        EXPECT_EQ(a.beginCycle, b.beginCycle) << i;
        EXPECT_EQ(a.endCycle, b.endCycle) << i;
        EXPECT_EQ(a.bytes, b.bytes) << i;
    }
}

TEST(BytecodeLoops, MaxCyclesTripsIdenticallyInsideLoop)
{
    const UfcModel model;
    const auto tr = workloads::pbsThroughput(tfhe::TfheParams::t4(), 64);
    RunOptions opts;
    opts.maxCycles = 200000; // trips inside the folded blind rotate

    std::string bcWhat;
    try {
        model.run(tr, opts);
        FAIL() << "bytecode watchdog did not trip";
    } catch (const TimeoutError &e) {
        bcWhat = e.what();
    }
    std::string irWhat;
    try {
        model.runTraceIr(tr, opts);
        FAIL() << "IR watchdog did not trip";
    } catch (const TimeoutError &e) {
        irWhat = e.what();
    }
    EXPECT_EQ(bcWhat, irWhat);
}

TEST(BytecodeLoops, VerifierFlagsMalformedLoops)
{
    const UfcModel model;
    const compiler::Program good = foldedTfheProgram(model);
    ASSERT_FALSE(good.loops.empty());

    auto firstRule = [](const compiler::Program &p) -> std::string {
        analysis::DiagnosticReport rep;
        compiler::verifyProgram(p, rep);
        return rep.errorCount() ? rep.firstError()->rule : "";
    };

    compiler::Program degenerate = good;
    degenerate.loops.edit().front().trips = 1;
    EXPECT_EQ(firstRule(degenerate), "bc-loop-invariant");

    compiler::Program oob = good;
    oob.loops.edit().back().end = oob.code.size() + 7;
    EXPECT_EQ(firstRule(oob), "bc-loop-invariant");

    compiler::Program cached = good;
    cached.code.edit()[cached.loops[0].end - 1].kind = compiler::BcKind::Mem;
    EXPECT_EQ(firstRule(cached), "bc-loop-invariant");

    compiler::Program marked = good;
    const compiler::BcLoop &lp = marked.loops[0];
    auto &events = marked.phaseEvents.edit();
    events.push_back(compiler::PhaseEvent{
        lp.end - (lp.bodyLen > 1 ? 1 : 0), compiler::PhaseEvent::kEnd});
    std::sort(events.begin(), events.end(),
              [](const compiler::PhaseEvent &a,
                 const compiler::PhaseEvent &b) { return a.inst < b.inst; });
    if (lp.bodyLen > 1) {
        EXPECT_EQ(firstRule(marked), "bc-loop-invariant");
    }
}

TEST(BytecodeLoops, EngineRejectsMalformedLoopTable)
{
    // The executor trusts the loop table for control flow, so a
    // mutated Program must be screened out, not walked off the end.
    const UfcModel model;
    compiler::Program program = foldedTfheProgram(model);
    ASSERT_FALSE(program.loops.empty());
    program.loops.edit().front().end = program.code.size() + 1;
    EXPECT_THROW(model.execute(program), ConfigError);
}

TEST(BytecodeLoops, DisassemblyShowsRepeats)
{
    const UfcModel model;
    const compiler::Program program = foldedTfheProgram(model);
    std::ostringstream os;
    compiler::disassemble(program, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("repeat "), std::string::npos);
    EXPECT_NE(text.find("executed="), std::string::npos);
}

TEST(BytecodeLoops, LintRuleRegistered)
{
    bool saw = false;
    for (const auto &rule : analysis::ruleRegistry())
        if (std::string_view(rule.id) == "bc-loop-invariant")
            saw = true;
    EXPECT_TRUE(saw);
}

TEST(BytecodeProgram, DisassemblyListsOpsAndPhases)
{
    const UfcModel model;
    const compiler::Program program =
        model.compile(workloads::ckksBootstrapping(ckks::CkksParams::c1()));
    std::ostringstream os;
    compiler::disassemble(program, os);
    const std::string text = os.str();
    EXPECT_NE(text.find(program.workload), std::string::npos);
    EXPECT_NE(text.find("key_switch"), std::string::npos);
    EXPECT_NE(text.find("loops="), std::string::npos);
}

} // namespace
} // namespace sim
} // namespace ufc
