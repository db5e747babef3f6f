/**
 * @file
 * Accelerator model implementations.
 *
 * Re-entrancy audit (relied on by src/runner/): every compile()/execute()
 * /run() builds its engine, scratchpad and lowering state on the stack,
 * the MachinePerf implementations are stateless over const configs, and
 * no function-local statics exist anywhere on this path — so concurrent
 * calls on the same model instance are safe and bit-deterministic.
 *
 * Bit-exactness: the bytecode path (compile + execute) and the legacy IR
 * path (runTraceIr) must produce identical RunResults.  Shared helpers
 * keep them aligned: the cost-model attach functions take a RunStats
 * regardless of which engine produced it, and ComposedModel routes both
 * paths through the same partition() and combine() arithmetic.
 */

#include "sim/accelerator.h"

#include <cstdint>

#include "common/error.h"
#include "sim/bc_engine.h"
#include "sim/timeline.h"

namespace ufc {
namespace sim {

namespace {

/** Run one trace through a lowering + engine pair (legacy IR path). */
RunStats
lowerAndRun(const trace::Trace &tr, const compiler::LoweringOptions &opts,
            const MachinePerf &perf, const RunOptions &runOpts)
{
    validateRunOptions(runOpts);
    CycleEngine engine(&perf, resolvedPrefetchWindow(runOpts));
    engine.setMaxCycles(runOpts.maxCycles);
    engine.setHostDeadline(runOpts.hostDeadline);
    if (runOpts.timeline) {
        runOpts.timeline->clear();
        engine.setTimeline(runOpts.timeline);
    }
    compiler::Lowering lowering(&tr, opts, &engine);
    lowering.run();
    return engine.finish();
}

/**
 * Execute a compiled single-chip Program.  Applies RunOptions exactly as
 * lowerAndRun() does — same validation, same window resolution, same
 * watchdog/deadline arming, same timeline clearing — so a given options
 * value behaves identically on either path (including the TimeoutError
 * diagnostics, which both engines emit through sim::detail helpers).
 */
RunStats
executeProgram(const compiler::Program &program, const std::string &machine,
               const MachinePerf &perf, const RunOptions &runOpts)
{
    validateRunOptions(runOpts);
    UFC_EXPECT(!program.composed(), ConfigError,
               "composed Program '" << program.workload
                   << "' executed on single-chip model '" << machine
                   << "'");
    UFC_EXPECT(program.machine == machine, ConfigError,
               "Program '" << program.workload << "' compiled for '"
                   << program.machine << "' executed on '" << machine
                   << "'");
    // Names do not identify a machine (every UfcConfig is "UFC"), so
    // the cost terms' provenance is checked by value.
    UFC_EXPECT(program.machineDigest == perf.digest(), ConfigError,
               "Program '" << program.workload << "' was costed for other '"
                   << machine << "' machine constants (digest "
                   << std::hex << program.machineDigest << ", model "
                   << perf.digest() << std::dec
                   << "); recost it for this model");
    BytecodeEngine engine(&program, resolvedPrefetchWindow(runOpts));
    engine.setMaxCycles(runOpts.maxCycles);
    engine.setHostDeadline(runOpts.hostDeadline);
    if (runOpts.timeline) {
        runOpts.timeline->clear();
        engine.setTimeline(runOpts.timeline);
    }
    return engine.run();
}

/** Fill the non-stats fields common to every model's result. */
void
stamp(RunResult &r, const RunOptions &opts, const std::string &machine,
      const std::string &workload)
{
    r.label = opts.label;
    r.verbosity = opts.verbosity;
    r.machine = machine;
    r.workload = workload;
}

/** Cost-model attach shared by the two baseline chips. */
RunResult
attachBaseline(const BaselineCost &cost, double areaMm2,
               const RunStats &stats, const RunOptions &opts,
               const std::string &machine, const std::string &workload)
{
    RunResult r;
    stamp(r, opts, machine, workload);
    r.stats = stats;
    r.seconds = cost.seconds(stats);
    r.powerW = cost.averagePowerW(stats);
    r.energyJ = cost.energyJ(stats);
    r.energyStaticJ = cost.staticEnergyJ(stats);
    r.energyHbmJ = cost.hbmEnergyJ(stats);
    r.areaMm2 = areaMm2;
    return r;
}

/** Lowering key of a single-chip model: its class (which fixes the
 *  scheme admission and the cost expressions) and the options read. */
u64
chipLoweringKey(u64 classTag, const compiler::LoweringOptions &opts,
                const trace::Trace &tr)
{
    u64 h = classTag;
    trace::detail::mix64(h, compiler::loweringKey(opts, tr));
    return h;
}

constexpr u64 kUfcKeyTag = 0x55464300;   // "UFC"
constexpr u64 kSharpKeyTag = 0x53484150; // "SHAP"
constexpr u64 kStrixKeyTag = 0x53545258; // "STRX"

} // namespace

compiler::Program
AcceleratorModel::compileWithHash(const trace::Trace &tr, u64) const
{
    return compile(tr);
}

u64
AcceleratorModel::loweringKey(const trace::Trace &) const
{
    // Unique per instance: nothing else ever shares this model's bodies.
    u64 h = trace::detail::kFnvOffset;
    trace::detail::mix64(h, reinterpret_cast<std::uintptr_t>(this));
    return h;
}

compiler::Program
AcceleratorModel::recost(const compiler::Program &lowered) const
{
    UFC_THROW(ConfigError, "model '" << name()
                                     << "' cannot re-cost Program '"
                                     << lowered.workload
                                     << "'; compile it instead");
}

RunResult
AcceleratorModel::run(const trace::Trace &tr, const RunOptions &opts) const
{
    if (opts.execMode == ExecMode::TraceIr)
        return runTraceIr(tr, opts);
    // Fail fast on bad options before paying for the compile; execute()
    // re-validates for direct callers.
    validateRunOptions(opts);
    return execute(compile(tr), opts);
}

compiler::Program
AcceleratorModel::compileStream(std::istream &is,
                                std::size_t chunkBytes) const
{
    // Whole-trace fallback for models that need a global view
    // (ComposedModel's scheme partition).  The shim readTrace() already
    // reads in chunks; the caller's chunkBytes only bounds streaming
    // overrides, so it is unused here.
    (void)chunkBytes;
    return compile(trace::readTrace(is));
}

UfcModel::UfcModel(const UfcConfig &cfg, compiler::Parallelism par)
    : cfg_(cfg), parallelism_(par)
{}

compiler::LoweringOptions
UfcModel::loweringOptions() const
{
    compiler::LoweringOptions opts;
    opts.wordBits = cfg_.wordBits;
    opts.totalVectorLanes = cfg_.totalLanes();
    opts.autoViaNtt = true;
    opts.smallPolyPacking = cfg_.smallPolyPacking;
    opts.parallelism = parallelism_;
    opts.onTheFlyKeyGen = cfg_.onTheFlyKeyGen;
    return opts;
}

double
UfcModel::areaMm2() const
{
    return UfcCostModel(cfg_).areaMm2();
}

RunResult
UfcModel::attach(const RunStats &stats, const RunOptions &opts,
                 const std::string &workload) const
{
    UfcCostModel cost(cfg_);
    RunResult r;
    stamp(r, opts, name(), workload);
    r.stats = stats;
    r.seconds = cost.seconds(stats);
    r.powerW = cost.averagePowerW(stats);
    r.energyJ = cost.energyJ(stats);
    r.energyStaticJ = cost.staticEnergyJ(stats);
    r.energyHbmJ = cost.hbmEnergyJ(stats);
    r.areaMm2 = cost.areaMm2();
    return r;
}

compiler::Program
UfcModel::compile(const trace::Trace &tr) const
{
    return compileWithHash(tr, 0);
}

compiler::Program
UfcModel::compileWithHash(const trace::Trace &tr, u64 traceHash) const
{
    UfcPerf perf(cfg_);
    return compiler::compileTrace(tr, loweringOptions(), perf, name(),
                                  nullptr, traceHash);
}

u64
UfcModel::loweringKey(const trace::Trace &tr) const
{
    return chipLoweringKey(kUfcKeyTag, loweringOptions(), tr);
}

compiler::Program
UfcModel::recost(const compiler::Program &lowered) const
{
    return compiler::recost(lowered, UfcPerf(cfg_), name());
}

compiler::Program
UfcModel::compileStream(std::istream &is, std::size_t chunkBytes) const
{
    UfcPerf perf(cfg_);
    return compiler::compileTraceStream(is, loweringOptions(), perf,
                                        name(), nullptr, {}, chunkBytes);
}

RunResult
UfcModel::execute(const compiler::Program &program,
                  const RunOptions &opts) const
{
    return attach(executeProgram(program, name(), UfcPerf(cfg_), opts),
                  opts, program.workload);
}

RunResult
UfcModel::runTraceIr(const trace::Trace &tr, const RunOptions &opts) const
{
    UfcPerf perf(cfg_);
    return attach(lowerAndRun(tr, loweringOptions(), perf, opts), opts,
                  tr.name);
}

SharpModel::SharpModel(const baselines::SharpConfig &cfg) : cfg_(cfg) {}

void
SharpModel::rejectUnsupported(const trace::Trace &tr) const
{
    for (const auto &op : tr.ops) {
        // Ring-side scheme-switching ops (extract/repack) are CKKS-style
        // polynomial work; only logic-scheme ops are unsupported.  A
        // trace/machine mismatch is a job-configuration fault, not an
        // internal bug — recoverable, so a sweep survives it.
        UFC_EXPECT(op.scheme() != trace::Scheme::Tfhe, ConfigError,
                   "SHARP only supports SIMD-scheme (CKKS) operations; "
                   "trace '" << tr.name << "' contains TFHE ops");
    }
}

compiler::LoweringOptions
SharpModel::loweringOptions() const
{
    compiler::LoweringOptions lopts;
    lopts.wordBits = cfg_.wordBits;
    lopts.totalVectorLanes = 2048;
    lopts.autoViaNtt = false;       // all-to-all NoC automorphism
    lopts.smallPolyPacking = false;
    lopts.onTheFlyKeyGen = true;    // SHARP also generates keys on die
    return lopts;
}

RunResult
SharpModel::attach(const RunStats &stats, const RunOptions &opts,
                   const std::string &workload) const
{
    const BaselineCost cost{cfg_.areaMm2, cfg_.staticW,
                            cfg_.peakDynamicW, 30.0, cfg_.freqGHz};
    return attachBaseline(cost, cfg_.areaMm2, stats, opts, name(),
                          workload);
}

compiler::Program
SharpModel::compile(const trace::Trace &tr) const
{
    return compileWithHash(tr, 0);
}

compiler::Program
SharpModel::compileWithHash(const trace::Trace &tr, u64 traceHash) const
{
    rejectUnsupported(tr);
    baselines::SharpPerf perf(cfg_);
    return compiler::compileTrace(tr, loweringOptions(), perf, name(),
                                  nullptr, traceHash);
}

u64
SharpModel::loweringKey(const trace::Trace &tr) const
{
    return chipLoweringKey(kSharpKeyTag, loweringOptions(), tr);
}

compiler::Program
SharpModel::recost(const compiler::Program &lowered) const
{
    return compiler::recost(lowered, baselines::SharpPerf(cfg_), name());
}

compiler::Program
SharpModel::compileStream(std::istream &is, std::size_t chunkBytes) const
{
    baselines::SharpPerf perf(cfg_);
    // Per-op admission check in place of rejectUnsupported(): same typed
    // error and message, raised as soon as the foreign op streams in.
    const compiler::StreamOpCheck check = [](const trace::Trace &header,
                                             const trace::TraceOp &op) {
        UFC_EXPECT(op.scheme() != trace::Scheme::Tfhe, ConfigError,
                   "SHARP only supports SIMD-scheme (CKKS) operations; "
                   "trace '" << header.name << "' contains TFHE ops");
    };
    return compiler::compileTraceStream(is, loweringOptions(), perf,
                                        name(), nullptr, check,
                                        chunkBytes);
}

RunResult
SharpModel::execute(const compiler::Program &program,
                    const RunOptions &opts) const
{
    return attach(executeProgram(program, name(),
                                 baselines::SharpPerf(cfg_), opts),
                  opts, program.workload);
}

RunResult
SharpModel::runTraceIr(const trace::Trace &tr,
                       const RunOptions &opts) const
{
    rejectUnsupported(tr);
    baselines::SharpPerf perf(cfg_);
    return attach(lowerAndRun(tr, loweringOptions(), perf, opts), opts,
                  tr.name);
}

StrixModel::StrixModel(const baselines::StrixConfig &cfg) : cfg_(cfg) {}

void
StrixModel::rejectUnsupported(const trace::Trace &tr) const
{
    for (const auto &op : tr.ops) {
        UFC_EXPECT(op.scheme() == trace::Scheme::Tfhe, ConfigError,
                   "Strix only supports logic-scheme (TFHE) operations; "
                   "trace '" << tr.name << "' contains non-TFHE ops");
    }
}

compiler::LoweringOptions
StrixModel::loweringOptions() const
{
    compiler::LoweringOptions lopts;
    lopts.wordBits = cfg_.wordBits;
    lopts.totalVectorLanes = static_cast<int>(cfg_.macWordsPerCycle);
    lopts.autoViaNtt = false;
    // Strix batches bootstraps through its streaming pipeline; modeled as
    // packing over its (narrower) datapath.
    lopts.smallPolyPacking = true;
    lopts.parallelism = compiler::Parallelism::TvLP;
    lopts.onTheFlyKeyGen = false;
    return lopts;
}

RunResult
StrixModel::attach(const RunStats &stats, const RunOptions &opts,
                   const std::string &workload) const
{
    const BaselineCost cost{cfg_.areaMm2, cfg_.staticW,
                            cfg_.peakDynamicW, 30.0, cfg_.freqGHz};
    return attachBaseline(cost, cfg_.areaMm2, stats, opts, name(),
                          workload);
}

compiler::Program
StrixModel::compile(const trace::Trace &tr) const
{
    return compileWithHash(tr, 0);
}

compiler::Program
StrixModel::compileWithHash(const trace::Trace &tr, u64 traceHash) const
{
    rejectUnsupported(tr);
    baselines::StrixPerf perf(cfg_);
    return compiler::compileTrace(tr, loweringOptions(), perf, name(),
                                  nullptr, traceHash);
}

u64
StrixModel::loweringKey(const trace::Trace &tr) const
{
    return chipLoweringKey(kStrixKeyTag, loweringOptions(), tr);
}

compiler::Program
StrixModel::recost(const compiler::Program &lowered) const
{
    return compiler::recost(lowered, baselines::StrixPerf(cfg_), name());
}

compiler::Program
StrixModel::compileStream(std::istream &is, std::size_t chunkBytes) const
{
    baselines::StrixPerf perf(cfg_);
    const compiler::StreamOpCheck check = [](const trace::Trace &header,
                                             const trace::TraceOp &op) {
        UFC_EXPECT(op.scheme() == trace::Scheme::Tfhe, ConfigError,
                   "Strix only supports logic-scheme (TFHE) operations; "
                   "trace '" << header.name << "' contains non-TFHE ops");
    };
    return compiler::compileTraceStream(is, loweringOptions(), perf,
                                        name(), nullptr, check,
                                        chunkBytes);
}

RunResult
StrixModel::execute(const compiler::Program &program,
                    const RunOptions &opts) const
{
    return attach(executeProgram(program, name(),
                                 baselines::StrixPerf(cfg_), opts),
                  opts, program.workload);
}

RunResult
StrixModel::runTraceIr(const trace::Trace &tr,
                       const RunOptions &opts) const
{
    rejectUnsupported(tr);
    baselines::StrixPerf perf(cfg_);
    return attach(lowerAndRun(tr, loweringOptions(), perf, opts), opts,
                  tr.name);
}

ComposedModel::ComposedModel(const baselines::SharpConfig &sharp,
                             const baselines::StrixConfig &strix,
                             double pcieGBs, double pcieLatencyUs)
    : sharp_(sharp), strix_(strix), pcieGBs_(pcieGBs),
      pcieLatencyUs_(pcieLatencyUs)
{}

void
ComposedModel::partition(const trace::Trace &tr, trace::Trace &ckksPart,
                         trace::Trace &tfhePart, double &pcieBytes,
                         u64 &pcieTransfers) const
{
    // Partition the trace by scheme.  Scheme-switching ops run on the
    // SIMD chip (extraction/repacking are ring operations) but their LWE
    // payloads cross PCIe to reach the logic chip.
    ckksPart = tr;
    ckksPart.ops.clear();
    tfhePart = tr;
    tfhePart.ops.clear();
    pcieBytes = 0.0;
    pcieTransfers = 0;
    for (const auto &op : tr.ops) {
        switch (op.scheme()) {
          case trace::Scheme::Ckks:
            ckksPart.ops.push_back(op);
            break;
          case trace::Scheme::Tfhe:
            tfhePart.ops.push_back(op);
            break;
          case trace::Scheme::Switch: {
            // Ring-side work stays on SHARP as CKKS-equivalent ops; the
            // resulting LWE vectors cross the link.
            if (op.kind == trace::OpKind::SwitchExtract) {
                // Extraction itself is cheap; LWEs move to the TFHE chip.
                pcieBytes += static_cast<double>(op.count) *
                             (tr.tfheLweDim + 1) * 4.0;
                ++pcieTransfers;
                // The parameter-normalizing key switch runs on Strix.
                tfhePart.push(trace::OpKind::TfheKeySwitch, 0, op.count);
            } else { // SwitchRepack
                pcieBytes += static_cast<double>(op.count) *
                             (tr.tfheLweDim + 1) * 4.0;
                ++pcieTransfers;
                ckksPart.ops.push_back(op);
            }
            break;
          }
        }
    }
}

RunResult
ComposedModel::combine(const RunResult &sharpRes,
                       const RunResult &strixRes, double pcieBytes,
                       u64 pcieTransfers, const RunOptions &opts,
                       const std::string &workload) const
{
    const double pcieSeconds =
        pcieBytes / (pcieGBs_ * 1e9) + pcieTransfers * pcieLatencyUs_ * 1e-6;

    RunResult r;
    stamp(r, opts, name(), workload);
    r.stats = sharpRes.stats;
    r.stats.merge(strixRes.stats);
    // The two chips pipeline independent queries/batches, so steady-state
    // time is the slower side plus the link time; energy still sums.
    r.seconds = std::max(sharpRes.seconds, strixRes.seconds) + pcieSeconds;
    const double pcieEnergyJ = pcieBytes * 10.0e-12; // ~10 pJ/byte link
    r.energyJ = sharpRes.energyJ + strixRes.energyJ + pcieEnergyJ;
    // Idle chip burns static power while the other one works.
    const double idleStaticJ = sharp_.staticW * strixRes.seconds +
                               strix_.staticW * sharpRes.seconds;
    r.energyJ += idleStaticJ;
    r.energyStaticJ =
        sharpRes.energyStaticJ + strixRes.energyStaticJ + idleStaticJ;
    // Off-chip component: both chips' HBM plus the PCIe link.
    r.energyHbmJ = sharpRes.energyHbmJ + strixRes.energyHbmJ + pcieEnergyJ;
    r.areaMm2 = areaMm2();
    r.powerW = r.seconds > 0 ? r.energyJ / r.seconds : 0.0;
    return r;
}

compiler::Program
ComposedModel::compile(const trace::Trace &tr) const
{
    trace::Trace ckksPart;
    trace::Trace tfhePart;
    compiler::Program p;
    p.workload = tr.name;
    p.machine = name();
    p.traceHash = trace::contentHash(tr);
    partition(tr, ckksPart, tfhePart, p.pcieBytes, p.pcieTransfers);
    // parts[0] = SHARP, parts[1] = Strix; an untouched (default) part
    // marks a chip with no work, mirroring the IR path's skipped
    // sub-run.
    p.parts.resize(2);
    if (!ckksPart.ops.empty())
        p.parts[0] = SharpModel(sharp_).compile(ckksPart);
    if (!tfhePart.ops.empty())
        p.parts[1] = StrixModel(strix_).compile(tfhePart);
    return p;
}

RunResult
ComposedModel::execute(const compiler::Program &program,
                       const RunOptions &opts) const
{
    validateRunOptions(opts);
    UFC_EXPECT(program.machine == name() && program.parts.size() == 2,
               ConfigError,
               "Program '" << program.workload << "' compiled for '"
                   << program.machine
                   << "' executed on composed model '" << name() << "'");

    // Sub-runs inherit the engine knobs but not the label (the composed
    // result is the one the caller asked for) and not the timeline (the
    // two chips run in independent clock domains, so interleaving their
    // slices on one time axis would be misleading).
    RunOptions subOpts = opts;
    subOpts.label.clear();
    subOpts.timeline = nullptr;

    RunResult sharpRes;
    if (!program.parts[0].machine.empty())
        sharpRes = SharpModel(sharp_).execute(program.parts[0], subOpts);
    RunResult strixRes;
    if (!program.parts[1].machine.empty())
        strixRes = StrixModel(strix_).execute(program.parts[1], subOpts);

    return combine(sharpRes, strixRes, program.pcieBytes,
                   program.pcieTransfers, opts, program.workload);
}

RunResult
ComposedModel::runTraceIr(const trace::Trace &tr,
                          const RunOptions &opts) const
{
    validateRunOptions(opts);
    trace::Trace ckksPart;
    trace::Trace tfhePart;
    double pcieBytes = 0.0;
    u64 pcieTransfers = 0;
    partition(tr, ckksPart, tfhePart, pcieBytes, pcieTransfers);

    // See execute() for why sub-runs drop the label and timeline.  The
    // sub-calls go through run(), which dispatches on opts.execMode —
    // TraceIr here, since runTraceIr is only reached through it.
    RunOptions subOpts = opts;
    subOpts.label.clear();
    subOpts.timeline = nullptr;

    RunResult sharpRes;
    if (!ckksPart.ops.empty())
        sharpRes = SharpModel(sharp_).run(ckksPart, subOpts);
    RunResult strixRes;
    if (!tfhePart.ops.empty())
        strixRes = StrixModel(strix_).run(tfhePart, subOpts);

    return combine(sharpRes, strixRes, pcieBytes, pcieTransfers, opts,
                   tr.name);
}

} // namespace sim
} // namespace ufc
