/**
 * @file
 * Accelerator model implementations.
 *
 * Re-entrancy audit (relied on by src/runner/): every compile()/execute()
 * /run() builds its engine, scratchpad and lowering state on the stack.
 * A ChipModel holds its MachinePerf const, built once at construction;
 * the MachinePerf implementations are stateless over const configs, and
 * no function-local statics exist anywhere on this path — so concurrent
 * calls on the same model instance are safe and bit-deterministic.
 *
 * Bit-exactness: the one product path (compile + execute) and the
 * tests' reference engine (runTraceIr) must produce identical
 * RunResults.  Shared helpers keep them aligned: ChipModel::attach() takes a RunStats regardless of
 * which engine produced it, admission raises the same error on every
 * path, and ComposedModel routes both paths through the same
 * partition() and combine() arithmetic.
 */

#include "sim/accelerator.h"

#include <cstdint>
#include <utility>

#include "common/error.h"
#include "sim/bc_engine.h"
#include "sim/timeline.h"

namespace ufc {
namespace sim {

namespace {

/**
 * Apply the engine knobs of RunOptions.  Both engines go through here,
 * so a given options value behaves identically on either path
 * (including the TimeoutError diagnostics, which both engines emit
 * through sim::detail helpers).
 */
template <typename Engine>
void
arm(Engine &engine, const RunOptions &opts)
{
    engine.setMaxCycles(opts.maxCycles);
    engine.setHostDeadline(opts.hostDeadline);
    if (opts.timeline) {
        opts.timeline->clear();
        engine.setTimeline(opts.timeline);
    }
}

/** Options for a composed system's sub-runs: the engine knobs, but not
 *  the label (the composed result is the one the caller asked for) and
 *  not the timeline (the two chips run in independent clock domains, so
 *  interleaving their slices on one time axis would be misleading). */
RunOptions
subRunOptions(const RunOptions &opts)
{
    RunOptions sub = opts;
    sub.label.clear();
    sub.timeline = nullptr;
    return sub;
}

/** Fill the non-stats fields common to every model's result. */
void
stamp(RunResult &r, const RunOptions &opts, const std::string &machine,
      const std::string &workload)
{
    r.label = opts.label;
    r.machine = machine;
    r.workload = workload;
}

constexpr u64 kUfcKeyTag = 0x55464300;   // "UFC"
constexpr u64 kSharpKeyTag = 0x53484150; // "SHAP"
constexpr u64 kStrixKeyTag = 0x53545258; // "STRX"

compiler::LoweringOptions
ufcLowering(const UfcConfig &cfg, compiler::Parallelism par)
{
    compiler::LoweringOptions opts;
    opts.wordBits = cfg.wordBits;
    opts.totalVectorLanes = cfg.totalLanes();
    opts.autoViaNtt = true;
    opts.smallPolyPacking = cfg.smallPolyPacking;
    opts.parallelism = par;
    opts.onTheFlyKeyGen = cfg.onTheFlyKeyGen;
    return opts;
}

compiler::LoweringOptions
sharpLowering(const baselines::SharpConfig &cfg)
{
    compiler::LoweringOptions opts;
    opts.wordBits = cfg.wordBits;
    opts.totalVectorLanes = 2048;
    opts.autoViaNtt = false;       // all-to-all NoC automorphism
    opts.smallPolyPacking = false;
    opts.onTheFlyKeyGen = true;    // SHARP also generates keys on die
    return opts;
}

compiler::LoweringOptions
strixLowering(const baselines::StrixConfig &cfg)
{
    compiler::LoweringOptions opts;
    opts.wordBits = cfg.wordBits;
    opts.totalVectorLanes = static_cast<int>(cfg.macWordsPerCycle);
    opts.autoViaNtt = false;
    // Strix batches bootstraps through its streaming pipeline; modeled as
    // packing over its (narrower) datapath.
    opts.smallPolyPacking = true;
    opts.parallelism = compiler::Parallelism::TvLP;
    opts.onTheFlyKeyGen = false;
    return opts;
}

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

ChipModel::ChipModel(std::string name, u64 keyTag, Admission admission,
                     std::shared_ptr<const MachinePerf> perf,
                     const compiler::LoweringOptions &lowering,
                     CostModel cost, double areaMm2)
    : name_(std::move(name)), keyTag_(keyTag), admission_(admission),
      perf_(std::move(perf)), lowering_(lowering), cost_(std::move(cost)),
      areaMm2_(areaMm2)
{}

void
ChipModel::admit(const trace::Trace &header, const trace::TraceOp &op) const
{
    // Ring-side scheme-switching ops (extract/repack) are CKKS-style
    // polynomial work; only logic-scheme ops are foreign to a SIMD chip.
    // A trace/machine mismatch is a job-configuration fault, not an
    // internal bug — recoverable, so a sweep survives it.
    const bool tfhe = op.scheme() == trace::Scheme::Tfhe;
    UFC_EXPECT(admission_ != Admission::NoTfhe || !tfhe, ConfigError,
               name_ << " only supports SIMD-scheme (CKKS) operations; "
                        "trace '" << header.name << "' contains TFHE ops");
    UFC_EXPECT(admission_ != Admission::TfheOnly || tfhe, ConfigError,
               name_ << " only supports logic-scheme (TFHE) operations; "
                        "trace '" << header.name << "' contains non-TFHE ops");
}

void
ChipModel::admit(const trace::Trace &tr) const
{
    if (admission_ == Admission::All)
        return;
    for (const auto &op : tr.ops)
        admit(tr, op);
}

RunResult
ChipModel::attach(const RunStats &stats, const RunOptions &opts,
                  const std::string &workload) const
{
    RunResult r;
    stamp(r, opts, name_, workload);
    r.stats = stats;
    std::visit(
        [&](const auto &cost) {
            r.seconds = cost.seconds(stats);
            r.powerW = cost.averagePowerW(stats);
            r.energyJ = cost.energyJ(stats);
            r.energyStaticJ = cost.staticEnergyJ(stats);
            r.energyHbmJ = cost.hbmEnergyJ(stats);
        },
        cost_);
    r.areaMm2 = areaMm2_;
    return r;
}

compiler::Program
ChipModel::compile(const trace::Trace &tr) const
{
    return compileWithHash(tr, 0);
}

compiler::Program
ChipModel::compileWithHash(const trace::Trace &tr, u64 traceHash) const
{
    admit(tr);
    return compiler::compileTrace(tr, lowering_, *perf_, name_, nullptr,
                                  traceHash);
}

u64
ChipModel::loweringKey(const trace::Trace &tr) const
{
    // The options do not say which cost expressions re-cost the body
    // (the tag does) or which traces the chip accepts (the admission
    // rule does).
    u64 h = keyTag_;
    trace::detail::mix64(h, static_cast<u64>(admission_));
    trace::detail::mix64(h, compiler::loweringKey(lowering_, tr));
    return h;
}

compiler::Program
ChipModel::recost(const compiler::Program &lowered) const
{
    return compiler::recost(lowered, *perf_, name_);
}

compiler::Program
ChipModel::compileStream(std::istream &is, std::size_t chunkBytes) const
{
    // Per-op admission in place of the whole-trace check: same typed
    // error and message, raised as soon as the foreign op streams in.
    compiler::StreamOpCheck check;
    if (admission_ != Admission::All)
        check = [this](const trace::Trace &header,
                       const trace::TraceOp &op) { admit(header, op); };
    return compiler::compileTraceStream(is, lowering_, *perf_, name_,
                                        nullptr, check, chunkBytes);
}

RunResult
ChipModel::execute(const compiler::Program &program,
                   const RunOptions &opts) const
{
    validateRunOptions(opts);
    UFC_EXPECT(!program.composed(), ConfigError,
               "composed Program '" << program.workload
                   << "' executed on single-chip model '" << name_
                   << "'");
    UFC_EXPECT(program.machine == name_, ConfigError,
               "Program '" << program.workload << "' compiled for '"
                   << program.machine << "' executed on '" << name_
                   << "'");
    // Names do not identify a machine (every UfcConfig is "UFC"), so
    // the cost terms' provenance is checked by value.
    UFC_EXPECT(program.machineDigest == perf_->digest(), ConfigError,
               "Program '" << program.workload << "' was costed for other '"
                   << name_ << "' machine constants (digest "
                   << std::hex << program.machineDigest << ", model "
                   << perf_->digest() << std::dec
                   << "); recost it for this model");
    BytecodeEngine engine(&program, resolvedPrefetchWindow(opts));
    arm(engine, opts);
    return attach(engine.run(), opts, program.workload);
}

RunResult
ChipModel::runTraceIr(const trace::Trace &tr, const RunOptions &opts) const
{
    admit(tr);
    validateRunOptions(opts);
    CycleEngine engine(perf_.get(), resolvedPrefetchWindow(opts));
    arm(engine, opts);
    compiler::Lowering lowering(&tr, lowering_, &engine);
    lowering.run();
    return attach(engine.finish(), opts, tr.name);
}

UfcModel::UfcModel(const UfcConfig &cfg, compiler::Parallelism par)
    : ChipModel(cfg.name, kUfcKeyTag, Admission::All,
                std::make_shared<const UfcPerf>(cfg), ufcLowering(cfg, par),
                UfcCostModel(cfg), UfcCostModel(cfg).areaMm2())
{}

SharpModel::SharpModel(const baselines::SharpConfig &cfg)
    : ChipModel("SHARP", kSharpKeyTag, Admission::NoTfhe,
                std::make_shared<const baselines::SharpPerf>(cfg),
                sharpLowering(cfg),
                BaselineCost{cfg.areaMm2, cfg.staticW, cfg.peakDynamicW,
                             30.0, cfg.freqGHz},
                cfg.areaMm2)
{}

StrixModel::StrixModel(const baselines::StrixConfig &cfg)
    : ChipModel("Strix", kStrixKeyTag, Admission::TfheOnly,
                std::make_shared<const baselines::StrixPerf>(cfg),
                strixLowering(cfg),
                BaselineCost{cfg.areaMm2, cfg.staticW, cfg.peakDynamicW,
                             30.0, cfg.freqGHz},
                cfg.areaMm2)
{}

ComposedModel::ComposedModel(const baselines::SharpConfig &sharp,
                             const baselines::StrixConfig &strix,
                             double pcieGBs, double pcieLatencyUs)
    : sharp_(sharp), strix_(strix), sharpStaticW_(sharp.staticW),
      strixStaticW_(strix.staticW), pcieGBs_(pcieGBs),
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
    const double idleStaticJ = sharpStaticW_ * strixRes.seconds +
                               strixStaticW_ * sharpRes.seconds;
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
        p.parts[0] = sharp_.compile(ckksPart);
    if (!tfhePart.ops.empty())
        p.parts[1] = strix_.compile(tfhePart);
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

    const RunOptions subOpts = subRunOptions(opts);
    RunResult sharpRes;
    if (!program.parts[0].machine.empty())
        sharpRes = sharp_.execute(program.parts[0], subOpts);
    RunResult strixRes;
    if (!program.parts[1].machine.empty())
        strixRes = strix_.execute(program.parts[1], subOpts);

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

    const RunOptions subOpts = subRunOptions(opts);
    RunResult sharpRes;
    if (!ckksPart.ops.empty())
        sharpRes = sharp_.runTraceIr(ckksPart, subOpts);
    RunResult strixRes;
    if (!tfhePart.ops.empty())
        strixRes = strix_.runTraceIr(tfhePart, subOpts);

    return combine(sharpRes, strixRes, pcieBytes, pcieTransfers, opts,
                   tr.name);
}

std::unique_ptr<AcceleratorModel>
makeModel(const std::string &name)
{
    if (name == "ufc")
        return std::make_unique<UfcModel>();
    if (name == "sharp")
        return std::make_unique<SharpModel>();
    if (name == "strix")
        return std::make_unique<StrixModel>();
    if (name == "composed")
        return std::make_unique<ComposedModel>();
    return nullptr;
}

} // namespace sim
} // namespace ufc
