/**
 * @file
 * Accelerator models: the top-level objects that take a workload trace,
 * compile it to a bytecode Program with their compiler options, execute
 * it on the cycle engine, and attach physical units (seconds, joules,
 * mm^2).
 *
 * UFC, SHARP and Strix are one class, ChipModel, fed by data: a
 * MachinePerf, LoweringOptions, a cost model, an area and the trace
 * schemes the chip admits.  UfcModel, SharpModel and StrixModel only
 * build that data from their configuration structs.  ComposedModel
 * pairs a SharpModel with a StrixModel over a PCIe link.
 *
 * ## Execution API (compile / execute)
 *
 * The primary entry points are the two-phase pair
 *
 *     compiler::Program p = model->compile(trace);   // once
 *     sim::RunResult    r = model->execute(p, opts); // many times
 *
 * so callers that run one trace under many options (DSE sweeps, the
 * batch runner via its ProgramCache, watchdog bisection) pay the
 * lowering cost once.  Across machines the lowering is shared too: two
 * models with equal loweringKey(tr) lower `tr` to the same body, so
 *
 *     compiler::Program q = other->recost(p);       // no re-lowering
 *
 * gives `other` a Program bit-identical to other->compile(trace) that
 * shares p's body and only carries its own per-shape cost table.
 *
 * `run(trace, opts)` is a convenience shim over compile + execute.
 * Every job runs on that one engine.  `runTraceIr(trace, opts)` is the
 * reference engine the tests compare it against, bit for bit; nothing
 * else calls it.
 */

#ifndef UFC_SIM_ACCELERATOR_H
#define UFC_SIM_ACCELERATOR_H

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <variant>

#include "baselines/sharp_perf.h"
#include "baselines/strix_perf.h"
#include "compiler/bytecode.h"
#include "compiler/lowering.h"
#include "sim/cost_model.h"
#include "sim/ufc_perf.h"
#include "trace/serialize.h"

namespace ufc {
namespace sim {

/**
 * Common interface for all simulated accelerators.
 *
 * Thread safety: compile(), execute() and run() are const and
 * re-entrant.  Every implementation builds its per-run state (the
 * engine, its scratchpad, compiler::Lowering) on the stack and only
 * reads its configuration, so one model instance may simulate many
 * traces concurrently — the batch experiment runner
 * (src/runner/) relies on this contract.  A compiled Program is
 * immutable and may be executed by any number of threads at once.
 */
class AcceleratorModel
{
  public:
    virtual ~AcceleratorModel() = default;

    /**
     * Lower `tr` once into an executable bytecode Program for this
     * machine.  Throws the same typed errors (ConfigError for an
     * unsupported scheme, TraceError from a malformed trace) the
     * corresponding run() would.
     */
    virtual compiler::Program compile(const trace::Trace &tr) const = 0;

    /**
     * compile() for a caller that already holds trace::contentHash(tr)
     * (the batch runner hashes each trace once per batch).  Single-chip
     * models stamp `traceHash` instead of re-hashing; the default
     * forwards to compile(tr).
     */
    virtual compiler::Program compileWithHash(const trace::Trace &tr,
                                              u64 traceHash) const;

    /**
     * Key of the lowered body compile(tr) produces: models whose keys
     * are equal for `tr` lower it to the same body, so one compile()
     * serves them all through recost().  ChipModel digests its key tag,
     * its admission rule and the LoweringOptions fields the lowering of
     * `tr` reads (compiler::loweringKey).  The default is unique per
     * model instance, so a model that does not override it never shares.
     */
    virtual u64 loweringKey(const trace::Trace &tr) const;

    /**
     * `lowered` — produced by compile() on a model whose loweringKey()
     * equals this one's for the same trace — re-costed for this
     * machine: it shares lowered's body and is bit-identical to
     * compiling the trace here.  The default throws ConfigError.
     */
    virtual compiler::Program recost(const compiler::Program &lowered) const;

    /**
     * Streaming variant of compile(): parse, validate and lower the
     * trace text chunk-by-chunk from `is` (see
     * compiler::compileTraceStream for the chunk-protocol contract).
     * Single-chip models override this to never materialize the op
     * vector, so traces larger than host memory compile in bounded
     * space; the base implementation falls back to
     * trace::readTrace + compile() for models that need a whole-trace
     * view (ComposedModel's scheme partition).  Throws the same typed
     * errors as compile() on the same inputs.
     */
    virtual compiler::Program
    compileStream(std::istream &is,
                  std::size_t chunkBytes = trace::kTraceReadChunk) const;

    /**
     * Execute a Program previously produced by this model's compile()
     * under the given per-run options.  Throws ConfigError when the
     * Program was compiled for a different machine (another model name,
     * or cost terms from other MachinePerf constants).
     */
    virtual RunResult execute(const compiler::Program &program,
                              const RunOptions &opts) const = 0;

    /** Convenience overload with default options. */
    RunResult
    execute(const compiler::Program &program) const
    {
        return execute(program, RunOptions{});
    }

    /**
     * One-shot convenience: validateRunOptions(opts), then
     * execute(compile(tr), opts).  Callers that execute a trace more
     * than once should compile() it themselves (or go through the
     * runner, which caches Programs).
     */
    RunResult run(const trace::Trace &tr, const RunOptions &opts) const;

    /** Convenience overload with default options. */
    RunResult run(const trace::Trace &tr) const
    {
        return run(tr, RunOptions{});
    }

    /**
     * The tests' reference engine: lower `tr` straight into the
     * trace-IR cycle engine (sim/engine.h) with no Program in between.
     * Bit-identical to run(tr, opts) by construction and by test
     * (tests/test_bytecode.cpp, and test_golden.cpp on every paper
     * job); no product path calls it.
     */
    virtual RunResult runTraceIr(const trace::Trace &tr,
                                 const RunOptions &opts) const = 0;

    virtual std::string name() const = 0;
    virtual double areaMm2() const = 0;
};

/**
 * One single-chip accelerator.  UFC, SHARP and Strix run the same
 * compile/execute pipeline and differ only in the data this class holds:
 * a name, a lowering-key tag, the schemes the chip admits, its
 * MachinePerf, its LoweringOptions, its cost model and its area.  The
 * constructor is protected; the named subclasses below are the only
 * chips, each built from its own configuration struct.
 */
class ChipModel : public AcceleratorModel
{
  public:
    /** Trace schemes a chip accepts; any other op is a ConfigError. */
    enum class Admission
    {
        All,      ///< every scheme (UFC)
        NoTfhe,   ///< no logic-scheme ops (SHARP)
        TfheOnly, ///< logic-scheme ops only (Strix)
    };

    compiler::Program compile(const trace::Trace &tr) const override;
    compiler::Program compileWithHash(const trace::Trace &tr,
                                      u64 traceHash) const override;
    compiler::Program compileStream(
        std::istream &is,
        std::size_t chunkBytes = trace::kTraceReadChunk) const override;
    u64 loweringKey(const trace::Trace &tr) const override;
    compiler::Program
    recost(const compiler::Program &lowered) const override;
    using AcceleratorModel::execute;
    RunResult execute(const compiler::Program &program,
                      const RunOptions &opts) const override;
    RunResult runTraceIr(const trace::Trace &tr,
                         const RunOptions &opts) const override;
    std::string name() const override { return name_; }
    double areaMm2() const override { return areaMm2_; }

    const compiler::LoweringOptions &
    loweringOptions() const
    {
        return lowering_;
    }

  protected:
    using CostModel = std::variant<UfcCostModel, BaselineCost>;

    ChipModel(std::string name, u64 keyTag, Admission admission,
              std::shared_ptr<const MachinePerf> perf,
              const compiler::LoweringOptions &lowering, CostModel cost,
              double areaMm2);

  private:
    /** Throw ConfigError when `op` of trace `header` is not admitted. */
    void admit(const trace::Trace &header, const trace::TraceOp &op) const;
    void admit(const trace::Trace &tr) const;
    RunResult attach(const RunStats &stats, const RunOptions &opts,
                     const std::string &workload) const;

    std::string name_;
    u64 keyTag_;
    Admission admission_;
    /** Stateless over a const config, so shared by concurrent runs. */
    std::shared_ptr<const MachinePerf> perf_;
    compiler::LoweringOptions lowering_;
    CostModel cost_;
    double areaMm2_;
};

/** The proposed unified accelerator. */
class UfcModel : public ChipModel
{
  public:
    explicit UfcModel(const UfcConfig &cfg = UfcConfig::tableII(),
                      compiler::Parallelism par =
                          compiler::Parallelism::TvLP);
};

/** SHARP baseline (CKKS-only). */
class SharpModel : public ChipModel
{
  public:
    explicit SharpModel(
        const baselines::SharpConfig &cfg = baselines::SharpConfig{});
};

/** Strix baseline (TFHE-only). */
class StrixModel : public ChipModel
{
  public:
    explicit StrixModel(
        const baselines::StrixConfig &cfg = baselines::StrixConfig{});
};

/**
 * The composed SHARP + Strix system used as the hybrid-workload baseline
 * (Section VI-D): CKKS ops dispatch to SHARP, TFHE ops to Strix, and
 * scheme-switching data crosses a PCIe 5.0 x16 link.  compile()
 * partitions the trace and compiles one sub-Program per chip
 * (Program::parts); execute() runs the parts on the sub-models and
 * combines time/energy with the PCIe link terms.  It keeps the default
 * per-instance loweringKey(), so its Programs are never re-costed.
 */
class ComposedModel : public AcceleratorModel
{
  public:
    ComposedModel(const baselines::SharpConfig &sharp =
                      baselines::SharpConfig{},
                  const baselines::StrixConfig &strix =
                      baselines::StrixConfig{},
                  double pcieGBs = 63.0, double pcieLatencyUs = 2.0);

    compiler::Program compile(const trace::Trace &tr) const override;
    using AcceleratorModel::execute;
    RunResult execute(const compiler::Program &program,
                      const RunOptions &opts) const override;
    RunResult runTraceIr(const trace::Trace &tr,
                         const RunOptions &opts) const override;
    std::string name() const override { return "SHARP+Strix"; }
    double areaMm2() const override
    {
        return sharp_.areaMm2() + strix_.areaMm2();
    }

  private:
    /** Scheme partition shared by compile() and runTraceIr() so the
     *  PCIe accounting is computed identically on both paths. */
    void partition(const trace::Trace &tr, trace::Trace &ckksPart,
                   trace::Trace &tfhePart, double &pcieBytes,
                   u64 &pcieTransfers) const;
    RunResult combine(const RunResult &sharpRes,
                      const RunResult &strixRes, double pcieBytes,
                      u64 pcieTransfers, const RunOptions &opts,
                      const std::string &workload) const;

    SharpModel sharp_;
    StrixModel strix_;
    /** Static power each chip burns while idle (see combine()). */
    double sharpStaticW_;
    double strixStaticW_;
    double pcieGBs_;
    double pcieLatencyUs_;
};

/** Machine names the CLIs and the serve protocol accept. */
inline constexpr std::array<const char *, 4> kModelNames = {
    "ufc", "sharp", "strix", "composed"};

/** Default-configured model for one of kModelNames; nullptr for any
 *  other name. */
std::unique_ptr<AcceleratorModel> makeModel(const std::string &name);

} // namespace sim
} // namespace ufc

#endif // UFC_SIM_ACCELERATOR_H
