/**
 * @file
 * Accelerator models: the top-level objects that take a workload trace,
 * compile it to a bytecode Program with their compiler options, execute
 * it on the cycle engine, and attach physical units (seconds, joules,
 * mm^2).
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
 * shares p's body and only carries its own per-shape cost table.  `run(trace, opts)` remains as a convenience shim
 * over compile+execute — kept deprecated-but-tested for the figure
 * benches and external callers; new code should prefer the split API.
 * With RunOptions::execMode == ExecMode::TraceIr, run() instead takes
 * the legacy IR-interpreter path; both paths produce bit-identical
 * results (enforced by the bytecode differential test gate).
 */

#ifndef UFC_SIM_ACCELERATOR_H
#define UFC_SIM_ACCELERATOR_H

#include <cstddef>
#include <memory>

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
 * re-entrant.  Every implementation builds its per-run state
 * (CycleEngine/BytecodeEngine, SpadModel, compiler::Lowering) on the
 * stack and only reads its configuration, so one model instance may
 * simulate many traces concurrently — the batch experiment runner
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
     * serves them all through recost().  Single-chip models digest
     * their class and the LoweringOptions fields the lowering of `tr`
     * reads (compiler::loweringKey).  The default is unique per model
     * instance, so a model that does not override it never shares.
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
     * One-shot convenience (deprecated shim): compile(tr) + execute()
     * under the default ExecMode::Bytecode, or the legacy IR
     * interpreter when opts.execMode == ExecMode::TraceIr.  Callers
     * that execute a trace more than once should compile() it
     * themselves (or go through the runner, which caches Programs).
     */
    RunResult run(const trace::Trace &tr, const RunOptions &opts) const;

    /** Convenience overload with default options. */
    RunResult run(const trace::Trace &tr) const
    {
        return run(tr, RunOptions{});
    }

    virtual std::string name() const = 0;
    virtual double areaMm2() const = 0;

  protected:
    /** Legacy IR-interpreter path behind run(); bit-identical to the
     *  bytecode path by construction and by test. */
    virtual RunResult runTraceIr(const trace::Trace &tr,
                                 const RunOptions &opts) const = 0;
};

/** The proposed unified accelerator. */
class UfcModel : public AcceleratorModel
{
  public:
    explicit UfcModel(const UfcConfig &cfg = UfcConfig::tableII(),
                      compiler::Parallelism par =
                          compiler::Parallelism::TvLP);

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
    std::string name() const override { return cfg_.name; }
    double areaMm2() const override;

    const UfcConfig &config() const { return cfg_; }
    compiler::LoweringOptions loweringOptions() const;

  protected:
    RunResult runTraceIr(const trace::Trace &tr,
                         const RunOptions &opts) const override;

  private:
    RunResult attach(const RunStats &stats, const RunOptions &opts,
                     const std::string &workload) const;

    UfcConfig cfg_;
    compiler::Parallelism parallelism_;
};

/** SHARP baseline (CKKS-only). */
class SharpModel : public AcceleratorModel
{
  public:
    explicit SharpModel(
        const baselines::SharpConfig &cfg = baselines::SharpConfig{});

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
    std::string name() const override { return "SHARP"; }
    double areaMm2() const override { return cfg_.areaMm2; }

  protected:
    RunResult runTraceIr(const trace::Trace &tr,
                         const RunOptions &opts) const override;

  private:
    void rejectUnsupported(const trace::Trace &tr) const;
    compiler::LoweringOptions loweringOptions() const;
    RunResult attach(const RunStats &stats, const RunOptions &opts,
                     const std::string &workload) const;

    baselines::SharpConfig cfg_;
};

/** Strix baseline (TFHE-only). */
class StrixModel : public AcceleratorModel
{
  public:
    explicit StrixModel(
        const baselines::StrixConfig &cfg = baselines::StrixConfig{});

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
    std::string name() const override { return "Strix"; }
    double areaMm2() const override { return cfg_.areaMm2; }

  protected:
    RunResult runTraceIr(const trace::Trace &tr,
                         const RunOptions &opts) const override;

  private:
    void rejectUnsupported(const trace::Trace &tr) const;
    compiler::LoweringOptions loweringOptions() const;
    RunResult attach(const RunStats &stats, const RunOptions &opts,
                     const std::string &workload) const;

    baselines::StrixConfig cfg_;
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
    std::string name() const override { return "SHARP+Strix"; }
    double areaMm2() const override
    {
        return sharp_.areaMm2 + strix_.areaMm2;
    }

  protected:
    RunResult runTraceIr(const trace::Trace &tr,
                         const RunOptions &opts) const override;

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

    baselines::SharpConfig sharp_;
    baselines::StrixConfig strix_;
    double pcieGBs_;
    double pcieLatencyUs_;
};

} // namespace sim
} // namespace ufc

#endif // UFC_SIM_ACCELERATOR_H
