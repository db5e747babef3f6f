/**
 * @file
 * Simulation result accounting: cycles, per-resource busy time, memory
 * traffic, and the derived delay/energy/EDP/EDAP metrics the paper
 * reports — plus the structured export (JSON / CSV) used by the batch
 * experiment runner.
 *
 * ## RunResult schema (stable; bump kRunResultSchema when it changes)
 *
 * Scalar fields (CSV column order, JSON key in parentheses):
 *   label          (label)         run label assigned by the caller/runner
 *   machine        (machine)       accelerator model name
 *   workload       (workload)      trace name
 *   seconds        (seconds)       simulated execution time
 *   energyJ        (energy_j)      simulated energy
 *   powerW         (power_w)       average power over the run
 *   areaMm2        (area_mm2)      chip area of the model
 *   edp()          (edp)           energy-delay product
 *   edap()         (edap)          energy-delay-area product
 *   hostSeconds    (host_seconds)  wall-clock the host spent simulating
 * Raw counters (JSON under "stats", omitted at Verbosity::Compact):
 *   totalCycles    (total_cycles)
 *   instCount      (inst_count)
 *   hbmBytes       (hbm_bytes)
 *   spadHitBytes   (spad_hit_bytes)
 *   hbmUtilization()      (hbm_utilization)
 *   peUtilization()       (pe_utilization)
 *   utilization(r)        (utilization.<resource>) for every isa::Resource
 *
 * v2 additions, all under a new "breakdown" JSON key (and appended CSV
 * columns), with every v1 key unchanged:
 *   breakdown.stalls.*    stall-cause decomposition of totalCycles
 *   breakdown.energy.*    static / HBM / dynamic energy split
 *   breakdown.per_op.<mnemonic>.*   per-opcode attribution table
 * Invariants maintained by the cycle engine, exactly (`==` on the
 * doubles): both engines keep cycles as integer ticks of 2^-16 cycle
 * (sim/engine.h) and derive the left-hand sides below from the
 * right-hand terms before converting, and a tick count below 2^53
 * converts to a double, and sums with others, without rounding:
 *   totalCycles == sum over opcodes of opStats[i].cycles
 *   opStats[i].cycles == computeCycles + stallCycles + fillCycles (per op)
 *   stalls.hbmBound + stalls.dependency == sum of stallCycles
 *   stalls.pipelineFill == sum of fillCycles
 */

#ifndef UFC_SIM_STATS_H
#define UFC_SIM_STATS_H

#include <array>
#include <cassert>
#include <chrono>
#include <string>

#include "isa/inst.h"

namespace ufc {
namespace sim {

class Timeline; // sim/timeline.h — optional structured event stream

/** Schema identifier embedded in every exported RunResult. */
inline constexpr const char *kRunResultSchema = "ufc.runresult/v2";

/** How much of a run's statistics to retain/export. */
enum class StatsVerbosity
{
    Compact, ///< headline metrics only (no per-resource breakdown)
    Full,    ///< everything, including raw counters and utilizations
};

/**
 * Per-run options accepted by every AcceleratorModel::run() overload.
 * Thread safety: a RunOptions value is read-only during a run, so one
 * instance may be shared across concurrent runs — unless `timeline` is
 * set, in which case the engine writes through it and the options must
 * not be shared between concurrent runs.
 */
struct RunOptions
{
    /// Prefetch-window override for the cycle engine's memory engine;
    /// -1 keeps the default (BytecodeEngine::kDefaultPrefetchWindow),
    /// 0 requests no memory lookahead (fetch starts only when the
    /// instruction reaches the head of the compute engine).
    int prefetchWindow = -1;
    /// Free-form run label carried into RunResult::label; the experiment
    /// runner keys result lookup on it.
    std::string label;
    /// Simulated-cycle watchdog: the cycle engine throws SimError
    /// (TimeoutError) once its clock passes this bound.  0 = unlimited
    /// (the default).  Deterministic — the same trace trips at the same
    /// instruction on every run and thread count.  On the composed
    /// machine the bound applies to each chip's engine independently.
    u64 maxCycles = 0;
    /// Host-side cooperative deadline: the engine polls the wall clock
    /// at cheap intervals and throws TimeoutError once it passes.  The
    /// default (epoch) time point disarms it.  Filled by the experiment
    /// runner from RunnerConfig::jobTimeoutSeconds; unlike maxCycles it
    /// is inherently nondeterministic, so prefer maxCycles in tests.
    std::chrono::steady_clock::time_point hostDeadline{};
    /// Optional caller-owned event-stream recorder.  When set, the cycle
    /// engine records begin/end slices per instruction and per resource
    /// lane plus phase regions into it (cleared first).  Recording never
    /// affects the schedule: results are bit-identical with or without
    /// it.  ComposedModel ignores it for its sub-runs.
    Timeline *timeline = nullptr;
    /// Opt-in static-analysis pre-flight: when true, the experiment
    /// runner lints each job's trace (analysis::Analyzer trace-level
    /// passes) before simulating and fails the job with a TraceError
    /// carrying the first diagnostic if any Error-severity finding
    /// exists.  Per-job isolation applies: other jobs are unaffected.
    bool lintTraces = false;
    /// Opt-in dataflow pre-flight: like lintTraces but running the full
    /// abstract-interpretation layer (analysis::Analyzer::
    /// analyzeDataflow over the trace AND the compiled Program's df-*
    /// program rules).  Jobs reuse the batch's cached Program for the
    /// program-level rules, so the pre-flight adds no second
    /// lowering.  Never changes a passing run's results.
    bool dataflowLint = false;
    /// Opt-in static cost-bound gate: the experiment runner computes
    /// analysis::analyzeCostBounds on the compiled Program before
    /// executing and fails the job with SimError unless
    /// lower <= dynamic <= upper holds for both total cycles and HBM
    /// bytes afterwards.  The check is host-side; results of passing
    /// runs are bit-identical.
    bool boundsCheck = false;
};

/**
 * Validate a RunOptions value before a run; throws ufc::ConfigError on
 * inconsistency (currently: prefetchWindow below the -1 sentinel or
 * absurdly large).  Every AcceleratorModel::run() calls this first, so
 * a bad per-job configuration surfaces as a contained, typed failure
 * rather than undefined engine behavior.
 */
void validateRunOptions(const RunOptions &opts);

/** The prefetch window a run of `opts` executes with: the -1 sentinel
 *  resolved to BytecodeEngine::kDefaultPrefetchWindow. */
int resolvedPrefetchWindow(const RunOptions &opts);

/** Per-opcode attribution row (one per isa::HwOp). */
struct OpStats
{
    u64 count = 0;              ///< instructions issued with this opcode
    double cycles = 0.0;        ///< attributed wall cycles (see invariant)
    double computeCycles = 0.0; ///< occupancy of the compute engine
    double stallCycles = 0.0;   ///< cycles the compute engine waited
    double fillCycles = 0.0;    ///< pipeline fill/drain overhead
    double hbmBytes = 0.0;      ///< off-chip traffic caused by the opcode

    void
    merge(const OpStats &other)
    {
        count += other.count;
        cycles += other.cycles;
        computeCycles += other.computeCycles;
        stallCycles += other.stallCycles;
        fillCycles += other.fillCycles;
        hbmBytes += other.hbmBytes;
    }
};

/** Stall-cause decomposition of the run's total cycles. */
struct StallStats
{
    /// Compute-engine wait cycles covered by active HBM transfer time
    /// (the memory interface was the bottleneck).
    double hbmBound = 0.0;
    /// Remaining wait cycles: the fetch finished earlier but could not
    /// start soon enough (prefetch-window / in-order dependency limit).
    double dependency = 0.0;
    /// Per-instruction pipeline fill/drain cycles.
    double pipelineFill = 0.0;
    /// HBM-interface cycles spent writing back dirty scratchpad victims
    /// (capacity spills).  A subset of the HBM occupancy, not an
    /// additional stall class.
    double spadSpillCycles = 0.0;
    double spadWritebackBytes = 0.0; ///< bytes written back on eviction
    u64 spadEvictions = 0;           ///< scratchpad lines evicted

    void
    merge(const StallStats &other)
    {
        hbmBound += other.hbmBound;
        dependency += other.dependency;
        pipelineFill += other.pipelineFill;
        spadSpillCycles += other.spadSpillCycles;
        spadWritebackBytes += other.spadWritebackBytes;
        spadEvictions += other.spadEvictions;
    }
};

/** Raw counters accumulated by the cycle engine. */
struct RunStats
{
    double totalCycles = 0.0;
    /// Busy-lane-weighted cycles per resource (busy * activeFraction).
    std::array<double, isa::kNumResources> busyCycles{};
    double hbmBytes = 0.0;      ///< total off-chip traffic
    double hbmBusyCycles = 0.0; ///< cycles the HBM interface was active
    double spadHitBytes = 0.0;  ///< operand bytes served on chip
    u64 instCount = 0;
    /// Per-opcode attribution table; sums to totalCycles exactly.
    std::array<OpStats, isa::kNumHwOps> opStats{};
    /// Stall-cause accounting.
    StallStats stalls;

    double
    utilization(isa::Resource r) const
    {
        const double b = busyCycles[static_cast<int>(r)];
        return totalCycles > 0 ? b / totalCycles : 0.0;
    }

    double
    hbmUtilization() const
    {
        return totalCycles > 0 ? hbmBusyCycles / totalCycles : 0.0;
    }

    /** Processing-element utilization: fraction of time the PE datapath
     *  (butterfly or vector lanes) is doing useful work.  The two unit
     *  classes serve different instructions and never overlap in the
     *  in-order model, so their busy times add and the ratio cannot
     *  exceed 1; it is exported unclamped so a modelling bug shows up in
     *  the data (and trips the assert in debug builds) instead of being
     *  silently truncated. */
    double
    peUtilization() const
    {
        if (totalCycles <= 0)
            return 0.0;
        const double bf =
            busyCycles[static_cast<int>(isa::Resource::Butterfly)];
        const double va =
            busyCycles[static_cast<int>(isa::Resource::VectorAlu)];
        const double u = (bf + va) / totalCycles;
        assert(u <= 1.0 + 1e-9 && "PE busy cycles exceed total cycles");
        return u;
    }

    void
    merge(const RunStats &other)
    {
        totalCycles += other.totalCycles;
        for (int i = 0; i < isa::kNumResources; ++i)
            busyCycles[i] += other.busyCycles[i];
        hbmBytes += other.hbmBytes;
        hbmBusyCycles += other.hbmBusyCycles;
        spadHitBytes += other.spadHitBytes;
        instCount += other.instCount;
        for (int i = 0; i < isa::kNumHwOps; ++i)
            opStats[i].merge(other.opStats[i]);
        stalls.merge(other.stalls);
    }
};

/** A finished run with physical units attached (schema above). */
struct RunResult
{
    std::string label;    ///< from RunOptions::label
    std::string machine;
    std::string workload;
    RunStats stats;
    double seconds = 0.0;
    double energyJ = 0.0;
    double areaMm2 = 0.0;
    double powerW = 0.0;
    /// Leakage/clock-tree component of energyJ (cost-model estimate).
    double energyStaticJ = 0.0;
    /// Off-chip (HBM interface) component of energyJ.
    double energyHbmJ = 0.0;
    /// Host wall-clock spent producing this result; filled by the
    /// experiment runner, never by the models (it is the one field that
    /// is not deterministic run-to-run).
    double hostSeconds = 0.0;
    /// Governs export detail; models always return Full, and a caller
    /// that wants the compact export sets Compact on the result.
    StatsVerbosity verbosity = StatsVerbosity::Full;

    double edp() const { return energyJ * seconds; }
    double edap() const { return energyJ * seconds * areaMm2; }

    /** Dynamic (datapath) component of energyJ: whatever the static and
     *  HBM components leave over. */
    double
    energyDynamicJ() const
    {
        return energyJ - energyStaticJ - energyHbmJ;
    }

    /**
     * Energy attributed to one opcode: the dynamic component is split by
     * compute-cycle share, the HBM component by byte share, and the
     * static component by attributed-cycle share.  Sums to energyJ over
     * all opcodes (up to rounding) when the cost model filled the split.
     */
    double opEnergyJ(isa::HwOp op) const;

    /** One self-contained JSON object (schema documented above).
     *  Doubles are printed with round-trip precision so serialized
     *  results compare bit-identically across runs. */
    std::string toJson() const;

    /** One CSV data row matching csvHeader(); Compact verbosity leaves
     *  the counter columns empty. */
    std::string toCsvRow() const;

    /** Comma-separated column names for toCsvRow(). */
    static std::string csvHeader();
};

} // namespace sim
} // namespace ufc

#endif // UFC_SIM_STATS_H
