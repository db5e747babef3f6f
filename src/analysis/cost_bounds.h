/**
 * @file
 * Static cost bounds: guaranteed lower/upper bounds on the cycles and
 * HBM bytes the bytecode engine will report for a compiled Program,
 * computed without executing it.
 *
 * Soundness contract (tests/test_dataflow.cpp checks it differentially
 * across the full paper sweep):
 *
 *     cyclesLower <= RunStats::totalCycles <= cyclesUpper
 *     hbmLower    <= RunStats::hbmBytes    <= hbmUpper
 *
 * for every prefetch window.  The derivation leans on three engine
 * facts (sim/bc_engine.cpp):
 *
 *   1. totalCycles is the final compute clock, and each instruction
 *      advances it by wait + computeTicks + fillTicks, so
 *      sum(compute+fill) <= totalCycles  and, because an instruction's
 *      memory phase can start no later than the previous instruction's
 *      completion,  totalCycles <= sum(compute+fill) + sum(memTicks).
 *   2. Memory phases serialize on the HBM clock, so totalCycles is
 *      also >= the total memory time.
 *   3. HBM traffic decomposes into exact streamed bytes plus
 *      scratchpad misses and dirty writebacks.  When every slot's
 *      maximum footprint fits the scratchpad simultaneously, the LRU
 *      provably never evicts and the miss traffic is exact (first
 *      touch only, no writebacks — the engine never flushes at the
 *      end); otherwise misses are bracketed by [first-touch reads,
 *      all reads] and writebacks by [0, one per write access at the
 *      slot's maximum size].
 *
 * Bounds assume a structurally valid Program (verifyProgram-clean):
 * folded loop bodies are all-Stream, so their replay arithmetic is
 * exact under the loop's trip weight.  Everything is summed as the
 * engine sums it, in integer ticks and integer byte counts, so no
 * guard band is needed: compute, fill, streamed traffic and the HBM
 * bytes are exact, a Mem instruction's lower memory time is rounded to
 * ticks exactly as the engine rounds its own, and the upper memory
 * time adds one tick per Mem instruction for that rounding.
 */

#ifndef UFC_ANALYSIS_COST_BOUNDS_H
#define UFC_ANALYSIS_COST_BOUNDS_H

#include "common/types.h"

namespace ufc {
namespace compiler {
struct Program; // compiler/bytecode.h
} // namespace compiler

namespace analysis {

/** Static bounds for one Program (parts summed for composed ones). */
struct CostBounds
{
    double cyclesLower = 0.0;
    double cyclesUpper = 0.0;
    double hbmLower = 0.0;
    double hbmUpper = 0.0;
    /// Exact total compute+fill cycles (trip-weighted); the
    /// compute-bound floor of cyclesLower.
    double computeCycles = 0.0;
    /// Peak simultaneously-live scratchpad bytes under the live-interval
    /// model (slot live from first to last access, at its maximum
    /// footprint).  The peak-occupancy metric `ufc_lint --bounds`
    /// prints; composed Programs report the largest part.
    double peakLiveSlotBytes = 0.0;
    /// True when every slot's maximum footprint co-resides in the
    /// scratchpad, making the HBM bounds exact (hbmLower == hbmUpper).
    /// Composed: true only when all parts fit.
    bool fits = true;

    /** Upper/lower cycle ratio (tightness; 0 when lower is 0). */
    double
    cyclesRatio() const
    {
        return cyclesLower > 0.0 ? cyclesUpper / cyclesLower : 0.0;
    }

    /** Upper/lower HBM ratio (tightness; 0 when lower is 0). */
    double
    hbmRatio() const
    {
        return hbmLower > 0.0 ? hbmUpper / hbmLower : 0.0;
    }
};

/** Compute static bounds for a compiled Program.  Composed Programs
 *  sum their parts (the composed model merges part stats additively;
 *  PCIe traffic feeds seconds/energy, not RunStats cycles/bytes). */
CostBounds analyzeCostBounds(const compiler::Program &p);

} // namespace analysis
} // namespace ufc

#endif // UFC_ANALYSIS_COST_BOUNDS_H
