/**
 * @file
 * Abstract-interpretation domains for ufc-lint's dataflow layer
 * (`ufc_lint --dataflow`, RunOptions::dataflowLint).
 *
 * Two families sit on top of the dataflow framework (dataflow.h):
 *
 *   Trace-level (makeDataflowPasses, run by Analyzer::analyzeDataflow):
 *     level-flow            df-chain-underflow — an op executes at a
 *                           modulus-chain level no rescale / mod-raise /
 *                           repack path can reach from fresh ciphertexts
 *     rescale-discipline    df-double-rescale, df-missed-rescale,
 *                           df-scale-mismatch — count-weighted
 *                           production/consumption tracking of
 *                           unrescaled products per level
 *
 *   Program-level (runProgramDataflow, over compiled bytecode):
 *     df-loop-memdep — independent re-proof of the loop-folding
 *         legality the executor relies on, derived from the BcBuf
 *         operand records alone (not the BcKind tag the builder wrote)
 *     df-slot-use-before-def / df-slot-dead-store / df-spad-overcommit
 *         — def-use/liveness over scratchpad slots via
 *         compiler::slotAccesses()
 *
 * Soundness contract: Error-severity rules here hold for *every* legal
 * interleaving of the trace's independent ciphertext chains (the IR has
 * no SSA names — see analyzer.cpp's file comment).  Warning-severity
 * rules additionally assume linear consumption (each produced value is
 * consumed at most once per use), which batched real workloads satisfy;
 * they are heuristics and say so in their hints.
 *
 * The two value-flow slot rules (use-before-def, dead-store) only
 * consider accesses whose buffer id is value-accurate — the lowering's
 * ciphertext pool draws ids pseudorandomly to model reuse locality
 * (compiler::syntheticCiphertextId), so def-use order on those slots is
 * noise by construction.  df-spad-overcommit and the cost/occupancy
 * analyses (cost_bounds.h) use every access: the traffic is real even
 * where the value identity is synthetic.
 */

#ifndef UFC_ANALYSIS_DOMAINS_H
#define UFC_ANALYSIS_DOMAINS_H

#include <memory>
#include <vector>

#include "analysis/analyzer.h"

namespace ufc {
namespace compiler {
struct Program; // compiler/bytecode.h
} // namespace compiler

namespace analysis {

/** The trace-level dataflow passes, in registry order.  Opt-in: they
 *  are NOT part of Analyzer::analyze()'s default pipeline (clean legacy
 *  traces may violate the linear-consumption heuristics). */
std::vector<std::unique_ptr<Pass>> makeDataflowPasses();

/**
 * Program-level dataflow rules over a compiled Program (composed
 * Programs recurse into their parts).  Appends df-loop-memdep and the
 * df-slot-* findings to `out`.  Diagnostics carry the instruction index
 * in opIndex and the innermost bytecode phase name.
 */
void runProgramDataflow(const compiler::Program &p, DiagnosticReport &out);

} // namespace analysis
} // namespace ufc

#endif // UFC_ANALYSIS_DOMAINS_H
