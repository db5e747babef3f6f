/**
 * @file
 * Pass-based static verifier for the trace IR and lowered instruction
 * streams (ufc-lint).
 *
 * Nothing in the simulation pipeline used to check the *semantics* of a
 * trace — limb-chain consistency, scheme legality against the declared
 * parameters, phase discipline, working-set plausibility — until a
 * simulation silently produced wrong cycle counts.  The Analyzer runs an
 * ordered list of Passes over a trace::Trace and reports structured
 * Diagnostics instead of crashing or mis-simulating; analyzeLowered()
 * additionally lowers the trace through a VerifyingSink (see
 * verifying_sink.h) so per-instruction operand invariants are checked on
 * the compiler's actual output.
 *
 * Consumers:
 *   - bench/ufc_lint        CLI over .ufctrace files / builtin workloads
 *   - runner::ExperimentRunner  opt-in pre-flight (RunOptions::lintTraces)
 *   - tests/test_analysis   per-pass positive/negative suite
 */

#ifndef UFC_ANALYSIS_ANALYZER_H
#define UFC_ANALYSIS_ANALYZER_H

#include <memory>
#include <vector>

#include "analysis/diagnostic.h"
#include "trace/trace.h"

namespace ufc {
namespace compiler {
struct LoweringOptions; // compiler/lowering.h
struct Program;         // compiler/bytecode.h
} // namespace compiler

namespace analysis {

/** One rule-id registry row (drives docs, --rules, and severities). */
struct RuleInfo
{
    const char *id;
    Severity severity;
    const char *description;
};

/** Every rule the analyzer and the VerifyingSink can emit, trace-level
 *  rules first.  Stable: append, never reorder or rename. */
const std::vector<RuleInfo> &ruleRegistry();

/** Severity of a registered rule id (Error for unknown ids). */
Severity ruleSeverity(const char *id);

/**
 * One ordered verification pass over a trace.  Passes are stateless and
 * const — the Analyzer may be shared across runner threads.
 */
class Pass
{
  public:
    virtual ~Pass() = default;
    virtual const char *name() const = 0;
    virtual void run(const trace::Trace &tr,
                     DiagnosticReport &out) const = 0;
};

/** Innermost open phase name at a given op index (empty when none);
 *  shared by the passes so diagnostics carry their phase context. */
std::string phaseAt(const trace::Trace &tr, std::ptrdiff_t opIndex);

/**
 * Runs the built-in pass pipeline over a trace.  Construction registers
 * the passes in order:
 *   1. field-validity      batched-op fields (count, fanIn, live set)
 *   2. scheme-legality     ops vs. the declared parameter header
 *   3. limb-chain          CKKS limb bounds, rescale/mod-raise structure
 *   4. phase-discipline    stack nesting + monotone opIndex markers
 *   5. working-set         key-id cardinality vs. liveCiphertexts
 */
class Analyzer
{
  public:
    Analyzer();

    /** Run all trace-level passes. */
    DiagnosticReport analyze(const trace::Trace &tr) const;

    /**
     * Trace-level passes plus the instruction-level verifier: lowers the
     * trace with the given options through a VerifyingSink (discarding
     * the instructions) and appends any per-instruction findings.  Only
     * meaningful on traces whose trace-level report has no errors — a
     * header bad enough to fail scheme-legality would feed garbage
     * geometry into the lowering, so analyzeLowered() skips the lowering
     * step when trace-level errors exist.
     */
    DiagnosticReport
    analyzeLowered(const trace::Trace &tr,
                   const compiler::LoweringOptions &opts) const;

    /**
     * Bytecode-rule variant over an ALREADY-compiled Program: the
     * trace-level passes plus compiler::verifyProgram on `program`,
     * with no re-lowering — the pre-flight path for runs whose Program
     * sits in the runner's ProgramCache.  Unlike the LoweringOptions
     * overload this cannot run the instruction-level VerifyingSink
     * rules (they need a live lowering); the bytecode rules subsume
     * the loop legality checks.
     */
    DiagnosticReport
    analyzeLowered(const trace::Trace &tr,
                   const compiler::Program &program) const;

    /**
     * Trace-level passes plus the opt-in dataflow passes (level-flow,
     * rescale-discipline; see domains.h).  The dataflow passes only
     * run when the base report is error-free — a trace that fails
     * scheme legality or limb-range would feed garbage levels into the
     * abstract domains.
     */
    DiagnosticReport analyzeDataflow(const trace::Trace &tr) const;

    /**
     * Full dataflow verification of a compiled trace: analyzeDataflow
     * plus the bytecode rules (verifyProgram) plus the program-level
     * dataflow rules (df-loop-memdep, df-slot-*) over `program`.  No
     * re-lowering.
     */
    DiagnosticReport
    analyzeDataflow(const trace::Trace &tr,
                    const compiler::Program &program) const;

    const std::vector<std::unique_ptr<Pass>> &passes() const
    {
        return passes_;
    }

    /** The opt-in dataflow passes (makeDataflowPasses()). */
    const std::vector<std::unique_ptr<Pass>> &dataflowPasses() const
    {
        return dfPasses_;
    }

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
    std::vector<std::unique_ptr<Pass>> dfPasses_;
};

} // namespace analysis
} // namespace ufc

#endif // UFC_ANALYSIS_ANALYZER_H
