/**
 * @file
 * Declarative job lists for the paper's evaluation sweeps (Figures
 * 10-15).  Each builder returns the full cross product of workloads x
 * accelerators x configurations for one figure; paperSweeps() returns
 * them all, so a single ExperimentRunner invocation reproduces the whole
 * evaluation in parallel.  The `sweep_all` CLI and the paper-claims
 * table (runner/claims.h) both consume these definitions, keyed by the
 * canonical jobLabel() format "<sweep>/<group>/<workload>/<machine>".
 */

#ifndef UFC_RUNNER_SWEEPS_H
#define UFC_RUNNER_SWEEPS_H

#include <string>
#include <vector>

#include "runner/runner.h"

namespace ufc {
namespace runner {

/** A named batch of jobs reproducing one figure. */
struct Sweep
{
    std::string name;  ///< label prefix, e.g. "fig10a"
    std::string title; ///< human-readable description
    std::vector<Job> jobs;
};

/** Figure 10(a): CKKS suite x {UFC, SHARP} at C1-C3.
 *  Groups: parameter-set names ("C1".."C3"). */
Sweep fig10aSweep();

/** Figure 10(b): TFHE suite x {UFC, Strix} at T1-T4.
 *  Groups: parameter-set names ("T1".."T4"). */
Sweep fig10bSweep();

/** Figure 11: the hybrid k-NN (C2 with each of T1-T4) x {UFC,
 *  SHARP+Strix}.  Groups: TFHE parameter-set names ("T1".."T4"). */
Sweep fig11Sweep();

/** Figure 12: UFC utilization on the CKKS (C2) and TFHE (T2) suites.
 *  Groups: "ckks" and "tfhe". */
Sweep fig12Sweep();

/** Figure 13: DSE over CG-NTT network count x scratchpad capacity on the
 *  CKKS (C2) suite.  Groups: "n<networks>-s<spadMb>". */
Sweep fig13Sweep();

/** Figure 14: DSE over lanes-per-PE x scratchpad capacity on the CKKS
 *  (C2) suite.  Groups: "l<lanes>-s<spadMb>". */
Sweep fig14Sweep();

/** Figure 15: a 512-bootstrap PBS batch at T1-T4 on UFC without
 *  small-polynomial packing ("none"), with CoLP and with TvLP.  Groups:
 *  parameter-set names ("T1".."T4"). */
Sweep fig15Sweep();

/** All of the above, in figure order. */
std::vector<Sweep> paperSweeps();

/** Concatenate several sweeps' jobs into one batch. */
std::vector<Job> allJobs(const std::vector<Sweep> &sweeps);

/** fig13/fig14 group tags. */
std::string dseNetworkGroup(int networks, double spadMb);
std::string dseLaneGroup(int lanes, double spadMb);

} // namespace runner
} // namespace ufc

#endif // UFC_RUNNER_SWEEPS_H
