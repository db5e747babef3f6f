/**
 * @file
 * The paper-claims table.  Each row is one figure claim: an id
 * ("fig10a.edap"), the paper sweep it reads, a reducer of those results
 * to one number, the paper's value when the paper states one, and a
 * band when it states a direction; an ordering claim is a ratio with
 * the band "> 1".  Rows whose magnitude the model is known to miss
 * (Fig. 12) keep the paper value and carry no band.  `sweep_all` prints
 * the table, the `ufc.report/v2` envelope carries it as "paper", the
 * golden test asserts every band, and EXPERIMENTS.md embeds it.
 */

#ifndef UFC_RUNNER_CLAIMS_H
#define UFC_RUNNER_CLAIMS_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "runner/runner.h"

namespace ufc {
namespace runner {

struct Claim
{
    std::string id;
    std::string sweep; ///< the paper sweep whose jobs `reduce` reads
    std::string what;  ///< one-line description for the table
    /// Throws ufc::ConfigError when a job it needs is missing.
    std::function<double(const ResultSet &)> reduce;
    std::optional<double> paper;
    std::optional<double> above; ///< the band: sim > *above
};

/** The full table, in figure order. */
const std::vector<Claim> &paperClaims();

struct ClaimValue
{
    const Claim *claim = nullptr;
    double sim = 0.0;     ///< NaN when a job the claim needs is missing
    double lnRatio = 0.0; ///< ln(sim / paper); NaN without a paper value
    std::optional<bool> inBand; ///< empty without a band or a value
};

/** Evaluate every claim whose sweep has at least one job in `results`,
 *  in table order. */
std::vector<ClaimValue> evaluateClaims(const ResultSet &results);

/** The same over a batch's successful jobs; empty when their labels
 *  repeat (a hand-built batch, not a paper sweep). */
std::vector<ClaimValue> evaluateClaims(const BatchResult &batch);

/** A Markdown table, one row per value. */
std::string renderClaims(const std::vector<ClaimValue> &values);

} // namespace runner
} // namespace ufc

#endif // UFC_RUNNER_CLAIMS_H
