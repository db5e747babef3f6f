/**
 * @file
 * Structured report emission for a runner::BatchResult: a JSON document
 * and a flat CSV.
 *
 * The JSON envelope, "ufc.report/v2", holds the metadata, a top-level
 * "failures" array ({label, status, error_kind, message, attempts} per
 * non-ok job), "failure_count", one sim::RunResult::toJson() object
 * per successful job in "runs", and the "paper" array: one
 * {id, sim, paper, ln_ratio, in_band} entry per paper claim whose sweep
 * is in the batch (runner/claims.h; empty for other batches).  The CSV
 * holds RunResult::csvHeader() plus status/attempts/error_kind/error
 * columns, one row per job; failed rows keep their label with the
 * metric columns zeroed.
 */

#ifndef UFC_RUNNER_REPORT_H
#define UFC_RUNNER_REPORT_H

#include <iosfwd>
#include <string>

#include "runner/runner.h"

namespace ufc {
namespace runner {

/** Schema identifier of the report envelope. */
inline constexpr const char *kBatchReportSchema = "ufc.report/v2";

/** Optional report metadata recorded in the JSON envelope. */
struct ReportMeta
{
    std::string generator = "ufc-runner"; ///< producing tool
    int threads = 0;          ///< pool size used (0 = unknown)
    double wallSeconds = 0.0; ///< end-to-end batch wall-clock
    /// The producing batch was cancelled (SIGINT/SIGTERM) before every
    /// job ran.  When true the envelope carries "interrupted":true and
    /// the skipped jobs appear in the failures block with status
    /// "skipped"; when false the envelope is byte-identical to one
    /// written before this field existed.
    bool interrupted = false;
};

/** JSON report: successful runs plus the structured "failures"
 *  block. */
void writeJsonReport(const BatchResult &batch, std::ostream &os,
                     const ReportMeta &meta = {});
/** CSV report: every job gets a row; the appended
 *  status/attempts/error_kind/error columns carry the outcome. */
void writeCsvReport(const BatchResult &batch, std::ostream &os);

/** File wrappers; throw ufc::ConfigError when the path cannot be
 *  opened. */
void saveJsonReport(const BatchResult &batch, const std::string &path,
                    const ReportMeta &meta = {});
void saveCsvReport(const BatchResult &batch, const std::string &path);

} // namespace runner
} // namespace ufc

#endif // UFC_RUNNER_REPORT_H
