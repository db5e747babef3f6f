/**
 * @file
 * Report emission implementation.
 */

#include "runner/report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/error.h"
#include "common/json.h"
#include "metrics/metrics.h"
#include "runner/claims.h"

namespace ufc {
namespace runner {

namespace {

/** Shared JSON string escaping (common/json.h) — error messages can
 *  carry quotes, backslashes and file paths. */
std::string
jsonStr(const std::string &s)
{
    return json::quote(s);
}

/** CSV field quoting for free-form text (RFC 4180 style). */
std::string
csvStr(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += "\"\"";
        else if (c == '\n')
            out += ' ';
        else
            out += c;
    }
    out += "\"";
    return out;
}

/** The "paper" array: one {id, sim, paper, ln_ratio, in_band} object
 *  per claim, null for the fields a row does not have. */
void
writeClaims(const std::vector<ClaimValue> &values, std::ostream &os)
{
    const auto num = [](double v) {
        return std::isfinite(v) ? json::number(v) : "null";
    };
    for (std::size_t i = 0; i < values.size(); ++i) {
        const ClaimValue &v = values[i];
        os << (i ? ",\n" : "\n") << "{\"id\":" << jsonStr(v.claim->id)
           << ",\"sim\":" << num(v.sim) << ",\"paper\":"
           << num(v.claim->paper.value_or(NAN))
           << ",\"ln_ratio\":" << num(v.lnRatio) << ",\"in_band\":"
           << (v.inBand ? (*v.inBand ? "true" : "false") : "null") << "}";
    }
}

std::ofstream
openReport(const std::string &path)
{
    std::ofstream os(path);
    UFC_EXPECT(os.good(), ConfigError,
               "cannot open " << path << " for writing");
    return os;
}

} // namespace

void
writeJsonReport(const BatchResult &batch, std::ostream &os,
                const ReportMeta &meta)
{
    char wall[40];
    std::snprintf(wall, sizeof(wall), "%.6f", meta.wallSeconds);
    os << "{\"schema\":\"" << kBatchReportSchema << "\""
       << ",\"generator\":\"" << meta.generator << "\""
       << ",\"threads\":" << meta.threads
       << ",\"wall_seconds\":" << wall;
    // Only written when set, so pre-existing reports stay byte-stable.
    if (meta.interrupted)
        os << ",\"interrupted\":true";
    const auto ok = batch.okResults();
    os << ",\"job_count\":" << batch.results.size()
       << ",\"run_count\":" << ok.size()
       << ",\"failure_count\":" << batch.failureCount()
       << ",\"failures\":[";
    bool first = true;
    for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
        const auto &oc = batch.outcomes[i];
        if (oc.ok())
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"label\":" << jsonStr(batch.results[i].label)
           << ",\"status\":\"" << jobStatusName(oc.status) << "\""
           << ",\"error_kind\":" << jsonStr(oc.errorKind)
           << ",\"message\":" << jsonStr(oc.message)
           << ",\"attempts\":" << oc.attempts;
        if (!oc.recentEvents.empty()) {
            // Flight-recorder post-mortem captured when the job settled
            // (only present when metrics were on).
            os << ",\"recent_events\":[";
            for (std::size_t e = 0; e < oc.recentEvents.size(); ++e) {
                if (e)
                    os << ",";
                os << jsonStr(oc.recentEvents[e]);
            }
            os << "]";
        }
        os << "}";
    }
    os << (first ? "]" : "\n]") << ",\"runs\":[";
    for (std::size_t i = 0; i < ok.size(); ++i) {
        if (i)
            os << ",";
        os << "\n" << ok[i].toJson();
    }
    const std::vector<ClaimValue> claims = evaluateClaims(batch);
    os << "\n],\"paper\":[";
    writeClaims(claims, os);
    os << (claims.empty() ? "]" : "\n]");
    // The host-side metrics block, appended only when the registry is
    // on so metrics-off reports stay byte-stable.
    if (metrics::enabled()) {
        os << ",\"metrics\":";
        metrics::writeJson(os);
    }
    os << "}\n";
}

void
writeCsvReport(const BatchResult &batch, std::ostream &os)
{
    os << sim::RunResult::csvHeader()
       << ",status,attempts,error_kind,error\n";
    for (std::size_t i = 0; i < batch.results.size(); ++i) {
        const auto &oc = batch.outcomes[i];
        os << batch.results[i].toCsvRow() << ","
           << jobStatusName(oc.status) << "," << oc.attempts << ","
           << oc.errorKind << "," << csvStr(oc.message) << "\n";
    }
}

void
saveJsonReport(const BatchResult &batch, const std::string &path,
               const ReportMeta &meta)
{
    std::ofstream os = openReport(path);
    writeJsonReport(batch, os, meta);
}

void
saveCsvReport(const BatchResult &batch, const std::string &path)
{
    std::ofstream os = openReport(path);
    writeCsvReport(batch, os);
}

} // namespace runner
} // namespace ufc
