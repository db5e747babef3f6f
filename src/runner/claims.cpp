/**
 * @file
 * The paper-claims table and its reducers.  Reducers pick jobs by their
 * label "<sweep>/<group>/<workload>/<machine>", so no trace is
 * regenerated, and every pick names how many jobs it expects: a failed
 * (absent) job makes the claim NaN, not a value over fewer rows.
 */

#include "runner/claims.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "common/error.h"
#include "runner/sweeps.h"

namespace ufc {
namespace runner {

namespace {

using R = const ResultSet &;
using RR = const sim::RunResult &;
using Values = std::vector<double>;
using Metric = double (*)(RR);
using Agg = double (*)(const Values &);

const Metric kDelay = [](RR r) { return r.seconds; };
const Metric kEnergy = [](RR r) { return r.energyJ; };
const Metric kEdp = [](RR r) { return r.edp(); };
const Metric kEdap = [](RR r) { return r.edap(); };
const Metric kArea = [](RR r) { return r.areaMm2; };
const Metric kPe = [](RR r) { return r.stats.peUtilization(); };
const Metric kHbm = [](RR r) { return r.stats.hbmUtilization(); };
const Metric kNoc = [](RR r) {
    return r.stats.utilization(isa::Resource::Noc);
};

const Agg kSum = [](const Values &v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
};
const Agg kMean = [](const Values &v) { return kSum(v) / v.size(); };
const Agg kMin = [](const Values &v) { return *std::ranges::min_element(v); };
const Agg kMax = [](const Values &v) { return *std::ranges::max_element(v); };
const Agg kGeomean = [](const Values &v) {
    double logs = 0.0;
    for (const double x : v)
        logs += std::log(x);
    return std::exp(1.0 / static_cast<double>(v.size()) * logs);
};
// Fig. 11 reads its T1..T4 ratios in parameter-set order.
const Agg kT4 = [](const Values &d) { return d[3]; };
const Agg kMeanT1T3 = [](const Values &d) {
    return (d[0] + d[1] + d[2]) / 3.0;
};
const Agg kCrossover = [](const Values &d) { return d[3] / kMeanT1T3(d); };

/** m(job) for the `n` jobs of `sweep` on `machine` (in `group` unless
 *  it is empty), in result order; with `other`, m(the same job on
 *  `other`) / m(job) instead. */
Values
pick(R rs, const std::string &sweep, const std::string &group,
     const std::string &machine, std::size_t n, Metric m,
     const std::string &other = "")
{
    std::string prefix = sweep + "/";
    if (!group.empty())
        prefix += group + "/";
    const std::string tail = "/" + machine;
    Values out;
    for (const sim::RunResult &r : rs.all()) {
        if (!r.label.starts_with(prefix) || !r.label.ends_with(tail))
            continue;
        const std::string job = r.label.substr(0, r.label.rfind('/') + 1);
        out.push_back(other.empty() ? m(r) : m(rs.at(job + other)) / m(r));
    }
    UFC_EXPECT(out.size() == n, ConfigError, prefix << "*" << tail << ": "
               << out.size() << " jobs, expected " << n);
    return out;
}

/** Figs. 11 and 15: m(other)/m(base) of the one job at each of T1..T4. */
Values
perTfheSet(R rs, const std::string &sweep, const char *base,
           const char *other, Metric m)
{
    Values out;
    for (const char *t : {"T1", "T2", "T3", "T4"})
        out.push_back(pick(rs, sweep, t, base, 1, m, other)[0]);
    return out;
}

/** Figs. 13 and 14: the smallest ratio over `pairs` of DSE points of m
 *  summed over the four CKKS workloads, as the paper's bars normalize. */
double
dseMargin(R rs, const std::string &sweep,
          const std::vector<std::pair<std::string, std::string>> &pairs,
          std::initializer_list<Metric> metrics)
{
    const auto total = [&](const std::string &point, Metric m) {
        return kSum(pick(rs, sweep, point, "UFC", 4, m));
    };
    Values v;
    for (const auto &[a, b] : pairs)
        for (const Metric m : metrics)
            v.push_back(total(a, m) / total(b, m));
    return kMin(v);
}

using Reduce = std::function<double(R)>;

/** agg of m(other)/m(UFC) over the n rows of a Fig. 10 sweep. */
Reduce
vsUfc(const char *sweep, const char *other, std::size_t n, Metric m,
      Agg agg)
{
    return [=](R rs) { return agg(pick(rs, sweep, "", "UFC", n, m, other)); };
}

Reduce
vsComposed(Metric m, Agg agg)
{
    return [=](R rs) {
        return agg(perTfheSet(rs, "fig11", "UFC", "SHARP+Strix", m));
    };
}

/** Mean UFC utilization of Fig. 12's four CKKS or two TFHE jobs. */
Reduce
fig12(const std::string &suite, Metric m)
{
    const std::size_t n = suite == "ckks" ? 4 : 2;
    return [=](R rs) { return kMean(pick(rs, "fig12", suite, "UFC", n, m)); };
}

constexpr std::nullopt_t kNone = std::nullopt;
constexpr double kSpadsMb[] = {128.0, 256.0, 512.0};

/** The rows, each figure's under the paper statement it checks. */
std::vector<Claim>
buildClaims()
{
    return {
        // Fig. 10(a): "1.1x delay, 1.4x energy, 1.5x EDP, 1.6x EDAP over
        // SHARP"; UFC is ahead on every workload and parameter set.
        {"fig10a.delay", "fig10a", "SHARP/UFC delay, geomean of 12 rows",
         vsUfc("fig10a", "SHARP", 12, kDelay, kGeomean), 1.1, 1.0},
        {"fig10a.energy", "fig10a", "SHARP/UFC energy, geomean of 12 rows",
         vsUfc("fig10a", "SHARP", 12, kEnergy, kGeomean), 1.4, 1.0},
        {"fig10a.edp", "fig10a", "SHARP/UFC EDP, geomean of 12 rows",
         vsUfc("fig10a", "SHARP", 12, kEdp, kGeomean), 1.5, 1.0},
        {"fig10a.edap", "fig10a", "SHARP/UFC EDAP, geomean of 12 rows",
         vsUfc("fig10a", "SHARP", 12, kEdap, kGeomean), 1.6, 1.0},
        {"fig10a.min_delay", "fig10a", "smallest SHARP/UFC delay of 12 rows",
         vsUfc("fig10a", "SHARP", 12, kDelay, kMin), kNone, 1.0},
        // Table II: "197.7 mm^2 at 7 nm" (the fig10a UFC machine).
        {"table2.area_mm2", "fig10a", "UFC chip area (mm^2)",
         [](R rs) { return pick(rs, "fig10a", "C1", "UFC", 4, kArea)[0]; },
         197.7, kNone},
        // Fig. 10(b): "up to 6x speedup, 1.2x less energy, 1.5x better
        // EDAP than Strix".
        {"fig10b.max_delay", "fig10b", "largest Strix/UFC delay of 8 rows",
         vsUfc("fig10b", "Strix", 8, kDelay, kMax), 6.0, 1.0},
        {"fig10b.energy", "fig10b", "Strix/UFC energy, geomean of 8 rows",
         vsUfc("fig10b", "Strix", 8, kEnergy, kGeomean), 1.2, 1.0},
        {"fig10b.edap", "fig10b", "Strix/UFC EDAP, geomean of 8 rows",
         vsUfc("fig10b", "Strix", 8, kEdap, kGeomean), 1.5, 1.0},
        {"fig10b.min_delay", "fig10b", "smallest Strix/UFC delay of 8 rows",
         vsUfc("fig10b", "Strix", 8, kDelay, kMin), kNone, 1.0},
        // Fig. 11: "~1.04x at T1-T3, 2.8x at T4; 3.1x EDP and 3.7x EDAP
        // over the composed system".
        {"fig11.t4_delay", "fig11", "SHARP+Strix/UFC delay of k-NN at T4",
         vsComposed(kDelay, kT4), 2.8, 1.0},
        {"fig11.t1_t3_delay", "fig11", "SHARP+Strix/UFC delay, mean T1-T3",
         vsComposed(kDelay, kMeanT1T3), 1.04, kNone},
        {"fig11.edp", "fig11", "SHARP+Strix/UFC EDP, mean of T1-T4",
         vsComposed(kEdp, kMean), 3.1, 1.0},
        {"fig11.edap", "fig11", "SHARP+Strix/UFC EDAP, mean of T1-T4",
         vsComposed(kEdap, kMean), 3.7, 1.0},
        {"fig11.crossover", "fig11", "T4 delay ratio over the T1-T3 mean",
         vsComposed(kDelay, kCrossover), kNone, 1.0},
        // Fig. 12: "CKKS 65/20/69%, TFHE 75/55/25% for PE/NoC/HBM".  The
        // in-order engine under-penalizes fine-grained dependencies, so
        // the magnitudes miss and carry no band; the HBM ordering holds.
        {"fig12.ckks.pe", "fig12", "CKKS (C2) mean PE utilization",
         fig12("ckks", kPe), 0.65, kNone},
        {"fig12.ckks.noc", "fig12", "CKKS (C2) mean NoC utilization",
         fig12("ckks", kNoc), 0.20, kNone},
        {"fig12.ckks.hbm", "fig12", "CKKS (C2) mean HBM utilization",
         fig12("ckks", kHbm), 0.69, kNone},
        {"fig12.tfhe.pe", "fig12", "TFHE (T2) mean PE utilization",
         fig12("tfhe", kPe), 0.75, kNone},
        {"fig12.tfhe.noc", "fig12", "TFHE (T2) mean NoC utilization",
         fig12("tfhe", kNoc), 0.55, kNone},
        {"fig12.tfhe.hbm", "fig12", "TFHE (T2) mean HBM utilization",
         fig12("tfhe", kHbm), 0.25, kNone},
        {"fig12.hbm_order", "fig12", "CKKS/TFHE mean HBM utilization",
         [](R rs) { return fig12("ckks", kHbm)(rs) /
                           fig12("tfhe", kHbm)(rs); }, kNone, 1.0},
        // Fig. 13: "a single large CG network wins; smaller scratchpads
        // give better EDP/EDAP".
        {"fig13.single_network", "fig13",
         "smallest split/single delay, EDP or EDAP, any scratchpad",
         [](R rs) {
             std::vector<std::pair<std::string, std::string>> p;
             for (const double s : kSpadsMb)
                 for (const int n : {2, 4})
                     p.push_back({dseNetworkGroup(n, s),
                                  dseNetworkGroup(1, s)});
             return dseMargin(rs, "fig13", p, {kDelay, kEdp, kEdap});
         }, kNone, 1.0},
        {"fig13.spad128_edap", "fig13",
         "smallest EDAP(256 MB)/EDAP(128 MB), 1, 2 or 4 networks",
         [](R rs) {
             std::vector<std::pair<std::string, std::string>> p;
             for (const int n : {1, 2, 4})
                 p.push_back({dseNetworkGroup(n, 256.0),
                              dseNetworkGroup(n, 128.0)});
             return dseMargin(rs, "fig13", p, {kEdap});
         }, kNone, 1.0},
        // Fig. 14: "more lanes give better EDP and EDAP, showing the
        // architecture scales".
        {"fig14.lane_scaling", "fig14",
         "smallest m(lanes)/m(2x lanes), m = delay, EDP or EDAP, any "
         "scratchpad",
         [](R rs) {
             std::vector<std::pair<std::string, std::string>> p;
             for (const double s : kSpadsMb)
                 for (const int l : {64, 128, 256})
                     p.push_back({dseLaneGroup(l, s), dseLaneGroup(2 * l, s)});
             return dseMargin(rs, "fig14", p, {kDelay, kEdp, kEdap});
         }, kNone, 1.0},
        // Fig. 15: "TvLP clearly beats CoLP at small parameters; the gap
        // shrinks as the ring grows".
        {"fig15.tvlp_over_colp", "fig15", "smallest CoLP/TvLP delay, T1-T4",
         [](R rs) { return kMin(perTfheSet(rs, "fig15", "TvLP", "CoLP",
                                           kDelay)); }, kNone, 1.0},
        {"fig15.gap_shrinks", "fig15",
         "smallest gain(Ti)/gain(Ti+1) of that ratio",
         [](R rs) {
             const Values g = perTfheSet(rs, "fig15", "TvLP", "CoLP", kDelay);
             return std::min({g[0] / g[1], g[1] / g[2], g[2] / g[3]});
         }, kNone, 1.0},
    };
}

bool
ranIn(const std::string &label, const Claim &claim)
{
    return label.starts_with(claim.sweep + "/");
}

/** The claim's value, or NaN when a job it reads is missing. */
double
valueOf(const Claim &claim, R results)
{
    try {
        return claim.reduce(results);
    } catch (const ConfigError &) {
        return std::numeric_limits<double>::quiet_NaN();
    }
}

std::string
cell(const char *fmt, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return std::isnan(v) ? "" : buf;
}

} // namespace

const std::vector<Claim> &
paperClaims()
{
    static const std::vector<Claim> claims = buildClaims();
    return claims;
}

std::vector<ClaimValue>
evaluateClaims(const ResultSet &results)
{
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    std::vector<ClaimValue> out;
    for (const Claim &c : paperClaims()) {
        if (std::ranges::none_of(results.all(),
                                 [&](RR r) { return ranIn(r.label, c); }))
            continue;
        const double sim = valueOf(c, results);
        std::optional<bool> in;
        if (c.above && !std::isnan(sim))
            in = sim > *c.above;
        out.push_back({&c, sim, c.paper ? std::log(sim / *c.paper) : kNaN,
                       in});
    }
    return out;
}

std::vector<ClaimValue>
evaluateClaims(const BatchResult &batch)
{
    std::vector<sim::RunResult> runs;
    for (std::size_t i = 0; i < batch.results.size(); ++i)
        if (batch.outcomes[i].ok() &&
            std::ranges::any_of(paperClaims(), [&](const Claim &c) {
                return ranIn(batch.results[i].label, c);
            }))
            runs.push_back(batch.results[i]);
    try {
        return evaluateClaims(ResultSet(std::move(runs)));
    } catch (const ConfigError &) {
        return {}; // repeated labels
    }
}

std::string
renderClaims(const std::vector<ClaimValue> &values)
{
    std::string out = "| claim | what | sim | paper | ln(sim/paper) | "
                      "band | holds |\n|---|---|---|---|---|---|---|\n";
    for (const ClaimValue &v : values) {
        const Claim &c = *v.claim;
        out += "| `" + c.id + "` | " + c.what + " | " +
               (std::isnan(v.sim) ? "n/a" : cell("%.4g", v.sim)) + " | " +
               (c.paper ? cell("%.4g", *c.paper) : "") + " | " +
               cell("%+.3f", v.lnRatio) + " | " +
               (c.above ? cell("> %g", *c.above) : "") + " | " +
               (v.inBand ? (*v.inBand ? "yes" : "**no**") : "") + " |\n";
    }
    return out;
}

} // namespace runner
} // namespace ufc
