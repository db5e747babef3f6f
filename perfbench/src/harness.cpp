/**
 * @file
 * Report bookkeeping, order statistics, the span tracer and the Figure 12
 * paper probe shared by the workloads.
 */

#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "metrics/metrics.h"
#include "runner/runner.h"
#include "runner/sweeps.h"

namespace perfbench {

using namespace ufc;

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics[name] = {value, unit};
}

void
Report::unit(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        errors.push_back(what);
    }
}

void
Report::check(bool ok, const std::string &what)
{
    if (!ok)
        errors.push_back(what);
}

void
Report::mixDigest(const std::string &bytes)
{
    digest = fnv1a(bytes, digest);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
peakRssMb()
{
    struct rusage ru
    {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
canonicalResult(const sim::RunResult &r)
{
    sim::RunResult copy = r;
    copy.hostSeconds = 0.0;
    return copy.toJson();
}

bool
opCyclesSumToTotal(const sim::RunResult &r)
{
    double sum = 0.0;
    for (const auto &op : r.stats.opStats)
        sum += op.cycles;
    return sum == r.stats.totalCycles;
}

std::uint64_t
counterValue(const std::string &name)
{
    return metrics::counter(name).value();
}

// ---------------------------------------------------------------------
// Tracing

namespace {
thread_local std::vector<int> tlsOpen;
} // namespace

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

int
Tracer::begin(const char *layer, const char *name, std::uint64_t request,
              int parent)
{
    if (!on_)
        return -1;
    if (parent == -2)
        parent = tlsOpen.empty() ? -1 : tlsOpen.back();
    const Clock::time_point now = Clock::now();
    int index;
    {
        std::lock_guard<std::mutex> lk(mu_);
        index = static_cast<int>(spans_.size());
        spans_.push_back(Span{layer, name, now, now, parent, request});
    }
    tlsOpen.push_back(index);
    return index;
}

void
Tracer::end(int index)
{
    if (index < 0)
        return;
    const Clock::time_point now = Clock::now();
    tlsOpen.pop_back();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(index)].end = now;
}

int
Tracer::record(const char *layer, const char *name, Clock::time_point start,
               Clock::time_point end, int parent, std::uint64_t request)
{
    if (!on_)
        return -1;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{layer, name, start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::close(int index, Clock::time_point end)
{
    if (index < 0)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(index)].end = end;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

std::size_t
Tracer::mark() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

LayerTimes
layerTimes(const std::vector<Span> &spans, std::size_t from)
{
    LayerTimes lt;
    std::vector<double> childSeconds(spans.size(), 0.0);
    for (std::size_t i = from; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double d = secondsBetween(s.start, s.end);
        if (s.parent >= static_cast<int>(from))
            childSeconds[static_cast<std::size_t>(s.parent)] += d;
        else
            lt.rootSeconds += d;
        lt.totalSeconds[s.name] += d;
        lt.durations[s.name].push_back(d);
    }
    for (std::size_t i = from; i < spans.size(); ++i) {
        const Span &s = spans[i];
        lt.selfSeconds[s.layer] +=
            secondsBetween(s.start, s.end) - childSeconds[i];
    }
    return lt;
}

double
reportLayerShares(const LayerTimes &lt, Report &rep)
{
    if (lt.rootSeconds <= 0.0)
        return 0.0;
    char line[160];
    rep.note("layer self time over traced root spans (" +
             std::to_string(lt.rootSeconds) + " s):");
    for (const auto &[layer, self] : lt.selfSeconds) {
        std::snprintf(line, sizeof(line), "  %-10s %10.6f s  %5.1f %%%s",
                      layer.c_str(), self, 100.0 * self / lt.rootSeconds,
                      layer == "bench" ? "  (unattributed)" : "");
        rep.note(line);
    }
    const auto it = lt.selfSeconds.find("bench");
    const double unattributed = it == lt.selfSeconds.end() ? 0.0
                                                           : it->second;
    return 1.0 - unattributed / lt.rootSeconds;
}

// ---------------------------------------------------------------------
// Paper probe

void
addFig12(const std::vector<const sim::RunResult *> &ckks,
         const std::vector<const sim::RunResult *> &tfhe, Report &rep)
{
    const auto add = [&](const std::string &suite,
                         const std::vector<const sim::RunResult *> &rs) {
        double pe = 0.0, noc = 0.0, hbm = 0.0;
        for (const sim::RunResult *r : rs) {
            pe += r->stats.peUtilization();
            noc += r->stats.utilization(isa::Resource::Noc);
            hbm += r->stats.hbmUtilization();
        }
        const double n = static_cast<double>(rs.size());
        rep.paperSim["fig12." + suite + ".pe"] = pe / n;
        rep.paperSim["fig12." + suite + ".noc"] = noc / n;
        rep.paperSim["fig12." + suite + ".hbm"] = hbm / n;
    };
    if (!ckks.empty())
        add("ckks", ckks);
    if (!tfhe.empty())
        add("tfhe", tfhe);
}

void
runPaperProbe(Report &rep)
{
    const runner::Sweep sweep = runner::fig12Sweep();
    runner::RunnerConfig cfg;
    cfg.threads = 1;
    const runner::BatchResult batch =
        runner::ExperimentRunner(cfg).runAll(sweep.jobs);
    std::vector<const sim::RunResult *> ckks, tfhe;
    for (std::size_t i = 0; i < sweep.jobs.size(); ++i) {
        const sim::RunResult &r = batch.results[i];
        const bool ok = batch.outcomes[i].ok() && opCyclesSumToTotal(r);
        rep.unit(ok, "paper probe job " + sweep.jobs[i].label + " " +
                         batch.outcomes[i].message);
        rep.mixDigest(canonicalResult(r));
        const bool isCkks =
            sweep.jobs[i].label.rfind("fig12/ckks/", 0) == 0;
        (isCkks ? ckks : tfhe).push_back(&r);
    }
    addFig12(ckks, tfhe, rep);
}

} // namespace perfbench
