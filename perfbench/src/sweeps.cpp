/**
 * @file
 * The `ckks_dse` workload (Figures 10a, 13 and 14, compile-bound): its
 * job list runs serially through ExperimentRunner on one runner thread,
 * the way `sweep_all --threads 1` does, and the ufc.report/v2 document is
 * written after each pass.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <unordered_map>

#include "analysis/analyzer.h"
#include "analysis/cost_bounds.h"
#include "harness.h"
#include "metrics/metrics.h"
#include "runner/report.h"
#include "runner/runner.h"
#include "runner/sweeps.h"

namespace perfbench {

using namespace ufc;

namespace {

using ModelPtr = std::shared_ptr<const sim::AcceleratorModel>;

/// The least time one set-up sample's batch of job-list builds lasts.
constexpr double kSetupBatchSeconds = 0.03;

/** Compile/execute counts gathered by TracedModel during one pass. */
struct PassCounts
{
    double records = 0.0;
    double maxProgramBytes = 0.0;
    double dynInsts = 0.0;
    std::vector<double> executeSeconds;
};

double
programBytes(const compiler::Program &p)
{
    double bytes = static_cast<double>(
        p.code.size() * sizeof(compiler::BcInst) +
        p.bufs.size() * sizeof(compiler::BcBuf) +
        p.loops.size() * sizeof(compiler::BcLoop) +
        p.phaseEvents.size() * sizeof(compiler::PhaseEvent) +
        p.debug.size() * sizeof(compiler::BcDebug) +
        p.segments.size() * sizeof(compiler::PhaseSegment));
    for (const compiler::Program &part : p.parts)
        bytes += programBytes(part);
    return bytes;
}

/**
 * Forwards to a real model and records a span around each call into the
 * compiler and the simulator.  The runner's run() shim dispatches to
 * compile() and execute() virtually, so a job given this model goes
 * through exactly the library path an untraced job takes.
 */
class TracedModel final : public sim::AcceleratorModel
{
  public:
    TracedModel(ModelPtr inner, PassCounts *counts)
        : inner_(std::move(inner)), counts_(counts)
    {}

    compiler::Program
    compile(const trace::Trace &tr) const override
    {
        Scope s("compiler", "compiler.compile");
        compiler::Program p = inner_->compile(tr);
        counts_->records += static_cast<double>(p.code.size());
        counts_->maxProgramBytes =
            std::max(counts_->maxProgramBytes, programBytes(p));
        return p;
    }

    compiler::Program
    compileStream(std::istream &is, std::size_t chunkBytes) const override
    {
        Scope s("compiler", "compiler.compile");
        return inner_->compileStream(is, chunkBytes);
    }

    using sim::AcceleratorModel::execute;
    sim::RunResult
    execute(const compiler::Program &program,
            const sim::RunOptions &opts) const override
    {
        const Clock::time_point t0 = Clock::now();
        sim::RunResult r;
        {
            Scope s("sim", "sim.execute");
            r = inner_->execute(program, opts);
        }
        counts_->executeSeconds.push_back(secondsSince(t0));
        counts_->dynInsts += static_cast<double>(r.stats.instCount);
        return r;
    }

    std::string name() const override { return inner_->name(); }
    double areaMm2() const override { return inner_->areaMm2(); }

  protected:
    sim::RunResult
    runTraceIr(const trace::Trace &tr,
               const sim::RunOptions &opts) const override
    {
        return inner_->run(tr, opts);
    }

  private:
    ModelPtr inner_;
    PassCounts *counts_;
};

std::vector<runner::Job>
buildJobs()
{
    return runner::allJobs({runner::fig10aSweep(), runner::fig13Sweep(),
                            runner::fig14Sweep()});
}

/**
 * One set-up sample: build the job list (trace generation and model
 * construction) into `jobs` again and again for at least
 * kSetupBatchSeconds; returns the mean time per build.  One build takes
 * from tens of microseconds (Fig. 10b) to about a millisecond (the CKKS
 * DSE), too short to time alone.
 */
double
setupSample(std::vector<runner::Job> &jobs)
{
    int builds = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        jobs.clear();
        Scope root("bench", "bench.setup");
        Scope s("workloads", "workloads.gen");
        jobs = buildJobs();
        ++builds;
    } while (secondsSince(t0) < kSetupBatchSeconds);
    return secondsSince(t0) / builds;
}

struct Pass
{
    double seconds = 0.0;
    runner::BatchResult batch;
    std::uint64_t digest = 0;
};

Pass
runPass(const std::vector<runner::Job> &jobs)
{
    runner::RunnerConfig cfg;
    cfg.threads = 1;
    const runner::ExperimentRunner runner(cfg);
    Pass pass;
    const Clock::time_point t0 = Clock::now();
    {
        Scope root("bench", "bench.pass");
        {
            Scope s("runner", "runner.run_all");
            pass.batch = runner.runAll(jobs);
        }
        Scope s("runner", "runner.report");
        std::ostringstream os;
        runner::writeJsonReport(pass.batch, os);
    }
    pass.seconds = secondsSince(t0);
    pass.digest = 0xcbf29ce484222325ULL;
    for (const sim::RunResult &r : pass.batch.results)
        pass.digest = fnv1a(canonicalResult(r), pass.digest);
    return pass;
}

/** Count every job of a pass as one unit and check its result. */
void
checkPass(const std::vector<runner::Job> &jobs, const Pass &pass,
          std::uint64_t reference, Report &rep)
{
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const runner::JobOutcome &o = pass.batch.outcomes[i];
        const sim::RunResult &r = pass.batch.results[i];
        if (!o.ok())
            rep.unit(false, jobs[i].label + ": " +
                                runner::jobStatusName(o.status) + " " +
                                o.message);
        else
            rep.unit(opCyclesSumToTotal(r),
                     jobs[i].label + ": per-op cycles do not sum to "
                                     "total_cycles");
    }
    rep.check(pass.digest == reference,
              "simulated results differ from the warm-up pass");
}

/** Figure 10(a)'s geomean ratios of SHARP over UFC and Figure 12's CKKS
 *  utilization, from the warm-up pass. */
void
addPaperValues(const std::vector<runner::Job> &jobs,
               const runner::BatchResult &batch, Report &rep)
{
    std::unordered_map<std::string, const sim::RunResult *> byLabel;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        byLabel[jobs[i].label] = &batch.results[i];
    double logDelay = 0.0, logEnergy = 0.0, logEdp = 0.0, logEdap = 0.0;
    int n = 0;
    // Figure 12 runs the same jobs as fig10a/C2/*/UFC.
    std::vector<const sim::RunResult *> util;
    const std::string suffix = "/UFC";
    for (const runner::Job &job : jobs) {
        const std::string &l = job.label;
        if (l.rfind("fig10a/", 0) != 0 || l.size() < suffix.size() ||
            l.compare(l.size() - suffix.size(), suffix.size(), suffix) != 0)
            continue;
        const sim::RunResult &u = *byLabel.at(l);
        if (l.rfind("fig10a/C2/", 0) == 0)
            util.push_back(&u);
        const auto other = byLabel.find(
            l.substr(0, l.size() - suffix.size()) + "/SHARP");
        if (other == byLabel.end())
            continue;
        const sim::RunResult &s = *other->second;
        logDelay += std::log(s.seconds / u.seconds);
        logEnergy += std::log(s.energyJ / u.energyJ);
        logEdp += std::log(s.edp() / u.edp());
        logEdap += std::log(s.edap() / u.edap());
        ++n;
    }
    if (n > 0) {
        const double k = 1.0 / n;
        rep.paperSim["fig10a.delay"] = std::exp(k * logDelay);
        rep.paperSim["fig10a.energy"] = std::exp(k * logEnergy);
        rep.paperSim["fig10a.edp"] = std::exp(k * logEdp);
        rep.paperSim["fig10a.edap"] = std::exp(k * logEdap);
    }
    addFig12(util, {}, rep);
}

/** The same jobs, each model wrapped in a TracedModel. */
std::vector<runner::Job>
tracedJobs(const std::vector<runner::Job> &jobs, PassCounts *counts)
{
    std::unordered_map<const sim::AcceleratorModel *, ModelPtr> wrapped;
    std::vector<runner::Job> out = jobs;
    for (runner::Job &job : out) {
        ModelPtr &w = wrapped[job.model.get()];
        if (!w)
            w = std::make_shared<TracedModel>(job.model, counts);
        job.model = w;
    }
    return out;
}

/** Off-default-path analyses, timed for sizing: trace lint per distinct
 *  trace, static cost bounds per job (checked against the results). */
void
runAnalyses(const std::vector<runner::Job> &jobs,
            const runner::BatchResult &reference, Report &rep)
{
    Scope root("bench", "bench.analysis");
    const analysis::Analyzer analyzer;
    std::set<const trace::Trace *> linted;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const runner::Job &job = jobs[i];
        if (linted.insert(job.trace.get()).second) {
            Scope s("analysis", "analysis.lint");
            const analysis::DiagnosticReport lint =
                analyzer.analyze(*job.trace);
            rep.check(lint.errorCount() == 0,
                      job.label + ": lint reports errors");
        }
        compiler::Program program;
        {
            Scope s("compiler", "compiler.compile_for_bounds");
            program = job.model->compile(*job.trace);
        }
        analysis::CostBounds b;
        {
            Scope s("analysis", "analysis.bounds");
            b = analysis::analyzeCostBounds(program);
        }
        const double cycles = reference.results[i].stats.totalCycles;
        rep.check(b.cyclesLower <= cycles && cycles <= b.cyclesUpper,
                  job.label + ": cycles outside the static bounds");
    }
}

} // namespace

void
runCkksDse(const Options &opt, Report &rep)
{
    metrics::setEnabled(true);
    Tracer &tr = tracer();
    tr.enable(opt.trace);

    // Set-up: one sample builds the list the passes run; one more
    // follows every untraced pass, into a list that is thrown away, so
    // the samples spread over the run like the passes (the host's speed
    // drifts within a run).  setup_s is their median.
    std::vector<double> setups;
    std::vector<runner::Job> jobs;
    setups.push_back(setupSample(jobs));
    for (int i = 0; i < opt.injectFailures && i < static_cast<int>(
                                                     jobs.size());
         ++i)
        jobs[static_cast<std::size_t>(i)].options.maxCycles = 1;

    // Warm-up pass: its results are the reference every later pass and
    // the traced passes must reproduce bit for bit.
    const Pass warm = runPass(jobs);
    checkPass(jobs, warm, warm.digest, rep);
    addPaperValues(jobs, warm.batch, rep);
    for (const sim::RunResult &r : warm.batch.results)
        rep.mixDigest(canonicalResult(r));
    // The warm-up pass ran every job once and later passes repeat it, so
    // the peak is the workload's own; the op probe's keys come after.
    const double rss = peakRssMb();

    PassCounts counts;
    const std::vector<runner::Job> traced = tracedJobs(jobs, &counts);
    std::unique_ptr<OpProbe> probe;
    if (!opt.trace)
        probe = std::make_unique<OpProbe>(opt.seed, opt.injectOpFailures,
                                          rep);

    // Per job, its host time in every untraced pass; the rest of a pass
    // (runner bookkeeping, report) is kept separately.
    std::vector<std::vector<double>> jobSeconds(jobs.size());
    std::vector<double> restSeconds;
    std::vector<double> plainSeconds, tracedSeconds;
    std::vector<double> compileS, executeS, maxExecS, overheadS, reportS;
    std::vector<double> records, programMb, dynInsts;
    LayerTimes passTimes;
    const std::uint64_t hits0 = counterValue("ufc_program_cache_hits_total");
    const std::uint64_t miss0 =
        counterValue("ufc_program_cache_misses_total");
    // A traced run gives the last quarter of its time to the substrate.
    const double passSeconds = opt.trace ? 0.75 * opt.seconds : opt.seconds;
    const Clock::time_point start = Clock::now();
    for (int i = 0;; ++i) {
        const bool timedOut = secondsSince(start) >= passSeconds;
        const int minPasses = opt.trace ? 6 : 3;
        if (timedOut && i >= minPasses)
            break;
        const bool tracedPass = opt.trace && i % 2 == 1;
        if (!tracedPass) {
            const Pass p = runPass(jobs);
            checkPass(jobs, p, warm.digest, rep);
            plainSeconds.push_back(p.seconds);
            double rest = p.seconds;
            for (std::size_t j = 0; j < jobs.size(); ++j) {
                const double s = p.batch.results[j].hostSeconds;
                jobSeconds[j].push_back(s);
                rest -= s;
            }
            restSeconds.push_back(rest);
            std::vector<runner::Job> spare;
            setups.push_back(setupSample(spare));
            for (int r = 0; probe && r < 3; ++r)
                probe->round();
            continue;
        }
        counts = PassCounts{};
        const std::size_t mark = tr.mark();
        const Pass p = runPass(traced);
        checkPass(jobs, p, warm.digest, rep);
        tracedSeconds.push_back(p.seconds);
        const LayerTimes lt = layerTimes(tr.spans(), mark);
        const double c = lt.totalSeconds.count("compiler.compile")
                             ? lt.totalSeconds.at("compiler.compile")
                             : 0.0;
        const double e = lt.totalSeconds.at("sim.execute");
        compileS.push_back(c);
        executeS.push_back(e);
        maxExecS.push_back(
            counts.executeSeconds.empty()
                ? 0.0
                : *std::max_element(counts.executeSeconds.begin(),
                                    counts.executeSeconds.end()));
        overheadS.push_back(lt.totalSeconds.at("runner.run_all") - c - e);
        reportS.push_back(lt.totalSeconds.at("runner.report"));
        records.push_back(counts.records);
        programMb.push_back(counts.maxProgramBytes / (1024.0 * 1024.0));
        dynInsts.push_back(counts.dynInsts);
        for (const auto &[layer, s] : lt.selfSeconds)
            passTimes.selfSeconds[layer] += s;
        passTimes.rootSeconds += lt.rootSeconds;
    }

    if (!opt.trace) {
        // A pass is assembled from each job's fastest time over the
        // passes plus the fastest remainder, so a slow spell of the host
        // during some passes does not move it.  Capacity is jobs per
        // second of that pass.
        double pass = fastest(restSeconds);
        for (const std::vector<double> &s : jobSeconds)
            pass += fastest(s);
        probe->finish();
        rep.metric("setup_s", median(setups), "s");
        rep.metric("peak_rss_mb", rss, "MB");
        rep.metric("sweep_s", pass, "s");
        rep.metric("capacity_rps", static_cast<double>(jobs.size()) / pass,
                   "1/s");
        char line[128];
        std::snprintf(line, sizeof(line),
                      "passes=%zu jobs/pass=%zu pass_s median=%.4f",
                      plainSeconds.size(), jobs.size(),
                      median(plainSeconds));
        rep.note(line);
        return;
    }

    // Traced run: every pass above alternated untraced and traced, so
    // the overhead compares passes taken under the same conditions.
    const double hits =
        static_cast<double>(counterValue("ufc_program_cache_hits_total") -
                            hits0);
    const double misses = static_cast<double>(
        counterValue("ufc_program_cache_misses_total") - miss0);
    runAnalyses(traced, warm.batch, rep);
    const LayerTimes all = layerTimes(tr.spans());
    const double execMed = median(executeS);
    const double instMed = median(dynInsts);

    rep.metric("compiler.compile_s", median(compileS), "s");
    rep.metric("compiler.records", median(records), "count");
    rep.metric("compiler.program_mb", median(programMb), "MB");
    rep.metric("sim.execute_s", execMed, "s");
    rep.metric("sim.ns_per_inst", instMed > 0 ? 1e9 * execMed / instMed : 0,
               "ns");
    rep.metric("sim.max_job_execute_s", median(maxExecS), "s");
    rep.metric("sim.dyn_insts", instMed, "count");
    rep.metric("workloads.gen_s", median(all.durations.at("workloads.gen")),
               "s");
    rep.metric("runner.overhead_s", median(overheadS), "s");
    rep.metric("runner.report_s", median(reportS), "s");
    rep.metric("analysis.lint_s", all.totalSeconds.at("analysis.lint"), "s");
    rep.metric("analysis.bounds_s", all.totalSeconds.at("analysis.bounds"),
               "s");
    rep.metric("runner.program_cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    rep.metric("tracing.overhead_frac",
               median(tracedSeconds) / median(plainSeconds) - 1.0, "ratio");
    rep.metric("tracing.covered_frac", reportLayerShares(passTimes, rep),
               "ratio");
    const double pass = median(tracedSeconds);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "stage shares of a traced pass: compile %.1f %%, execute "
                  "%.1f %%, runner %.1f %%, report %.1f %%",
                  100.0 * median(compileS) / pass, 100.0 * execMed / pass,
                  100.0 * median(overheadS) / pass,
                  100.0 * median(reportS) / pass);
    rep.note(line);
    traceSubstrate(opt.seed, opt.seconds - passSeconds, rep);
}

} // namespace perfbench
