/**
 * @file
 * Tests for the parallel experiment runner: bit-exact determinism of a
 * parallel sweep versus the serial path, RunOptions plumbing, and the
 * structured JSON/CSV export.
 */

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "runner/report.h"
#include "runner/sweeps.h"
#include "workloads/workloads.h"

namespace ufc {
namespace {

using runner::ExperimentRunner;
using runner::Job;
using runner::ResultSet;
using runner::RunnerConfig;
using sim::RunOptions;
using sim::RunResult;

/** Everything except hostSeconds (host-side timing) must match exactly:
 *  the simulation itself is deterministic down to the last bit. */
void
expectBitIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.powerW, b.powerW);
    EXPECT_EQ(a.areaMm2, b.areaMm2);
    EXPECT_EQ(a.stats.totalCycles, b.stats.totalCycles);
    EXPECT_EQ(a.stats.hbmBytes, b.stats.hbmBytes);
    EXPECT_EQ(a.stats.hbmBusyCycles, b.stats.hbmBusyCycles);
    EXPECT_EQ(a.stats.spadHitBytes, b.stats.spadHitBytes);
    EXPECT_EQ(a.stats.instCount, b.stats.instCount);
    for (int i = 0; i < isa::kNumResources; ++i)
        EXPECT_EQ(a.stats.busyCycles[i], b.stats.busyCycles[i]) << i;
    EXPECT_EQ(a.energyStaticJ, b.energyStaticJ);
    EXPECT_EQ(a.energyHbmJ, b.energyHbmJ);
    for (int i = 0; i < isa::kNumHwOps; ++i) {
        EXPECT_EQ(a.stats.opStats[i].count, b.stats.opStats[i].count) << i;
        EXPECT_EQ(a.stats.opStats[i].cycles, b.stats.opStats[i].cycles)
            << i;
        EXPECT_EQ(a.stats.opStats[i].computeCycles,
                  b.stats.opStats[i].computeCycles) << i;
        EXPECT_EQ(a.stats.opStats[i].stallCycles,
                  b.stats.opStats[i].stallCycles) << i;
        EXPECT_EQ(a.stats.opStats[i].fillCycles,
                  b.stats.opStats[i].fillCycles) << i;
        EXPECT_EQ(a.stats.opStats[i].hbmBytes,
                  b.stats.opStats[i].hbmBytes) << i;
    }
    EXPECT_EQ(a.stats.stalls.hbmBound, b.stats.stalls.hbmBound);
    EXPECT_EQ(a.stats.stalls.dependency, b.stats.stalls.dependency);
    EXPECT_EQ(a.stats.stalls.pipelineFill, b.stats.stalls.pipelineFill);
    EXPECT_EQ(a.stats.stalls.spadSpillCycles,
              b.stats.stalls.spadSpillCycles);
    EXPECT_EQ(a.stats.stalls.spadWritebackBytes,
              b.stats.stalls.spadWritebackBytes);
    EXPECT_EQ(a.stats.stalls.spadEvictions, b.stats.stalls.spadEvictions);
}

/** A mixed sweep: 4 workloads across all 4 accelerator models (scheme
 *  constraints permitting) — the shape the determinism guarantee must
 *  hold for. */
std::vector<Job>
mixedJobs()
{
    const auto cp = ckks::CkksParams::c2();
    const auto tp = tfhe::TfheParams::t2();

    const auto helr =
        std::make_shared<trace::Trace>(workloads::helr(cp, 2));
    const auto boot =
        std::make_shared<trace::Trace>(workloads::ckksBootstrapping(cp));
    const auto pbs =
        std::make_shared<trace::Trace>(workloads::pbsThroughput(tp, 256));
    const auto knn = std::make_shared<trace::Trace>(
        workloads::hybridKnn(cp, tp, 1024, 64, 4));

    const auto ufcm = std::make_shared<sim::UfcModel>();
    const auto sharp = std::make_shared<sim::SharpModel>();
    const auto strix = std::make_shared<sim::StrixModel>();
    const auto composed = std::make_shared<sim::ComposedModel>();

    std::vector<Job> jobs;
    auto add = [&](const std::string &label,
                   std::shared_ptr<const sim::AcceleratorModel> model,
                   std::shared_ptr<const trace::Trace> tr) {
        jobs.push_back(Job{label, std::move(model), std::move(tr),
                           RunOptions{}, ""});
    };
    add("helr/UFC", ufcm, helr);
    add("helr/SHARP", sharp, helr);
    add("helr/SHARP+Strix", composed, helr);
    add("boot/UFC", ufcm, boot);
    add("boot/SHARP", sharp, boot);
    add("boot/SHARP+Strix", composed, boot);
    add("pbs/UFC", ufcm, pbs);
    add("pbs/Strix", strix, pbs);
    add("pbs/SHARP+Strix", composed, pbs);
    add("knn/UFC", ufcm, knn);
    add("knn/SHARP+Strix", composed, knn);
    return jobs;
}

TEST(Runner, ParallelSweepMatchesSerialBitExactly)
{
    const auto jobs = mixedJobs();

    RunnerConfig serialCfg;
    serialCfg.threads = 1;
    const auto serial = ExperimentRunner(serialCfg).run(jobs);

    RunnerConfig parCfg;
    parCfg.threads = 4;
    const auto parallel = ExperimentRunner(parCfg).run(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectBitIdentical(serial[i], parallel[i]);

    // And a second parallel run reproduces the first.
    const auto again = ExperimentRunner(parCfg).run(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectBitIdentical(parallel[i], again[i]);
}

TEST(Runner, ResultsComeBackInJobOrderWithLabels)
{
    const auto jobs = mixedJobs();
    RunnerConfig cfg;
    cfg.threads = 4;
    const auto results = ExperimentRunner(cfg).run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(results[i].label, jobs[i].label);
        EXPECT_EQ(results[i].machine, jobs[i].model->name());
        EXPECT_EQ(results[i].workload, jobs[i].trace->name);
        EXPECT_GE(results[i].hostSeconds, 0.0);
        EXPECT_GT(results[i].seconds, 0.0);
    }

    const ResultSet set(results);
    EXPECT_EQ(set.size(), jobs.size());
    EXPECT_TRUE(set.contains("boot/SHARP"));
    EXPECT_FALSE(set.contains("boot/Strix"));
    EXPECT_EQ(set.at("pbs/Strix").machine, "Strix");
}

TEST(Runner, EffectiveThreadsClampsToJobCount)
{
    RunnerConfig cfg;
    cfg.threads = 64;
    const ExperimentRunner exec(cfg);
    EXPECT_EQ(exec.effectiveThreads(3), 3);
    EXPECT_EQ(exec.effectiveThreads(1000), 64);
    cfg.threads = 0; // auto: at least one
    EXPECT_GE(ExperimentRunner(cfg).effectiveThreads(1000), 1);
}

TEST(Runner, RunOptionsPrefetchWindowChangesSchedule)
{
    const auto cp = ckks::CkksParams::c2();
    const auto tr = workloads::ckksBootstrapping(cp);
    const sim::UfcModel model;

    const auto def = model.run(tr);
    RunOptions tight;
    tight.prefetchWindow = 1;
    const auto narrow = model.run(tr, tight);

    // A 1-deep memory window serializes fetch behind compute more often,
    // so the run can only get slower — and on this memory-heavy workload
    // it measurably does.
    EXPECT_GT(narrow.stats.totalCycles, def.stats.totalCycles);
    // The work performed is identical either way.
    EXPECT_EQ(narrow.stats.instCount, def.stats.instCount);
    EXPECT_EQ(narrow.stats.hbmBytes, def.stats.hbmBytes);
}

TEST(Runner, RunOptionsLabelAndVerbosityArePropagated)
{
    const auto tp = tfhe::TfheParams::t1();
    const auto tr = workloads::pbsThroughput(tp, 16);
    const sim::UfcModel model;

    RunOptions opts;
    opts.label = "my-run";
    auto r = model.run(tr, opts);
    EXPECT_EQ(r.label, "my-run");
    EXPECT_EQ(r.verbosity, sim::StatsVerbosity::Full);
    r.verbosity = sim::StatsVerbosity::Compact;

    // Compact results omit the raw-counter block from both formats.
    EXPECT_EQ(r.toJson().find("\"stats\""), std::string::npos);
    const auto full = model.run(tr);
    EXPECT_NE(full.toJson().find("\"stats\""), std::string::npos);
    EXPECT_NE(full.toJson().find("\"utilization\""), std::string::npos);
}

TEST(RunnerReport, CsvRowsMatchHeaderArity)
{
    const auto tp = tfhe::TfheParams::t1();
    const auto tr = workloads::pbsThroughput(tp, 16);
    const sim::UfcModel model;
    const auto full = model.run(tr);
    auto compact = full;
    compact.verbosity = sim::StatsVerbosity::Compact;

    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    const auto header = sim::RunResult::csvHeader();
    EXPECT_EQ(commas(full.toCsvRow()), commas(header));
    EXPECT_EQ(commas(compact.toCsvRow()), commas(header));
}

TEST(RunnerReport, JsonReportCarriesSchemaAndAllRuns)
{
    const auto tp = tfhe::TfheParams::t1();
    const auto pbs =
        std::make_shared<trace::Trace>(workloads::pbsThroughput(tp, 16));
    const auto ufcm = std::make_shared<sim::UfcModel>();
    const auto strix = std::make_shared<sim::StrixModel>();

    std::vector<Job> jobs;
    jobs.push_back(Job{"r/UFC", ufcm, pbs, RunOptions{}, ""});
    jobs.push_back(Job{"r/Strix", strix, pbs, RunOptions{}, ""});
    const auto batch = ExperimentRunner().runAll(jobs);

    std::ostringstream json;
    runner::ReportMeta meta;
    meta.threads = 2;
    runner::writeJsonReport(batch, json, meta);
    const auto doc = json.str();
    EXPECT_NE(doc.find("\"schema\":\"ufc.report/v2\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"failure_count\":0"), std::string::npos);
    EXPECT_NE(doc.find("\"schema\":\"ufc.runresult/v2\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"run_count\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"label\":\"r/UFC\""), std::string::npos);
    EXPECT_NE(doc.find("\"label\":\"r/Strix\""), std::string::npos);

    std::ostringstream csv;
    runner::writeCsvReport(batch, csv);
    const std::string csvDoc = csv.str();
    EXPECT_EQ(std::count(csvDoc.begin(), csvDoc.end(), '\n'), 3);
    // header + 2 rows
}

TEST(RunnerReport, RoundTripPrecisionSurvivesJson)
{
    // %.17g must reproduce doubles exactly; spot-check through a parse.
    const auto tp = tfhe::TfheParams::t1();
    const auto tr = workloads::pbsThroughput(tp, 16);
    const auto r = sim::UfcModel().run(tr);
    const auto doc = r.toJson();
    const auto key = doc.find("\"seconds\":");
    ASSERT_NE(key, std::string::npos);
    const double parsed =
        std::strtod(doc.c_str() + key + 10, nullptr);
    EXPECT_EQ(parsed, r.seconds);
}

TEST(RunnerSweeps, PaperSweepsCoverAllFiguresWithUniqueLabels)
{
    const auto sweeps = runner::paperSweeps();
    std::vector<std::string> names;
    for (const auto &sweep : sweeps)
        names.push_back(sweep.name);
    EXPECT_EQ(names, (std::vector<std::string>{"fig10a", "fig10b", "fig11",
                                               "fig12", "fig13", "fig14",
                                               "fig15"}));
    ASSERT_EQ(sweeps.size(), 7u);

    const auto jobs = runner::allJobs(sweeps);
    std::vector<std::string> labels;
    for (const auto &job : jobs) {
        ASSERT_NE(job.model, nullptr) << job.label;
        ASSERT_NE(job.trace, nullptr) << job.label;
        labels.push_back(job.label);
    }
    std::sort(labels.begin(), labels.end());
    EXPECT_TRUE(std::adjacent_find(labels.begin(), labels.end()) ==
                labels.end())
        << "duplicate job labels in the paper sweep";

    // Figure 11: the k-NN at T1-T4 x {UFC, SHARP+Strix}.
    EXPECT_EQ(sweeps[2].jobs.size(), 8u);
    // Figure 13: 3 network counts x 3 scratchpads x 4 CKKS workloads.
    EXPECT_EQ(sweeps[4].jobs.size(), 36u);
    // Figure 14: 4 lane counts x 3 scratchpads x 4 CKKS workloads.
    EXPECT_EQ(sweeps[5].jobs.size(), 48u);
    // Figure 15: a PBS batch at T1-T4 x {no packing, CoLP, TvLP}.
    EXPECT_EQ(sweeps[6].jobs.size(), 12u);
    EXPECT_EQ(jobs.size(), 150u);
}

} // namespace
} // namespace ufc
