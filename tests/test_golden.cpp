/**
 * @file
 * Golden checks of the paper sweep.  One run of runner::paperSweeps()
 * per process serves every check below:
 *
 *  - the digest: every job reduced to one line of exact numbers,
 *    compared against the committed tests/golden/paper_sweep.txt;
 *  - the paper claims (runner/claims.h): every band holds, and the
 *    rendered table equals the block EXPERIMENTS.md embeds between its
 *    paper-claims markers;
 *  - the claims reproduce perfbench's paper_err;
 *  - the RunStats invariants of sim/stats.h hold with `==` on every
 *    job;
 *  - the reference engine: every job re-run through
 *    AcceleratorModel::runTraceIr gives the batch's result bit for bit,
 *    so the one product engine, the runner's ProgramCache and the DSE
 *    points it re-costs all agree with an independent per-machine
 *    lowering;
 *  - the lowered stream: an FNV-1a digest of every instruction, operand,
 *    phase marker and repeat offer the lowering emits for the builtin
 *    traces under the UFC, SHARP and Strix lowering options, so a change
 *    to how instructions are built or passed is pinned one layer below
 *    the simulated results.
 *
 * Each line holds the job label, then total cycles, HBM bytes, energy
 * and the per-opcode cycles as hex floats, so any change to a simulated
 * result, in any bit, shows up here.  A change that moves the numbers on
 * purpose re-baselines the file: on a mismatch the test writes the
 * actual digest next to the test binary (paper_sweep.actual.txt) and
 * names the first differing job; copy that file over the golden one and
 * show the diff.  A drifted claims block is handled the same way through
 * paper_claims.actual.md.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/parallel.h"
#include "compiler/lowering.h"
#include "runner/claims.h"
#include "runner/runner.h"
#include "runner/sweeps.h"
#include "sim/accelerator.h"
#include "workloads/workloads.h"

namespace ufc {
namespace {

std::string
hexFloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** One digest line per job, in job order. */
std::vector<std::string>
digestLines(const std::vector<runner::Job> &jobs,
            const runner::BatchResult &batch)
{
    std::vector<std::string> lines;
    lines.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const sim::RunResult &r = batch.results[i];
        std::string line = jobs[i].label;
        if (!batch.outcomes[i].ok()) {
            line += std::string(" status=") +
                    runner::jobStatusName(batch.outcomes[i].status);
            lines.push_back(line);
            continue;
        }
        line += " cycles=" + hexFloat(r.stats.totalCycles);
        line += " hbm=" + hexFloat(r.stats.hbmBytes);
        line += " energy=" + hexFloat(r.energyJ);
        line += " ops=";
        for (int op = 0; op < isa::kNumHwOps; ++op) {
            if (op > 0)
                line += ',';
            line += hexFloat(r.stats.opStats[op].cycles);
        }
        lines.push_back(line);
    }
    return lines;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

/** The paper sweep, run once per process. */
struct PaperRun
{
    std::vector<runner::Job> jobs;
    runner::BatchResult batch;
};

const PaperRun &
paperRun()
{
    static const PaperRun run = [] {
        PaperRun r;
        r.jobs = runner::allJobs(runner::paperSweeps());
        r.batch = runner::ExperimentRunner().runAll(r.jobs);
        return r;
    }();
    return run;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Golden, PaperSweepMatchesDigest)
{
    const std::vector<runner::Job> &jobs = paperRun().jobs;
    const std::vector<std::string> actual =
        digestLines(jobs, paperRun().batch);
    const std::vector<std::string> golden = readLines(UFC_GOLDEN_FILE);

    std::size_t first = 0;
    while (first < actual.size() && first < golden.size() &&
           actual[first] == golden[first])
        ++first;
    if (first == actual.size() && first == golden.size())
        return;

    const std::string out =
        std::string(UFC_GOLDEN_OUT_DIR) + "/paper_sweep.actual.txt";
    {
        std::ofstream os(out);
        for (const std::string &line : actual)
            os << line << '\n';
    }
    std::ostringstream msg;
    msg << "paper sweep digest differs from " << UFC_GOLDEN_FILE << " ("
        << actual.size() << " jobs run, " << golden.size()
        << " golden lines); first difference at line " << first + 1
        << ": ";
    if (first < actual.size())
        msg << "job " << jobs[first].label;
    else
        msg << "golden line '" << golden[first] << "' has no job";
    msg << ".  Actual digest written to " << out;
    FAIL() << msg.str();
}

TEST(Golden, PaperSweepMatchesReferenceEngine)
{
    const std::vector<runner::Job> &jobs = paperRun().jobs;
    const runner::BatchResult &batch = paperRun().batch;
    ASSERT_EQ(batch.results.size(), jobs.size());
    ASSERT_TRUE(batch.allOk());

    // parallelFor does not carry exceptions, so each job's outcome is
    // captured as text: the result JSON, or the error it threw.
    std::vector<std::string> reference(jobs.size());
    ThreadPool pool(runner::ExperimentRunner().effectiveThreads(jobs.size()));
    pool.parallelFor(jobs.size(), [&](std::size_t i) {
        const runner::Job &job = jobs[i];
        try {
            sim::RunResult ir =
                job.model->runTraceIr(*job.trace, job.options);
            // Normalize the per-job fields the runner fills in.
            ir.label = batch.results[i].label;
            reference[i] = ir.toJson();
        } catch (const Error &e) {
            reference[i] = std::string("error: ") + e.kind() + ": " +
                           e.what();
        }
    });

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        sim::RunResult bc = batch.results[i];
        bc.hostSeconds = 0.0;
        EXPECT_EQ(bc.toJson(), reference[i]) << jobs[i].label;
    }
}

TEST(Golden, PaperSweepStatsInvariantsHoldExactly)
{
    // The RunStats invariants of sim/stats.h, with `==`: the engines sum
    // integer ticks, so no tolerance is needed on any of the 150 jobs,
    // composed ones included.
    const std::vector<runner::Job> &jobs = paperRun().jobs;
    const runner::BatchResult &batch = paperRun().batch;
    ASSERT_TRUE(batch.allOk());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const sim::RunStats &s = batch.results[i].stats;
        double cycles = 0.0;
        double stall = 0.0;
        double fill = 0.0;
        for (const sim::OpStats &o : s.opStats) {
            EXPECT_EQ(o.cycles,
                      o.computeCycles + o.stallCycles + o.fillCycles)
                << jobs[i].label;
            cycles += o.cycles;
            stall += o.stallCycles;
            fill += o.fillCycles;
        }
        EXPECT_EQ(s.totalCycles, cycles) << jobs[i].label;
        EXPECT_EQ(s.stalls.hbmBound + s.stalls.dependency, stall)
            << jobs[i].label;
        EXPECT_EQ(s.stalls.pipelineFill, fill) << jobs[i].label;
    }
}

TEST(Golden, PaperClaimsHoldTheirBands)
{
    const std::vector<runner::ClaimValue> values =
        runner::evaluateClaims(paperRun().batch);
    ASSERT_EQ(values.size(), runner::paperClaims().size());
    for (const runner::ClaimValue &v : values) {
        EXPECT_TRUE(std::isfinite(v.sim)) << v.claim->id;
        if (v.claim->above) {
            EXPECT_TRUE(v.inBand.value_or(false))
                << v.claim->id << " = " << v.sim << ", band > "
                << *v.claim->above;
        }
    }
}

TEST(Golden, ExperimentsClaimsBlockMatchesRendering)
{
    const std::string begin = "<!-- paper-claims:begin -->\n";
    const std::string end = "<!-- paper-claims:end -->";
    const std::string doc = readFile(UFC_EXPERIMENTS_FILE);
    const std::size_t b = doc.find(begin);
    const std::size_t e = doc.find(end);
    ASSERT_NE(b, std::string::npos) << UFC_EXPERIMENTS_FILE;
    ASSERT_NE(e, std::string::npos) << UFC_EXPERIMENTS_FILE;
    ASSERT_LT(b, e);
    const std::string block =
        doc.substr(b + begin.size(), e - b - begin.size());

    const std::string actual =
        runner::renderClaims(runner::evaluateClaims(paperRun().batch));
    if (block == actual)
        return;
    const std::string out =
        std::string(UFC_GOLDEN_OUT_DIR) + "/paper_claims.actual.md";
    std::ofstream(out) << actual;
    FAIL() << "the claims block of " << UFC_EXPERIMENTS_FILE
           << " differs from the rendered table; the rendering is in "
           << out << " (paste it between the paper-claims markers)";
}

/** Mean |ln(sim/paper)| over the claims whose id starts with one of
 *  `prefixes`, as perfbench's paper_err takes it. */
double
paperErr(const std::vector<runner::ClaimValue> &values,
         const std::vector<std::string> &prefixes)
{
    double sum = 0.0;
    int n = 0;
    for (const runner::ClaimValue &v : values)
        for (const std::string &p : prefixes)
            if (v.claim->paper && v.claim->id.rfind(p, 0) == 0) {
                sum += std::fabs(v.lnRatio);
                ++n;
            }
    return sum / n;
}

TEST(Golden, ClaimsReproducePerfbenchPaperErr)
{
    // perfbench/baseline.json: ckks_dse reads Fig. 10(a) and the CKKS
    // half of Fig. 12, serve_warm all of Fig. 12.
    const std::vector<runner::ClaimValue> values =
        runner::evaluateClaims(paperRun().batch);
    EXPECT_NEAR(paperErr(values, {"fig10a.", "fig12.ckks."}),
                0.19625650856165638, 1e-9);
    EXPECT_NEAR(paperErr(values, {"fig12.ckks.", "fig12.tfhe."}),
                0.9007725682843216, 1e-9);
}

TEST(Golden, EditedResultTakesExactlyItsClaimOutOfBand)
{
    const runner::BatchResult &batch = paperRun().batch;
    ASSERT_TRUE(batch.allOk());
    std::vector<sim::RunResult> edited = batch.results;
    const auto at = [&](const std::string &label) -> sim::RunResult & {
        for (sim::RunResult &r : edited)
            if (r.label == label)
                return r;
        throw std::runtime_error("no job " + label);
    };
    // CoLP at T4 now runs twice as fast as TvLP: TvLP no longer wins
    // every parameter set, while the T3 -> T4 gap still shrinks.
    at("fig15/T4/PBS-T4/CoLP").seconds =
        0.5 * at("fig15/T4/PBS-T4/TvLP").seconds;

    const auto outOfBand = [](const runner::ResultSet &rs) {
        std::set<std::string> ids;
        for (const runner::ClaimValue &v : runner::evaluateClaims(rs))
            if (!v.inBand.value_or(true))
                ids.insert(v.claim->id);
        return ids;
    };
    EXPECT_EQ(outOfBand(runner::ResultSet(batch.results)),
              std::set<std::string>{});
    EXPECT_EQ(outOfBand(runner::ResultSet(std::move(edited))),
              std::set<std::string>{"fig15.tvlp_over_colp"});
}

TEST(Golden, ClaimsNeedTheirWholeSweep)
{
    // A sweep absent from the set has no rows; a sweep with a missing
    // job has rows without a value, never a value over fewer jobs.
    std::vector<sim::RunResult> runs;
    for (const sim::RunResult &r : paperRun().batch.results)
        if (r.label.rfind("fig10b/", 0) == 0 &&
            r.label != "fig10b/T1/PBS-T1/Strix")
            runs.push_back(r);
    const std::vector<runner::ClaimValue> values =
        runner::evaluateClaims(runner::ResultSet(std::move(runs)));
    ASSERT_FALSE(values.empty());
    for (const runner::ClaimValue &v : values) {
        EXPECT_EQ(v.claim->sweep, "fig10b");
        EXPECT_TRUE(std::isnan(v.sim)) << v.claim->id;
        EXPECT_FALSE(v.inBand.has_value()) << v.claim->id;
    }
}

/**
 * Digests the stream a lowering hands its sink: every HwInst field,
 * every operand (id, bytes, flags), every phase begin (with its name) and
 * end, and every repeat offer, which it accepts like the ProgramBuilder
 * so TFHE bodies are seen folded.
 */
class StreamDigestSink final : public isa::InstSink
{
  public:
    u64 digest = trace::detail::kFnvOffset;
    u64 records = 0;

    void
    issue(const isa::HwInst &inst) override
    {
        mix(1);
        mix(static_cast<u64>(inst.op));
        mix(inst.logDegree);
        mix(inst.batch);
        mix(inst.words);
        mix(inst.work);
        mix(inst.buffers.size());
        for (const isa::BufferRef &ref : inst.buffers) {
            mix(ref.id);
            mix(ref.bytes);
            mix((ref.write ? 1u : 0u) | (ref.transient ? 2u : 0u) |
                (ref.streaming ? 4u : 0u));
        }
        ++records;
    }

    void
    beginPhase(const char *name) override
    {
        mix(2);
        trace::detail::fnvMix(digest, std::string(name ? name : ""));
    }

    void endPhase() override { mix(3); }

    bool
    beginRepeat(u64 trips) override
    {
        mix(4);
        mix(trips);
        return true;
    }

    void endRepeat() override { mix(5); }

  private:
    void mix(u64 v) { trace::detail::fnvMix(digest, v); }
};

TEST(Golden, LoweredStreamDigest)
{
    // Each chip lowers the builtin traces it admits: UFC all of them,
    // SHARP the CKKS suite, Strix the TFHE suite.
    const auto cp = ckks::CkksParams::c1();
    const auto tp = tfhe::TfheParams::t1();
    std::vector<trace::Trace> ckks = workloads::ckksSuite(cp);
    std::vector<trace::Trace> tfhe = workloads::tfheSuite(tp);
    std::vector<trace::Trace> all = ckks;
    all.insert(all.end(), tfhe.begin(), tfhe.end());
    all.push_back(workloads::hybridKnn(cp, tp));

    const sim::UfcModel ufcm;
    const sim::SharpModel sharp;
    const sim::StrixModel strix;
    const std::vector<std::pair<const sim::ChipModel *,
                                const std::vector<trace::Trace> *>>
        cases = {{&ufcm, &all}, {&sharp, &ckks}, {&strix, &tfhe}};

    StreamDigestSink sink;
    std::ostringstream perCase;
    for (const auto &[model, traces] : cases) {
        for (const trace::Trace &tr : *traces) {
            compiler::Lowering lowering(&tr, model->loweringOptions(),
                                        &sink);
            lowering.run();
            perCase << model->name() << "/" << tr.name << " " << std::hex
                    << sink.digest << std::dec << " " << sink.records
                    << "\n";
        }
    }
    EXPECT_EQ(sink.records, 1359350u);
    EXPECT_EQ(sink.digest, 0x0b81629edf1c5aa0ULL)
        << std::hex << sink.digest << std::dec << " after " << sink.records
        << " records\n"
        << perCase.str();
}

} // namespace
} // namespace ufc
