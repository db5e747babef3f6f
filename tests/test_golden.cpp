/**
 * @file
 * Golden digest of the paper sweep: every job of runner::paperSweeps()
 * reduced to one line of exact numbers, compared against the committed
 * tests/golden/paper_sweep.txt.
 *
 * Each line holds the job label, then total cycles, HBM bytes, energy
 * and the per-opcode cycles as hex floats, so any change to a simulated
 * result, in any bit, shows up here.  A change that moves the numbers on
 * purpose re-baselines the file: on a mismatch the test writes the
 * actual digest next to the test binary (paper_sweep.actual.txt) and
 * names the first differing job; copy that file over the golden one and
 * show the diff.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/runner.h"
#include "runner/sweeps.h"

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

TEST(Golden, PaperSweepMatchesDigest)
{
    const std::vector<runner::Job> jobs =
        runner::allJobs(runner::paperSweeps());
    const runner::BatchResult batch =
        runner::ExperimentRunner().runAll(jobs);
    const std::vector<std::string> actual = digestLines(jobs, batch);
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

} // namespace
} // namespace ufc
