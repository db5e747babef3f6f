/**
 * @file
 * Lower once, cost per machine: a Program re-costed from another model's
 * lowering must equal a fresh compile for the new model — the same
 * records, the same cost table, the same RunResult — while sharing the
 * lowered body.  Also covers what keeps sharing sound: lowering keys
 * that separate option sets the lowering reads, the machine digest that
 * stops a Program costed for one configuration from running on another,
 * and the runner's lowering count over the DSE sweeps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "compiler/bytecode.h"
#include "runner/runner.h"
#include "runner/sweeps.h"
#include "sim/accelerator.h"
#include "workloads/workloads.h"

namespace ufc {
namespace {

using compiler::Program;
using runner::Job;
using runner::ProgramCache;

bool
sameBits(double a, double b)
{
    return std::bit_cast<u64>(a) == std::bit_cast<u64>(b);
}

/** Field-by-field equality of everything execute() reads, plus the
 *  stamps; `why` names the pair in failure messages. */
void
expectSameProgram(const Program &a, const Program &b,
                  const std::string &why)
{
    SCOPED_TRACE(why);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.traceHash, b.traceHash);
    EXPECT_EQ(a.machineDigest, b.machineDigest);
    EXPECT_TRUE(sameBits(a.hbmBytesPerCycle, b.hbmBytesPerCycle));
    EXPECT_TRUE(sameBits(a.scratchpadBytes, b.scratchpadBytes));
    EXPECT_EQ(a.fillTicks, b.fillTicks);
    EXPECT_EQ(a.spadSlots, b.spadSlots);

    ASSERT_EQ(a.code.size(), b.code.size());
    for (std::size_t i = 0; i < a.code.size(); ++i) {
        const compiler::BcInst &x = a.code[i];
        const compiler::BcInst &y = b.code[i];
        ASSERT_TRUE(x.shape == y.shape && x.bufBegin == y.bufBegin &&
                    x.bufCount == y.bufCount && x.kind == y.kind)
            << "record " << i;
    }
    ASSERT_EQ(a.bufs.size(), b.bufs.size());
    for (std::size_t i = 0; i < a.bufs.size(); ++i) {
        const compiler::BcBuf &x = a.bufs[i];
        const compiler::BcBuf &y = b.bufs[i];
        ASSERT_TRUE(x.id == y.id && sameBits(x.bytes, y.bytes) &&
                    x.slot == y.slot && x.write == y.write &&
                    x.streamed == y.streamed)
            << "operand " << i;
    }
    ASSERT_EQ(a.shapes.size(), b.shapes.size());
    for (std::size_t i = 0; i < a.shapes.size(); ++i)
        ASSERT_TRUE(a.shapes[i] == b.shapes[i]) << "shape " << i;
    EXPECT_TRUE(std::equal(a.shapeCounts.begin(), a.shapeCounts.end(),
                           b.shapeCounts.begin(), b.shapeCounts.end()));
    ASSERT_EQ(a.costs.size(), b.costs.size());
    for (std::size_t i = 0; i < a.costs.size(); ++i) {
        const compiler::CostRow &x = a.costs[i];
        const compiler::CostRow &y = b.costs[i];
        ASSERT_TRUE(x.computeTicks == y.computeTicks &&
                    x.busyLaneTicks == y.busyLaneTicks &&
                    x.nocTicks == y.nocTicks &&
                    sameBits(x.staticFetchBytes, y.staticFetchBytes) &&
                    x.staticMemTicks == y.staticMemTicks &&
                    x.resource == y.resource && x.op == y.op)
            << "cost row " << i;
    }
    ASSERT_EQ(a.loops.size(), b.loops.size());
    for (std::size_t i = 0; i < a.loops.size(); ++i)
        ASSERT_TRUE(a.loops[i].end == b.loops[i].end &&
                    a.loops[i].bodyLen == b.loops[i].bodyLen &&
                    a.loops[i].trips == b.loops[i].trips);
    ASSERT_EQ(a.phaseEvents.size(), b.phaseEvents.size());
    for (std::size_t i = 0; i < a.phaseEvents.size(); ++i)
        ASSERT_TRUE(a.phaseEvents[i].inst == b.phaseEvents[i].inst &&
                    a.phaseEvents[i].name == b.phaseEvents[i].name);
    ASSERT_EQ(a.phaseNames.size(), b.phaseNames.size());
    for (std::size_t i = 0; i < a.phaseNames.size(); ++i)
        ASSERT_EQ(a.phaseNames[i], b.phaseNames[i]);
}

TEST(BytecodeRecost, RecostEqualsCompileAcrossPaperSweeps)
{
    // Group every paper-sweep job by (lowering key, trace); within a
    // group, re-cost the first model's Program for every other model
    // and compare against that model's own compile.
    const std::vector<Job> jobs =
        runner::allJobs(runner::paperSweeps());
    std::map<std::pair<u64, u64>, std::vector<const Job *>> groups;
    for (const Job &job : jobs)
        groups[{job.model->loweringKey(*job.trace),
                trace::contentHash(*job.trace)}]
            .push_back(&job);

    std::size_t pairs = 0;
    for (const auto &[key, members] : groups) {
        if (members.size() < 2)
            continue;
        const Program lowered =
            members[0]->model->compile(*members[0]->trace);
        for (std::size_t m = 1; m < members.size(); ++m) {
            const Job &job = *members[m];
            const Program fresh = job.model->compile(*job.trace);
            const Program recosted = job.model->recost(lowered);
            EXPECT_TRUE(recosted.code.sharesWith(lowered.code));
            EXPECT_TRUE(recosted.bufs.sharesWith(lowered.bufs));
            EXPECT_TRUE(recosted.shapes.sharesWith(lowered.shapes));
            expectSameProgram(recosted, fresh, job.label);
            // Host time is not part of a model's RunResult (the runner
            // fills it), so the JSON compares every simulated field.
            EXPECT_EQ(job.model->execute(recosted, job.options).toJson(),
                      job.model->execute(fresh, job.options).toJson())
                << job.label;
            ++pairs;
        }
    }
    // Each of the 4 CKKS C2 traces runs on 23 UFC machines sharing one
    // lowering key (Fig. 10a, Fig. 12, 9 Fig. 13 and 12 Fig. 14
    // points): 4 x 22 pairs.  Fig. 12's two T2 TFHE jobs repeat Fig.
    // 10b's: 2 more.
    EXPECT_EQ(pairs, 90u);
    // The Fig. 11 and Fig. 15 jobs pair with nothing, so re-costing does
    // not apply to them: the composed SHARP+Strix model keeps a
    // per-instance lowering key (its Programs are never re-costed), each
    // Fig. 11 UFC trace runs on one machine, and Fig. 15's three
    // machines lower the PBS batch differently (no packing, CoLP, TvLP).
    for (const auto &[key, members] : groups)
        for (const Job *job : members)
            if (job->label.rfind("fig11/", 0) == 0 ||
                job->label.rfind("fig15/", 0) == 0) {
                EXPECT_EQ(members.size(), 1u) << job->label;
            }
}

TEST(BytecodeRecost, TfheTraceUnderTwoLaneCountsDoesNotShare)
{
    // PBS packing reads the lane count, so two UFC configs that differ
    // in lanes lower a TFHE trace differently: distinct keys, two
    // lowerings.  The same pair shares a CKKS trace's body.
    sim::UfcConfig narrow = sim::UfcConfig::tableII();
    narrow.lanesPerPe = 64;
    const sim::UfcModel wide;
    const sim::UfcModel thin(narrow);
    const trace::Trace pbs =
        workloads::pbsThroughput(tfhe::TfheParams::t1(), 64);
    const trace::Trace helr =
        workloads::helr(ckks::CkksParams::c1(), 2);

    EXPECT_NE(wide.loweringKey(pbs), thin.loweringKey(pbs));
    EXPECT_EQ(wide.loweringKey(helr), thin.loweringKey(helr));

    ProgramCache cache;
    const auto a = cache.get(wide, pbs);
    const auto b = cache.get(thin, pbs);
    EXPECT_EQ(cache.compiles(), 2u);
    EXPECT_EQ(cache.recosts(), 0u);
    EXPECT_FALSE(a->code.sharesWith(b->code));
    // The packing really differs, so sharing would have been wrong.
    EXPECT_NE(thin.execute(*b).toJson(),
              thin.execute(thin.recost(*a)).toJson());

    const auto c = cache.get(wide, helr);
    const auto d = cache.get(thin, helr);
    EXPECT_EQ(cache.compiles(), 3u);
    EXPECT_EQ(cache.recosts(), 1u);
    EXPECT_TRUE(c->code.sharesWith(d->code));
}

TEST(BytecodeRecost, ProgramForOtherMachineConstantsIsRejected)
{
    // Every UfcConfig is named "UFC", so the name check alone let a
    // Program costed for one DSE point run on another.
    sim::UfcConfig small = sim::UfcConfig::tableII();
    small.cgNetworks = 1;
    small.scratchpadMb = 128;
    sim::UfcConfig big = sim::UfcConfig::tableII();
    big.cgNetworks = 4;
    big.scratchpadMb = 512;
    const sim::UfcModel n1s128(small);
    const sim::UfcModel n4s512(big);
    ASSERT_EQ(n1s128.name(), n4s512.name());

    const trace::Trace tr = workloads::helr(ckks::CkksParams::c1(), 2);
    const Program p = n1s128.compile(tr);
    EXPECT_THROW((void)n4s512.execute(p), ConfigError);
    // Re-costed for the other machine it runs, and equals its compile.
    const Program q = n4s512.recost(p);
    EXPECT_EQ(n4s512.execute(q).toJson(),
              n4s512.execute(n4s512.compile(tr)).toJson());
    EXPECT_THROW((void)n1s128.execute(q), ConfigError);
    // An identically configured model may run it.
    EXPECT_NO_THROW((void)sim::UfcModel(small).execute(p));
}

TEST(BytecodeRecost, ModelsWithoutALoweringKeyNeverShare)
{
    // ComposedModel keeps the per-instance default key and refuses to
    // re-cost; the cache therefore compiles once per instance.
    const sim::ComposedModel a;
    const sim::ComposedModel b;
    const trace::Trace tr = workloads::hybridKnn(
        ckks::CkksParams::c2(), tfhe::TfheParams::t1(), 256, 8, 4);
    EXPECT_NE(a.loweringKey(tr), b.loweringKey(tr));
    EXPECT_THROW((void)b.recost(a.compile(tr)), ConfigError);
    ProgramCache cache;
    (void)cache.get(a, tr);
    (void)cache.get(b, tr);
    EXPECT_EQ(cache.compiles(), 2u);
    EXPECT_EQ(cache.recosts(), 0u);
}

TEST(BytecodeRecost, ConcurrentModelsShareOneLowering)
{
    // Eight DSE points request one trace at once: one compiles, the
    // other seven wait on its future and re-cost (run under
    // -DUFC_SANITIZE=thread to certify the hand-off).
    constexpr int kThreads = 8;
    std::vector<std::unique_ptr<sim::UfcModel>> models;
    for (int t = 0; t < kThreads; ++t) {
        sim::UfcConfig cfg = sim::UfcConfig::tableII();
        cfg.scratchpadMb = 64.0 * (t + 1);
        models.push_back(std::make_unique<sim::UfcModel>(cfg));
    }
    const trace::Trace tr =
        workloads::ckksBootstrapping(ckks::CkksParams::c1());
    ProgramCache cache;
    std::vector<std::shared_ptr<const Program>> got(kThreads);
    {
        std::vector<std::thread> pool;
        for (int t = 0; t < kThreads; ++t)
            pool.emplace_back(
                [&, t] { got[t] = cache.get(*models[t], tr); });
        for (std::thread &th : pool)
            th.join();
    }
    EXPECT_EQ(cache.compiles(), 1u);
    EXPECT_EQ(cache.recosts(), static_cast<u64>(kThreads - 1));
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(got[t], nullptr);
        EXPECT_TRUE(got[t]->code.sharesWith(got[0]->code)) << t;
        EXPECT_EQ(got[t]->machineDigest,
                  models[t]->recost(*got[0]).machineDigest)
            << t;
    }
}

TEST(BytecodeRecost, DseBatchLowersOncePerKey)
{
    // Figures 10a, 13 and 14: 108 jobs over 24 distinct (trace,
    // lowering options) pairs.
    const std::vector<Job> jobs = runner::allJobs(
        {runner::fig10aSweep(), runner::fig13Sweep(),
         runner::fig14Sweep()});
    ASSERT_EQ(jobs.size(), 108u);
    {
        ProgramCache cache;
        for (const Job &job : jobs)
            (void)cache.get(*job.model, *job.trace);
        EXPECT_EQ(cache.compiles(), 24u);
        EXPECT_EQ(cache.recosts(), 84u);
        EXPECT_EQ(cache.hits(), 0u);
    }

    // The runner keys the same batch and drops each body after its last
    // user, so nothing outlives the batch.
    const u64 liveBefore = compiler::livePrograms();
    runner::RunnerConfig cfg;
    cfg.threads = 2;
    const runner::BatchResult batch =
        runner::ExperimentRunner(cfg).runAll(jobs);
    EXPECT_TRUE(batch.allOk());
    EXPECT_EQ(compiler::livePrograms(), liveBefore);
}

} // namespace
} // namespace ufc
