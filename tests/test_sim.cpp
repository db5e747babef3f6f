/**
 * @file
 * Tests for the cycle engine, machine models and accelerator comparison
 * shapes (who wins, by roughly what factor — the paper's headline
 * results).
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "sim/accelerator.h"
#include "sim/bc_engine.h"
#include "workloads/workloads.h"

namespace ufc {
namespace sim {
namespace {

using baselines::SharpPerf;
using baselines::StrixPerf;

TEST(SpadModel, HitMissAndWriteback)
{
    SpadModel spad(1000.0);
    double wb = 0.0;

    isa::BufferRef a{1, 600, false, false};
    EXPECT_DOUBLE_EQ(spad.access(a, wb), 600.0); // cold miss
    EXPECT_DOUBLE_EQ(wb, 0.0);
    EXPECT_DOUBLE_EQ(spad.access(a, wb), 0.0);   // hit

    isa::BufferRef b{2, 600, true, false};
    EXPECT_DOUBLE_EQ(spad.access(b, wb), 0.0);   // write-allocate: no fetch
    EXPECT_DOUBLE_EQ(wb, 0.0);                   // clean victim (a)

    // Re-touch a: must re-fetch (evicted), and evicting dirty b writes
    // back.
    EXPECT_DOUBLE_EQ(spad.access(a, wb), 600.0);
    EXPECT_DOUBLE_EQ(wb, 600.0);
}

TEST(SpadModel, TransientBuffersNeverTouchDram)
{
    SpadModel spad(100.0);
    double wb = 0.0;
    isa::BufferRef t{7, 1000000000ULL, false, true};
    EXPECT_DOUBLE_EQ(spad.access(t, wb), 0.0);
    EXPECT_DOUBLE_EQ(wb, 0.0);
}

TEST(CycleEngine, ComputeBoundStreamSaturatesCompute)
{
    UfcPerf perf{UfcConfig::tableII()};
    CycleEngine engine(&perf, BytecodeEngine::kDefaultPrefetchWindow);
    // 100 full-width EW ops with no memory traffic; each runs 1000
    // cycles so the fixed pipeline-fill overhead stays small.
    for (int i = 0; i < 100; ++i) {
        isa::HwInst inst;
        inst.op = isa::HwOp::Ewmm;
        inst.words = 16384 * 1000;
        inst.work = 16384 * 1000;
        engine.issue(inst);
    }
    auto stats = engine.finish();
    const double fill = perf.pipelineFillCycles();
    EXPECT_NEAR(stats.totalCycles, 100.0 * (1000.0 + fill), 1.0);
    EXPECT_NEAR(stats.utilization(isa::Resource::VectorAlu),
                1000.0 / (1000.0 + fill), 0.01);
    EXPECT_DOUBLE_EQ(stats.hbmBytes, 0.0);
}

TEST(CycleEngine, MemoryBoundStreamSaturatesHbm)
{
    UfcPerf perf{UfcConfig::tableII()};
    CycleEngine engine(&perf, BytecodeEngine::kDefaultPrefetchWindow);
    for (int i = 0; i < 100; ++i) {
        isa::HwInst inst;
        inst.op = isa::HwOp::Ewma;
        inst.words = 1024;
        inst.work = 1024;
        isa::BufferRef huge{1000 + static_cast<u64>(i), 1024ULL * 1024,
                            false, false};
        inst.buffers = {huge};
        engine.issue(inst);
    }
    auto stats = engine.finish();
    EXPECT_GT(stats.hbmUtilization(), 0.9);
    EXPECT_LT(stats.utilization(isa::Resource::VectorAlu), 0.1);
    EXPECT_NEAR(stats.hbmBytes, 100.0 * 1024 * 1024, 1.0);
}

TEST(UfcPerf, NttThroughputMatchesTableIV)
{
    // An N=2^16 single-limb NTT at 2 words/coeff: Table IV gives an
    // effective NTTU throughput of 1024 words/cycle.
    UfcPerf perf{UfcConfig::tableII()};
    isa::HwInst inst;
    inst.op = isa::HwOp::Ntt;
    inst.logDegree = 16;
    inst.words = (1ULL << 16);
    inst.work = inst.words * 16 / 2;
    const double cycles = perf.computeCycles(inst);
    EXPECT_NEAR(inst.words / cycles, 1024.0, 1.0);
    EXPECT_NEAR(perf.laneFraction(inst), 1.0, 1e-9);
}

TEST(SharpPerf, NttUtilizationDropsWithDegree)
{
    // Figure 2: 50%-75% utilization for logN = 9..12, full at 16.
    EXPECT_NEAR(SharpPerf::nttUtilization(9, 16), 0.5625, 1e-9);
    EXPECT_NEAR(SharpPerf::nttUtilization(12, 16), 0.75, 1e-9);
    EXPECT_DOUBLE_EQ(SharpPerf::nttUtilization(16, 16), 1.0);
}

TEST(StrixPerf, FftUtilizationAndRingLimit)
{
    EXPECT_DOUBLE_EQ(StrixPerf::fftUtilization(10, 10, 14), 1.0);
    EXPECT_NEAR(StrixPerf::fftUtilization(14, 10, 14), 10.0 / 14, 1e-9);
    EXPECT_DOUBLE_EQ(StrixPerf::fftUtilization(16, 10, 14), 0.0);
}

TEST(Workloads, TracesAreNonTrivialAndWellFormed)
{
    const auto cp = ckks::CkksParams::c2();
    const auto tp = tfhe::TfheParams::t2();
    for (const auto &tr : workloads::ckksSuite(cp)) {
        EXPECT_GT(tr.ops.size(), 10u) << tr.name;
        EXPECT_EQ(tr.ckksRingDim, cp.ringDim) << tr.name;
        for (const auto &op : tr.ops) {
            EXPECT_GE(op.limbs, 1) << tr.name;
            EXPECT_LE(op.limbs, cp.levels) << tr.name;
        }
    }
    for (const auto &tr : workloads::tfheSuite(tp)) {
        EXPECT_GE(tr.totalOps(), 100u) << tr.name;
        EXPECT_EQ(tr.tfheRingDim, tp.ringDim) << tr.name;
    }
}

TEST(Accelerators, UfcRunsCkksFasterThanSharp)
{
    const auto cp = ckks::CkksParams::c2();
    UfcModel ufcm;
    SharpModel sharp;
    const auto tr = workloads::helr(cp, 4);
    const auto u = ufcm.run(tr);
    const auto s = sharp.run(tr);
    EXPECT_GT(u.seconds, 0.0);
    EXPECT_GT(s.seconds, 0.0);
    // Paper Figure 10(a): UFC ~1.1x faster on CKKS workloads.
    const double speedup = s.seconds / u.seconds;
    EXPECT_GT(speedup, 1.0);
    EXPECT_LT(speedup, 2.0);
}

TEST(Accelerators, UfcRunsTfheMuchFasterThanStrix)
{
    const auto tp = tfhe::TfheParams::t2();
    UfcModel ufcm;
    StrixModel strix;
    const auto tr = workloads::pbsThroughput(tp, 256);
    const auto u = ufcm.run(tr);
    const auto s = strix.run(tr);
    // Paper Figure 10(b): ~6x speedup.
    const double speedup = s.seconds / u.seconds;
    EXPECT_GT(speedup, 3.0);
    EXPECT_LT(speedup, 12.0);
}

TEST(Accelerators, HybridUfcBeatsComposedSystem)
{
    const auto cp = ckks::CkksParams::c2();
    UfcModel ufcm;
    ComposedModel composed;
    {
        // Small parameters (T1): near parity with the pipelined composed
        // system (paper: ~1.04x).
        const auto tr = workloads::hybridKnn(cp, tfhe::TfheParams::t1());
        const auto u = ufcm.run(tr);
        const auto c = composed.run(tr);
        EXPECT_GT(c.seconds / u.seconds, 0.8);
        EXPECT_LT(c.seconds / u.seconds, 1.5);
        EXPECT_GT(c.edap() / u.edap(), 1.5);
    }
    {
        // Large parameters (T4): clear UFC win (paper: 2.8x).
        const auto tr = workloads::hybridKnn(cp, tfhe::TfheParams::t4());
        const auto u = ufcm.run(tr);
        const auto c = composed.run(tr);
        EXPECT_GT(c.seconds / u.seconds, 2.0);
        EXPECT_GT(c.edap() / u.edap(), 4.0);
    }
}

TEST(Accelerators, SharpRejectsTfheTraces)
{
    const auto tp = tfhe::TfheParams::t1();
    SharpModel sharp;
    const auto tr = workloads::pbsThroughput(tp, 16);
    // A scheme/machine mismatch is user input, so it must surface as a
    // recoverable ConfigError rather than a process abort.
    EXPECT_THROW({ sharp.run(tr); }, ConfigError);
}

TEST(CostModel, AreaMatchesPaperTotals)
{
    UfcCostModel cost{UfcConfig::tableII()};
    // Paper Table II: 197.7 mm^2 at 7 nm.
    EXPECT_NEAR(cost.areaMm2(), 197.7, 12.0);
    const auto items = cost.areaBreakdown();
    EXPECT_GE(items.size(), 5u);
    double sum = 0.0;
    for (const auto &item : items)
        sum += item.mm2;
    EXPECT_NEAR(sum, cost.areaMm2(), 1e-9);
}

TEST(CostModel, PowerInPaperRange)
{
    const auto cp = ckks::CkksParams::c2();
    UfcModel ufcm;
    const auto r = ufcm.run(workloads::ckksBootstrapping(cp));
    // Paper Table II: 76.9 W average; allow a generous band.
    EXPECT_GT(r.powerW, 40.0);
    EXPECT_LT(r.powerW, 110.0);
}

} // namespace
} // namespace sim
} // namespace ufc
