/**
 * @file
 * Tests for the cost models (area/power monotonicity, DSE sanity) and
 * additional cycle-engine properties (prefetch window, write-backs,
 * streaming operands, pipeline fill).
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "math/primes.h"
#include "sim/accelerator.h"
#include "sim/bc_engine.h"
#include "workloads/workloads.h"

namespace ufc {
namespace sim {
namespace {

TEST(CostModel, AreaMonotoneInLanes)
{
    double prev = 0.0;
    for (int lanes : {64, 128, 256, 512}) {
        auto cfg = UfcConfig::tableII();
        cfg.lanesPerPe = lanes;
        cfg.butterfliesPerPe = lanes / 2;
        const double area = UfcCostModel(cfg).areaMm2();
        EXPECT_GT(area, prev) << lanes;
        prev = area;
    }
}

TEST(CostModel, AreaMonotoneInScratchpad)
{
    double prev = 0.0;
    for (double mb : {64.0, 128.0, 256.0, 512.0}) {
        auto cfg = UfcConfig::tableII();
        cfg.scratchpadMb = mb;
        const double area = UfcCostModel(cfg).areaMm2();
        EXPECT_GT(area, prev);
        prev = area;
    }
}

TEST(CostModel, PowerGrowsWithUtilization)
{
    UfcCostModel cost{UfcConfig::tableII()};
    RunStats idle;
    idle.totalCycles = 1e6;
    RunStats busy = idle;
    busy.busyCycles[static_cast<int>(isa::Resource::Butterfly)] = 8e5;
    busy.busyCycles[static_cast<int>(isa::Resource::VectorAlu)] = 8e5;
    busy.busyCycles[static_cast<int>(isa::Resource::Noc)] = 5e5;
    EXPECT_GT(cost.averagePowerW(busy), cost.averagePowerW(idle));
    // Idle power is dominated by static + background scratchpad.
    EXPECT_GT(cost.averagePowerW(idle), 10.0);
}

TEST(CostModel, EnergyEqualsPowerTimesDelay)
{
    UfcCostModel cost{UfcConfig::tableII()};
    RunStats stats;
    stats.totalCycles = 5e6;
    stats.busyCycles[static_cast<int>(isa::Resource::VectorAlu)] = 3e6;
    EXPECT_NEAR(cost.energyJ(stats),
                cost.averagePowerW(stats) * cost.seconds(stats), 1e-12);
}

TEST(CycleEngine, PrefetchWindowBoundsMemoryRunahead)
{
    // With a narrow window, memory for instruction i+W cannot start
    // until instruction i's compute retires, so a mem-heavy prologue
    // stalls a compute-heavy epilogue less than an interleaved stream.
    UfcPerf perf{UfcConfig::tableII()};
    CycleEngine narrow(&perf, /*prefetchWindow=*/1);
    CycleEngine wide(&perf, /*prefetchWindow=*/64);

    for (int i = 0; i < 64; ++i) {
        isa::HwInst inst;
        inst.op = isa::HwOp::Ewmm;
        inst.words = 16384;
        inst.work = 16384;
        isa::BufferRef buf{static_cast<u64>(i), 4ULL << 20, false, false};
        inst.buffers = {&buf, 1};
        narrow.issue(inst);
        wide.issue(inst);
    }
    const auto sn = narrow.finish();
    const auto sw = wide.finish();
    EXPECT_GT(sn.totalCycles, sw.totalCycles);
    EXPECT_EQ(sn.hbmBytes, sw.hbmBytes);
}

TEST(CycleEngine, StreamingOperandsChargeEveryUse)
{
    UfcPerf perf{UfcConfig::tableII()};
    CycleEngine engine(&perf, BytecodeEngine::kDefaultPrefetchWindow);
    isa::HwInst inst;
    inst.op = isa::HwOp::Ewmm;
    inst.words = 1024;
    inst.work = 1024;
    isa::BufferRef key;
    key.id = 42;
    key.bytes = 1 << 20;
    key.streaming = true;
    inst.buffers = {&key, 1};
    for (int i = 0; i < 10; ++i)
        engine.issue(inst);
    const auto stats = engine.finish();
    EXPECT_NEAR(stats.hbmBytes, 10.0 * (1 << 20), 1.0);
}

TEST(CycleEngine, CachedOperandsChargeOnce)
{
    UfcPerf perf{UfcConfig::tableII()};
    CycleEngine engine(&perf, BytecodeEngine::kDefaultPrefetchWindow);
    isa::HwInst inst;
    inst.op = isa::HwOp::Ewmm;
    inst.words = 1024;
    inst.work = 1024;
    isa::BufferRef key;
    key.id = 42;
    key.bytes = 1 << 20;
    inst.buffers = {&key, 1};
    for (int i = 0; i < 10; ++i)
        engine.issue(inst);
    const auto stats = engine.finish();
    EXPECT_NEAR(stats.hbmBytes, 1.0 * (1 << 20), 1.0);
}

TEST(Accelerators, StrixRejectsOversizedRings)
{
    // T-parameters with logN = 16 exceed Strix's ring limit.
    tfhe::TfheParams big = tfhe::TfheParams::t4();
    big.ringDim = 1u << 16;
    big.q = findNttPrime(32, 2ULL << 16);
    auto tr = workloads::pbsThroughput(big, 4);
    StrixModel strix;
    // Out-of-range rings are a workload/machine mismatch (user input),
    // so this surfaces as a recoverable ConfigError.
    EXPECT_THROW({ strix.run(tr); }, ConfigError);
}

TEST(Accelerators, ResultsAreDeterministic)
{
    const auto tr = workloads::sorting(ckks::CkksParams::c1(), 1024);
    UfcModel m;
    const auto a = m.run(tr);
    const auto b = m.run(tr);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    EXPECT_DOUBLE_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.stats.instCount, b.stats.instCount);
}

TEST(Accelerators, ScalingLanesImprovesDelay)
{
    const auto tr = workloads::ckksBootstrapping(ckks::CkksParams::c2());
    double prev = 1e9;
    for (int lanes : {64, 128, 256, 512}) {
        auto cfg = UfcConfig::tableII();
        cfg.lanesPerPe = lanes;
        cfg.butterfliesPerPe = lanes / 2;
        cfg.globalNocWordsPerCycle = 64 * lanes * 2;
        const auto r = UfcModel(cfg).run(tr);
        EXPECT_LT(r.seconds, prev) << lanes;
        prev = r.seconds;
    }
}

TEST(Accelerators, SplittingCgNetworkHurtsDelay)
{
    const auto tr = workloads::ckksBootstrapping(ckks::CkksParams::c2());
    double prev = 0.0;
    for (int nets : {1, 2, 4}) {
        auto cfg = UfcConfig::tableII();
        cfg.cgNetworks = nets;
        const auto r = UfcModel(cfg).run(tr);
        EXPECT_GT(r.seconds, prev) << nets;
        prev = r.seconds;
    }
}

TEST(Accelerators, ComposedSystemAreaIsSumOfChips)
{
    ComposedModel composed;
    baselines::SharpConfig sc;
    baselines::StrixConfig xc;
    EXPECT_DOUBLE_EQ(composed.areaMm2(), sc.areaMm2 + xc.areaMm2);
}

TEST(UfcConfigTest, WordGeometry)
{
    const auto cfg = UfcConfig::tableII();
    EXPECT_EQ(cfg.pes(), 64);
    EXPECT_EQ(cfg.totalButterflies(), 8192);
    EXPECT_EQ(cfg.totalLanes(), 16384);
    // 48-bit CKKS limbs need two 32-bit words; TFHE's 32-bit needs one.
    EXPECT_EQ(cfg.wordsPerCoeff(48), 2);
    EXPECT_EQ(cfg.wordsPerCoeff(32), 1);
    EXPECT_DOUBLE_EQ(cfg.bytesPerCoeff(48), 8.0);
}

} // namespace
} // namespace sim
} // namespace ufc
