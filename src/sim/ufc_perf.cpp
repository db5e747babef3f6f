/**
 * @file
 * UFC performance model implementation.
 */

#include "sim/ufc_perf.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "trace/trace.h"

namespace ufc {
namespace sim {

using isa::HwInst;
using isa::HwOp;
using isa::Resource;

double
UfcPerf::cgSplitPenalty() const
{
    // A single CG network spans all PEs.  Splitting it into G independent
    // networks shrinks wire spans but large transforms must cross network
    // boundaries through the channel crossbar, costing extra passes
    // (observed in the paper's Figure 13 DSE: one large network wins).
    if (cfg_.cgNetworks <= 1)
        return 1.0;
    return 1.0 + 0.35 * std::log2(static_cast<double>(cfg_.cgNetworks));
}

double
UfcPerf::computeCycles(const HwInst &inst) const
{
    const double bf = cfg_.totalButterflies();
    const double lanes = cfg_.totalLanes();
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto: {
        // Constant-geometry NTT: log(M) stages, each stage streams the
        // whole vector through the butterfly lanes and shuffle network.
        const int stages = std::max<u32>(1, inst.logDegree);
        const double wordsPerStage =
            static_cast<double>(inst.words) / 2.0;
        const double cyclesPerStage =
            std::max(1.0, wordsPerStage / bf);
        return stages * cyclesPerStage * cgSplitPenalty();
      }
      case HwOp::Ewmm:
      case HwOp::Ewma:
      case HwOp::EwScale:
      case HwOp::Decomp:
      case HwOp::MonomialMul:
      case HwOp::BconvMac:
      case HwOp::KeyGenOtf:
        return std::max(1.0, static_cast<double>(inst.work) / lanes);
      case HwOp::Extract:
      case HwOp::Reduce:
        // Near-memory LWEU processes one word per channel per cycle.
        return std::max(1.0, static_cast<double>(inst.work) /
                                 cfg_.crossbarPorts);
      case HwOp::Shuffle:
        return std::max(1.0, static_cast<double>(inst.words) /
                                 (cfg_.globalNocWordsPerCycle / 4.0));
      case HwOp::NumHwOps:
        break;
    }
    return 1.0;
}

Resource
UfcPerf::resourceFor(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto:
        return Resource::Butterfly;
      case HwOp::Extract:
      case HwOp::Reduce:
        return Resource::Lweu;
      case HwOp::Shuffle:
        return Resource::Noc;
      default:
        return Resource::VectorAlu;
    }
}

double
UfcPerf::laneFraction(const HwInst &inst) const
{
    const double cycles = computeCycles(inst);
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto: {
        const int stages = std::max<u32>(1, inst.logDegree);
        const double butterflyOps =
            static_cast<double>(inst.words) / 2.0 * stages;
        return std::min(1.0, butterflyOps /
                                 (cycles * cfg_.totalButterflies()));
      }
      case HwOp::Extract:
      case HwOp::Reduce:
      case HwOp::Shuffle:
        return 1.0;
      default:
        return std::min(1.0, static_cast<double>(inst.work) /
                                 (cycles * cfg_.totalLanes()));
    }
}

double
UfcPerf::nocCycles(const HwInst &inst) const
{
    // Small rings (logN <= 14, i.e. logic-scheme data) run packed across
    // lanes, so their operands continuously cross the inter-channel
    // crossbar between the interleaved and continuous layouts
    // (Section V-C); full-size rings only exercise the CG network during
    // transform shuffles, and only a fraction of its phases at a time
    // (the x/y/r shuffles pipeline).
    const bool packedSmallRing = inst.logDegree > 0 && inst.logDegree <= 14;
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto:
        return (packedSmallRing ? 1.0 : 0.6) * computeCycles(inst);
      case HwOp::Shuffle:
        return computeCycles(inst);
      case HwOp::BconvMac:
        // Broadcasting base-conversion partial sums crosses PE rows.
        return (packedSmallRing ? 1.0 : 0.1) * computeCycles(inst);
      case HwOp::Ewmm:
      case HwOp::Ewma:
      case HwOp::EwScale:
      case HwOp::Decomp:
      case HwOp::MonomialMul:
        return packedSmallRing ? computeCycles(inst) : 0.0;
      default:
        return 0.0;
    }
}

double
UfcPerf::hbmBytesPerCycle() const
{
    return cfg_.hbmGBs / cfg_.freqGHz;
}

double
UfcPerf::scratchpadBytes() const
{
    return cfg_.scratchpadMb * 1024.0 * 1024.0;
}

u64
UfcPerf::digest() const
{
    using trace::detail::mix64;
    const auto bits = [](double v) { return std::bit_cast<u64>(v); };
    u64 h = trace::detail::kFnvOffset;
    mix64(h, 0x55464350u); // "UFCP": the cost expressions above
    mix64(h, static_cast<u64>(cfg_.peRows));
    mix64(h, static_cast<u64>(cfg_.peCols));
    mix64(h, static_cast<u64>(cfg_.butterfliesPerPe));
    mix64(h, static_cast<u64>(cfg_.lanesPerPe));
    mix64(h, static_cast<u64>(cfg_.cgNetworks));
    mix64(h, static_cast<u64>(cfg_.globalNocWordsPerCycle));
    mix64(h, static_cast<u64>(cfg_.crossbarPorts));
    mix64(h, bits(hbmBytesPerCycle()));
    mix64(h, bits(scratchpadBytes()));
    mix64(h, bits(pipelineFillCycles()));
    return h;
}

} // namespace sim
} // namespace ufc
