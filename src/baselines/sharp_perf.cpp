/**
 * @file
 * SHARP performance model implementation.
 */

#include "baselines/sharp_perf.h"

#include <algorithm>
#include <bit>

#include "trace/trace.h"

namespace ufc {
namespace baselines {

using isa::HwInst;
using isa::HwOp;
using isa::Resource;

double
SharpPerf::computeCycles(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto: {
        // Deep pipeline: throughput is nttWordsPerCycle at the design
        // point, degraded by stage bypass for smaller rings.
        const double util =
            nttUtilization(inst.logDegree, cfg_.nttPipelineLogN);
        const double rate = cfg_.nttWordsPerCycle * util;
        return std::max(1.0, static_cast<double>(inst.words) / rate);
      }
      case HwOp::BconvMac:
        return std::max(1.0, static_cast<double>(inst.work) /
                                 cfg_.bconvMacsPerCycle);
      case HwOp::Ewmm:
      case HwOp::Ewma:
      case HwOp::EwScale:
      case HwOp::MonomialMul:
      case HwOp::KeyGenOtf:
        return std::max(1.0, static_cast<double>(inst.work) /
                                 cfg_.elewWordsPerCycle);
      case HwOp::Shuffle:
        // Automorphism through the all-to-all NoC.
        return std::max(1.0, static_cast<double>(inst.words) /
                                 cfg_.nocWordsPerCycle);
      case HwOp::Decomp:
      case HwOp::Extract:
      case HwOp::Reduce:
        // SHARP has no hardware for the logic-scheme primitives; when a
        // lowering nevertheless asks, the BConv MAC pipeline runs with a
        // single active lane (paper Section III-A).
        return std::max(1.0, static_cast<double>(inst.work));
      case HwOp::NumHwOps:
        break;
    }
    return 1.0;
}

Resource
SharpPerf::resourceFor(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto:
        return Resource::Butterfly;
      case HwOp::Shuffle:
        return Resource::Noc;
      default:
        return Resource::VectorAlu;
    }
}

double
SharpPerf::laneFraction(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto:
        return nttUtilization(inst.logDegree, cfg_.nttPipelineLogN);
      case HwOp::Decomp:
      case HwOp::Extract:
      case HwOp::Reduce:
        return 1.0 / cfg_.bconvMacsPerCycle; // single-lane activation
      default:
        return 1.0;
    }
}

double
SharpPerf::nocCycles(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Shuffle:
        return computeCycles(inst);
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto:
        // Transpose networks inside the pipelined NTTU.
        return 0.5 * computeCycles(inst);
      default:
        return 0.0;
    }
}

double
SharpPerf::hbmBytesPerCycle() const
{
    return cfg_.hbmGBs / cfg_.freqGHz;
}

double
SharpPerf::scratchpadBytes() const
{
    return cfg_.scratchpadMb * 1024.0 * 1024.0;
}

u64
SharpPerf::digest() const
{
    using trace::detail::mix64;
    const auto bits = [](double v) { return std::bit_cast<u64>(v); };
    u64 h = trace::detail::kFnvOffset;
    mix64(h, 0x53484150u); // "SHAP": the cost expressions above
    mix64(h, bits(cfg_.nttWordsPerCycle));
    mix64(h, static_cast<u64>(cfg_.nttPipelineLogN));
    mix64(h, bits(cfg_.bconvMacsPerCycle));
    mix64(h, bits(cfg_.elewWordsPerCycle));
    mix64(h, bits(cfg_.nocWordsPerCycle));
    mix64(h, bits(hbmBytesPerCycle()));
    mix64(h, bits(scratchpadBytes()));
    mix64(h, bits(pipelineFillCycles()));
    return h;
}

} // namespace baselines
} // namespace ufc
