/**
 * @file
 * Strix performance model implementation.
 */

#include "baselines/strix_perf.h"

#include <algorithm>
#include <bit>

#include "trace/trace.h"

#include "common/error.h"

namespace ufc {
namespace baselines {

using isa::HwInst;
using isa::HwOp;
using isa::Resource;

double
StrixPerf::computeCycles(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto: {
        const double util = fftUtilization(inst.logDegree,
                                           cfg_.designLogN, cfg_.maxLogN);
        // A ring outside Strix's FFT range is a workload/machine
        // mismatch (user input), so it must stay recoverable.
        UFC_EXPECT(util > 0.0, ConfigError,
                   "Strix cannot process logN=" << inst.logDegree
                                                << " polynomials");
        // FFT work equals NTT butterfly work (inst.work) on 64-bit units.
        const double rate = cfg_.butterflies * util * cfg_.pipelineEff;
        return std::max(1.0, static_cast<double>(inst.work) / rate);
      }
      case HwOp::Ewmm:
      case HwOp::Ewma:
      case HwOp::EwScale:
      case HwOp::MonomialMul:
      case HwOp::Decomp:
      case HwOp::BconvMac:
      case HwOp::KeyGenOtf:
        return std::max(1.0, static_cast<double>(inst.work) /
                                 cfg_.macWordsPerCycle);
      case HwOp::Extract:
      case HwOp::Reduce:
        return std::max(1.0, static_cast<double>(inst.work) /
                                 cfg_.lweWordsPerCycle);
      case HwOp::Shuffle:
        return std::max(1.0, static_cast<double>(inst.words) /
                                 cfg_.macWordsPerCycle);
      case HwOp::NumHwOps:
        break;
    }
    return 1.0;
}

Resource
StrixPerf::resourceFor(const HwInst &inst) const
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
StrixPerf::laneFraction(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto:
        return fftUtilization(inst.logDegree, cfg_.designLogN,
                              cfg_.maxLogN);
      default:
        return 1.0;
    }
}

double
StrixPerf::nocCycles(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto:
        return 0.5 * computeCycles(inst);
      case HwOp::Shuffle:
        return computeCycles(inst);
      default:
        return 0.0;
    }
}

double
StrixPerf::hbmBytesPerCycle() const
{
    return cfg_.hbmGBs / cfg_.freqGHz;
}

double
StrixPerf::scratchpadBytes() const
{
    return cfg_.scratchpadMb * 1024.0 * 1024.0;
}

u64
StrixPerf::digest() const
{
    using trace::detail::mix64;
    const auto bits = [](double v) { return std::bit_cast<u64>(v); };
    u64 h = trace::detail::kFnvOffset;
    mix64(h, 0x53545258u); // "STRX": the cost expressions above
    mix64(h, static_cast<u64>(cfg_.butterflies));
    mix64(h, static_cast<u64>(cfg_.designLogN));
    mix64(h, static_cast<u64>(cfg_.maxLogN));
    mix64(h, bits(cfg_.macWordsPerCycle));
    mix64(h, bits(cfg_.pipelineEff));
    mix64(h, bits(cfg_.lweWordsPerCycle));
    mix64(h, bits(hbmBytesPerCycle()));
    mix64(h, bits(scratchpadBytes()));
    mix64(h, bits(pipelineFillCycles()));
    return h;
}

} // namespace baselines
} // namespace ufc
