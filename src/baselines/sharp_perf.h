/**
 * @file
 * Performance model of SHARP (Kim et al., ISCA'23), the state-of-the-art
 * CKKS accelerator the paper compares against.
 *
 * Built from SHARP's published architectural parameters (paper Table IV
 * column 1): a 36-bit word, deeply pipelined NTTU at 1024 words/cycle for
 * logN = 16 (with stage-bypass utilization loss for smaller rings, paper
 * Figure 2), a 16384-MAC base-conversion unit, 2048 words/cycle of
 * element-wise throughput, an all-to-all NoC used for automorphisms, and
 * 1 TB/s of HBM.  Following the paper's methodology (Section VI-C), the
 * scratchpad is modeled at 288 MB so function-unit utilization matches
 * SHARP's reported values.
 */

#ifndef UFC_BASELINES_SHARP_PERF_H
#define UFC_BASELINES_SHARP_PERF_H

#include "sim/engine.h"

namespace ufc {
namespace baselines {

/** SHARP configuration knobs (defaults = published design, 64 clusters). */
struct SharpConfig
{
    double nttWordsPerCycle = 1024.0; ///< at logN = 16
    int nttPipelineLogN = 16;         ///< pipeline designed for 2^16
    double bconvMacsPerCycle = 16384.0;
    double elewWordsPerCycle = 2048.0;
    double nocWordsPerCycle = 1024.0;
    double hbmGBs = 1024.0;
    double scratchpadMb = 288.0 + 18.0;
    double freqGHz = 1.0;
    int wordBits = 36;
    double areaMm2 = 223.6;  ///< scaled with the 288 MB scratchpad
    double staticW = 20.0;
    double peakDynamicW = 85.0;
};

/** MachinePerf implementation for SHARP. */
class SharpPerf : public sim::MachinePerf
{
  public:
    explicit SharpPerf(const SharpConfig &cfg = SharpConfig{})
        : cfg_(cfg)
    {}

    const SharpConfig &config() const { return cfg_; }

    /** Stage-bypass utilization of the pipelined NTTU (Figure 2). */
    static double
    nttUtilization(int logDegree, int pipelineLogN)
    {
        if (logDegree >= pipelineLogN)
            return 1.0;
        return static_cast<double>(logDegree) / pipelineLogN;
    }

    double computeCycles(const isa::HwInst &inst) const override;
    isa::Resource resourceFor(const isa::HwInst &inst) const override;
    double laneFraction(const isa::HwInst &inst) const override;
    double nocCycles(const isa::HwInst &inst) const override;
    double hbmBytesPerCycle() const override;
    double scratchpadBytes() const override;
    u64 digest() const override;

  private:
    SharpConfig cfg_;
};

} // namespace baselines
} // namespace ufc

#endif // UFC_BASELINES_SHARP_PERF_H
