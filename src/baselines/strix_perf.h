/**
 * @file
 * Performance model of Strix (MICRO'23), the state-of-the-art TFHE
 * accelerator the paper compares against.
 *
 * Built from Strix's published architectural parameters: 8 clusters, each
 * with a fully pipelined 14-stage FFT with 4 copies — 1792 butterfly units
 * total (paper Section VII-A2) — 64-bit FFT datapath over a power-of-two
 * 32-bit torus modulus, streaming external-product pipelines, and ring
 * sizes limited to logN <= 14 (paper Figure 2).  The FFT pipeline is
 * optimized for the N = 2^10 design point; utilization decays for larger
 * rings as recombination passes serialize.
 */

#ifndef UFC_BASELINES_STRIX_PERF_H
#define UFC_BASELINES_STRIX_PERF_H

#include "sim/engine.h"

namespace ufc {
namespace baselines {

/** Strix configuration (defaults = published design scaled to 7 nm). */
struct StrixConfig
{
    int butterflies = 1792;    ///< 8 clusters x 14 stages x 4 copies x 4
    int designLogN = 9;        ///< 512-point FFT pipeline units
    int maxLogN = 14;          ///< hard ring-size limit
    double macWordsPerCycle = 4096.0;
    double pipelineEff = 0.85; ///< streaming fill/drain efficiency
    double lweWordsPerCycle = 2048.0; ///< key-switch/accumulation units
    double hbmGBs = 512.0;
    double scratchpadMb = 16.0;
    double freqGHz = 1.0;
    int wordBits = 32;
    double areaMm2 = 40.6;     ///< 28 nm design scaled to 7 nm
    double staticW = 3.5;
    double peakDynamicW = 13.0;
};

/** MachinePerf implementation for Strix. */
class StrixPerf : public sim::MachinePerf
{
  public:
    explicit StrixPerf(const StrixConfig &cfg = StrixConfig{})
        : cfg_(cfg)
    {}

    const StrixConfig &config() const { return cfg_; }

    /**
     * FFT-unit utilization versus ring size (paper Figure 2): full at the
     * design point, decaying as recombination passes serialize, zero
     * beyond the supported maximum.
     */
    static double
    fftUtilization(int logDegree, int designLogN, int maxLogN)
    {
        if (logDegree > maxLogN)
            return 0.0;
        if (logDegree <= designLogN)
            return 1.0;
        return static_cast<double>(designLogN) / logDegree;
    }

    double pipelineFillCycles() const override { return 14.0; }
    double computeCycles(const isa::HwInst &inst) const override;
    isa::Resource resourceFor(const isa::HwInst &inst) const override;
    double laneFraction(const isa::HwInst &inst) const override;
    double nocCycles(const isa::HwInst &inst) const override;
    double hbmBytesPerCycle() const override;
    double scratchpadBytes() const override;
    u64 digest() const override;

  private:
    StrixConfig cfg_;
};

} // namespace baselines
} // namespace ufc

#endif // UFC_BASELINES_STRIX_PERF_H
