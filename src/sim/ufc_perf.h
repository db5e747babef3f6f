/**
 * @file
 * UFC machine performance model: maps primitive instructions to resource
 * occupancy for the flattened PE-array architecture of Section IV-B.
 */

#ifndef UFC_SIM_UFC_PERF_H
#define UFC_SIM_UFC_PERF_H

#include "sim/config.h"
#include "sim/engine.h"

namespace ufc {
namespace sim {

/** Performance model of the UFC PE array, CG network, LWEU and HBM. */
class UfcPerf : public MachinePerf
{
  public:
    explicit UfcPerf(const UfcConfig &cfg) : cfg_(cfg) {}

    const UfcConfig &config() const { return cfg_; }

    double computeCycles(const isa::HwInst &inst) const override;
    isa::Resource resourceFor(const isa::HwInst &inst) const override;
    double laneFraction(const isa::HwInst &inst) const override;
    double nocCycles(const isa::HwInst &inst) const override;
    double hbmBytesPerCycle() const override;
    double scratchpadBytes() const override;
    /** Flattened (non-pipelined) function units refill quickly. */
    double pipelineFillCycles() const override { return 10.0; }
    u64 digest() const override;

  private:
    /** Penalty multiplier for splitting the CG network (Figure 13). */
    double cgSplitPenalty() const;

    UfcConfig cfg_;
};

} // namespace sim
} // namespace ufc

#endif // UFC_SIM_UFC_PERF_H
