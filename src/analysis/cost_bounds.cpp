/**
 * @file
 * Static cost-bound analyzer (see cost_bounds.h for the derivation).
 */

#include "analysis/cost_bounds.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "compiler/bytecode.h"

namespace ufc {
namespace analysis {

namespace {

/** Per-slot footprint/interval summary over the access stream. */
struct SlotSummary
{
    double maxBytes = 0.0;
    u64 firstInst = 0;
    u64 lastInst = 0;
    bool firstIsRead = false;
    double firstBytes = 0.0;
};

CostBounds
analyzeSingle(const compiler::Program &p)
{
    CostBounds b;

    // Trip weight per instruction (folded loop bodies execute `trips`
    // times; loops are sorted and non-overlapping).
    std::vector<double> weight(p.code.size(), 1.0);
    for (const compiler::BcLoop &lp : p.loops) {
        if (lp.bodyLen == 0 || lp.end > p.code.size() ||
            lp.bodyLen > lp.end)
            continue; // malformed: verifyProgram reports it
        for (u64 i = lp.end - lp.bodyLen; i < lp.end; ++i)
            weight[i] = static_cast<double>(lp.trips);
    }

    // Exact terms: compute+fill everywhere, streamed bytes everywhere.
    double computeTotal = 0.0;
    double streamedBytes = 0.0; // exact HBM traffic (both bounds)
    double memLower = 0.0;      // guaranteed memory cycles
    double memUpper = 0.0;      // worst-case memory cycles
    for (u64 i = 0; i < p.code.size(); ++i) {
        const compiler::BcInst &inst = p.code[i];
        const compiler::CostRow &c = p.cost(inst);
        const double w = weight[i];
        computeTotal += (c.computeCycles + p.fillCycles) * w;
        if (inst.kind == compiler::BcKind::Stream) {
            streamedBytes += c.staticFetchBytes * w;
            memLower += c.staticMemCycles * w;
            memUpper += c.staticMemCycles * w;
        }
    }

    // Scratchpad terms from the def-use export.  Mem instructions never
    // sit in folded loops (verifyProgram), so each access executes once.
    const std::vector<compiler::SlotAccess> acc =
        compiler::slotAccesses(p);
    std::unordered_map<u32, SlotSummary> slots;
    double memStreamedBytes = 0.0; // streamed operands of Mem insts
    for (u64 i = 0; i < p.code.size(); ++i) {
        const compiler::BcInst &inst = p.code[i];
        if (inst.kind != compiler::BcKind::Mem)
            continue;
        const u64 end = static_cast<u64>(inst.bufBegin) + inst.bufCount;
        for (u64 k = inst.bufBegin; k < end && k < p.bufs.size(); ++k)
            if (p.bufs[k].streamed)
                memStreamedBytes += p.bufs[k].bytes;
    }
    double allReadBytes = 0.0; // every read misses (upper)
    for (const compiler::SlotAccess &a : acc) {
        const auto [it, inserted] = slots.try_emplace(a.slot);
        SlotSummary &s = it->second;
        if (inserted) {
            s.firstInst = a.inst;
            s.firstIsRead = !a.write;
            s.firstBytes = a.bytes;
        }
        s.lastInst = a.inst;
        s.maxBytes = std::max(s.maxBytes, a.bytes);
        if (!a.write)
            allReadBytes += a.bytes;
    }

    double footprint = 0.0;
    double firstTouchReadBytes = 0.0; // guaranteed misses (lower)
    double wbUpper = 0.0;
    for (const compiler::SlotAccess &a : acc) {
        // wbUpper: each writeback event needs a distinct preceding
        // write access, and evicts at most the slot's max footprint.
        if (a.write)
            wbUpper += slots[a.slot].maxBytes;
    }
    for (const auto &[slot, s] : slots) {
        footprint += s.maxBytes;
        if (s.firstIsRead)
            firstTouchReadBytes += s.firstBytes;
    }
    b.fits = footprint <= p.scratchpadBytes;

    double missLower;
    double missUpper;
    if (b.fits) {
        // No eviction is ever possible: miss traffic is exactly the
        // first-touch reads, and nothing is ever written back.
        missLower = firstTouchReadBytes;
        missUpper = firstTouchReadBytes;
        wbUpper = 0.0;
    } else {
        missLower = firstTouchReadBytes;
        missUpper = allReadBytes;
    }
    const double bpc = p.hbmBytesPerCycle;
    memLower += (memStreamedBytes + missLower) / bpc;
    memUpper += (memStreamedBytes + missUpper + wbUpper) / bpc;

    b.computeCycles = computeTotal;
    b.cyclesLower = std::max(computeTotal, memLower);
    b.cyclesUpper = computeTotal + memUpper;
    b.hbmLower = streamedBytes + memStreamedBytes + missLower;
    b.hbmUpper = streamedBytes + memStreamedBytes + missUpper + wbUpper;

    // Peak occupancy: live-interval sweep (slot live first->last
    // access at max footprint).
    std::map<u64, double> delta;
    for (const auto &[slot, s] : slots) {
        delta[s.firstInst] += s.maxBytes;
        delta[s.lastInst + 1] -= s.maxBytes;
    }
    double live = 0.0;
    for (const auto &[inst, d] : delta) {
        live += d;
        b.peakLiveSlotBytes = std::max(b.peakLiveSlotBytes, live);
    }
    return b;
}

} // namespace

CostBounds
analyzeCostBounds(const compiler::Program &p)
{
    if (p.composed()) {
        // ComposedModel::combine merges part RunStats additively
        // (cycles and hbmBytes sum; PCIe traffic never enters them).
        CostBounds total;
        for (const compiler::Program &part : p.parts) {
            const CostBounds pb = analyzeCostBounds(part);
            total.cyclesLower += pb.cyclesLower;
            total.cyclesUpper += pb.cyclesUpper;
            total.hbmLower += pb.hbmLower;
            total.hbmUpper += pb.hbmUpper;
            total.computeCycles += pb.computeCycles;
            total.peakLiveSlotBytes =
                std::max(total.peakLiveSlotBytes, pb.peakLiveSlotBytes);
            total.fits = total.fits && pb.fits;
        }
        return total;
    }
    CostBounds b = analyzeSingle(p);
    b.cyclesLower *= (1.0 - kBoundsGuard);
    b.cyclesUpper *= (1.0 + kBoundsGuard);
    b.hbmLower *= (1.0 - kBoundsGuard);
    b.hbmUpper *= (1.0 + kBoundsGuard);
    return b;
}

} // namespace analysis
} // namespace ufc
