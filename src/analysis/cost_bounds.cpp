/**
 * @file
 * Static cost-bound analyzer (see cost_bounds.h for the derivation).
 */

#include "analysis/cost_bounds.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "compiler/bytecode.h"
#include "sim/engine.h"

namespace ufc {
namespace analysis {

namespace {

/** Per-slot footprint/interval summary over the access stream. */
struct SlotSummary
{
    double maxBytes = 0.0;
    u64 firstInst = 0;
    u64 lastInst = 0;
    std::size_t firstAccess = 0; ///< index into the access stream
};

// Upper bounds saturate instead of throwing: a worst case past the tick
// range (every read missing, say) still bounds a run that stays inside
// it.  The exact and lower sums throw like the engine, since a run they
// bound would leave the range too.

u64
upperTicks(double cycles)
{
    const double t = cycles * sim::kTicksPerCycle;
    if (!(t < static_cast<double>(sim::kMaxClockTicks)))
        return UINT64_MAX; // past any run the engine accepts
    return static_cast<u64>(t + 0.5);
}

u64
upperAdd(u64 a, u64 b)
{
    u64 sum;
    return __builtin_add_overflow(a, b, &sum) ? UINT64_MAX : sum;
}

CostBounds
analyzeSingle(const compiler::Program &p)
{
    CostBounds b;

    // Exact terms, as the engine sums them: per-shape counts times the
    // cost table gives compute + fill and the streamed traffic.
    const compiler::SharedArray<u64> &counts = p.shapeCounts;
    UFC_EXPECT(counts.size() == p.shapes.size() &&
                   p.costs.size() == p.shapes.size(),
               ConfigError,
               "Program '" << p.workload << "' has " << counts.size()
                   << " shape counts and " << p.costs.size()
                   << " cost rows for " << p.shapes.size()
                   << " cost shapes");
    u64 computeTicks = 0;
    u64 streamMemTicks = 0;     // exact memory ticks of Stream insts
    double streamedBytes = 0.0; // exact HBM traffic (both bounds)
    for (std::size_t k = 0; k < counts.size(); ++k) {
        const compiler::CostRow &c = p.costs[k];
        sim::addTicks(computeTicks,
                      sim::mulTicks(counts[k], c.computeTicks + p.fillTicks,
                                    "a compute bound"),
                      "a compute bound");
        sim::addTicks(streamMemTicks,
                      sim::mulTicks(counts[k], c.staticMemTicks,
                                    "a memory bound"),
                      "a memory bound");
        streamedBytes += static_cast<double>(counts[k]) * c.staticFetchBytes;
    }

    // Scratchpad terms from the def-use export.  Mem instructions never
    // sit in folded loops (verifyProgram), so each access executes once.
    const std::vector<compiler::SlotAccess> acc =
        compiler::slotAccesses(p);
    std::unordered_map<u32, SlotSummary> slots;
    for (std::size_t ai = 0; ai < acc.size(); ++ai) {
        const compiler::SlotAccess &a = acc[ai];
        const auto [it, inserted] = slots.try_emplace(a.slot);
        SlotSummary &s = it->second;
        if (inserted) {
            s.firstInst = a.inst;
            s.firstAccess = ai;
        }
        s.lastInst = a.inst;
        s.maxBytes = std::max(s.maxBytes, a.bytes);
    }

    double footprint = 0.0;
    for (const auto &[slot, s] : slots)
        footprint += s.maxBytes;
    b.fits = footprint <= p.scratchpadBytes;

    // Per Mem instruction: bytes every run moves (streamed operands and
    // first-touch read misses) and bytes a run may move (every read
    // missing).  The engine rounds each instruction's memory time to
    // ticks with the monotone sim::toTicks, so rounding the lower bytes
    // the same way bounds it from below exactly.
    const double bpc = p.hbmBytesPerCycle;
    u64 memLowerTicks = streamMemTicks;
    double memStreamedBytes = 0.0; // streamed operands of Mem insts
    double firstTouchReadBytes = 0.0; // guaranteed misses (lower)
    double allReadBytes = 0.0;        // every read misses (upper)
    u64 memInsts = 0;
    std::size_t ai = 0;
    for (u64 i = 0; i < p.code.size(); ++i) {
        const compiler::BcInst &inst = p.code[i];
        if (inst.kind != compiler::BcKind::Mem)
            continue;
        ++memInsts;
        double lower = 0.0;
        const u64 end = static_cast<u64>(inst.bufBegin) + inst.bufCount;
        for (u64 k = inst.bufBegin; k < end && k < p.bufs.size(); ++k)
            if (p.bufs[k].streamed)
                lower += p.bufs[k].bytes;
        memStreamedBytes += lower;
        for (; ai < acc.size() && acc[ai].inst == i; ++ai) {
            const compiler::SlotAccess &a = acc[ai];
            if (a.write)
                continue;
            allReadBytes += a.bytes;
            if (slots[a.slot].firstAccess == ai) {
                // A slot's first touch always misses.
                lower += a.bytes;
                firstTouchReadBytes += a.bytes;
            }
        }
        sim::addTicks(memLowerTicks, sim::toTicks(lower / bpc, "a memory bound"),
                      "a memory bound");
    }

    // Write-backs: each needs a distinct preceding write access, and
    // evicts at most the slot's max footprint.  When every slot fits,
    // nothing is ever evicted, so nothing is written back.
    double wbUpper = 0.0;
    if (!b.fits)
        for (const compiler::SlotAccess &a : acc)
            if (a.write)
                wbUpper += slots[a.slot].maxBytes;
    const double missUpper = b.fits ? firstTouchReadBytes : allReadBytes;

    // Upper memory time: the engine rounds each Mem instruction's time
    // to the nearest tick, so the sum of the rounded times exceeds the
    // rounded sum by at most one tick per instruction; the last term
    // covers the divisions' relative error (2^-53 each) on the sum.
    const u64 memUpperBytesTicks =
        upperTicks((memStreamedBytes + missUpper + wbUpper) / bpc);
    const u64 memUpperTicks =
        upperAdd(upperAdd(streamMemTicks, memUpperBytesTicks),
                 memInsts + (memUpperBytesTicks >> 50));

    b.computeCycles = sim::fromTicks(computeTicks);
    b.cyclesLower = sim::fromTicks(std::max(computeTicks, memLowerTicks));
    b.cyclesUpper = sim::fromTicks(upperAdd(computeTicks, memUpperTicks));
    b.hbmLower = streamedBytes + memStreamedBytes + firstTouchReadBytes;
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
    return analyzeSingle(p);
}

} // namespace analysis
} // namespace ufc
