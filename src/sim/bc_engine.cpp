/**
 * @file
 * Bytecode executor implementation.
 *
 * The schedule here must stay the reference engine's issue() / finish()
 * (sim/engine.cpp) in integer ticks: the differential tests
 * (tests/test_bytecode.cpp, test_golden.cpp) compare the two engines
 * bit for bit.  Tick arithmetic is exact, so this engine may sum the
 * shape-only terms per shape instead of per instruction.
 */

#include "sim/bc_engine.h"

#include <algorithm>
#include <span>

#include "common/error.h"
#include "sim/engine.h"
#include "sim/timeline.h"

namespace ufc {
namespace sim {

BytecodeEngine::BytecodeEngine(const compiler::Program *program,
                               int prefetchWindow)
    : program_(program), costs_(program->costs.data()),
      window_(prefetchWindow)
{
    slots_.resize(program_->spadSlots);
    if (window_ > 0)
        ring_.resize(static_cast<size_t>(window_), 0);
}

void
BytecodeEngine::lruUnlink(u32 slot)
{
    Slot &e = slots_[slot];
    if (e.prev != kNil)
        slots_[e.prev].next = e.next;
    else
        lruHead_ = e.next;
    if (e.next != kNil)
        slots_[e.next].prev = e.prev;
    else
        lruTail_ = e.prev;
    e.prev = kNil;
    e.next = kNil;
}

void
BytecodeEngine::lruPushFront(u32 slot)
{
    Slot &e = slots_[slot];
    e.prev = kNil;
    e.next = lruHead_;
    if (lruHead_ != kNil)
        slots_[lruHead_].prev = slot;
    lruHead_ = slot;
    if (lruTail_ == kNil)
        lruTail_ = slot;
}

double
BytecodeEngine::spadAccess(const compiler::BcBuf &buf,
                           double &writebackBytes)
{
    // Mirrors the reference scratchpad's access() over dense slots: same hit/grow
    // arithmetic, same eviction order (tail = least recent), same
    // dirty-victim write-back accounting.
    writebackBytes = 0.0;
    Slot &e = slots_[buf.slot];
    if (e.resident) {
        lruUnlink(buf.slot);
        lruPushFront(buf.slot);
        e.dirty = e.dirty || buf.write;
        if (e.bytes < buf.bytes) {
            spadUsed_ += buf.bytes - e.bytes;
            e.bytes = buf.bytes;
        }
        return 0.0;
    }

    while (spadUsed_ + buf.bytes > program_->scratchpadBytes &&
           lruTail_ != kNil) {
        const u32 victim = lruTail_;
        Slot &v = slots_[victim];
        lruUnlink(victim);
        if (v.dirty)
            writebackBytes += v.bytes;
        spadUsed_ -= v.bytes;
        v.resident = false;
        v.dirty = false;
        ++stats_.spadEvictions;
    }
    lruPushFront(buf.slot);
    e.bytes = buf.bytes;
    e.dirty = buf.write;
    e.resident = true;
    spadUsed_ += buf.bytes;

    return buf.write ? 0.0 : buf.bytes;
}

u64
BytecodeEngine::memStep(const compiler::BcInst &b, u8 op)
{
    // Walk the operand records in original order: the LRU state depends
    // on it.  Byte counts are integers, so the sums are exact.
    double fetchBytes = 0.0;
    double wbBytes = 0.0;
    const compiler::BcBuf *buf = &program_->bufs[b.bufBegin];
    for (u16 k = 0; k < b.bufCount; ++k, ++buf) {
        if (buf->streamed) {
            fetchBytes += buf->bytes;
            continue;
        }
        double wb = 0.0;
        const double miss = spadAccess(*buf, wb);
        fetchBytes += miss;
        wbBytes += wb;
        if (miss == 0.0 && !buf->write)
            stats_.spadHitBytes += buf->bytes;
    }
    const double bpc = program_->hbmBytesPerCycle;
    const u64 memTicks = toTicks((fetchBytes + wbBytes) / bpc,
                                 "an instruction's memory time");
    memBytes_ = fetchBytes + wbBytes;
    stats_.hbmBytes += memBytes_;
    stats_.ops[op].hbmBytes += memBytes_;
    stats_.hbmBusy += memTicks;
    stats_.spadWritebackBytes += wbBytes;
    stats_.spadSpill +=
        toTicks(wbBytes / bpc, "an instruction's write-back time");
    return memTicks;
}

void
BytecodeEngine::applyPhaseEvent(const compiler::PhaseEvent &ev)
{
    if (ev.name == compiler::PhaseEvent::kEnd)
        timeline_->endPhase(fromTicks(computeClock_));
    else
        timeline_
            ->beginPhase(program_->phaseNames[static_cast<size_t>(ev.name)]
                             .c_str(),
                         fromTicks(computeClock_));
}

template <bool WithTimeline>
void
BytecodeEngine::exec()
{
    // Plain views of the shared body arrays for the dispatch loop.
    const auto view = [](const auto &arr) {
        return std::span(arr.data(), arr.size());
    };
    const auto code = view(program_->code);
    const auto events = view(program_->phaseEvents);
    const auto loops = view(program_->loops);
    const compiler::CostRow *const costs = costs_;
    const u64 fill = program_->fillTicks;
    const u64 limit = limit_;
    const bool deadline =
        hostDeadline_ != std::chrono::steady_clock::time_point{};
    u64 *const ring = ring_.data();
    const size_t ringSize = ring_.size();

    // The clock chain lives in locals, so the stores into stats_ below
    // cannot force it back to memory.
    u64 compute = 0;
    u64 mem = 0;
    u64 insts = 0;
    u64 hbmBound = 0;
    size_t ringPos = 0; // the oldest completion time: `window_` back
    const size_t n = code.size();
    size_t ev = 0;
    size_t i = 0;
    size_t li = 0;
    u64 tripsDone = 0;
    while (true) {
        // Structural loop-back: fires between instructions, before any
        // phase event at this index, so markers recorded after a fold
        // fire once — after the final trip.  The body re-executes with
        // full per-instruction state (clocks, ring, deadline polls);
        // only the dispatch of the repeat is structural.  The phase
        // cursor below stays monotonic across the jump because folded
        // bodies contain no markers (bc-loop-invariant).
        if (li < loops.size() && i == loops[li].end) {
            ++tripsDone;
            if (tripsDone < loops[li].trips) {
                i -= loops[li].bodyLen;
                continue;
            }
            ++li;
            tripsDone = 0;
        }
        if (i >= n)
            break;
        if constexpr (WithTimeline) {
            computeClock_ = compute;
            while (ev < events.size() && events[ev].inst == i) {
                applyPhaseEvent(events[ev]);
                ++ev;
            }
        }

        // Cooperative host-deadline poll, same cadence as the IR engine.
        if (deadline && insts % kDeadlinePollPeriod == 0) {
            detail::countDeadlinePoll();
            if (std::chrono::steady_clock::now() >= hostDeadline_)
                detail::throwHostDeadline(insts, fromTicks(compute));
        }

        const compiler::BcInst &b = code[i];
        const compiler::CostRow &c = costs[b.shape];
        const bool stream = b.kind == compiler::BcKind::Stream;
        const u64 memTicks = stream ? c.staticMemTicks : memStep(b, c.op);

        u64 memStart = mem;
        if (ringSize == 0)
            memStart = std::max(memStart, compute);
        else
            memStart = std::max(memStart, ring[ringPos]);
        const u64 memDone = memStart + memTicks;
        mem = memDone;

        const u64 start = std::max(compute, memDone);
        const u64 wait = start - compute;
        const u64 done = start + c.computeTicks + fill;
        compute = done;
        if (done > limit) [[unlikely]]
            detail::throwClockLimit(done, maxCycles_, insts + 1);

        if (ringSize != 0) {
            ring[ringPos] = done;
            if (++ringPos == ringSize)
                ringPos = 0;
        }

        stats_.ops[c.op].stall += wait;
        hbmBound += std::min(wait, memTicks);
        ++insts;

        if constexpr (WithTimeline) {
            const char *name = isa::opName(static_cast<isa::HwOp>(c.op));
            if (memTicks > 0)
                timeline_->addSlice(Timeline::kHbmTrack, name,
                                    fromTicks(memStart), fromTicks(memDone),
                                    stream ? c.staticFetchBytes : memBytes_);
            timeline_->addSlice(static_cast<int>(c.resource), name,
                                fromTicks(start), fromTicks(done));
        }
        ++i;
    }
    computeClock_ = compute;
    stats_.instCount = insts;
    stats_.hbmBound = hbmBound;
    if constexpr (WithTimeline) {
        while (ev < events.size()) {
            applyPhaseEvent(events[ev]);
            ++ev;
        }
    }
}

void
BytecodeEngine::addShapeTerms()
{
    const compiler::SharedArray<u64> &counts = program_->shapeCounts;
    const u64 fill = program_->fillTicks;
    u64 executed = 0;
    for (size_t k = 0; k < counts.size(); ++k) {
        const u64 n = counts[k];
        if (n == 0)
            continue;
        const compiler::CostRow &c = costs_[k];
        TickStats::Op &op = stats_.ops[c.op];
        executed += n;
        op.count += n;
        addTicks(op.compute, mulTicks(n, c.computeTicks, "compute cycles"),
                 "compute cycles");
        addTicks(op.fill, mulTicks(n, fill, "fill cycles"), "fill cycles");
        addTicks(stats_.busy[c.resource],
                 mulTicks(n, c.busyLaneTicks, "busy cycles"), "busy cycles");
        addTicks(stats_.busy[static_cast<int>(isa::Resource::Noc)],
                 mulTicks(n, c.nocTicks, "NoC cycles"), "NoC cycles");
        // Streamed traffic; a Mem instruction's shape streams 0 bytes.
        const double bytes = static_cast<double>(n) * c.staticFetchBytes;
        stats_.hbmBytes += bytes;
        op.hbmBytes += bytes;
        addTicks(stats_.hbmBusy, mulTicks(n, c.staticMemTicks, "HBM cycles"),
                 "HBM cycles");
    }
    UFC_EXPECT(executed == stats_.instCount, ConfigError,
               "Program '" << program_->workload << "' counts " << executed
                   << " shape executions for " << stats_.instCount
                   << " executed instructions; its code was edited "
                      "after building");
}

RunStats
BytecodeEngine::run()
{
    UFC_EXPECT(!program_->composed(), ConfigError,
               "BytecodeEngine cannot execute a composed Program ('"
                   << program_->machine
                   << "'); decompose it via ComposedModel::execute");
    UFC_EXPECT(program_->costs.size() == program_->shapes.size(),
               ConfigError,
               "Program '" << program_->workload << "' has "
                   << program_->costs.size() << " cost rows for "
                   << program_->shapes.size()
                   << " cost shapes; cost it with compiler::costProgram");
    UFC_EXPECT(program_->shapeCounts.size() == program_->shapes.size(),
               ConfigError,
               "Program '" << program_->workload << "' has "
                   << program_->shapeCounts.size() << " shape counts for "
                   << program_->shapes.size()
                   << " cost shapes; build it with compiler::ProgramBuilder");
    // Cheap structural screen of the loop table (the executor trusts it
    // for control flow); verifyProgram() covers the full invariants.
    u64 prevEnd = 0;
    for (const auto &lp : program_->loops) {
        UFC_EXPECT(lp.bodyLen > 0 && lp.trips >= 2 &&
                       lp.end <= program_->code.size() &&
                       lp.bodyLen <= lp.end &&
                       lp.end - lp.bodyLen >= prevEnd,
                   ConfigError,
                   "malformed Program loop (end=" << lp.end << " body="
                       << lp.bodyLen << " trips=" << lp.trips
                       << "); see lint rule bc-loop-invariant");
        prevEnd = lp.end;
    }
    // The cost table indexes the stats arrays, and its terms bound every
    // clock step (kMaxTermTicks): screen it once per run.
    UFC_EXPECT(program_->fillTicks <= kMaxTermTicks, SimError,
               "Program '" << program_->workload << "' pipeline fill of "
                   << fromTicks(program_->fillTicks)
                   << " cycles leaves the engine's tick range");
    for (const compiler::CostRow &c : program_->costs) {
        UFC_EXPECT(c.op < isa::kNumHwOps &&
                       c.resource < isa::kNumResources,
                   ConfigError,
                   "Program '" << program_->workload
                       << "' has a cost row with op " << int(c.op)
                       << " and resource " << int(c.resource));
        UFC_EXPECT(std::max({c.computeTicks, c.busyLaneTicks, c.nocTicks,
                             c.staticMemTicks}) <= kMaxTermTicks,
                   SimError,
                   "Program '" << program_->workload
                       << "' has a cost row past the engine's tick range "
                          "(compute " << fromTicks(c.computeTicks)
                       << ", busy " << fromTicks(c.busyLaneTicks)
                       << ", NoC " << fromTicks(c.nocTicks) << ", memory "
                       << fromTicks(c.staticMemTicks) << " cycles)");
    }
    if (timeline_)
        exec<true>();
    else
        exec<false>();
    addShapeTerms();
    detail::countSteps(stats_.instCount);
    if (timeline_)
        timeline_->closeOpenPhases(fromTicks(computeClock_));
    return stats_.toRunStats();
}

} // namespace sim
} // namespace ufc
