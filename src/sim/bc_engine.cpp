/**
 * @file
 * Bytecode executor implementation.
 *
 * Every arithmetic statement here mirrors one in the reference engine's
 * issue() / finish() (sim/engine.cpp); when editing, keep the
 * expressions and their evaluation order in lockstep with it — the
 * differential tests (tests/test_bytecode.cpp, test_golden.cpp) compare
 * the two engines bit for bit.
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
      fill_(program->fillCycles), window_(prefetchWindow)
{
    slots_.resize(program_->spadSlots);
    if (window_ > 0)
        ring_.resize(4 * static_cast<size_t>(window_));
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
        ++spadEvictions_;
    }
    lruPushFront(buf.slot);
    e.bytes = buf.bytes;
    e.dirty = buf.write;
    e.resident = true;
    spadUsed_ += buf.bytes;

    return buf.write ? 0.0 : buf.bytes;
}

template <bool WithTimeline>
void
BytecodeEngine::step(const compiler::BcInst &b)
{
    // Cooperative host-deadline poll, same cadence as the IR engine.
    if (hostDeadline_ != std::chrono::steady_clock::time_point{} &&
        stats_.instCount % kDeadlinePollPeriod == 0) {
        detail::countDeadlinePoll();
        if (std::chrono::steady_clock::now() >= hostDeadline_)
            detail::throwHostDeadline(stats_.instCount, computeClock_);
    }

    const compiler::CostRow &c = costs_[b.shape];

    // Memory phase.  Stream instructions carry it pre-computed; Mem
    // instructions walk their operand records in original order so the
    // floating-point accumulation matches the IR engine's.
    double fetchBytes;
    double wbBytes;
    double memCycles;
    if (b.kind == compiler::BcKind::Stream) {
        fetchBytes = c.staticFetchBytes;
        wbBytes = 0.0;
        memCycles = c.staticMemCycles;
    } else {
        fetchBytes = 0.0;
        wbBytes = 0.0;
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
        memCycles = (fetchBytes + wbBytes) / program_->hbmBytesPerCycle;
    }

    double memStart = memClock_;
    if (window_ <= 0) {
        memStart = std::max(memStart, computeClock_);
    } else if (ringSize_ >= static_cast<size_t>(window_)) {
        // ringStart_ < ring size and ringSize_ <= ring size, so the
        // unwrapped index is < 2x the size: one conditional subtract
        // replaces the modulo (a hardware divide) on the hot path.
        size_t idx = ringStart_ + ringSize_ - static_cast<size_t>(window_);
        if (idx >= ring_.size())
            idx -= ring_.size();
        memStart = std::max(memStart, ring_[idx]);
    }
    const double memDone = memStart + memCycles;
    memClock_ = memDone;

    const double computeBefore = computeClock_;
    const double start = std::max(computeBefore, memDone);
    const double done = start + c.computeCycles + fill_;
    computeClock_ = done;

    if (maxCycles_ > 0 && computeClock_ > static_cast<double>(maxCycles_))
        detail::throwMaxCycles(computeClock_, maxCycles_,
                               stats_.instCount + 1);

    if (window_ > 0) {
        // push_back + trim-beyond-4*window, as a ring overwrite
        // (conditional wrap, not modulo: indices advance by one).
        if (ringSize_ == ring_.size()) {
            ring_[ringStart_] = done;
            ++ringStart_;
            if (ringStart_ == ring_.size())
                ringStart_ = 0;
        } else {
            size_t idx = ringStart_ + ringSize_;
            if (idx >= ring_.size())
                idx -= ring_.size();
            ring_[idx] = done;
            ++ringSize_;
        }
    }

    stats_.busyCycles[c.resource] += c.busyLaneCycles;
    stats_.busyCycles[static_cast<int>(isa::Resource::Noc)] +=
        c.nocCycles;
    stats_.hbmBytes += fetchBytes + wbBytes;
    stats_.hbmBusyCycles += memCycles;
    ++stats_.instCount;

    const double wait = start - computeBefore;
    OpStats &op = stats_.opStats[c.op];
    ++op.count;
    op.cycles += wait + c.computeCycles + fill_;
    op.computeCycles += c.computeCycles;
    op.stallCycles += wait;
    op.fillCycles += fill_;
    op.hbmBytes += fetchBytes + wbBytes;

    const double hbmOverlap = std::min(wait, memCycles);
    stats_.stalls.hbmBound += hbmOverlap;
    stats_.stalls.dependency += wait - hbmOverlap;
    stats_.stalls.pipelineFill += fill_;
    stats_.stalls.spadWritebackBytes += wbBytes;
    stats_.stalls.spadSpillCycles +=
        wbBytes / program_->hbmBytesPerCycle;

    if constexpr (WithTimeline) {
        const char *name = isa::opName(static_cast<isa::HwOp>(c.op));
        if (memCycles > 0)
            timeline_->addSlice(Timeline::kHbmTrack, name, memStart,
                                memDone, fetchBytes + wbBytes);
        timeline_->addSlice(static_cast<int>(c.resource), name, start,
                            done);
    }
}

void
BytecodeEngine::applyPhaseEvent(const compiler::PhaseEvent &ev)
{
    if (ev.name == compiler::PhaseEvent::kEnd)
        timeline_->endPhase(computeClock_);
    else
        timeline_
            ->beginPhase(program_->phaseNames[static_cast<size_t>(ev.name)]
                             .c_str(),
                         computeClock_);
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
            while (ev < events.size() && events[ev].inst == i) {
                applyPhaseEvent(events[ev]);
                ++ev;
            }
        }
        step<WithTimeline>(code[i]);
        ++i;
    }
    if constexpr (WithTimeline) {
        while (ev < events.size()) {
            applyPhaseEvent(events[ev]);
            ++ev;
        }
    }
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
    if (timeline_)
        exec<true>();
    else
        exec<false>();

    // totalCycles is defined as the fixed-order per-opcode sum, exactly
    // as the reference engine's finish().
    double total = 0.0;
    for (const auto &op : stats_.opStats)
        total += op.cycles;
    stats_.totalCycles = total;
    stats_.stalls.spadEvictions = spadEvictions_;
    if (timeline_)
        timeline_->closeOpenPhases(computeClock_);
    return stats_;
}

} // namespace sim
} // namespace ufc
