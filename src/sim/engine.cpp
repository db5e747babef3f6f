/**
 * @file
 * Reference cycle engine implementation, plus the watchdog helpers the
 * bytecode engine shares with it.
 */

#include "sim/engine.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/error.h"
#include "metrics/flight_recorder.h"
#include "metrics/metrics.h"
#include "sim/bc_engine.h"
#include "sim/timeline.h"

namespace ufc {
namespace sim {

namespace detail {

namespace {

std::string
formatCycles(double simCycles)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "cycles=%.0f", simCycles);
    return buf;
}

} // namespace

void
countDeadlinePoll()
{
    if (metrics::enabled()) {
        static metrics::Counter &polls = metrics::counter(
            "ufc_engine_deadline_polls_total",
            "Armed host-deadline watchdog polls (clock reads)");
        polls.inc();
    }
}

void
throwHostDeadline(u64 instCount, double simCycles)
{
    if (metrics::enabled()) {
        static metrics::Counter &trips = metrics::counter(
            "ufc_engine_deadline_trips_total",
            "Host-deadline watchdog trips (job cancelled)");
        trips.inc();
        metrics::flightRecorder().record(metrics::EventKind::WatchdogTrip,
                                         "host_deadline",
                                         formatCycles(simCycles));
    }
    UFC_THROW(TimeoutError,
              "host deadline exceeded after " << instCount
                  << " instructions (" << simCycles
                  << " simulated cycles)");
}

void
throwMaxCycles(double simCycles, u64 bound, u64 instCount)
{
    if (metrics::enabled()) {
        static metrics::Counter &trips = metrics::counter(
            "ufc_engine_maxcycles_trips_total",
            "maxCycles watchdog trips (runaway simulation stopped)");
        trips.inc();
        metrics::flightRecorder().record(metrics::EventKind::WatchdogTrip,
                                         "max_cycles",
                                         formatCycles(simCycles));
    }
    UFC_THROW(TimeoutError,
              "maxCycles watchdog tripped: "
                  << simCycles << " simulated cycles > bound " << bound
                  << " after " << instCount << " instructions");
}

void
countSteps(u64 instructions)
{
    if (metrics::enabled()) {
        static metrics::Counter &steps = metrics::counter(
            "ufc_engine_steps_total",
            "Dynamic instructions stepped by the execution engine");
        steps.inc(instructions);
    }
}

void
throwTickRange(const char *what, double cycles)
{
    UFC_THROW(SimError, "simulated time leaves the engine's tick range: "
                            << what << " reaches " << cycles
                            << " cycles (limit " << fromTicks(kMaxTermTicks)
                            << " per instruction term, "
                            << fromTicks(kMaxClockTicks)
                            << " per run and accumulator)");
}

u64
clockLimitTicks(u64 maxCycles)
{
    if (maxCycles == 0 || maxCycles >= (kMaxClockTicks >> kTickBits))
        return kMaxClockTicks;
    return maxCycles << kTickBits;
}

void
throwClockLimit(u64 clockTicks, u64 maxCycles, u64 instCount)
{
    if (clockLimitTicks(maxCycles) < kMaxClockTicks)
        throwMaxCycles(fromTicks(clockTicks), maxCycles, instCount);
    throwTickRange("the compute clock", fromTicks(clockTicks));
}

} // namespace detail

RunStats
TickStats::toRunStats() const
{
    RunStats s;
    u64 total = 0;
    u64 stalls = 0;
    u64 fill = 0;
    for (int i = 0; i < isa::kNumHwOps; ++i) {
        const Op &t = ops[i];
        u64 cycles = t.compute;
        addTicks(cycles, t.stall, "an opcode's cycles");
        addTicks(cycles, t.fill, "an opcode's cycles");
        addTicks(total, cycles, "the total cycles");
        stalls += t.stall;
        fill += t.fill;
        OpStats &o = s.opStats[i];
        o.count = t.count;
        o.cycles = fromTicks(cycles);
        o.computeCycles = fromTicks(t.compute);
        o.stallCycles = fromTicks(t.stall);
        o.fillCycles = fromTicks(t.fill);
        o.hbmBytes = t.hbmBytes;
    }
    s.totalCycles = fromTicks(total);
    for (int r = 0; r < isa::kNumResources; ++r)
        s.busyCycles[r] = fromTicks(busy[r]);
    s.hbmBytes = hbmBytes;
    s.hbmBusyCycles = fromTicks(hbmBusy);
    s.spadHitBytes = spadHitBytes;
    s.instCount = instCount;
    s.stalls.hbmBound = fromTicks(hbmBound);
    s.stalls.dependency = fromTicks(stalls - hbmBound);
    s.stalls.pipelineFill = fromTicks(fill);
    s.stalls.spadSpillCycles = fromTicks(spadSpill);
    s.stalls.spadWritebackBytes = spadWritebackBytes;
    s.stalls.spadEvictions = spadEvictions;
    return s;
}

double
SpadModel::access(const isa::BufferRef &ref, double &writebackBytes)
{
    writebackBytes = 0.0;
    if (ref.transient)
        return 0.0;
    if (ref.streaming)
        return static_cast<double>(ref.bytes);

    auto it = entries_.find(ref.id);
    if (it != entries_.end()) {
        // Hit: refresh recency; a write marks the entry dirty.
        lru_.erase(it->second.lruIt);
        lru_.push_front(ref.id);
        it->second.lruIt = lru_.begin();
        it->second.dirty = it->second.dirty || ref.write;
        if (it->second.bytes < ref.bytes) {
            used_ += ref.bytes - it->second.bytes;
            it->second.bytes = ref.bytes;
        }
        return 0.0;
    }

    // Miss: make room, then install.
    while (used_ + ref.bytes > capacity_ && !lru_.empty()) {
        const u64 victim = lru_.back();
        lru_.pop_back();
        auto vit = entries_.find(victim);
        if (vit->second.dirty)
            writebackBytes += vit->second.bytes;
        used_ -= vit->second.bytes;
        entries_.erase(vit);
        ++evictions_;
    }
    lru_.push_front(ref.id);
    Entry e;
    e.bytes = ref.bytes;
    e.dirty = ref.write;
    e.lruIt = lru_.begin();
    entries_.emplace(ref.id, e);
    used_ += ref.bytes;

    // A freshly written buffer costs nothing to fetch.
    return ref.write ? 0.0 : ref.bytes;
}

CycleEngine::CycleEngine(const MachinePerf *perf, int prefetchWindow)
    : perf_(perf), spad_(perf->scratchpadBytes()), window_(prefetchWindow)
{}

void
CycleEngine::reset()
{
    spad_.reset();
    computeClock_ = 0;
    memClock_ = 0;
    recentComputeDone_.clear();
    stats_ = TickStats{};
}

void
CycleEngine::issue(const isa::HwInst &inst)
{
    // Cheap cooperative poll point: check the host deadline once every
    // kDeadlinePollPeriod instructions so a hung/runaway job can be
    // cancelled without per-issue syscall cost.
    if (hostDeadline_ != std::chrono::steady_clock::time_point{} &&
        stats_.instCount % BytecodeEngine::kDeadlinePollPeriod == 0) {
        detail::countDeadlinePoll();
        if (std::chrono::steady_clock::now() >= hostDeadline_)
            detail::throwHostDeadline(stats_.instCount,
                                      fromTicks(computeClock_));
    }

    // Memory phase: fetch missing operands, schedule write-backs.  Byte
    // counts are integers, so these double sums are exact.
    double fetchBytes = 0.0;
    double wbBytes = 0.0;
    for (const auto &ref : inst.buffers) {
        double wb = 0.0;
        const double miss = spad_.access(ref, wb);
        fetchBytes += miss;
        wbBytes += wb;
        if (miss == 0.0 && !ref.write && !ref.transient)
            stats_.spadHitBytes += ref.bytes;
    }
    const double bpc = perf_->hbmBytesPerCycle();
    const u64 memTicks = toTicks((fetchBytes + wbBytes) / bpc,
                                 "an instruction's memory time");

    // The memory engine is in-order and may run at most `window_`
    // instructions ahead of compute; window <= 0 disables lookahead
    // entirely (the fetch waits for the compute engine to drain).
    u64 memStart = memClock_;
    if (window_ <= 0) {
        memStart = std::max(memStart, computeClock_);
    } else if (static_cast<int>(recentComputeDone_.size()) >= window_) {
        memStart = std::max(
            memStart,
            recentComputeDone_[recentComputeDone_.size() - window_]);
    }
    const u64 memDone = memStart + memTicks;
    memClock_ = memDone;

    // Compute phase starts when its operands arrived and the datapath is
    // free.  The terms are rounded exactly as compiler::costProgram
    // rounds them per shape.
    const double cCycles = perf_->computeCycles(inst);
    const u64 cTicks = toTicks(cCycles, "an instruction's compute time");
    const u64 fill =
        toTicks(perf_->pipelineFillCycles(), "the pipeline fill");
    const u64 computeBefore = computeClock_;
    const u64 start = std::max(computeBefore, memDone);
    const u64 done = start + cTicks + fill;
    computeClock_ = done;

    // Simulated-cycle watchdog (RunOptions::maxCycles) and tick-range
    // guard: a pathological or runaway instruction stream trips here
    // deterministically.
    if (computeClock_ > limit_)
        detail::throwClockLimit(computeClock_, maxCycles_,
                                stats_.instCount + 1);

    if (window_ > 0) {
        recentComputeDone_.push_back(done);
        if (static_cast<int>(recentComputeDone_.size()) > 4 * window_)
            recentComputeDone_.pop_front();
    }

    // Accounting.
    const auto res = perf_->resourceFor(inst);
    addTicks(stats_.busy[static_cast<int>(res)],
             toTicks(cCycles * perf_->laneFraction(inst),
                     "an instruction's busy-lane time"),
             "a resource's busy cycles");
    addTicks(stats_.busy[static_cast<int>(isa::Resource::Noc)],
             toTicks(perf_->nocCycles(inst), "an instruction's NoC time"),
             "a resource's busy cycles");
    stats_.hbmBytes += fetchBytes + wbBytes;
    stats_.hbmBusy += memTicks;
    ++stats_.instCount;

    // Attribution: the compute engine advances by exactly
    // wait + cTicks + fill this issue; the opcode's row keeps the three
    // parts, so the per-op table telescopes to the final clock.
    const u64 wait = start - computeBefore;
    TickStats::Op &op = stats_.ops[static_cast<int>(inst.op)];
    ++op.count;
    op.compute += cTicks;
    op.stall += wait;
    op.fill += fill;
    op.hbmBytes += fetchBytes + wbBytes;

    // Stall causes: the part of the wait covered by active transfer time
    // is HBM-bound; the remainder is in-order/prefetch-window dependency
    // delay (the data was fetchable earlier but the engine could not
    // start it sooner).
    stats_.hbmBound += std::min(wait, memTicks);
    stats_.spadWritebackBytes += wbBytes;
    stats_.spadSpill +=
        toTicks(wbBytes / bpc, "an instruction's write-back time");

    if (timeline_) {
        if (memTicks > 0)
            timeline_->addSlice(Timeline::kHbmTrack, isa::opName(inst.op),
                                fromTicks(memStart), fromTicks(memDone),
                                fetchBytes + wbBytes);
        timeline_->addSlice(static_cast<int>(res), isa::opName(inst.op),
                            fromTicks(start), fromTicks(done));
    }
}

void
CycleEngine::beginPhase(const char *name)
{
    if (timeline_)
        timeline_->beginPhase(name, fromTicks(computeClock_));
}

void
CycleEngine::endPhase()
{
    if (timeline_)
        timeline_->endPhase(fromTicks(computeClock_));
}

RunStats
CycleEngine::finish()
{
    // The per-opcode rows telescope to the final compute clock in exact
    // integer ticks, so totalCycles (their sum) is that clock.
    stats_.spadEvictions = spad_.evictions();
    if (timeline_)
        timeline_->closeOpenPhases(fromTicks(computeClock_));
    return stats_.toRunStats();
}

} // namespace sim
} // namespace ufc
