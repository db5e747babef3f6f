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

} // namespace detail

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
    computeClock_ = 0.0;
    memClock_ = 0.0;
    recentComputeDone_.clear();
    stats_ = RunStats{};
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
            detail::throwHostDeadline(stats_.instCount, computeClock_);
    }

    // Memory phase: fetch missing operands, schedule write-backs.
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
    const double memCycles =
        (fetchBytes + wbBytes) / perf_->hbmBytesPerCycle();

    // The memory engine is in-order and may run at most `window_`
    // instructions ahead of compute; window <= 0 disables lookahead
    // entirely (the fetch waits for the compute engine to drain).
    double memStart = memClock_;
    if (window_ <= 0) {
        memStart = std::max(memStart, computeClock_);
    } else if (static_cast<int>(recentComputeDone_.size()) >= window_) {
        memStart = std::max(
            memStart,
            recentComputeDone_[recentComputeDone_.size() - window_]);
    }
    const double memDone = memStart + memCycles;
    memClock_ = memDone;

    // Compute phase starts when its operands arrived and the datapath is
    // free.
    const double computeBefore = computeClock_;
    const double cCycles = perf_->computeCycles(inst);
    const double fill = perf_->pipelineFillCycles();
    const double start = std::max(computeBefore, memDone);
    const double done = start + cCycles + fill;
    computeClock_ = done;

    // Simulated-cycle watchdog (RunOptions::maxCycles): a pathological
    // or runaway instruction stream trips here deterministically.
    if (maxCycles_ > 0 && computeClock_ > static_cast<double>(maxCycles_))
        detail::throwMaxCycles(computeClock_, maxCycles_,
                               stats_.instCount + 1);

    if (window_ > 0) {
        recentComputeDone_.push_back(done);
        if (static_cast<int>(recentComputeDone_.size()) > 4 * window_)
            recentComputeDone_.pop_front();
    }

    // Accounting.
    const auto res = perf_->resourceFor(inst);
    stats_.busyCycles[static_cast<int>(res)] +=
        cCycles * perf_->laneFraction(inst);
    stats_.busyCycles[static_cast<int>(isa::Resource::Noc)] +=
        perf_->nocCycles(inst);
    stats_.hbmBytes += fetchBytes + wbBytes;
    stats_.hbmBusyCycles += memCycles;
    ++stats_.instCount;

    // Attribution: the compute engine advances by exactly
    // wait + cCycles + fill this issue; charge that delta to the opcode
    // so the per-op table telescopes to the final clock.
    const double wait = start - computeBefore;
    OpStats &op = stats_.opStats[static_cast<int>(inst.op)];
    ++op.count;
    op.cycles += wait + cCycles + fill;
    op.computeCycles += cCycles;
    op.stallCycles += wait;
    op.fillCycles += fill;
    op.hbmBytes += fetchBytes + wbBytes;

    // Stall causes: the part of the wait covered by active transfer time
    // is HBM-bound; the remainder is in-order/prefetch-window dependency
    // delay (the data was fetchable earlier but the engine could not
    // start it sooner).
    const double hbmOverlap = std::min(wait, memCycles);
    stats_.stalls.hbmBound += hbmOverlap;
    stats_.stalls.dependency += wait - hbmOverlap;
    stats_.stalls.pipelineFill += fill;
    stats_.stalls.spadWritebackBytes += wbBytes;
    stats_.stalls.spadSpillCycles += wbBytes / perf_->hbmBytesPerCycle();

    if (timeline_) {
        if (memCycles > 0)
            timeline_->addSlice(Timeline::kHbmTrack, isa::opName(inst.op),
                                memStart, memDone, fetchBytes + wbBytes);
        timeline_->addSlice(static_cast<int>(res), isa::opName(inst.op),
                            start, done);
    }
}

void
CycleEngine::beginPhase(const char *name)
{
    if (timeline_)
        timeline_->beginPhase(name, computeClock_);
}

void
CycleEngine::endPhase()
{
    if (timeline_)
        timeline_->endPhase(computeClock_);
}

RunStats
CycleEngine::finish()
{
    // totalCycles is *defined* as the fixed-order sum of the per-opcode
    // attribution table, so "breakdown sums to total" holds exactly
    // rather than up to floating-point telescoping error.  The sum equals
    // max(computeClock_, memClock_) up to ulps: compute never finishes
    // before its own fetch, so computeClock_ >= memClock_, and the
    // per-issue deltas telescope to computeClock_.
    double total = 0.0;
    for (const auto &op : stats_.opStats)
        total += op.cycles;
    stats_.totalCycles = total;
    stats_.stalls.spadEvictions = spad_.evictions();
    if (timeline_)
        timeline_->closeOpenPhases(computeClock_);
    return stats_;
}

} // namespace sim
} // namespace ufc
