/**
 * @file
 * The machine performance interface every model is costed through, and
 * the reference trace-IR cycle engine.
 *
 * CycleEngine is not on any product path: jobs run on the bytecode
 * engine (sim/bc_engine.h).  It stays as the reference the tests compare
 * that engine against, reached only through
 * AcceleratorModel::runTraceIr().  It consumes a primitive instruction
 * stream in order and models:
 *   - compute occupancy per resource (throughput supplied by the machine
 *     performance model),
 *   - an in-order memory engine with a bounded prefetch window, so compute
 *     and memory overlap but dependency stalls still surface (this is what
 *     keeps PE/HBM utilization below 100%, as in paper Figure 12),
 *   - an LRU scratchpad at operand-buffer granularity (capacity effects
 *     drive the scratchpad design-space exploration of Figures 13/14).
 *
 * Observability: every issue() attributes its wall-cycle delta to the
 * instruction's opcode (RunStats::opStats) and classifies compute-engine
 * waits by cause (RunStats::stalls); finish() defines totalCycles as the
 * fixed-order sum of the per-opcode cycles, so the attribution table sums
 * to the total *exactly*.  An optional Timeline records begin/end slices
 * without influencing the schedule.
 */

#ifndef UFC_SIM_ENGINE_H
#define UFC_SIM_ENGINE_H

#include <chrono>
#include <deque>
#include <list>
#include <unordered_map>

#include "isa/inst.h"
#include "sim/stats.h"

namespace ufc {
namespace sim {

class Timeline;

namespace detail {

/**
 * Shared watchdog/deadline trip points: the IR CycleEngine and the
 * bytecode engine (sim/bc_engine.h) both throw through these helpers,
 * so a trip mid-run yields a byte-identical TimeoutError message on
 * either execution path — the differential tests compare what() of the
 * deterministic maxCycles trip verbatim.
 */
[[noreturn]] void throwHostDeadline(u64 instCount, double simCycles);
[[noreturn]] void throwMaxCycles(double simCycles, u64 bound,
                                 u64 instCount);

/** Count one armed host-deadline poll (the clock syscall, not the cheap
 *  modulo skip) in the metrics registry.  Observation only. */
void countDeadlinePoll();

} // namespace detail

/**
 * Machine performance model: translates a primitive instruction into
 * per-resource occupancy.  Each accelerator (UFC, SHARP, Strix) implements
 * one of these.
 */
class MachinePerf
{
  public:
    virtual ~MachinePerf() = default;

    /** Cycles the instruction occupies its primary compute resource. */
    virtual double computeCycles(const isa::HwInst &inst) const = 0;
    /** Primary compute resource. */
    virtual isa::Resource resourceFor(const isa::HwInst &inst) const = 0;
    /** Fraction of the resource's lanes that are active [0, 1]. */
    virtual double laneFraction(const isa::HwInst &inst) const = 0;
    /** Additional NoC busy cycles caused by this instruction. */
    virtual double nocCycles(const isa::HwInst &inst) const = 0;
    /** Bytes the HBM can move per cycle. */
    virtual double hbmBytesPerCycle() const = 0;
    /** Scratchpad capacity in bytes. */
    virtual double scratchpadBytes() const = 0;
    /** Fixed pipeline fill/drain overhead charged per instruction; the
     *  datapath is occupied but does no useful work (lowers utilization
     *  of fine-grained instruction streams, e.g. TFHE blind rotation). */
    virtual double pipelineFillCycles() const { return 24.0; }
    /** Digest of every constant the terms above read.  A Program is
     *  stamped with the digest it was costed under, and execute()
     *  rejects it on a model whose digest differs. */
    virtual u64 digest() const = 0;
};

/** LRU scratchpad at operand-buffer granularity. */
class SpadModel
{
  public:
    explicit SpadModel(double capacityBytes)
        : capacity_(capacityBytes)
    {}

    /**
     * Touch a buffer; returns the bytes that must be fetched from HBM
     * (0 on a hit).  Write buffers are installed dirty; evicting a dirty
     * buffer adds write-back traffic via `writebackBytes`.
     */
    double access(const isa::BufferRef &ref, double &writebackBytes);

    /** Buffers evicted for capacity since the last reset(). */
    u64 evictions() const { return evictions_; }

    void
    reset()
    {
        entries_.clear();
        lru_.clear();
        used_ = 0.0;
        evictions_ = 0;
    }

  private:
    struct Entry
    {
        double bytes = 0.0;
        bool dirty = false;
        std::list<u64>::iterator lruIt;
    };

    double capacity_;
    double used_ = 0.0;
    u64 evictions_ = 0;
    std::unordered_map<u64, Entry> entries_;
    std::list<u64> lru_; ///< front = most recent
};

/**
 * In-order two-engine (compute + memory) cycle model.
 *
 * Thread safety: a CycleEngine owns all of its mutable state and only
 * reads the (const) MachinePerf it was given, so distinct engines may run
 * on distinct threads concurrently; one engine must not be shared.  An
 * attached Timeline is written by the engine and shares its thread
 * affinity.
 */
class CycleEngine : public isa::InstSink
{
  public:
    /** `prefetchWindow` bounds how far the memory engine runs ahead of
     *  compute (0 = no lookahead); the product default is
     *  BytecodeEngine::kDefaultPrefetchWindow. */
    CycleEngine(const MachinePerf *perf, int prefetchWindow);

    /** Attach (or detach with nullptr) an event-stream recorder.  The
     *  recorder only observes; the schedule and RunStats are identical
     *  with or without it. */
    void setTimeline(Timeline *timeline) { timeline_ = timeline; }

    /** Simulated-cycle watchdog: issue() throws ufc::TimeoutError (a
     *  SimError) once the compute clock passes `cycles`.  0 disables
     *  (the default).  Deterministic: the trip point depends only on
     *  the instruction stream. */
    void setMaxCycles(u64 cycles) { maxCycles_ = cycles; }

    /** Cooperative host-side deadline: issue() polls the wall clock
     *  every BytecodeEngine::kDeadlinePollPeriod instructions (a cheap
     *  poll point) and throws ufc::TimeoutError once it passes.  The
     *  default epoch time point disarms the check. */
    void
    setHostDeadline(std::chrono::steady_clock::time_point deadline)
    {
        hostDeadline_ = deadline;
    }

    void issue(const isa::HwInst &inst) override;

    /** Phase markers forwarded by the compiler; recorded to the attached
     *  Timeline (no-ops otherwise). */
    void beginPhase(const char *name) override;
    void endPhase() override;

    /** Finish outstanding work and return the accumulated statistics. */
    RunStats finish();

    /** Reset for a fresh run (keeps the machine model and timeline). */
    void reset();

  private:
    const MachinePerf *perf_;
    SpadModel spad_;
    int window_;
    Timeline *timeline_ = nullptr;
    u64 maxCycles_ = 0; ///< 0 = unlimited
    std::chrono::steady_clock::time_point hostDeadline_{};

    double computeClock_ = 0.0;
    double memClock_ = 0.0;
    std::deque<double> recentComputeDone_;
    RunStats stats_;
};

} // namespace sim
} // namespace ufc

#endif // UFC_SIM_ENGINE_H
