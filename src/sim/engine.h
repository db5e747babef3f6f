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
 * Time base: both engines keep every clock, cost term and cycle
 * accumulator as an exact u64 count of ticks (kTickBits below).  Each
 * cost term is rounded to ticks once, through toTicks(), so integer sums
 * replace floating-point ones: no result depends on the order of
 * accumulation, and the RunStats invariants (stats.h) hold exactly.
 * Ticks become RunStats cycles once, at the end of a run (TickStats).
 *
 * Observability: every issue() attributes its wall-cycle delta to the
 * instruction's opcode (RunStats::opStats) and classifies compute-engine
 * waits by cause (RunStats::stalls).  An optional Timeline records
 * begin/end slices without influencing the schedule.
 */

#ifndef UFC_SIM_ENGINE_H
#define UFC_SIM_ENGINE_H

#include <array>
#include <chrono>
#include <deque>
#include <list>
#include <unordered_map>

#include "isa/inst.h"
#include "sim/stats.h"

namespace ufc {
namespace sim {

class Timeline;

/// Engine time resolution: one tick is 2^-kTickBits cycle.
inline constexpr int kTickBits = 16;
inline constexpr double kTicksPerCycle =
    static_cast<double>(u64{1} << kTickBits);
/// Largest value one cost term may take: an instruction's compute, fill,
/// NoC or memory time.
inline constexpr u64 kMaxTermTicks = u64{1} << 61;
/// Largest compute clock a run may reach (about 1.4e14 cycles).  The
/// engines check the clock after every instruction; since every term is
/// at most kMaxTermTicks, no update between two checks can wrap.
inline constexpr u64 kMaxClockTicks = u64{1} << 63;

namespace detail {

/** Throw the SimError of a run whose `what` left the tick range. */
[[noreturn]] void throwTickRange(const char *what, double cycles);

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

/** The compute-clock value past which a run stops: the maxCycles bound
 *  in ticks (0 = none; a bound past the tick range saturates), capped
 *  at kMaxClockTicks. */
u64 clockLimitTicks(u64 maxCycles);

/** Throw for a compute clock past clockLimitTicks(maxCycles): the
 *  maxCycles TimeoutError when that bound tripped, else the tick-range
 *  SimError. */
[[noreturn]] void throwClockLimit(u64 clockTicks, u64 maxCycles,
                                  u64 instCount);

/** Count one armed host-deadline poll (the clock syscall, not the cheap
 *  modulo skip) in the metrics registry.  Observation only. */
void countDeadlinePoll();

/** Count a finished run's dynamic instructions in
 *  ufc_engine_steps_total.  Observation only. */
void countSteps(u64 instructions);

} // namespace detail

/**
 * Round a non-negative cycle count to the nearest tick (ties up).  The
 * one conversion point of both engines and of
 * compiler::costProgram; monotone, so a larger cost never rounds to
 * fewer ticks.  Throws SimError for a NaN, a negative value or one
 * above kMaxTermTicks.
 */
inline u64
toTicks(double cycles, const char *what)
{
    const double t = cycles * kTicksPerCycle;
    if (!(t >= 0.0 && t <= static_cast<double>(kMaxTermTicks))) [[unlikely]]
        detail::throwTickRange(what, cycles);
    return static_cast<u64>(static_cast<i64>(t + 0.5));
}

/** Ticks as cycles (exact below 2^53 ticks). */
inline double
fromTicks(u64 ticks)
{
    return static_cast<double>(ticks) / kTicksPerCycle;
}

/** `n * ticks`, or SimError when the product leaves the u64 range. */
inline u64
mulTicks(u64 n, u64 ticks, const char *what)
{
    u64 out;
    if (__builtin_mul_overflow(n, ticks, &out)) [[unlikely]]
        detail::throwTickRange(what, static_cast<double>(n) *
                                         fromTicks(ticks));
    return out;
}

/** `acc += ticks`, or SimError when the sum leaves the u64 range. */
inline void
addTicks(u64 &acc, u64 ticks, const char *what)
{
    u64 sum;
    if (__builtin_add_overflow(acc, ticks, &sum)) [[unlikely]]
        detail::throwTickRange(what, fromTicks(acc) + fromTicks(ticks));
    acc = sum;
}

/**
 * A run's statistics in engine units, accumulated by both engines and
 * converted to a RunStats once.  Cycle figures are ticks; byte figures
 * are integer-valued doubles, exact below 2^53 bytes.  An opcode's
 * attributed cycles, the dependency stalls and the pipeline fill are
 * not stored: toRunStats() derives them, so the RunStats invariants
 * hold by construction.
 */
struct TickStats
{
    struct Op
    {
        u64 count = 0;
        u64 compute = 0;
        u64 stall = 0;
        u64 fill = 0;
        double hbmBytes = 0.0;
    };

    std::array<Op, isa::kNumHwOps> ops{};
    std::array<u64, isa::kNumResources> busy{};
    double hbmBytes = 0.0;
    u64 hbmBusy = 0;
    double spadHitBytes = 0.0;
    u64 instCount = 0;
    u64 hbmBound = 0; ///< wait covered by transfer time
    u64 spadSpill = 0;
    double spadWritebackBytes = 0.0;
    u64 spadEvictions = 0;

    RunStats toRunStats() const;
};

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
     *  (the default), and so does a bound past the tick range, such as
     *  UINT64_MAX.  Deterministic: the trip point depends only on the
     *  instruction stream. */
    void
    setMaxCycles(u64 cycles)
    {
        maxCycles_ = cycles;
        limit_ = detail::clockLimitTicks(cycles);
    }

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
    u64 limit_ = kMaxClockTicks; ///< detail::clockLimitTicks(maxCycles_)
    std::chrono::steady_clock::time_point hostDeadline_{};

    u64 computeClock_ = 0;
    u64 memClock_ = 0;
    std::deque<u64> recentComputeDone_;
    TickStats stats_;
};

} // namespace sim
} // namespace ufc

#endif // UFC_SIM_ENGINE_H
