/**
 * @file
 * Bytecode executor: runs a compiled compiler::Program through the exact
 * cycle model of sim/engine.h as a tight dispatch loop.
 *
 * This is the one engine every model runs a job on.  It computes what
 * the reference trace-IR engine (sim/engine.h, kept for the tests to
 * compare against) computes, on the same integer time base, over the
 * Program's pre-computed cost-table terms, so its RunStats (and an
 * attached Timeline, and a TimeoutError trip) are bit-identical to the
 * reference's.  What changes is the cost per instruction:
 *   - no virtual cost-model calls (terms come from the Program's
 *     per-machine cost table, indexed by each BcInst's shape id),
 *   - whatever depends only on an instruction's shape (counts, compute,
 *     fill, busy cycles, streamed traffic) is one dot product of the
 *     body's per-shape execution counts with the cost table after the
 *     loop; the loop keeps only the clocks, the stall split and the
 *     scratchpad walk of Mem instructions,
 *   - the scratchpad is a dense slot array with an intrusive LRU list
 *     instead of unordered_map + std::list,
 *   - the prefetch window is a flat ring buffer instead of a deque.
 *
 * Thread safety: one engine per run; engines on distinct threads may
 * share one (immutable) Program.
 */

#ifndef UFC_SIM_BC_ENGINE_H
#define UFC_SIM_BC_ENGINE_H

#include <chrono>
#include <vector>

#include "compiler/bytecode.h"
#include "sim/engine.h"
#include "sim/stats.h"

namespace ufc {
namespace sim {

class Timeline;

class BytecodeEngine
{
  public:
    /// Default bound on how far the memory engine runs ahead of compute;
    /// RunOptions::prefetchWindow overrides it per run (0 = no lookahead;
    /// the -1 RunOptions sentinel selects this default before the engine
    /// is constructed).
    static constexpr int kDefaultPrefetchWindow = 16;
    /// Instructions between host-deadline wall-clock polls.
    static constexpr u64 kDeadlinePollPeriod = 1024;

    /** `program` must outlive the engine and must be a single-chip
     *  Program (composed Programs are decomposed by ComposedModel). */
    BytecodeEngine(const compiler::Program *program, int prefetchWindow);

    /** Attach (or detach with nullptr) an event-stream recorder.  The
     *  recorder only observes; the schedule and RunStats are identical
     *  with or without it. */
    void setTimeline(Timeline *timeline) { timeline_ = timeline; }
    /** Simulated-cycle watchdog: run() throws ufc::TimeoutError (a
     *  SimError) once the compute clock passes `cycles`.  0 disables
     *  (the default), and so does a bound past the tick range, such as
     *  UINT64_MAX.  Deterministic: the trip point depends only on the
     *  Program. */
    void
    setMaxCycles(u64 cycles)
    {
        maxCycles_ = cycles;
        limit_ = detail::clockLimitTicks(cycles);
    }
    /** Cooperative host-side deadline: run() polls the wall clock every
     *  kDeadlinePollPeriod instructions and throws ufc::TimeoutError
     *  once it passes.  The default epoch time point disarms it. */
    void
    setHostDeadline(std::chrono::steady_clock::time_point deadline)
    {
        hostDeadline_ = deadline;
    }

    /** Execute the whole Program and return the finished statistics.
     *  Throws SimError when a clock or an accumulator would leave the
     *  tick range. */
    RunStats run();

  private:
    /// Dense-slot scratchpad entry; prev/next form an intrusive LRU
    /// list over resident slots (head = most recent, tail = eviction
    /// candidate), replicating the reference scratchpad's std::list
    /// semantics.
    struct Slot
    {
        double bytes = 0.0;
        bool dirty = false;
        bool resident = false;
        u32 prev = kNil;
        u32 next = kNil;
    };

    static constexpr u32 kNil = 0xffffffffu;

    template <bool WithTimeline> void exec();
    /** Memory time of Mem instruction `b`; accounts its traffic and
     *  leaves its bytes in memBytes_. */
    u64 memStep(const compiler::BcInst &b, u8 op);
    /** Add the per-shape terms: counts times the cost table. */
    void addShapeTerms();
    void applyPhaseEvent(const compiler::PhaseEvent &ev);

    double spadAccess(const compiler::BcBuf &buf, double &writebackBytes);
    void lruUnlink(u32 slot);
    void lruPushFront(u32 slot);

    const compiler::Program *program_;
    // The Program's cost table, read once per step.
    const compiler::CostRow *costs_;
    int window_;
    Timeline *timeline_ = nullptr;
    u64 maxCycles_ = 0;
    u64 limit_ = kMaxClockTicks; ///< detail::clockLimitTicks(maxCycles_)
    std::chrono::steady_clock::time_point hostDeadline_{};

    u64 computeClock_ = 0;

    // Prefetch window: the last `window_` completion times.  The
    // reference's deque is only ever read `window_` entries from its
    // back, so this ring holds every value it can observe.  Zeros stand
    // in for the entries before the first `window_` instructions: no
    // memory phase starts before tick 0.
    std::vector<u64> ring_;

    // Scratchpad state.
    std::vector<Slot> slots_;
    u32 lruHead_ = kNil;
    u32 lruTail_ = kNil;
    double spadUsed_ = 0.0;
    double memBytes_ = 0.0; ///< the last Mem instruction's traffic

    TickStats stats_;
};

} // namespace sim
} // namespace ufc

#endif // UFC_SIM_BC_ENGINE_H
