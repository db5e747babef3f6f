/**
 * @file
 * Bytecode executor: runs a compiled compiler::Program through the exact
 * cycle model of sim/engine.h as a tight dispatch loop.
 *
 * This is the one engine every model runs a job on.  It replicates the
 * arithmetic of the reference trace-IR engine (sim/engine.h, kept for
 * the tests to compare against) operation for operation — same
 * expressions, same evaluation order, same divisions — over the
 * pre-computed cost-table terms, so its RunStats (and an attached
 * Timeline, and a TimeoutError trip) are bit-identical to the
 * reference's.  What changes is the cost per instruction:
 *   - no virtual cost-model calls (terms come from the Program's
 *     per-machine cost table, indexed by each BcInst's shape id),
 *   - the scratchpad is a dense slot array with an intrusive LRU list
 *     instead of unordered_map + std::list,
 *   - the prefetch window is a flat ring buffer instead of a deque,
 *   - fused runs (BcInst::runLen > 1) iterate Stream instructions
 *     without re-dispatching on kind or phase events.
 *
 * Thread safety: one engine per run; engines on distinct threads may
 * share one (immutable) Program.
 */

#ifndef UFC_SIM_BC_ENGINE_H
#define UFC_SIM_BC_ENGINE_H

#include <chrono>
#include <vector>

#include "compiler/bytecode.h"
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
     *  (the default).  Deterministic: the trip point depends only on
     *  the Program. */
    void setMaxCycles(u64 cycles) { maxCycles_ = cycles; }
    /** Cooperative host-side deadline: run() polls the wall clock every
     *  kDeadlinePollPeriod instructions and throws ufc::TimeoutError
     *  once it passes.  The default epoch time point disarms it. */
    void
    setHostDeadline(std::chrono::steady_clock::time_point deadline)
    {
        hostDeadline_ = deadline;
    }

    /** Execute the whole Program and return the finished statistics
     *  (totalCycles defined as the fixed-order per-opcode sum). */
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
    template <bool WithTimeline> void step(const compiler::BcInst &inst);
    void applyPhaseEvent(const compiler::PhaseEvent &ev);

    double spadAccess(const compiler::BcBuf &buf, double &writebackBytes);
    void lruUnlink(u32 slot);
    void lruPushFront(u32 slot);

    const compiler::Program *program_;
    // The Program's cost table, read once per step.
    const compiler::CostRow *costs_;
    double fill_; ///< Program::fillCycles
    int window_;
    Timeline *timeline_ = nullptr;
    u64 maxCycles_ = 0;
    std::chrono::steady_clock::time_point hostDeadline_{};

    double computeClock_ = 0.0;
    double memClock_ = 0.0;

    // Prefetch-window ring buffer mirroring the reference's deque: the
    // deque only ever reads the element `window_` from the back and
    // trims the front beyond 4 * window_, so a fixed ring of that
    // capacity holds every value that can still be observed.
    std::vector<double> ring_;
    size_t ringStart_ = 0;
    size_t ringSize_ = 0;

    // Scratchpad state.
    std::vector<Slot> slots_;
    u32 lruHead_ = kNil;
    u32 lruTail_ = kNil;
    double spadUsed_ = 0.0;
    u64 spadEvictions_ = 0;

    RunStats stats_;
};

} // namespace sim
} // namespace ufc

#endif // UFC_SIM_BC_ENGINE_H
