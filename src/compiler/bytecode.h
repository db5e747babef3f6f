/**
 * @file
 * Trace-to-bytecode JIT: the compiled Program format and its builder.
 *
 * The cycle engine used to re-interpret the heavyweight trace IR on every
 * run: each issue() paid four virtual cost-model calls, an operand-vector
 * walk through an unordered_map-backed scratchpad, and a deque-based
 * prefetch window.  A Program lowers a trace *once* into a dense array of
 * fixed-size BcInst records with every operand buffer pre-resolved to a
 * dense scratchpad slot, so execution (sim/bc_engine.h) is a tight
 * dispatch loop over plain arrays — the shape riposte's TraceInst bytecode
 * and nullc's lowering context use for the same reason.
 *
 * Lower once, cost per machine.  A Program has two parts:
 *   - the *lowered body* (LoweredBody): records, operand rows, loops,
 *     phase events and the cost-shape table.  It depends only
 *     on the trace and the LoweringOptions the lowering read, never on
 *     the machine, and is shared (not copied) by every Program re-costed
 *     from it;
 *   - the per-machine *cost table* (Program::costs): one CostRow per
 *     CostShape, plus the machine constants (HBM bandwidth, scratchpad
 *     size, pipeline fill).  recost() evaluates a MachinePerf once per
 *     shape — a few hundred rows — instead of once per record.
 *
 * Bit-exactness contract (enforced by tests/test_bytecode.cpp and
 * test_golden.cpp): executing a Program yields a RunStats bit-identical
 * to feeding the same lowering through the reference trace-IR engine
 * (AcceleratorModel::runTraceIr) — cycles, energy inputs, per-op
 * attribution, stall causes and timeline slices.  Both engines run on
 * the exact integer time base of sim/engine.h (u64 ticks of 2^-16
 * cycle), so the contract rests on rounding, not on evaluation order:
 *   - every cycle term is rounded to ticks once, by sim::toTicks, from
 *     the same double the reference engine rounds per instruction:
 *     computeTicks from computeCycles, busyLaneTicks from
 *     computeCycles * laneFraction, nocTicks from nocCycles,
 *     Program::fillTicks from pipelineFillCycles, and staticMemTicks
 *     from staticFetchBytes / hbmBytesPerCycle;
 *   - a Mem instruction's memory time is rounded the same way, from
 *     (fetch + write-back bytes) / hbmBytesPerCycle;
 *   - byte counts are integers, so their double sums are exact in any
 *     order;
 *   - past that, the engines only add, subtract and compare ticks,
 *     which is exact, so whatever depends only on an instruction's
 *     shape may be summed per shape (LoweredBody::shapeCounts) instead
 *     of per instruction;
 *   - transient refs and zero-byte streamed refs are dropped at compile
 *     time only because they provably contribute nothing to engine state
 *     or statistics.
 */

#ifndef UFC_COMPILER_BYTECODE_H
#define UFC_COMPILER_BYTECODE_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "compiler/lowering.h"
#include "isa/inst.h"
#include "trace/trace.h"

namespace ufc {
namespace sim {
class MachinePerf; // sim/engine.h
} // namespace sim

namespace compiler {

/**
 * Read-only array shared by every Program that holds it: copying a
 * SharedArray copies a pointer, never the elements.  edit() is the one
 * way to change the contents, and it copies them first unless this view
 * is their only owner, so a Program re-costed from another never sees
 * the other's edits.  Published Programs are const, so edit() only runs
 * while a Program is being built or, in tests, hand-mutated.
 */
template <typename T>
class SharedArray
{
  public:
    SharedArray() = default;

    std::size_t size() const { return v_ ? v_->size() : 0; }
    bool empty() const { return size() == 0; }
    const T *data() const { return v_ ? v_->data() : nullptr; }
    const T *begin() const { return data(); }
    const T *end() const { return data() + size(); }
    const T &operator[](std::size_t i) const { return (*v_)[i]; }

    /** Mutable contents, unshared first (copy-on-write). */
    std::vector<T> &
    edit()
    {
        if (!v_)
            v_ = std::make_shared<std::vector<T>>();
        else if (v_.use_count() > 1)
            v_ = std::make_shared<std::vector<T>>(*v_);
        return *v_;
    }

    /** Both views hold the same elements (one lowering, two costings). */
    bool
    sharesWith(const SharedArray &o) const
    {
        return v_ != nullptr && v_ == o.v_;
    }

  private:
    std::shared_ptr<std::vector<T>> v_;
};

/** Execution class of one BcInst. */
enum class BcKind : u8
{
    /// No cached operands: the memory phase is fully pre-computed
    /// (CostShape::staticFetchBytes / CostRow::staticMemTicks).
    Stream,
    /// At least one operand goes through the scratchpad model; the
    /// executor walks the BcBuf records in operand order.
    Mem,
};

/** One pre-resolved operand reference (transients are compiled away). */
struct BcBuf
{
    u64 id = 0;          ///< original buffer id (diagnostics only)
    double bytes = 0.0;  ///< region size, pre-converted to double
    u32 slot = kNoSlot;  ///< dense scratchpad slot; kNoSlot when streamed
    bool write = false;
    bool streamed = false;

    static constexpr u32 kNoSlot = 0xffffffffu;
};

/**
 * The machine-independent inputs of one instruction's cost terms: the
 * HwInst fields a MachinePerf reads, plus the streamed operand bytes of a
 * Stream instruction.  A Mem instruction's shape always has
 * staticFetchBytes == 0 (its traffic is dynamic), so the executor may
 * charge a shape's streamed bytes to every execution of it.  The builder
 * interns one row per distinct shape; BcInst::shape indexes the table.
 */
struct CostShape
{
    double staticFetchBytes = 0.0; ///< Stream: streamed bytes, operand order
    u64 words = 0;
    u64 work = 0;
    u32 logDegree = 0;
    u32 batch = 1;
    u8 op = 0; ///< isa::HwOp

    bool
    operator==(const CostShape &o) const
    {
        // Bitwise on the double: the table must keep every distinct
        // accumulation result apart.
        return op == o.op && logDegree == o.logDegree &&
               batch == o.batch && words == o.words && work == o.work &&
               std::bit_cast<u64>(staticFetchBytes) ==
                   std::bit_cast<u64>(o.staticFetchBytes);
    }
};

/**
 * One machine's cost terms for one CostShape (Program::costs), in engine
 * ticks (sim/engine.h).  The shape's op and streamed bytes are repeated
 * here so the executor reads one row per instruction.
 */
struct CostRow
{
    u64 computeTicks = 0;          ///< MachinePerf::computeCycles
    u64 busyLaneTicks = 0;         ///< computeCycles * laneFraction
    u64 nocTicks = 0;              ///< MachinePerf::nocCycles
    /// staticFetchBytes / hbmBytesPerCycle (read for Stream only).
    u64 staticMemTicks = 0;
    double staticFetchBytes = 0.0; ///< CostShape::staticFetchBytes
    u8 resource = 0;               ///< isa::Resource
    u8 op = 0;                     ///< CostShape::op
};

/**
 * One bytecode instruction: its cost shape and execution shape, in 12
 * bytes; the cost terms live in the Program's per-machine table, so one
 * record serves every machine.
 */
struct BcInst
{
    u32 shape = 0;     ///< CostShape / CostRow index
    u32 bufBegin = 0;  ///< first BcBuf (Mem kind)
    u16 bufCount = 0;  ///< BcBuf count (Mem kind)
    BcKind kind = BcKind::Stream;
};

static_assert(sizeof(BcInst) == 12, "BcInst must stay 12 bytes");

/**
 * Retired: the per-instruction disassembly side table.  Its fields
 * (log-degree, batch, words, work) now live once per shape in
 * LoweredBody::shapes.  The type and the always-empty Program::debug
 * remain only for source compatibility with existing size probes.
 */
struct BcDebug
{
};

/**
 * A phase marker between instructions: fires before instruction `inst`
 * (== code.size() for end-of-stream markers).  `name` indexes
 * LoweredBody::phaseNames; kEnd closes the innermost open phase.
 */
struct PhaseEvent
{
    u64 inst = 0;
    i32 name = kEnd;

    static constexpr i32 kEnd = -1;
};

/**
 * A folded structural repeat: the `bodyLen` instructions ending at index
 * `end` (exclusive — the body is code[end - bodyLen, end)) execute
 * `trips` times back to back.  Loops come from InstSink::beginRepeat
 * offers the builder accepted; they never nest, never overlap, and their
 * bodies are all-Stream (no scratchpad state), so re-executing the body
 * is observable-identical to the unrolled stream.  Sorted by `end`.
 */
struct BcLoop
{
    u64 end = 0;      ///< one past the last body instruction
    u32 bodyLen = 0;  ///< body instruction count (>= 1)
    u64 trips = 0;    ///< total executions of the body (>= 2)
};

/**
 * Retired: a phase region the old phase cache memoized.  Whole runs are
 * memoized now (runner::ProgramCache), so no region is recorded.  The
 * type and the always-empty Program::segments remain only for source
 * compatibility with existing size probes, like BcDebug.
 */
struct PhaseSegment
{
};

/**
 * The machine-independent part of a Program: everything the lowering
 * and folding produce.  Every array is a SharedArray, so copying
 * a body (recost()) shares it instead of duplicating it.
 */
struct LoweredBody
{
    SharedArray<BcInst> code;
    SharedArray<BcBuf> bufs;
    SharedArray<BcLoop> loops;           ///< folded repeats, sorted by end
    SharedArray<PhaseEvent> phaseEvents;
    SharedArray<std::string> phaseNames; ///< owned; outlives the trace
    SharedArray<CostShape> shapes;       ///< distinct cost shapes
    /// How many times a run executes each shape (parallel to shapes),
    /// loop trips multiplied out.  ProgramBuilder counts them as it
    /// issues; they describe the code and loops as built, and the engine
    /// and cost_bounds refuse a body without one count per shape.
    SharedArray<u64> shapeCounts;
    u32 spadSlots = 0;                   ///< dense scratchpad slot count
};

namespace detail {

/**
 * Empty tag member counting live Program instances (process-wide).
 * Tests assert the runner's single-use eviction actually releases
 * compiled programs instead of retaining them for the whole batch.
 */
struct LiveCounter
{
    LiveCounter() noexcept { bump(); }
    LiveCounter(const LiveCounter &) noexcept { bump(); }
    LiveCounter(LiveCounter &&) noexcept { bump(); }
    LiveCounter &operator=(const LiveCounter &) noexcept = default;
    LiveCounter &operator=(LiveCounter &&) noexcept = default;
    ~LiveCounter();

  private:
    static void bump() noexcept;
};

} // namespace detail

/** Live Program instances right now (parts count individually). */
u64 livePrograms();
/** High-water mark of livePrograms() since the last reset. */
u64 peakLivePrograms();
/** Reset the peak to the current live count. */
void resetPeakLivePrograms();

/**
 * A compiled trace: a lowered body plus one machine's cost table —
 * everything AcceleratorModel::execute() needs, with no references back
 * to the Trace or the MachinePerf it came from.  Programs are immutable
 * once published and safe to share across threads — the runner's
 * ProgramCache hands one instance to every job with the same (model,
 * trace) pair, and re-costs the body for other machines whose lowering
 * key matches.
 *
 * A composed machine compiles to a Program with empty `code` and one
 * sub-Program per chip in `parts` (plus the PCIe link traffic the
 * partition computed); single-chip Programs have empty `parts`.
 */
struct Program : LoweredBody
{
    std::string workload;      ///< Trace::name (stamped into RunResult)
    std::string machine;       ///< model name the costs were evaluated for
    u64 traceHash = 0;         ///< trace::contentHash of the source trace
    /// MachinePerf::digest() of the costs; execute() rejects a Program
    /// whose digest differs from the executing model's.
    u64 machineDigest = 0;

    // Machine constants captured from the MachinePerf.
    double hbmBytesPerCycle = 1.0;
    double scratchpadBytes = 0.0;
    u64 fillTicks = 0;         ///< MachinePerf::pipelineFillCycles

    std::vector<CostRow> costs; ///< parallel to shapes

    std::vector<BcDebug> debug; ///< retired; always empty (see BcDebug)
    /// Retired; always empty (see PhaseSegment).
    std::vector<PhaseSegment> segments;

    // Composed-machine decomposition (see struct docs).
    std::vector<Program> parts;
    double pcieBytes = 0.0;
    u64 pcieTransfers = 0;

    bool composed() const { return !parts.empty(); }

    /// Instance accounting (see livePrograms()); stateless otherwise.
    detail::LiveCounter liveCounter;

    /** Instructions the executor steps, with loop bodies multiplied out
     *  — equals the IR interpreter's instruction count. */
    u64
    totalInsts() const
    {
        u64 n = code.size();
        for (const BcLoop &lp : loops)
            n += static_cast<u64>(lp.bodyLen) * (lp.trips - 1);
        return n;
    }

    /** Cost terms of instruction `b` on this Program's machine. */
    const CostRow &cost(const BcInst &b) const { return costs[b.shape]; }
    /** Cost shape (op, geometry, streamed bytes) of instruction `b`. */
    const CostShape &shape(const BcInst &b) const { return shapes[b.shape]; }
};

/**
 * Bind a lowered Program to one machine: capture its constants and
 * digest, and evaluate `perf` once per cost shape into `p.costs`, with
 * the same expressions the IR engine evaluates per instruction, rounded
 * to ticks once here.  Throws SimError when a term leaves the tick
 * range.
 */
void costProgram(Program &p, const sim::MachinePerf &perf,
                 const std::string &machineName);

/**
 * `lowered` re-costed for another machine: the result shares lowered's
 * body (no record is copied) and carries a fresh cost table from
 * `perf`.  Bit-identical to compiling the same trace for that machine
 * *provided* both lowerings read equal options — the caller's
 * obligation, which AcceleratorModel::loweringKey() makes checkable.
 * Composed Programs are rejected with ConfigError.
 */
Program recost(const Program &lowered, const sim::MachinePerf &perf,
               const std::string &machineName);

/**
 * One scratchpad-slot touch in a Program's def-use stream (see
 * slotAccesses()).  `inst` indexes Program::code; `write` mirrors the
 * BcBuf flag (a write access *defines* the slot's contents, a read
 * access *uses* them).  `id` is the lowering's buffer id — value-flow
 * analyses must check compiler::syntheticCiphertextId(id) before
 * treating the slot as a value (ciphertext-pool ids model locality
 * only); traffic analyses may use every access.
 */
struct SlotAccess
{
    u64 inst = 0;
    u32 slot = 0;
    u64 id = 0;
    double bytes = 0.0;
    bool write = false;
};

/**
 * Def-use export for the dataflow layer: every cached (scratchpad)
 * operand reference of a single-chip Program, in execution order —
 * program order over instructions, operand order within one — which is
 * exactly the order the engine's LRU walks them.  Streamed operands
 * never touch a slot and are omitted.  Composed Programs are rejected
 * with ConfigError; export each part instead.
 */
std::vector<SlotAccess> slotAccesses(const Program &p);

/**
 * InstSink that builds a lowered body: the bytecode emitter plugs into
 * the same Lowering pipeline as the analysis::VerifyingSink, so `--lint`
 * verification and JIT lowering compose in one pass over the instruction
 * stream (LoweringOptions::lint interposes the verifier in front of this
 * sink).  Single-use, like Lowering itself: issue everything, then call
 * finish() exactly once to seal the body.  The builder never sees
 * a machine; costProgram() binds one afterwards.
 */
class ProgramBuilder : public isa::InstSink
{
  public:
    /** The builder writes `out`'s LoweredBody part (normally fresh);
     *  `out` must outlive the builder. */
    explicit ProgramBuilder(Program *out);

    void issue(const isa::HwInst &inst) override;
    void beginPhase(const char *name) override;
    void endPhase() override;

    /** Accept repeat folds: the body is compiled once and recorded as a
     *  Program loop (all-Stream bodies only; a body that touches the
     *  scratchpad is unrolled by re-issuing it trips-1 times, since its
     *  memory behaviour depends on LRU state). */
    bool beginRepeat(u64 trips) override;
    void endRepeat() override;

    /** Seal the body: record the slot count.  The trip-weighted
     *  per-shape execution counts are kept as records are issued. */
    void finish();

  private:
    /** One remembered beginPhase() pointer and the index it named. */
    struct PhaseHint
    {
        std::uintptr_t name = 0;
        u32 idx = 0;
    };
    static constexpr int kPhaseHintBits = 6;

    /**
     * Open-addressing index over an append-only array owned by the
     * caller: each cell holds an array index + 1 (0 = empty), and the
     * power-of-two table stays under half full.  A key's first cell is
     * the top bits of its hash times 2^64/phi (Fibonacci hashing), so
     * callers' hashes need to be distinct, not well mixed.  Interning
     * runs once per operand and per instruction, so a hit costs a
     * multiply and one or two compares, and a miss allocates nothing
     * until the table doubles.
     */
    class FlatIndex
    {
      public:
        explicit FlatIndex(int bits)
            : cells_(std::size_t{1} << bits, 0), shift_(64 - bits)
        {
        }

        /** Entries the table holds before it next doubles. */
        std::size_t capacity() const { return cells_.size() / 2; }

        /**
         * The index of the entry hashing to `hash` that `same(k)`
         * accepts, or `size` — the index the caller must append the new
         * entry at — after recording it.  `rehash(k)` re-hashes entry
         * k < size when the table doubles.
         */
        template <typename Same, typename Rehash>
        u32 findOrAdd(u64 hash, u32 size, Same &&same, Rehash &&rehash);

      private:
        /** The cell holding the entry `same` accepts, else the empty
         *  cell ending the probe sequence. */
        template <typename Same>
        std::size_t probe(u64 hash, Same &&same) const;

        std::vector<u32> cells_;
        int shift_; ///< 64 - log2(cells_.size())
    };

    u32 slotFor(u64 id);
    u32 shapeFor(const CostShape &shape);
    u32 phaseIndex(const char *name);

    Program *out_;
    // The body's arrays, unshared for the builder's lifetime.
    std::vector<BcInst> &code_;
    std::vector<BcBuf> &bufs_;
    std::vector<PhaseEvent> &events_;
    std::vector<CostShape> &shapes_;
    std::vector<u64> &counts_; ///< trip-weighted, parallel to shapes_
    std::vector<u64> slotIds_; ///< buffer id of each scratchpad slot
    FlatIndex slotIdx_;
    FlatIndex shapeIdx_;
    FlatIndex phaseIdx_; ///< over out_->phaseNames
    /// Pointer-keyed cache in front of phaseIdx_: lowerings pass the
    /// same literal for every op of a kind, so most lookups end at one
    /// pointer compare plus the content check a hit still needs (the
    /// InstSink::beginPhase contract lets a dead name's address come
    /// back with other text).
    std::array<PhaseHint, std::size_t{1} << kPhaseHintBits> phaseHints_{};
    // Open repeat offer (beginRepeat..endRepeat window).
    u64 repeatTrips_ = 0;
    u64 repeatStart_ = 0;      ///< code.size() at beginRepeat
    u64 repeatEvents_ = 0;     ///< phaseEvents.size() at beginRepeat
    bool repeatOpen_ = false;
    bool finished_ = false;
};

/**
 * Compile a trace for one machine: lower it with `opts` straight into a
 * ProgramBuilder (verifier interposed when `lint` is non-null, exactly as
 * in a simulation run), then cost the body with `perf`.  `traceHash` is
 * trace::contentHash(tr) when the caller already has it (the batch runner
 * hashes each trace once); 0 means "hash it here".  Throws the same typed
 * errors a lowering inside run() would.
 */
Program compileTrace(const trace::Trace &tr, const LoweringOptions &opts,
                     const sim::MachinePerf &perf,
                     const std::string &machineName,
                     analysis::DiagnosticReport *lint = nullptr,
                     u64 traceHash = 0);

/** Per-op admission hook for compileTraceStream (models that support a
 *  single scheme reject foreign ops here, with the same typed errors
 *  their whole-trace path throws).  Called before the op is lowered;
 *  `header` carries the trace parameters and name for diagnostics. */
using StreamOpCheck = std::function<void(const trace::Trace &header,
                                         const trace::TraceOp &op)>;

/**
 * Compile a trace straight from its text stream in bounded memory: a
 * trace::TraceReader feeds each validated op/mark into the Lowering as
 * it parses, so the full op vector is never materialized — traces larger
 * than memory flow through.  The resulting Program is identical to
 * compileTrace(readTrace(is), ...) for any stream writeTrace() produces.
 *
 * Chunk-protocol restrictions beyond the whole-file format (both throw
 * TraceError; writeTrace's canonical layout — header, then all phase
 * lines, then ops — never trips them):
 *   - header lines must precede the first op/phase line, since lowering
 *     geometry is derived from the header before the first op;
 *   - a phase marker for op i must arrive before op i's line (the
 *     lowering cannot retroactively open a region).
 *
 * `peakBufferedBytes`, when non-null, receives the reader's buffer
 * high-water mark (one partial line) so callers can assert boundedness.
 */
Program compileTraceStream(std::istream &is, const LoweringOptions &opts,
                           const sim::MachinePerf &perf,
                           const std::string &machineName,
                           analysis::DiagnosticReport *lint = nullptr,
                           const StreamOpCheck &opCheck = {},
                           std::size_t chunkBytes = std::size_t(64) << 10,
                           std::size_t *peakBufferedBytes = nullptr);

/**
 * Check the folded-loop invariants of a compiled Program and append
 * violations to `out`:
 *   bc-loop-invariant       a folded loop is malformed: out of bounds,
 *                           overlapping or unsorted, trivial (trips < 2
 *                           or empty body), containing a cached-operand
 *                           instruction, or spanning a phase marker
 * Programs produced by ProgramBuilder::finish() always pass; the rule
 * guards hand-built or mutated Programs (and regressions in the
 * builder's repeat folding).
 */
void verifyProgram(const Program &program,
                   analysis::DiagnosticReport &out);

/** Human-readable disassembly (inspect_trace --bytecode). */
void disassemble(const Program &program, std::ostream &os);

} // namespace compiler
} // namespace ufc

#endif // UFC_COMPILER_BYTECODE_H
