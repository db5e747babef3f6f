/**
 * @file
 * Bytecode compiler implementation: ProgramBuilder (an InstSink), the
 * fusion pass, the fused-op legality verifier and the disassembler.
 */

#include "compiler/bytecode.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <iomanip>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "analysis/diagnostic.h"
#include "common/error.h"
#include "sim/engine.h"
#include "trace/serialize.h"

namespace ufc {
namespace compiler {

namespace {

std::atomic<u64> gLivePrograms{0};
std::atomic<u64> gPeakLivePrograms{0};

} // namespace

void
detail::LiveCounter::bump() noexcept
{
    const u64 live =
        gLivePrograms.fetch_add(1, std::memory_order_relaxed) + 1;
    u64 peak = gPeakLivePrograms.load(std::memory_order_relaxed);
    while (peak < live &&
           !gPeakLivePrograms.compare_exchange_weak(
               peak, live, std::memory_order_relaxed)) {
    }
}

detail::LiveCounter::~LiveCounter()
{
    gLivePrograms.fetch_sub(1, std::memory_order_relaxed);
}

u64
livePrograms()
{
    return gLivePrograms.load(std::memory_order_relaxed);
}

u64
peakLivePrograms()
{
    return gPeakLivePrograms.load(std::memory_order_relaxed);
}

void
resetPeakLivePrograms()
{
    gPeakLivePrograms.store(gLivePrograms.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
}

const char *
fuseKindName(FuseKind kind)
{
    switch (kind) {
      case FuseKind::None: return "none";
      case FuseKind::KeySwitch: return "key_switch";
      case FuseKind::BlindRotate: return "blind_rotate";
      case FuseKind::Generic: return "generic";
    }
    return "unknown";
}

ProgramBuilder::ProgramBuilder(Program *out)
    : out_(out), code_(out->code.edit()), bufs_(out->bufs.edit()),
      events_(out->phaseEvents.edit()), shapes_(out->shapes.edit()),
      shapeIdx_(512, 0)
{
}

u32
ProgramBuilder::slotFor(u64 id)
{
    const auto it = slots_.find(id);
    if (it != slots_.end())
        return it->second;
    const u32 slot = static_cast<u32>(slots_.size());
    slots_.emplace(id, slot);
    return slot;
}

namespace {

u64
shapeHash(const CostShape &s)
{
    u64 h = trace::detail::kFnvOffset;
    trace::detail::mix64(h, std::bit_cast<u64>(s.staticFetchBytes));
    trace::detail::mix64(h, s.words ^ (s.work << 1));
    trace::detail::mix64(h, (static_cast<u64>(s.logDegree) << 40) ^
                                (static_cast<u64>(s.batch) << 8) ^ s.op);
    return h;
}

} // namespace

u32
ProgramBuilder::shapeFor(const CostShape &shape)
{
    // Runs once per issued instruction against a table of a few hundred
    // shapes: open addressing over a flat array keeps it a hash and one
    // or two compares.
    size_t mask = shapeIdx_.size() - 1;
    size_t i = static_cast<size_t>(shapeHash(shape)) & mask;
    while (shapeIdx_[i] != 0) {
        if (shapes_[shapeIdx_[i] - 1] == shape)
            return shapeIdx_[i] - 1;
        i = (i + 1) & mask;
    }
    const u32 id = static_cast<u32>(shapes_.size());
    shapes_.push_back(shape);
    shapeIdx_[i] = id + 1;
    if (2 * shapes_.size() > shapeIdx_.size()) {
        std::vector<u32> grown(2 * shapeIdx_.size(), 0);
        mask = grown.size() - 1;
        for (u32 k = 0; k < shapes_.size(); ++k) {
            size_t j = static_cast<size_t>(shapeHash(shapes_[k])) & mask;
            while (grown[j] != 0)
                j = (j + 1) & mask;
            grown[j] = k + 1;
        }
        shapeIdx_.swap(grown);
    }
    return id;
}

void
ProgramBuilder::issue(const isa::HwInst &inst)
{
    BcInst b;
    // Everything a MachinePerf reads from the instruction; the cost
    // terms themselves are evaluated per shape by costProgram().
    CostShape shape;
    shape.op = static_cast<u8>(inst.op);
    shape.logDegree = inst.logDegree;
    shape.batch = inst.batch;
    shape.words = inst.words;
    shape.work = inst.work;

    bool cached = false;
    for (const auto &ref : inst.buffers) {
        if (!ref.transient && !ref.streaming) {
            cached = true;
            break;
        }
    }

    if (!cached) {
        // No scratchpad interaction: the whole memory phase folds into
        // the shape's streamed-bytes constant.  Transient refs contribute
        // exactly nothing in the IR engine (access() returns 0, hit
        // accounting excludes them), and the streamed-bytes sum keeps
        // operand order, so the compile-time accumulation is
        // bit-identical to the runtime one.
        b.kind = BcKind::Stream;
        double fetch = 0.0;
        for (const auto &ref : inst.buffers)
            if (!ref.transient)
                fetch += static_cast<double>(ref.bytes);
        shape.staticFetchBytes = fetch;
    } else {
        b.kind = BcKind::Mem;
        b.bufBegin = static_cast<u32>(bufs_.size());
        u32 count = 0;
        for (const auto &ref : inst.buffers) {
            if (ref.transient)
                continue; // provably a no-op in the IR engine
            if (ref.streaming && ref.bytes == 0)
                continue; // adds 0.0 everywhere: also a no-op
            BcBuf buf;
            buf.id = ref.id;
            buf.bytes = static_cast<double>(ref.bytes);
            buf.write = ref.write;
            buf.streamed = ref.streaming;
            if (!ref.streaming)
                buf.slot = slotFor(ref.id);
            bufs_.push_back(buf);
            ++count;
        }
        UFC_EXPECT(count <= 0xffff, ConfigError,
                   "instruction with " << count
                       << " operand buffers exceeds the bytecode limit");
        b.bufCount = static_cast<u16>(count);
    }
    b.shape = shapeFor(shape);
    code_.push_back(b);
}

void
ProgramBuilder::beginPhase(const char *name)
{
    const std::string key(name ? name : "");
    u32 idx;
    const auto it = phaseNameIdx_.find(key);
    if (it != phaseNameIdx_.end()) {
        idx = it->second;
    } else {
        idx = static_cast<u32>(out_->phaseNames.size());
        out_->phaseNames.edit().push_back(key);
        phaseNameIdx_.emplace(key, idx);
    }
    events_.push_back(PhaseEvent{code_.size(), static_cast<i32>(idx)});
}

void
ProgramBuilder::endPhase()
{
    events_.push_back(PhaseEvent{code_.size(), PhaseEvent::kEnd});
}

bool
ProgramBuilder::beginRepeat(u64 trips)
{
    // Nested offers are refused: the inner producer unrolls, and the
    // outer fold (if any) still sees byte-identical iterations.
    if (repeatOpen_ || trips < 2)
        return false;
    repeatOpen_ = true;
    repeatTrips_ = trips;
    repeatStart_ = code_.size();
    repeatEvents_ = events_.size();
    return true;
}

void
ProgramBuilder::endRepeat()
{
    UFC_EXPECT(repeatOpen_, ConfigError,
               "endRepeat without a matching accepted beginRepeat");
    UFC_EXPECT(events_.size() == repeatEvents_, ConfigError,
               "phase markers inside a folded repeat body (inst#"
                   << repeatStart_ << "): the marker would fire once but "
                      "the body executes " << repeatTrips_ << " times");
    repeatOpen_ = false;

    const u64 end = code_.size();
    if (end == repeatStart_)
        return; // empty body: repeating nothing is nothing

    bool pure = true;
    for (u64 i = repeatStart_; i < end; ++i) {
        if (code_[i].kind != BcKind::Stream) {
            pure = false;
            break;
        }
    }
    if (!pure) {
        // A body with cached operands has LRU-dependent memory cost, so
        // a structural loop would diverge from the unrolled stream.
        // Unroll here instead: BcInst records are value types and
        // copies may share the (read-only) BcBuf ranges.
        const u64 bodyLen = end - repeatStart_;
        for (u64 t = 1; t < repeatTrips_; ++t)
            for (u64 i = 0; i < bodyLen; ++i)
                code_.push_back(code_[repeatStart_ + i]);
        return;
    }

    BcLoop lp;
    lp.end = end;
    lp.bodyLen = static_cast<u32>(end - repeatStart_);
    lp.trips = repeatTrips_;
    out_->loops.edit().push_back(lp); // emission order keeps it sorted
}

void
ProgramBuilder::finish()
{
    if (finished_)
        return;
    finished_ = true;
    out_->spadSlots = static_cast<u32>(slots_.size());
    fuse();
}

namespace {

/** Innermost fusion context: "key_switch"/"blind_rotate" anywhere on the
 *  open-phase stack wins over the generic tag. */
FuseKind
classifyRun(const std::vector<i32> &stack,
            const SharedArray<std::string> &names)
{
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        const std::string &name = names[static_cast<size_t>(*it)];
        if (name == "key_switch")
            return FuseKind::KeySwitch;
        if (name == "blind_rotate")
            return FuseKind::BlindRotate;
    }
    return FuseKind::Generic;
}

} // namespace

void
ProgramBuilder::fuse()
{
    auto &code = code_;
    const auto &events = events_;

    // boundary[i] == a phase marker fires immediately before inst i, or
    // a folded loop starts/ends there (the executor's loop-back check
    // fires between instructions, so a fused run must not straddle it).
    std::vector<u8> boundary(code.size() + 1, 0);
    for (const auto &ev : events)
        boundary[static_cast<size_t>(ev.inst)] = 1;
    for (const auto &lp : out_->loops) {
        boundary[static_cast<size_t>(lp.end)] = 1;
        boundary[static_cast<size_t>(lp.end - lp.bodyLen)] = 1;
    }

    // Replay the phase events alongside the scan so each run head knows
    // its enclosing phase (fusion context tag).
    std::vector<i32> stack;
    size_t ev = 0;
    size_t i = 0;
    while (i < code.size()) {
        while (ev < events.size() && events[ev].inst == i) {
            if (events[ev].name == PhaseEvent::kEnd) {
                if (!stack.empty())
                    stack.pop_back();
            } else {
                stack.push_back(events[ev].name);
            }
            ++ev;
        }
        if (code[i].kind != BcKind::Stream) {
            ++i;
            continue;
        }
        // Maximal run of Stream insts with no interior phase marker.
        size_t j = i + 1;
        while (j < code.size() && code[j].kind == BcKind::Stream &&
               !boundary[j] && (j - i) < 0xffff)
            ++j;
        if (j - i >= 2) {
            code[i].runLen = static_cast<u16>(j - i);
            code[i].fuse = classifyRun(stack, out_->phaseNames);
            ++out_->fusedRuns;
            out_->fusedInsts += j - i;
        }
        i = j; // no events strictly inside (i, j) by construction
    }
}

namespace {

/** Sizing pre-pass: counts the records the real lowering will emit so
 *  the body's vectors can be reserved exactly — growth reallocations
 *  (copy + fresh-page faults) otherwise cost more than this pass.  Accepts
 *  repeat folds like the builder, so folded bodies are counted once. */
struct SizingSink final : isa::InstSink
{
    u64 insts = 0;
    u64 bufs = 0;

    void
    issue(const isa::HwInst &inst) override
    {
        ++insts;
        bool cached = false;
        for (const auto &ref : inst.buffers) {
            if (!ref.transient && !ref.streaming) {
                cached = true;
                break;
            }
        }
        if (!cached)
            return;
        for (const auto &ref : inst.buffers) {
            if (ref.transient)
                continue;
            if (ref.streaming && ref.bytes == 0)
                continue;
            ++bufs;
        }
    }
    bool beginRepeat(u64) override { return true; }
};

} // namespace

void
costProgram(Program &p, const sim::MachinePerf &perf,
            const std::string &machineName)
{
    p.machine = machineName;
    p.machineDigest = perf.digest();
    p.hbmBytesPerCycle = perf.hbmBytesPerCycle();
    p.scratchpadBytes = perf.scratchpadBytes();
    p.fillCycles = perf.pipelineFillCycles();
    p.costs.clear();
    p.costs.reserve(p.shapes.size());
    isa::HwInst inst; // no operands: no MachinePerf reads them
    for (const CostShape &s : p.shapes) {
        inst.op = static_cast<isa::HwOp>(s.op);
        inst.logDegree = s.logDegree;
        inst.batch = s.batch;
        inst.words = s.words;
        inst.work = s.work;
        // The IR engine's issue-time expressions, once per shape.
        CostRow c;
        c.computeCycles = perf.computeCycles(inst);
        c.busyLaneCycles = c.computeCycles * perf.laneFraction(inst);
        c.nocCycles = perf.nocCycles(inst);
        // Same division the engine performs (not a multiply-by-inverse).
        c.staticFetchBytes = s.staticFetchBytes;
        c.staticMemCycles = s.staticFetchBytes / p.hbmBytesPerCycle;
        c.resource = static_cast<u8>(perf.resourceFor(inst));
        c.op = s.op;
        p.costs.push_back(c);
    }
}

Program
recost(const Program &lowered, const sim::MachinePerf &perf,
       const std::string &machineName)
{
    UFC_EXPECT(!lowered.composed(), ConfigError,
               "recost: composed Program '"
                   << lowered.workload
                   << "' has no single lowered body; re-cost each part");
    Program p;
    static_cast<LoweredBody &>(p) = lowered; // shares every array
    p.workload = lowered.workload;
    p.traceHash = lowered.traceHash;
    costProgram(p, perf, machineName);
    return p;
}

Program
compileTrace(const trace::Trace &tr, const LoweringOptions &opts,
             const sim::MachinePerf &perf, const std::string &machineName,
             analysis::DiagnosticReport *lint, u64 traceHash)
{
    Program p;
    p.workload = tr.name;
    p.traceHash = traceHash != 0 ? traceHash : trace::contentHash(tr);
    {
        // No lint and no cost model on the sizing pass; the verifying
        // pass below sees the identical stream.  The counts are a
        // reservation hint only — an undercount (e.g. a future builder
        // unrolling an impure repeat the sizing sink folded) just means
        // one vector growth, not an error.
        SizingSink sizing;
        LoweringOptions sopts = opts;
        sopts.lint = nullptr;
        Lowering presize(&tr, sopts, &sizing);
        presize.run();
        p.code.edit().reserve(sizing.insts);
        p.bufs.edit().reserve(sizing.bufs);
    }
    ProgramBuilder builder(&p);
    LoweringOptions lopts = opts;
    lopts.lint = lint;
    Lowering lowering(&tr, lopts, &builder);
    lowering.run();
    builder.finish();
    costProgram(p, perf, machineName);
    return p;
}

namespace {

/**
 * TraceSink chaining TraceReader -> Lowering -> ProgramBuilder: each
 * validated op lowers as soon as its line parses, so memory held is the
 * reader's partial line plus the marker queue — never the op vector.
 * Enforces the chunk-protocol restrictions documented on
 * compileTraceStream (header first, markers before their ops).
 */
class StreamingCompileSink final : public trace::TraceSink
{
  public:
    StreamingCompileSink(Program *out, const LoweringOptions &opts,
                         const sim::MachinePerf &perf,
                         const std::string &machineName,
                         const StreamOpCheck &opCheck)
        : out_(out), opts_(opts), perf_(perf), machineName_(machineName),
          builder_(out),
          opCheck_(opCheck)
    {
    }

    void
    onHeader(const trace::Trace &header) override
    {
        UFC_EXPECT(!lowering_, TraceError,
                   "streamed trace '"
                       << header_.name
                       << "': header line after op/phase lines (the "
                          "streaming compiler derives lowering geometry "
                          "from the header before the first op; "
                          "re-serialize with writeTrace)");
        header_ = header;
    }

    void
    onPhase(const trace::PhaseMark &mark) override
    {
        hasher_.phase(mark);
        ensureLowering();
        UFC_EXPECT(mark.opIndex >= opIdx_, TraceError,
                   "streamed trace '"
                       << header_.name << "': phase marker for op "
                       << mark.opIndex << " arrived after op "
                       << (opIdx_ - 1)
                       << " was already compiled (markers must precede "
                          "their ops in a streamed trace)");
        pending_.push_back(mark);
    }

    void
    onOp(const trace::TraceOp &op) override
    {
        hasher_.op(op);
        if (opCheck_)
            opCheck_(header_, op);
        ensureLowering();
        while (!pending_.empty() && pending_.front().opIndex <= opIdx_) {
            lowering_->streamMark(pending_.front());
            pending_.pop_front();
        }
        lowering_->streamOp(op);
        ++opIdx_;
    }

    void
    onEnd(const trace::Trace &header) override
    {
        // A header line after the last op refires onHeader only at the
        // next op/phase event, so catch the tail case here: geometry
        // already fed the lowering and must not change silently.
        if (lowering_) {
            UFC_EXPECT(sameHeader(header, header_), TraceError,
                       "streamed trace '"
                           << header_.name
                           << "': header line after op/phase lines (the "
                              "streaming compiler derives lowering "
                              "geometry from the header before the first "
                              "op; re-serialize with writeTrace)");
        } else {
            header_ = header;
        }
        ensureLowering();
        while (!pending_.empty()) {
            lowering_->streamMark(pending_.front());
            pending_.pop_front();
        }
        lowering_->finishStream();
        builder_.finish();
        costProgram(*out_, perf_, machineName_);
        out_->workload = header_.name;
        hasher_.header(header_);
        out_->traceHash = hasher_.finish();
    }

  private:
    static bool
    sameHeader(const trace::Trace &a, const trace::Trace &b)
    {
        return a.name == b.name && a.ckksRingDim == b.ckksRingDim &&
               a.ckksLevels == b.ckksLevels &&
               a.ckksSpecial == b.ckksSpecial &&
               a.ckksDnum == b.ckksDnum &&
               a.ckksLimbBits == b.ckksLimbBits &&
               a.tfheRingDim == b.tfheRingDim &&
               a.tfheLweDim == b.tfheLweDim &&
               a.tfheGadgetLevels == b.tfheGadgetLevels &&
               a.tfheKsLevels == b.tfheKsLevels &&
               a.tfheLimbBits == b.tfheLimbBits &&
               a.liveCiphertexts == b.liveCiphertexts;
    }

    void
    ensureLowering()
    {
        if (lowering_)
            return;
        // header_ is a stable member: the Lowering keeps the pointer for
        // its whole life (it reads liveCiphertexts per ctBuffer call).
        lowering_.emplace(&header_, opts_, &builder_);
    }

    Program *out_;
    LoweringOptions opts_;
    const sim::MachinePerf &perf_;
    std::string machineName_;
    ProgramBuilder builder_;
    StreamOpCheck opCheck_;
    trace::Trace header_; ///< header fields only (ops/phases empty)
    trace::ContentHasher hasher_;
    std::optional<Lowering> lowering_;
    std::deque<trace::PhaseMark> pending_; ///< marks not yet fired
    u64 opIdx_ = 0;                        ///< ops lowered so far
};

} // namespace

Program
compileTraceStream(std::istream &is, const LoweringOptions &opts,
                   const sim::MachinePerf &perf,
                   const std::string &machineName,
                   analysis::DiagnosticReport *lint,
                   const StreamOpCheck &opCheck, std::size_t chunkBytes,
                   std::size_t *peakBufferedBytes)
{
    UFC_EXPECT(chunkBytes > 0, ConfigError,
               "compileTraceStream: chunkBytes must be positive");
    Program p;
    LoweringOptions lopts = opts;
    lopts.lint = lint;
    StreamingCompileSink sink(&p, lopts, perf, machineName, opCheck);
    trace::TraceReader reader(&sink);
    std::vector<char> chunk(chunkBytes);
    while (!reader.done() && is) {
        is.read(chunk.data(),
                static_cast<std::streamsize>(chunk.size()));
        const auto got = static_cast<std::size_t>(is.gcount());
        if (got == 0)
            break;
        reader.feed(chunk.data(), got);
    }
    reader.finish();
    if (peakBufferedBytes)
        *peakBufferedBytes = reader.peakBufferedBytes();
    return p;
}

std::vector<SlotAccess>
slotAccesses(const Program &p)
{
    UFC_EXPECT(!p.composed(), ConfigError,
               "slotAccesses: composed Program '"
                   << p.workload
                   << "' has no single scratchpad; export each part");
    std::vector<SlotAccess> out;
    for (u64 i = 0; i < p.code.size(); ++i) {
        const BcInst &inst = p.code[i];
        if (inst.kind != BcKind::Mem)
            continue;
        const u64 end = static_cast<u64>(inst.bufBegin) + inst.bufCount;
        for (u64 b = inst.bufBegin; b < end && b < p.bufs.size(); ++b) {
            const BcBuf &buf = p.bufs[b];
            if (buf.slot == BcBuf::kNoSlot || buf.streamed)
                continue;
            out.push_back(
                SlotAccess{i, buf.slot, buf.id, buf.bytes, buf.write});
        }
    }
    return out;
}

namespace {

void
addFinding(analysis::DiagnosticReport &out, const char *rule,
           std::ptrdiff_t inst, const std::string &message,
           const std::string &hint)
{
    analysis::Diagnostic d;
    d.severity = analysis::Severity::Error;
    d.rule = rule;
    d.message = message;
    d.hint = hint;
    d.opIndex = inst;
    out.add(d);
}

} // namespace

void
verifyProgram(const Program &program, analysis::DiagnosticReport &out)
{
    for (const auto &part : program.parts)
        verifyProgram(part, out);

    std::vector<u8> boundary(program.code.size() + 1, 0);
    for (const auto &ev : program.phaseEvents)
        if (ev.inst <= program.code.size())
            boundary[static_cast<size_t>(ev.inst)] = 1;

    // Folded loops: bounds, ordering, purity and phase containment.
    u64 prevEnd = 0;
    for (size_t li = 0; li < program.loops.size(); ++li) {
        const BcLoop &lp = program.loops[li];
        const std::ptrdiff_t at =
            static_cast<std::ptrdiff_t>(lp.end) - lp.bodyLen;
        if (lp.bodyLen == 0 || lp.trips < 2 ||
            lp.end > program.code.size() || lp.bodyLen > lp.end) {
            std::ostringstream os;
            os << "loop#" << li << " (end=" << lp.end << " body="
               << lp.bodyLen << " trips=" << lp.trips
               << ") is degenerate or out of bounds ("
               << program.code.size() << " instructions)";
            addFinding(out, "bc-loop-invariant", at, os.str(),
                       "folded repeats need a non-empty in-bounds body "
                       "and at least two trips");
            continue;
        }
        const u64 start = lp.end - lp.bodyLen;
        if (start < prevEnd) {
            std::ostringstream os;
            os << "loop#" << li << " [" << start << ", " << lp.end
               << ") overlaps or is unsorted against the previous loop "
               << "(ends at " << prevEnd << ")";
            addFinding(out, "bc-loop-invariant",
                       static_cast<std::ptrdiff_t>(start), os.str(),
                       "loops must be disjoint and sorted by end so the "
                       "executor's single cursor replays them");
        }
        prevEnd = lp.end;
        for (u64 k = start; k < lp.end; ++k) {
            if (program.code[k].kind == BcKind::Mem) {
                std::ostringstream os;
                os << "loop#" << li << " [" << start << ", " << lp.end
                   << ") body contains inst#" << k << " ("
                   << isa::opName(static_cast<isa::HwOp>(
                          program.shape(program.code[k]).op))
                   << ") with a cached scratchpad operand";
                addFinding(out, "bc-loop-invariant",
                           static_cast<std::ptrdiff_t>(k), os.str(),
                           "re-executing a scratchpad-dependent body is "
                           "not equivalent to the unrolled stream; the "
                           "builder must unroll such repeats");
                break;
            }
        }
        for (const auto &ev : program.phaseEvents) {
            if (ev.inst > start && ev.inst < lp.end) {
                std::ostringstream os;
                os << "loop#" << li << " [" << start << ", " << lp.end
                   << ") contains a phase marker before inst#" << ev.inst;
                addFinding(out, "bc-loop-invariant",
                           static_cast<std::ptrdiff_t>(ev.inst), os.str(),
                           "a marker inside a repeated body would fire "
                           "once but the body executes every trip");
                break;
            }
        }
        // Loop edges break fused runs exactly like phase markers.
        if (lp.end <= program.code.size()) {
            boundary[static_cast<size_t>(start)] = 1;
            boundary[static_cast<size_t>(lp.end)] = 1;
        }
    }

    for (size_t i = 0; i < program.code.size(); ++i) {
        const BcInst &head = program.code[i];
        if (head.runLen <= 1)
            continue;
        const size_t end = i + head.runLen;
        if (end > program.code.size()) {
            std::ostringstream os;
            os << "fused run of " << head.runLen << " at inst#" << i
               << " overruns the program (" << program.code.size()
               << " instructions)";
            addFinding(out, "bc-fuse-phase-span",
                       static_cast<std::ptrdiff_t>(i), os.str(),
                       "re-run the fusion pass; runs must stay in bounds");
            continue;
        }
        for (size_t k = i; k < end; ++k) {
            if (program.code[k].kind == BcKind::Mem) {
                std::ostringstream os;
                os << "fused run [" << i << ", " << end << ") contains "
                   << "inst#" << k << " ("
                   << isa::opName(static_cast<isa::HwOp>(
                          program.shape(program.code[k]).op))
                   << ") with a cached scratchpad operand";
                addFinding(out, "bc-fuse-cached-operand",
                           static_cast<std::ptrdiff_t>(i), os.str(),
                           "scratchpad-dependent instructions must break "
                           "the run (their memory cost depends on LRU "
                           "state)");
                break;
            }
        }
        for (size_t k = i + 1; k < end; ++k) {
            if (boundary[k]) {
                std::ostringstream os;
                os << "fused run [" << i << ", " << end << ") crosses a "
                   << "phase marker or loop edge before inst#" << k;
                addFinding(out, "bc-fuse-phase-span",
                           static_cast<std::ptrdiff_t>(i), os.str(),
                           "phase markers and loop edges must only fire "
                           "at run boundaries so timeline replay and "
                           "loop-back checks stay exact");
                break;
            }
        }
    }
}

void
disassemble(const Program &program, std::ostream &os)
{
    os << "program " << program.workload << " machine="
       << program.machine << " hash=" << std::hex << std::showbase
       << program.traceHash << std::dec << std::noshowbase << "\n";
    if (program.composed()) {
        os << "  composed: pcie_bytes=" << program.pcieBytes
           << " pcie_transfers=" << program.pcieTransfers << " parts="
           << program.parts.size() << "\n";
        for (const auto &part : program.parts) {
            if (part.code.empty() && part.machine.empty()) {
                os << "part <empty>\n";
                continue;
            }
            disassemble(part, os);
        }
        return;
    }
    os << "  insts=" << program.code.size() << " bufs="
       << program.bufs.size() << " slots=" << program.spadSlots
       << " spad_bytes=" << program.scratchpadBytes << " hbm_Bpc="
       << program.hbmBytesPerCycle << " fused_runs="
       << program.fusedRuns << " fused_insts=" << program.fusedInsts
       << " loops=" << program.loops.size() << " executed="
       << program.totalInsts() << " shapes=" << program.shapes.size()
       << "\n";

    size_t ev = 0;
    const auto &events = program.phaseEvents;
    int depth = 0;
    const auto emitEvents = [&](size_t upTo) {
        while (ev < events.size() && events[ev].inst == upTo) {
            if (events[ev].name == PhaseEvent::kEnd) {
                depth = std::max(0, depth - 1);
                os << std::string(2 + 2 * static_cast<size_t>(depth), ' ')
                   << "}\n";
            } else {
                os << std::string(2 + 2 * static_cast<size_t>(depth), ' ')
                   << "phase "
                   << program
                          .phaseNames[static_cast<size_t>(events[ev].name)]
                   << " {\n";
                ++depth;
            }
            ++ev;
        }
    };

    size_t li = 0;
    bool inLoop = false;
    const auto loopEdges = [&](size_t i) {
        if (inLoop && i == program.loops[li].end) {
            depth = std::max(0, depth - 1);
            os << std::string(2 + 2 * static_cast<size_t>(depth), ' ')
               << "}\n";
            ++li;
            inLoop = false;
        }
        emitEvents(i); // markers at a loop edge sit outside the body
        if (!inLoop && li < program.loops.size() &&
            i == program.loops[li].end - program.loops[li].bodyLen) {
            os << std::string(2 + 2 * static_cast<size_t>(depth), ' ')
               << "repeat " << program.loops[li].trips << "x {\n";
            ++depth;
            inLoop = true;
        }
    };

    for (size_t i = 0; i < program.code.size(); ++i) {
        loopEdges(i);
        const BcInst &b = program.code[i];
        const CostShape &s = program.shape(b);
        const CostRow &c = program.cost(b);
        os << std::string(2 + 2 * static_cast<size_t>(depth), ' ')
           << std::setw(5) << i << " "
           << isa::opName(static_cast<isa::HwOp>(s.op)) << " res="
           << isa::resourceName(static_cast<isa::Resource>(c.resource))
           << " logN=" << s.logDegree << " batch=" << s.batch
           << " words=" << s.words << " work=" << s.work << " c="
           << c.computeCycles << " lane_c=" << c.busyLaneCycles
           << " noc=" << c.nocCycles << " fill=" << program.fillCycles;
        if (b.kind == BcKind::Stream) {
            os << " stream_bytes=" << s.staticFetchBytes
               << " stream_cycles=" << c.staticMemCycles;
        } else {
            os << " bufs=[";
            for (u16 k = 0; k < b.bufCount; ++k) {
                const BcBuf &buf =
                    program.bufs[b.bufBegin + static_cast<u32>(k)];
                if (k)
                    os << " ";
                if (buf.streamed)
                    os << "~";
                else
                    os << "s" << buf.slot << ":";
                os << std::hex << std::showbase << buf.id << std::dec
                   << std::noshowbase << "/" << buf.bytes;
                if (buf.write)
                    os << "w";
            }
            os << "]";
        }
        if (b.runLen > 1)
            os << " ; fused run len=" << b.runLen << " kind="
               << fuseKindName(b.fuse);
        os << "\n";
    }
    loopEdges(program.code.size());
}

} // namespace compiler
} // namespace ufc
