/**
 * @file
 * Bytecode compiler implementation: ProgramBuilder (an InstSink), the
 * loop-invariant verifier and the disassembler.
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
#include <string_view>
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

template <typename Same>
std::size_t
ProgramBuilder::FlatIndex::probe(u64 hash, Same &&same) const
{
    const std::size_t mask = cells_.size() - 1;
    std::size_t i =
        static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (cells_[i] != 0 && !same(cells_[i] - 1))
        i = (i + 1) & mask;
    return i;
}

template <typename Same, typename Rehash>
u32
ProgramBuilder::FlatIndex::findOrAdd(u64 hash, u32 size, Same &&same,
                                     Rehash &&rehash)
{
    std::size_t i = probe(hash, same);
    if (cells_[i] != 0)
        return cells_[i] - 1;
    if (2 * (static_cast<std::size_t>(size) + 1) > cells_.size()) {
        const auto none = [](u32) { return false; };
        std::vector<u32> grown(2 * cells_.size(), 0);
        cells_.swap(grown);
        --shift_;
        for (u32 k = 0; k < size; ++k)
            cells_[probe(rehash(k), none)] = k + 1;
        i = probe(hash, none);
    }
    cells_[i] = size + 1;
    return size;
}

ProgramBuilder::ProgramBuilder(Program *out)
    : out_(out), code_(out->code.edit()), bufs_(out->bufs.edit()),
      events_(out->phaseEvents.edit()), shapes_(out->shapes.edit()),
      counts_(out->shapeCounts.edit()), slotIdx_(6), shapeIdx_(9),
      phaseIdx_(5)
{
    // Each array starts with room for what its index holds before the
    // index first doubles, so small bodies intern without a regrowth.
    slotIds_.reserve(slotIdx_.capacity());
    shapes_.reserve(shapeIdx_.capacity());
    counts_.reserve(shapeIdx_.capacity());
    out_->phaseNames.edit().reserve(phaseIdx_.capacity());
}

namespace {

/** Distinct shapes give distinct words (up to rare collisions, which
 *  cost a probe); FlatIndex does the mixing. */
u64
shapeHash(const CostShape &s)
{
    return std::bit_cast<u64>(s.staticFetchBytes) ^ std::rotl(s.words, 17) ^
           std::rotl(s.work, 34) ^ (static_cast<u64>(s.logDegree) << 56) ^
           (static_cast<u64>(s.batch) << 8) ^ s.op;
}

} // namespace

u32
ProgramBuilder::slotFor(u64 id)
{
    const u32 slot = slotIdx_.findOrAdd(
        id, static_cast<u32>(slotIds_.size()),
        [&](u32 k) { return slotIds_[k] == id; },
        [&](u32 k) { return slotIds_[k]; });
    if (slot == slotIds_.size())
        slotIds_.push_back(id);
    return slot;
}

u32
ProgramBuilder::shapeFor(const CostShape &shape)
{
    // Runs once per issued instruction against a few hundred shapes.
    const u32 id = shapeIdx_.findOrAdd(
        shapeHash(shape), static_cast<u32>(shapes_.size()),
        [&](u32 k) { return shapes_[k] == shape; },
        [&](u32 k) { return shapeHash(shapes_[k]); });
    if (id == shapes_.size()) {
        shapes_.push_back(shape);
        counts_.push_back(0);
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
    ++counts_[b.shape];
    code_.push_back(b);
}

u32
ProgramBuilder::phaseIndex(const char *name)
{
    const std::string_view key = name ? name : "";
    const auto ptr = reinterpret_cast<std::uintptr_t>(key.data());
    PhaseHint &hint = phaseHints_[static_cast<std::size_t>(
        (ptr * 0x9e3779b97f4a7c15ULL) >> (64 - kPhaseHintBits))];
    if (hint.name == ptr && out_->phaseNames[hint.idx] == key)
        return hint.idx;

    const auto nameHash = [](std::string_view s) {
        return static_cast<u64>(std::hash<std::string_view>{}(s));
    };
    const SharedArray<std::string> &names = out_->phaseNames;
    const u32 idx = phaseIdx_.findOrAdd(
        nameHash(key), static_cast<u32>(names.size()),
        [&](u32 k) { return names[k] == key; },
        [&](u32 k) { return nameHash(names[k]); });
    if (idx == names.size())
        out_->phaseNames.edit().emplace_back(key);
    hint = PhaseHint{ptr, idx};
    return idx;
}

void
ProgramBuilder::beginPhase(const char *name)
{
    events_.push_back(
        PhaseEvent{code_.size(), static_cast<i32>(phaseIndex(name))});
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
            for (u64 i = 0; i < bodyLen; ++i) {
                ++counts_[code_[repeatStart_ + i].shape];
                code_.push_back(code_[repeatStart_ + i]);
            }
        return;
    }
    for (u64 i = repeatStart_; i < end; ++i)
        counts_[code_[i].shape] += repeatTrips_ - 1;

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
    out_->spadSlots = static_cast<u32>(slotIds_.size());
}

namespace {

/** Sizing pre-pass: counts the records, operands and phase events the
 *  real lowering will emit so the body's vectors can be reserved
 *  exactly.  It costs host time (a second lowering, about 5 ns per
 *  record, since emitting touches no heap) but pays in memory: growth
 *  by doubling would leave spare capacity in every body, and
 *  perfbench's ckks_dse sweep peaks at about 28 MB RSS without the pass
 *  against about 20 MB with it.  Accepts repeat folds like the
 *  builder, so folded bodies are counted once. */
struct SizingSink final : isa::InstSink
{
    u64 insts = 0;
    u64 bufs = 0;
    u64 events = 0;

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
    void beginPhase(const char *) override { ++events; }
    void endPhase() override { ++events; }
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
    p.fillTicks =
        sim::toTicks(perf.pipelineFillCycles(), "the pipeline fill");
    p.costs.clear();
    p.costs.reserve(p.shapes.size());
    isa::HwInst inst; // no operands: no MachinePerf reads them
    for (const CostShape &s : p.shapes) {
        inst.op = static_cast<isa::HwOp>(s.op);
        inst.logDegree = s.logDegree;
        inst.batch = s.batch;
        inst.words = s.words;
        inst.work = s.work;
        // The reference engine's issue-time expressions and rounding,
        // once per shape.
        CostRow c;
        const double compute = perf.computeCycles(inst);
        c.computeTicks =
            sim::toTicks(compute, "an instruction's compute time");
        c.busyLaneTicks = sim::toTicks(compute * perf.laneFraction(inst),
                                       "an instruction's busy-lane time");
        c.nocTicks =
            sim::toTicks(perf.nocCycles(inst), "an instruction's NoC time");
        c.staticFetchBytes = s.staticFetchBytes;
        c.staticMemTicks =
            sim::toTicks(s.staticFetchBytes / p.hbmBytesPerCycle,
                         "an instruction's memory time");
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
        p.phaseEvents.edit().reserve(sizing.events);
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
       << program.hbmBytesPerCycle << " loops=" << program.loops.size()
       << " executed=" << program.totalInsts()
       << " shapes=" << program.shapes.size() << "\n";

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
           << sim::fromTicks(c.computeTicks)
           << " lane_c=" << sim::fromTicks(c.busyLaneTicks)
           << " noc=" << sim::fromTicks(c.nocTicks)
           << " fill=" << sim::fromTicks(program.fillTicks);
        if (b.kind == BcKind::Stream) {
            os << " stream_bytes=" << s.staticFetchBytes
               << " stream_cycles=" << sim::fromTicks(c.staticMemTicks);
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
        os << "\n";
    }
    loopEdges(program.code.size());
}

} // namespace compiler
} // namespace ufc
