/**
 * @file
 * Lowering from the ciphertext-granularity trace IR to primitive hardware
 * instructions.
 *
 * The lowering encodes the FHE algorithms' real primitive counts — hybrid
 * key switching (ModUp / inner product / ModDown with dnum digits),
 * rescaling, automorphisms, TFHE blind rotation and key switching — and
 * applies the paper's compiler optimizations when the target supports
 * them: automorphism-via-NTT (Section IV-C2), small-polynomial packing
 * (V-A) and the TvLP/CoLP parallel scheduling priority (V-B).  Blind
 * rotation always lowers its polynomial rotation to an evaluation-form
 * monomial multiply (IV-C3); that is not a per-target switch.
 */

#ifndef UFC_COMPILER_LOWERING_H
#define UFC_COMPILER_LOWERING_H

#include <initializer_list>
#include <memory>

#include "isa/inst.h"
#include "trace/trace.h"

namespace ufc {
namespace analysis {
class DiagnosticReport; // analysis/diagnostic.h
class VerifyingSink;    // analysis/verifying_sink.h
} // namespace analysis

namespace compiler {

/** Parallelism source prioritized when packing small polynomials. */
enum class Parallelism
{
    TvLP, ///< batch independent bootstraps (test-vector level)
    CoLP, ///< batch decomposed columns of one external product
};

/**
 * Machine-dependent lowering knobs.  Every field except `lint` can change
 * the lowered instruction stream; loweringKey() digests the ones a given
 * trace's lowering actually reads.
 */
struct LoweringOptions
{
    // Word geometry.
    int wordBits = 32;

    // Vector-lane count the small-polynomial packing fills (TFHE PBS).
    int totalVectorLanes = 16384;

    // Paper optimizations.
    bool autoViaNtt = true;        ///< else: NoC shuffle (SHARP style)
    bool smallPolyPacking = true;  ///< Section V-A
    Parallelism parallelism = Parallelism::TvLP;
    bool onTheFlyKeyGen = true;    ///< halve key traffic, add ALU work

    /// When set, the lowering interposes an analysis::VerifyingSink
    /// between itself and the target sink and appends any
    /// per-instruction rule violations (inst-*, buf-*) to this
    /// caller-owned report.  Null (the default) disables verification.
    analysis::DiagnosticReport *lint = nullptr;

    int
    wordsPerCoeff(int limbBits) const
    {
        return (limbBits + wordBits - 1) / wordBits;
    }
};

/**
 * Digest of the LoweringOptions fields lowering `tr` reads: wordBits,
 * autoViaNtt and onTheFlyKeyGen always; totalVectorLanes,
 * smallPolyPacking and parallelism only when `tr` has a TFHE PBS op
 * (only the PBS lowering reads them).  `lint` never changes the stream
 * and is excluded.  Two option sets with equal keys lower `tr` to the
 * same body, so a body lowered under one can be re-costed for the other.
 */
u64 loweringKey(const LoweringOptions &opts, const trace::Trace &tr);

/**
 * Buffer-id namespaces the lowering hands to the scratchpad model.
 * Each operand class owns a disjoint 2^40-wide range so analyses can
 * classify a buffer from its id alone.
 */
inline constexpr u64 kCtBase = 1ULL << 40;  ///< ciphertext pool
inline constexpr u64 kEvkBase = 2ULL << 40; ///< relinearization keys
inline constexpr u64 kGkBase = 3ULL << 40;  ///< Galois (rotation) keys
inline constexpr u64 kBtkBase = 4ULL << 40; ///< TFHE bootstrap keys
inline constexpr u64 kKskBase = 5ULL << 40; ///< key-switch keys
inline constexpr u64 kPtBase = 6ULL << 40;  ///< plaintext operands

/**
 * True when `id` names a buffer from the lowering's rolling ciphertext
 * pool.  Ids there are drawn pseudorandomly over the trace-declared
 * live set to model reuse *locality* (see Lowering::ctBuffer), so they
 * carry no value identity: def-use conclusions must not be drawn from
 * them.  Key and plaintext ids are deterministic and value-accurate.
 */
inline constexpr bool
syntheticCiphertextId(u64 id)
{
    return id >= kCtBase && id < kEvkBase;
}

/**
 * Lowers a trace to an instruction stream, tracking buffer identities so
 * the scratchpad model sees a realistic working set.
 *
 * Thread safety: a Lowering instance is single-use and single-threaded
 * (it mutates its buffer-pool counters), but it holds no shared or static
 * state, so any number of instances may run concurrently — one per
 * simulation thread in the batch experiment runner.
 */
class Lowering
{
  public:
    Lowering(const trace::Trace *tr, const LoweringOptions &opts,
             isa::InstSink *sink);
    ~Lowering(); // out of line: verifier_ is incomplete here

    /** Lower the whole trace (and, when LoweringOptions::lint is set,
     *  run the verifier's end-of-stream checks). */
    void run();

    // Streaming entry points: run() is the batch form of these three.
    // A chunked trace reader delivers each event as it validates; the
    // caller is responsible for the whole-trace ordering contract (a
    // mark at opIndex i is streamed before op i).  The Trace passed to
    // the constructor may be header-only (empty ops/phases): the
    // lowering reads only the parameter header and liveCiphertexts.

    /** Forward one workload region marker to the sink. */
    void streamMark(const trace::PhaseMark &mark);
    /** Lower the next op, bracketed in its mnemonic phase. */
    void streamOp(const trace::TraceOp &op);
    /** End of stream: run the verifier's end-of-stream checks. */
    void finishStream();

    /** Lower a single op (used recursively, e.g. repacking). */
    void lowerOp(const trace::TraceOp &op);

  private:
    // CKKS pieces.
    void ckksKeySwitch(int limbs, int polys, u64 keyBufferBase);
    void ckksMult(const trace::TraceOp &op);
    void ckksRotate(const trace::TraceOp &op, bool conjugate);
    void ckksRescale(const trace::TraceOp &op);
    void ckksModRaise(const trace::TraceOp &op);

    // TFHE pieces.
    void tfhePbs(const trace::TraceOp &op);
    void tfheKeySwitch(int count);
    void tfheLinear(const trace::TraceOp &op);

    // Scheme switching.
    void switchExtract(const trace::TraceOp &op);
    void switchRepack(const trace::TraceOp &op);

    // Emission helpers.  `buffers` lives on the caller's stack until
    // the sink's issue() returns, which is as long as HwInst::buffers
    // must stay valid: no operand list touches the heap.
    void emit(isa::HwOp op, u32 logDegree, u32 batch, u64 words, u64 work,
              std::initializer_list<isa::BufferRef> buffers = {});

    /**
     * Emit `body` `trips` times.  When the sink folds repeats
     * (InstSink::beginRepeat), the body is lowered once and the
     * repetition is recorded structurally; otherwise every iteration is
     * emitted.  The caller must guarantee the iterations are
     * byte-identical: the body must not read or advance any lowering
     * state (buffer-pool counters, phase markers) — emit() calls with
     * fixed operands only.
     */
    template <typename Fn>
    void
    repeat(u64 trips, Fn &&body)
    {
        if (trips == 0)
            return;
        if (trips > 1 && sink_->beginRepeat(trips)) {
            body();
            sink_->endRepeat();
            return;
        }
        for (u64 k = 0; k < trips; ++k)
            body();
    }
    isa::BufferRef ctBuffer(bool write);
    isa::BufferRef keyBuffer(u64 id, u64 bytes);
    isa::BufferRef plaintextBuffer(const trace::TraceOp &op, int c);

    /** Batch of packed small polynomials for TFHE ops (Section V-A/B). */
    int packFactor(u64 ringDim, int available) const;

    const trace::Trace *trace_;
    LoweringOptions opts_;
    isa::InstSink *sink_;
    /// Interposed decorator when opts_.lint is set; owns no report.
    std::unique_ptr<analysis::VerifyingSink> verifier_;

    // CKKS geometry cached from the trace.
    int logN_ = 0;
    u64 n_ = 0;
    int wCkks_ = 1;   ///< machine words per CKKS coefficient
    double bytesCkks_ = 0.0;
    int alpha_ = 1;   ///< limbs per key-switching digit
    int specialK_ = 0;

    // TFHE geometry.
    int logNt_ = 0;
    u64 nt_ = 0;
    int wTfhe_ = 1;
    double bytesTfhe_ = 0.0;

    // Rolling ciphertext-buffer pool (working-set model).
    u64 nextCt_ = 0;
    u64 nextPt_ = 0;

};

} // namespace compiler
} // namespace ufc

#endif // UFC_COMPILER_LOWERING_H
