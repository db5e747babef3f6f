/**
 * @file
 * Trace-to-instruction lowering implementation.
 */

#include "compiler/lowering.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "analysis/verifying_sink.h"
#include "common/check.h"
#include "trace/serialize.h"

namespace ufc {
namespace compiler {

using isa::BufferRef;
using isa::HwInst;
using isa::HwOp;
using trace::OpKind;
using trace::TraceOp;

u64
loweringKey(const LoweringOptions &opts, const trace::Trace &tr)
{
    using trace::detail::mix64;
    u64 h = trace::detail::kFnvOffset;
    mix64(h, static_cast<u64>(opts.wordBits));
    mix64(h, opts.autoViaNtt ? 1 : 0);
    mix64(h, opts.onTheFlyKeyGen ? 1 : 0);
    const bool pbs = std::any_of(
        tr.ops.begin(), tr.ops.end(),
        [](const TraceOp &op) { return op.kind == OpKind::TfhePbs; });
    if (pbs) {
        mix64(h, static_cast<u64>(opts.totalVectorLanes));
        mix64(h, opts.smallPolyPacking ? 1 : 0);
        mix64(h, static_cast<u64>(opts.parallelism));
    }
    return h;
}

Lowering::Lowering(const trace::Trace *tr, const LoweringOptions &opts,
                   isa::InstSink *sink)
    : trace_(tr), opts_(opts), sink_(sink)
{
    if (opts_.lint) {
        verifier_ = std::make_unique<analysis::VerifyingSink>(
            sink_, opts_.lint);
        sink_ = verifier_.get();
    }
    if (trace_->ckksRingDim) {
        n_ = trace_->ckksRingDim;
        logN_ = std::countr_zero(n_);
        wCkks_ = opts_.wordsPerCoeff(trace_->ckksLimbBits);
        bytesCkks_ = wCkks_ * (opts_.wordBits / 8.0);
        alpha_ = (trace_->ckksLevels + trace_->ckksDnum - 1) /
                 trace_->ckksDnum;
        specialK_ = trace_->ckksSpecial;
    }
    if (trace_->tfheRingDim) {
        nt_ = trace_->tfheRingDim;
        logNt_ = std::countr_zero(nt_);
        wTfhe_ = opts_.wordsPerCoeff(trace_->tfheLimbBits);
        bytesTfhe_ = wTfhe_ * (opts_.wordBits / 8.0);
    }
}

Lowering::~Lowering() = default;

void
Lowering::run()
{
    // Interleave the workload's region markers with the op stream (a mark
    // at opIndex i fires before op i is lowered), and bracket every
    // high-level op in a phase named by its stable mnemonic, so the
    // exported timeline can be read at trace granularity.
    const auto &marks = trace_->phases;
    size_t next = 0;
    for (size_t i = 0; i < trace_->ops.size(); ++i) {
        while (next < marks.size() && marks[next].opIndex <= i)
            streamMark(marks[next++]);
        streamOp(trace_->ops[i]);
    }
    for (; next < marks.size(); ++next)
        streamMark(marks[next]);
    finishStream();
}

void
Lowering::streamMark(const trace::PhaseMark &mark)
{
    if (mark.begin)
        sink_->beginPhase(mark.name.c_str());
    else
        sink_->endPhase();
}

void
Lowering::streamOp(const trace::TraceOp &op)
{
    sink_->beginPhase(trace::opKindName(op.kind));
    lowerOp(op);
    sink_->endPhase();
}

void
Lowering::finishStream()
{
    if (verifier_)
        verifier_->finish();
}

void
Lowering::emit(HwOp op, u32 logDegree, u32 batch, u64 words, u64 work,
               std::initializer_list<BufferRef> buffers)
{
    HwInst inst;
    inst.op = op;
    inst.logDegree = logDegree;
    inst.batch = batch;
    inst.words = words;
    inst.work = work;
    inst.buffers = {buffers.begin(), buffers.size()};
    sink_->issue(inst);
}

BufferRef
Lowering::ctBuffer(bool write)
{
    // Skewed reuse over the trace-declared live set: most accesses hit a
    // hot subset (the values an op chain is actively combining), the rest
    // sweep the full pool.  This degrades gracefully when the pool
    // exceeds the scratchpad instead of falling off a round-robin cliff.
    const u64 pool = std::max(1, trace_->liveCiphertexts);
    const u64 seq = nextCt_++;
    u64 h = seq * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    BufferRef ref;
    if ((h & 0xf) < 11) // ~70% of touches go to the 4 hottest buffers
        ref.id = kCtBase + (seq & 3);
    else
        ref.id = kCtBase + ((h >> 8) % pool);
    ref.write = write;
    return ref;
}

BufferRef
Lowering::plaintextBuffer(const TraceOp &op, int /*use*/)
{
    // Plaintext operands (BSGS matrix diagonals, masks, weights) are
    // distinct per use: they stream from memory, compressed by on-die
    // generation of encoded constants (ARK-style) when enabled.
    BufferRef ref;
    ref.id = kPtBase + static_cast<u64>(op.keyId) * 65536 +
             static_cast<u64>(nextPt_++ % 4096);
    // Unlike evaluation keys, plaintext operands are data (weights,
    // masks, matrix diagonals): read once at full size, never worth
    // caching.
    ref.bytes = static_cast<u64>(op.limbs * n_ * bytesCkks_);
    ref.write = false;
    ref.streaming = true;
    return ref;
}

BufferRef
Lowering::keyBuffer(u64 id, u64 bytes)
{
    BufferRef ref;
    ref.id = id;
    // On-the-fly generation (Section IV-B5, after ARK): the pseudorandom
    // key half expands from a seed and the structured half is produced by
    // on-die re-encryption.  Roughly a quarter of the key bytes move per
    // use, but the key never occupies scratchpad — it streams.
    if (opts_.onTheFlyKeyGen) {
        ref.bytes = (bytes * 2) / 5;
        ref.streaming = true;
    } else {
        ref.bytes = bytes;
    }
    ref.write = false;
    return ref;
}

void
Lowering::lowerOp(const TraceOp &op)
{
    switch (op.kind) {
      case OpKind::CkksAdd: {
        for (int c = 0; c < op.count; ++c) {
            const u64 w = 2ULL * op.limbs * n_ * wCkks_;
            auto in = ctBuffer(false);
            in.bytes = 2.0 * op.limbs * n_ * bytesCkks_;
            auto out = ctBuffer(true);
            out.bytes = in.bytes;
            emit(HwOp::Ewma, logN_, 2 * op.limbs, w, w, {in, out});
        }
        break;
      }
      case OpKind::CkksAddPlain: {
        for (int c = 0; c < op.count; ++c) {
            const u64 w = 1ULL * op.limbs * n_ * wCkks_;
            auto in = ctBuffer(false);
            in.bytes = 2.0 * op.limbs * n_ * bytesCkks_;
            auto pt = plaintextBuffer(op, c);
            emit(HwOp::Ewma, logN_, op.limbs, w, w, {in, pt});
        }
        break;
      }
      case OpKind::CkksMultPlain: {
        for (int c = 0; c < op.count; ++c) {
            const u64 w = 2ULL * op.limbs * n_ * wCkks_;
            auto in = ctBuffer(false);
            in.bytes = 2.0 * op.limbs * n_ * bytesCkks_;
            auto pt = plaintextBuffer(op, c);
            emit(HwOp::Ewmm, logN_, 2 * op.limbs, w, w, {in, pt});
        }
        break;
      }
      case OpKind::CkksMult:
        for (int c = 0; c < op.count; ++c)
            ckksMult(op);
        break;
      case OpKind::CkksRescale:
        for (int c = 0; c < op.count; ++c)
            ckksRescale(op);
        break;
      case OpKind::CkksRotate:
        for (int c = 0; c < op.count; ++c)
            ckksRotate(op, false);
        break;
      case OpKind::CkksConjugate:
        for (int c = 0; c < op.count; ++c)
            ckksRotate(op, true);
        break;
      case OpKind::CkksModRaise:
        for (int c = 0; c < op.count; ++c)
            ckksModRaise(op);
        break;
      case OpKind::TfhePbs:
        tfhePbs(op);
        break;
      case OpKind::TfheKeySwitch:
        tfheKeySwitch(op.count);
        break;
      case OpKind::TfheModSwitch: {
        // Rounding of n+1 words per LWE on the near-memory unit.
        const u64 w = static_cast<u64>(op.count) *
                      (trace_->tfheLweDim + 1);
        emit(HwOp::Reduce, 0, op.count, w, w);
        break;
      }
      case OpKind::TfheLinear:
        tfheLinear(op);
        break;
      case OpKind::SwitchExtract:
        switchExtract(op);
        break;
      case OpKind::SwitchRepack:
        switchRepack(op);
        break;
    }
}

void
Lowering::ckksKeySwitch(int limbs, int polys, u64 keyBufferBase)
{
    // Hybrid key switching at `limbs` active q limbs.
    sink_->beginPhase("key_switch");
    const int K = specialK_;
    const int digits = (limbs + alpha_ - 1) / alpha_;
    const u64 wordsPerLimb = n_ * wCkks_;

    // Input polynomial to coefficient form.
    emit(HwOp::Intt, logN_, limbs, limbs * wordsPerLimb,
         limbs * wordsPerLimb * logN_ / 2);

    for (int d = 0; d < digits; ++d) {
        const int dLimbs = std::min(alpha_, limbs - d * alpha_);
        const int targets = limbs + K - dLimbs;

        // Digit extraction scaling, then ModUp base conversion.
        emit(HwOp::EwScale, logN_, dLimbs, dLimbs * wordsPerLimb,
             dLimbs * wordsPerLimb);
        emit(HwOp::BconvMac, logN_, targets,
             (dLimbs + targets) * wordsPerLimb,
             static_cast<u64>(dLimbs) * targets * wordsPerLimb);

        // Raised digit to evaluation form.
        emit(HwOp::Ntt, logN_, limbs + K, (limbs + K) * wordsPerLimb,
             (limbs + K) * wordsPerLimb * logN_ / 2);

        // Inner product with the evaluation key digit.
        const u64 evkBytes = static_cast<u64>(
            2.0 * (limbs + K) * n_ * bytesCkks_);
        auto evk = keyBuffer(keyBufferBase + d, evkBytes);
        if (opts_.onTheFlyKeyGen) {
            // Regenerating the pseudorandom key half costs ALU work.
            const u64 genWork = (limbs + K) * wordsPerLimb;
            emit(HwOp::KeyGenOtf, logN_, limbs + K, genWork, genWork);
        }
        // The evk inner product is a multiply-accumulate; both UFC's
        // vector lanes and SHARP's BConv MAC arrays run it at full rate.
        const u64 ipWords = 2ULL * (limbs + K) * wordsPerLimb;
        emit(HwOp::BconvMac, logN_, 2 * (limbs + K), ipWords, 2 * ipWords,
             {evk});
    }

    // ModDown: both accumulator polys back to coefficient form, convert
    // the P part down, fold and return to evaluation form.
    const u64 accWords = static_cast<u64>(polys) * (limbs + K) *
                         wordsPerLimb;
    emit(HwOp::Intt, logN_, polys * (limbs + K), accWords,
         accWords * logN_ / 2);
    emit(HwOp::BconvMac, logN_, polys * limbs,
         static_cast<u64>(polys) * (K + limbs) * wordsPerLimb,
         static_cast<u64>(polys) * K * limbs * wordsPerLimb);
    emit(HwOp::EwScale, logN_, polys * limbs,
         static_cast<u64>(polys) * limbs * wordsPerLimb,
         static_cast<u64>(polys) * limbs * wordsPerLimb);
    emit(HwOp::Ntt, logN_, polys * limbs,
         static_cast<u64>(polys) * limbs * wordsPerLimb,
         static_cast<u64>(polys) * limbs * wordsPerLimb * logN_ / 2);
    sink_->endPhase();
}

void
Lowering::ckksMult(const TraceOp &op)
{
    const int limbs = op.limbs;
    const u64 wordsPerLimb = n_ * wCkks_;
    const double ctBytes = 2.0 * limbs * n_ * bytesCkks_;

    auto inA = ctBuffer(false);
    inA.bytes = ctBytes;
    auto inB = ctBuffer(false);
    inB.bytes = ctBytes;

    // Tensor product: 4 limb-wise multiplies and 1 addition.
    const u64 w = static_cast<u64>(limbs) * wordsPerLimb;
    emit(HwOp::Ewmm, logN_, 4 * limbs, 4 * w, 4 * w, {inA, inB});
    emit(HwOp::Ewma, logN_, limbs, w, w);

    // Relinearize the s^2 component.
    ckksKeySwitch(limbs, 2, kEvkBase);

    // Fold the key-switch output into (c0, c1).
    auto out = ctBuffer(true);
    out.bytes = ctBytes;
    emit(HwOp::Ewma, logN_, 2 * limbs, 2 * w, 2 * w, {out});
}

void
Lowering::ckksRescale(const TraceOp &op)
{
    const int limbs = op.limbs;
    const u64 wordsPerLimb = n_ * wCkks_;
    auto in = ctBuffer(false);
    in.bytes = 2.0 * limbs * n_ * bytesCkks_;
    auto out = ctBuffer(true);
    out.bytes = 2.0 * (limbs - 1) * n_ * bytesCkks_;

    emit(HwOp::Intt, logN_, 2 * limbs, 2ULL * limbs * wordsPerLimb,
         2ULL * limbs * wordsPerLimb * logN_ / 2, {in});
    const u64 w = 2ULL * (limbs - 1) * wordsPerLimb;
    emit(HwOp::Ewma, logN_, 2 * (limbs - 1), w, w);
    emit(HwOp::EwScale, logN_, 2 * (limbs - 1), w, w);
    emit(HwOp::Ntt, logN_, 2 * (limbs - 1), w, w * logN_ / 2, {out});
}

void
Lowering::ckksRotate(const TraceOp &op, bool conjugate)
{
    const int limbs = op.limbs;
    const u64 wordsPerLimb = n_ * wCkks_;
    const u64 w2 = 2ULL * limbs * wordsPerLimb;
    auto in = ctBuffer(false);
    in.bytes = 2.0 * limbs * n_ * bytesCkks_;

    if (opts_.autoViaNtt) {
        // Automorphism via NTT (Section IV-C2): iNTT with omega, NTT with
        // omega^k for both components; the c1 copy that feeds key
        // switching needs one more iNTT to coefficient form.
        emit(HwOp::Intt, logN_, 2 * limbs, w2, w2 * logN_ / 2, {in});
        emit(HwOp::NttAuto, logN_, 2 * limbs, w2, w2 * logN_ / 2);
        emit(HwOp::Intt, logN_, limbs, w2 / 2, w2 / 2 * logN_ / 2);
    } else {
        // Scheme-specific accelerators shuffle through the all-to-all NoC.
        emit(HwOp::Shuffle, logN_, 2 * limbs, w2, w2, {in});
        emit(HwOp::Intt, logN_, limbs, w2 / 2, w2 / 2 * logN_ / 2);
    }

    const u64 keyBase = conjugate ? (kGkBase + (1ULL << 20))
                                  : kGkBase + 64ULL * op.keyId;
    ckksKeySwitch(limbs, 2, keyBase);

    auto out = ctBuffer(true);
    out.bytes = 2.0 * limbs * n_ * bytesCkks_;
    emit(HwOp::Ewma, logN_, limbs, w2 / 2, w2 / 2, {out});
}

void
Lowering::ckksModRaise(const TraceOp &op)
{
    // Bootstrap ModRaise: base-extend both polys from 1 limb to `limbs`.
    const int limbs = op.limbs;
    const u64 wordsPerLimb = n_ * wCkks_;
    auto in = ctBuffer(false);
    in.bytes = 2.0 * n_ * bytesCkks_;
    auto out = ctBuffer(true);
    out.bytes = 2.0 * limbs * n_ * bytesCkks_;

    emit(HwOp::Intt, logN_, 2, 2 * wordsPerLimb,
         2 * wordsPerLimb * logN_ / 2, {in});
    emit(HwOp::BconvMac, logN_, 2 * limbs, 2ULL * limbs * wordsPerLimb,
         2ULL * (limbs - 1) * wordsPerLimb);
    emit(HwOp::Ntt, logN_, 2 * limbs, 2ULL * limbs * wordsPerLimb,
         2ULL * limbs * wordsPerLimb * logN_ / 2, {out});
}

int
Lowering::packFactor(u64 ringDim, int available) const
{
    if (!opts_.smallPolyPacking)
        return 1;
    // How many small polynomials fill the vector lanes (Figure 7).
    const int perLanes = static_cast<int>(
        std::max<u64>(1, opts_.totalVectorLanes / (ringDim * wTfhe_)));
    return std::max(1, std::min(available, perLanes));
}

void
Lowering::tfhePbs(const TraceOp &op)
{
    const u32 nLwe = trace_->tfheLweDim;
    const int l = trace_->tfheGadgetLevels;
    const u64 wordsPerPoly = nt_ * wTfhe_;

    // Parallelism selection (Section V-B): TvLP batches independent
    // bootstraps so the per-iteration RGSW key is fetched once; CoLP only
    // packs the 2l decomposed columns and needs a shuffle each iteration.
    const int batch = (opts_.parallelism == Parallelism::TvLP)
                          ? packFactor(nt_, op.count)
                          : 1; // CoLP packs columns, not test vectors
    const int groups = (op.count + batch - 1) / batch;

    // Modulus switch and test-vector setup on the LWE unit.
    emit(HwOp::Reduce, 0, op.count,
         static_cast<u64>(op.count) * (nLwe + 1),
         static_cast<u64>(op.count) * (nLwe + 1));

    // Loop structure encodes the parallelism choice (Section V-B):
    // - TvLP runs blind-rotation iteration i for every in-flight
    //   bootstrap before advancing to i+1, so each RGSW key element is
    //   fetched once per iteration regardless of the batch count — the
    //   low-bandwidth property the paper prioritizes TvLP for.
    // - CoLP runs each bootstrap to completion, packing only the 2l
    //   decomposed columns; the full bootstrapping key is re-walked per
    //   bootstrap, which is the memory overhead Figure 15 exposes.
    const bool tvlp = opts_.parallelism == Parallelism::TvLP;

    // One blind-rotation iteration: decompose the accumulator, NTT the
    // 2l digit polynomials, monomial-multiply by the X^a_i evaluation
    // (Section IV-C3), MAC against the RGSW rows, and return to
    // coefficient form.
    const auto emitIter = [&](u32 i, int b, bool chargeKey) {
        const u64 digitWords = 2ULL * l * b * wordsPerPoly;
        emit(HwOp::Decomp, logNt_, 2 * l * b, digitWords, digitWords);

        // CoLP packs the 2l columns into the wide datapath but must
        // shuffle them into the continuous layout first (V-B).
        if (opts_.parallelism == Parallelism::CoLP) {
            emit(HwOp::Shuffle, logNt_, 2 * l * b, digitWords,
                 digitWords);
        }
        emit(HwOp::Ntt, logNt_, 2 * l * b, digitWords,
             digitWords * logNt_ / 2);
        emit(HwOp::MonomialMul, logNt_, 2 * l * b, digitWords,
             digitWords);

        const u64 macWords = 4ULL * l * b * wordsPerPoly;
        if (chargeKey) {
            // Bootstrapping keys are not seed-expanded on die (the
            // on-the-fly units target the SIMD-scheme evks/twiddles).
            isa::BufferRef btk;
            btk.id = kBtkBase + i;
            btk.bytes = static_cast<u64>(4.0 * l * nt_ * bytesTfhe_);
            emit(HwOp::Ewmm, logNt_, 4 * l * b, macWords, macWords,
                 {btk});
        } else {
            emit(HwOp::Ewmm, logNt_, 4 * l * b, macWords, macWords);
        }
        emit(HwOp::Ewma, logNt_, 4 * l * b, macWords, macWords);

        const u64 accWords = 2ULL * b * wordsPerPoly;
        emit(HwOp::Intt, logNt_, 2 * b, accWords,
             accWords * logNt_ / 2);
        emit(HwOp::Ewma, logNt_, 2 * b, accWords, accWords);
    };

    sink_->beginPhase("blind_rotate");
    if (tvlp && groups > 0) {
        // Under TvLP only the first group of each iteration touches the
        // key buffer; the remaining full groups issue byte-identical
        // streaming-only bodies, which the sink may fold into one
        // structural repeat (Program loops, compiler/bytecode.h)
        // instead of receiving them unrolled.
        const int fullGroups = op.count / batch;
        const int ragged = op.count - fullGroups * batch;
        for (int o = 0; o < static_cast<int>(nLwe); ++o) {
            const u32 i = static_cast<u32>(o);
            emitIter(i, std::min(batch, op.count), true);
            repeat(static_cast<u64>(std::max(0, fullGroups - 1)),
                   [&] { emitIter(i, batch, false); });
            if (ragged > 0 && groups > 1)
                emitIter(i, ragged, false);
        }
    } else if (!tvlp) {
        // CoLP re-walks the full bootstrapping key per bootstrap (the
        // memory overhead Figure 15 exposes), so every iteration
        // charges a different key element and nothing folds.
        for (int g = 0; g < groups; ++g) {
            const int b = std::min(batch, op.count - g * batch);
            for (int in = 0; in < static_cast<int>(nLwe); ++in)
                emitIter(static_cast<u32>(in), b, true);
        }
    }
    sink_->endPhase();

    // Extraction on the near-memory unit, then LWE key switch.
    emit(HwOp::Extract, logNt_, op.count,
         static_cast<u64>(op.count) * nt_,
         static_cast<u64>(op.count) * nt_);
    tfheKeySwitch(op.count);
}

void
Lowering::tfheKeySwitch(int count)
{
    const u32 nLwe = trace_->tfheLweDim;
    const int dks = trace_->tfheKsLevels;
    // Decompose N coefficients into dks digits, multiply-accumulate
    // against the (n+1)-wide key rows, reduce on the LWEU.
    const u64 decompWork = static_cast<u64>(count) * nt_ * dks;
    emit(HwOp::Decomp, logNt_, count, decompWork, decompWork);

    const u64 kskBytes = static_cast<u64>(
        nt_ * dks * (nLwe + 1) * bytesTfhe_);
    auto ksk = keyBuffer(kKskBase, kskBytes);
    const u64 macWork = static_cast<u64>(count) * nt_ * dks * (nLwe + 1);
    emit(HwOp::BconvMac, logNt_, count, macWork / 16, macWork, {ksk});
    emit(HwOp::Reduce, 0, count, static_cast<u64>(count) * (nLwe + 1),
         static_cast<u64>(count) * (nLwe + 1));
}

void
Lowering::tfheLinear(const TraceOp &op)
{
    const u32 nLwe = trace_->tfheLweDim;
    const u64 work = static_cast<u64>(op.count) *
                     std::max(1, op.fanIn) * (nLwe + 1);
    emit(HwOp::Ewma, 0, op.count, work, work);
}

void
Lowering::switchExtract(const TraceOp &op)
{
    // RLWE -> LWE extraction happens on the LWEU reading distributed
    // scratchpads.  The source polynomial is read once; each extracted
    // LWE is an index window into it (the ring was already switched down
    // by the preceding SlotToCoeff / modulus-switch steps), and the TFHE
    // key switch then normalizes the parameters.
    auto in = ctBuffer(false);
    in.bytes = 2.0 * n_ * bytesCkks_;
    const u64 w = n_ * wCkks_ +
                  static_cast<u64>(op.count) * (trace_->tfheLweDim + 1);
    emit(HwOp::Extract, logN_, op.count, w, w, {in});
    tfheKeySwitch(op.count);
}

void
Lowering::switchRepack(const TraceOp &op)
{
    // Repacking (Section II-D): homomorphic linear transform in the SIMD
    // scheme — a BSGS sweep of rotations and plaintext multiplies —
    // followed by a key switch; modeled with the CKKS lowering itself.
    const int limbs = std::max(2, op.limbs);
    const int rot = 2 * static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(std::max(1, op.count)))));
    for (int r = 0; r < rot; ++r) {
        TraceOp rotOp{OpKind::CkksRotate, limbs, 1, 0, r + 1};
        lowerOp(rotOp);
        TraceOp pm{OpKind::CkksMultPlain, limbs, 1, 0, r + 1};
        lowerOp(pm);
    }
    TraceOp rs{OpKind::CkksRescale, limbs, 1, 0, 0};
    lowerOp(rs);
}

} // namespace compiler
} // namespace ufc
