/**
 * @file
 * Ciphertext-granularity trace IR (paper Section VI-B).
 *
 * Workload generators emit machine-independent streams of high-level FHE
 * operations; each accelerator model's compiler lowers them to its own
 * primitive instruction stream.  This mirrors the paper's tracing tool on
 * top of OpenFHE feeding a compiler that emits hardware instructions.
 */

#ifndef UFC_TRACE_TRACE_H
#define UFC_TRACE_TRACE_H

#include <string>
#include <vector>

#include "common/types.h"

namespace ufc {
namespace trace {

/** High-level FHE operation kinds. */
enum class OpKind
{
    // CKKS (SIMD-scheme) operations.
    CkksAdd,        ///< homomorphic add/sub (ciphertext-ciphertext)
    CkksAddPlain,   ///< ciphertext-plaintext add
    CkksMult,       ///< ciphertext multiply + relinearization
    CkksMultPlain,  ///< ciphertext-plaintext multiply
    CkksRescale,    ///< divide by last limb
    CkksRotate,     ///< automorphism + key switch
    CkksConjugate,  ///< conjugation automorphism + key switch
    CkksModRaise,   ///< bootstrap step: extend basis back to L limbs

    // TFHE (logic-scheme) operations.
    TfheLinear,     ///< LWE additions / scalar multiplies
    TfhePbs,        ///< programmable/functional bootstrap
    TfheKeySwitch,  ///< LWE key switch
    TfheModSwitch,  ///< LWE modulus switch

    // Scheme switching.
    SwitchExtract,  ///< RLWE -> LWE extraction (+ TFHE key switch)
    SwitchRepack,   ///< LWEs -> RLWE repacking (linear transform)
};

/** Which scheme an op belongs to (for composed-system dispatch). */
enum class Scheme { Ckks, Tfhe, Switch };

/** One traced high-level operation. */
struct TraceOp
{
    OpKind kind;
    /// CKKS: active q limbs at the time of the op; TFHE: unused.
    int limbs = 0;
    /// Batch of identical independent ops traced together (e.g. parallel
    /// PBS in a batched NN layer, parallel rotations in BSGS).
    int count = 1;
    /// TFHE ops: number of LWE inputs for linear ops.
    int fanIn = 0;
    /// Which evaluation key the op uses (rotations: the rotation step).
    /// Distinct ids compete for scratchpad space.
    int keyId = 0;

    Scheme scheme() const;
};

/**
 * A named region of the op stream (bootstrap, distance phase, top-k
 * tournament, ...).  Marks carry an op index: a begin mark opens its
 * region before `opIndex` is lowered, an end mark closes it at the same
 * point.  Regions must nest strictly (stack discipline); the compiler
 * forwards them to the cycle engine, which groups the exported timeline
 * by them.
 */
struct PhaseMark
{
    u64 opIndex = 0;
    std::string name; ///< single token, no whitespace
    bool begin = true;
};

/** A traced workload: the op stream plus its parameter metadata. */
struct Trace
{
    std::string name;
    // CKKS parameters used by the trace (0 when TFHE-only).
    u64 ckksRingDim = 0;
    int ckksLevels = 0;
    int ckksSpecial = 0;
    int ckksDnum = 0;
    int ckksLimbBits = 0;
    // TFHE parameters used by the trace (0 when CKKS-only).
    u64 tfheRingDim = 0;
    u32 tfheLweDim = 0;
    int tfheGadgetLevels = 0;
    int tfheKsLevels = 0;
    int tfheLimbBits = 32;

    /// Approximate number of simultaneously live ciphertexts; drives the
    /// scratchpad working-set model.
    int liveCiphertexts = 16;

    std::vector<TraceOp> ops;
    /// Workload-level region markers, ordered by (opIndex, emission
    /// order).  Generators append them via beginPhase()/endPhase().
    std::vector<PhaseMark> phases;

    /** Append an op. */
    void
    push(OpKind kind, int limbs, int count = 1, int fanIn = 0,
         int keyId = 0)
    {
        ops.push_back(TraceOp{kind, limbs, count, fanIn, keyId});
    }

    /** Open a named region starting at the next op to be pushed. */
    void
    beginPhase(const std::string &name)
    {
        phases.push_back(PhaseMark{ops.size(), name, true});
    }

    /**
     * Close the innermost open region after the last pushed op.
     *
     * Throws TraceError when no region is open — an unbalanced close is
     * a generator bug, and diagnosing it at build time beats letting it
     * corrupt every downstream timeline (the phase-discipline analysis
     * pass reports the same condition, rule `phase-balance`, for traces
     * built by other means, e.g. hand-edited .ufctrace files).
     */
    void endPhase();

    /** Total high-level op count (sum of batched counts). */
    u64 totalOps() const;
};

/**
 * A phase mark pair resolved to a half-open op range: ops
 * [begin, end) lie inside the region named `name`, nested `depth`
 * regions deep (0 = outermost).  Tolerant of malformed mark streams —
 * unclosed regions extend to the end of the op stream and stray end
 * marks are ignored (the phase-discipline lint pass reports both) — so
 * consumers (CFG recovery, timeline grouping) always get a
 * well-formed, properly nested region list.
 */
struct PhaseRegion
{
    u64 begin = 0;
    u64 end = 0;
    std::string name;
    int depth = 0;
};

/** Resolve a trace's phase marks into nested regions, sorted by
 *  (begin, depth). */
std::vector<PhaseRegion> phaseRegions(const Trace &tr);

namespace detail {

/// FNV-1a constants shared by the trace content hash and the compiler's
/// and cost models' digests.
inline constexpr u64 kFnvOffset = 14695981039346656037ULL;
inline constexpr u64 kFnvPrime = 1099511628211ULL;

/** Mix a 64-bit value byte-wise so ids above 2^32 (the compiler's
 *  buffer namespaces) contribute every bit. */
inline void
fnvMix(u64 &h, u64 v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

/** Mix a length-prefixed string. */
inline void
fnvMix(u64 &h, const std::string &s)
{
    fnvMix(h, static_cast<u64>(s.size()));
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
    }
}

/**
 * Word-at-a-time mixer (splitmix64 finalizer) for the hashing paths
 * that digest many words — cost shapes and machine constants.  ~8x
 * cheaper than byte-wise FNV on u64 payloads with comparable
 * avalanche; these digests live only in memory (cache keys), so they
 * need no cross-version stability.
 */
inline void
mix64(u64 &h, u64 v)
{
    v += 0x9e3779b97f4a7c15ULL;
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
    h ^= v ^ (v >> 31);
    h *= kFnvPrime;
}

} // namespace detail

/**
 * Incremental form of contentHash() for streaming readers: the header,
 * the op stream and the phase marks accumulate into three independent
 * FNV-1a states, combined (with element counts) at finish().  Ops and
 * marks may therefore arrive in any interleaving relative to each
 * other — only their per-stream order matters — which is exactly what a
 * chunked TraceReader delivers.
 */
class ContentHasher
{
  public:
    /** Fold in the header fields (name, parameters, live set). */
    void header(const Trace &tr);
    /** Fold in the next op of the op stream. */
    void op(const TraceOp &op);
    /** Fold in the next phase mark of the mark stream. */
    void phase(const PhaseMark &mark);
    /** Combine the three accumulators into the final hash. */
    u64 finish() const;

  private:
    u64 head_ = detail::kFnvOffset;
    u64 ops_ = detail::kFnvOffset;
    u64 phases_ = detail::kFnvOffset;
    u64 opCount_ = 0;
    u64 phaseCount_ = 0;
};

/**
 * FNV-1a content hash over everything that influences a lowering: the
 * name (stamped into results), the parameter header, the op stream and
 * the phase marks.  Two traces with equal hashes compile to the same
 * Program on the same model, which is what the runner's ProgramCache
 * keys on; file identity and load path do not matter.
 */
u64 contentHash(const Trace &tr);

} // namespace trace
} // namespace ufc

#endif // UFC_TRACE_TRACE_H
