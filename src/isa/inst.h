/**
 * @file
 * The primitive hardware instruction set (paper Table I).
 *
 * Every high-level FHE operation in both schemes lowers to a stream of
 * these primitive instructions: parallel butterfly work ((i)NTT), parallel
 * modular arithmetic (EWMM/EWMA and BConv MACs), digit decomposition, and
 * the near-memory LWE operations (Extract, REDC).  Automorphism lowers to
 * NttAuto — the re-rooted NTT of Section IV-C2 — and polynomial rotation
 * to an evaluation-form monomial multiply (Section IV-C3), so no dedicated
 * shuffle instructions are needed beyond the CG-NTT network itself.
 */

#ifndef UFC_ISA_INST_H
#define UFC_ISA_INST_H

#include <span>

#include "common/types.h"

namespace ufc {
namespace isa {

/** Primitive opcodes executed by the accelerator models. */
enum class HwOp
{
    Ntt,        ///< forward NTT (CG-DIF on UFC)
    Intt,       ///< inverse NTT (CG-DIT on UFC)
    NttAuto,    ///< NTT with re-indexed roots: automorphism via NTT
    Ewmm,       ///< element-wise modular multiply
    Ewma,       ///< element-wise modular add (also sub/neg)
    EwScale,    ///< multiply by per-limb scalar
    BconvMac,   ///< base-conversion multiply-accumulate
    Decomp,     ///< gadget digit decomposition
    MonomialMul,///< rotation as evaluation-form monomial multiply
    Extract,    ///< LWE extraction (near-memory LWEU)
    Reduce,     ///< LWE reduction / accumulation (LWEU)
    Shuffle,    ///< inter-channel crossbar data shuffling
    KeyGenOtf,  ///< on-the-fly key / twiddle generation
    NumHwOps,
};

constexpr int kNumHwOps = static_cast<int>(HwOp::NumHwOps);

/** Stable lower-case opcode mnemonic used by the attribution tables
 *  (per-opcode stats export, timeline slices, inspect_trace). */
constexpr const char *
opName(HwOp op)
{
    switch (op) {
      case HwOp::Ntt: return "ntt";
      case HwOp::Intt: return "intt";
      case HwOp::NttAuto: return "ntt_auto";
      case HwOp::Ewmm: return "ewmm";
      case HwOp::Ewma: return "ewma";
      case HwOp::EwScale: return "ew_scale";
      case HwOp::BconvMac: return "bconv_mac";
      case HwOp::Decomp: return "decomp";
      case HwOp::MonomialMul: return "monomial_mul";
      case HwOp::Extract: return "extract";
      case HwOp::Reduce: return "reduce";
      case HwOp::Shuffle: return "shuffle";
      case HwOp::KeyGenOtf: return "keygen_otf";
      case HwOp::NumHwOps: break;
    }
    return "unknown";
}

/** Hardware resources instructions occupy (for utilization accounting). */
enum class Resource
{
    Butterfly, ///< butterfly ALUs
    VectorAlu, ///< modular mul/add lanes
    Noc,       ///< global interconnect (CG network + crossbar)
    Lweu,      ///< near-memory LWE unit
    NumResources,
};

constexpr int kNumResources = static_cast<int>(Resource::NumResources);

/** Stable lower-case resource name used by the structured stats export. */
constexpr const char *
resourceName(Resource r)
{
    switch (r) {
      case Resource::Butterfly: return "butterfly";
      case Resource::VectorAlu: return "vector_alu";
      case Resource::Noc: return "noc";
      case Resource::Lweu: return "lweu";
      case Resource::NumResources: break;
    }
    return "unknown";
}

/** A named operand region used by the scratchpad model. */
struct BufferRef
{
    u64 id = 0;       ///< stable identifier (ciphertext, key, plaintext)
    u64 bytes = 0;    ///< size of the region touched
    bool write = false;
    bool transient = false; ///< produced and consumed on chip; never DRAM
    /// Streamed every use and never cached (e.g. on-the-fly regenerated
    /// keys: only the seed/partial material moves, but it moves each
    /// time rather than occupying scratchpad).
    bool streaming = false;
};

/** One primitive instruction. */
struct HwInst
{
    HwOp op = HwOp::Ewma;
    u32 logDegree = 0; ///< log2 of the per-polynomial degree
    u32 batch = 1;     ///< polynomials processed together (packing)
    u64 words = 0;     ///< machine words read per operand stream
    u64 work = 0;      ///< op-specific work units (butterflies, MACs, ...)
    /// Operand regions, in operand order: a non-owning view of the
    /// issuer's array, valid only for the InstSink::issue() call that
    /// receives it.  Sinks that keep operands past the call copy them.
    std::span<const BufferRef> buffers;
};

/** Convenience: instruction stream consumer interface. */
class InstSink
{
  public:
    virtual ~InstSink() = default;
    virtual void issue(const HwInst &inst) = 0;

    /**
     * Optional phase markers bracketing a region of the instruction
     * stream (a high-level trace op, a key switch, a blind rotation).
     * Phases nest strictly; sinks that don't track them inherit these
     * no-ops.  `name` is valid for the call only (a streamed region
     * marker's name dies with the marker); sinks copy what they keep.
     * A sink may remember the pointer as a lookup hint, but two calls
     * with equal pointers need not carry equal names.
     */
    virtual void beginPhase(const char *name) { (void)name; }
    virtual void endPhase() {}

    /**
     * Optional repeat folding.  A producer about to emit `trips`
     * byte-identical copies of an instruction sequence may offer the
     * repetition to the sink instead of unrolling it: if beginRepeat()
     * returns true, the producer emits the body exactly once followed by
     * endRepeat(), and the stream *means* that body executed `trips`
     * times back to back.  If it returns false (the default — sinks that
     * consume instructions one at a time, like the IR cycle engine, need
     * the unrolled stream), the producer must emit every iteration
     * itself and never call endRepeat().
     *
     * The contract is strict so folding is observable-equivalent to
     * unrolling: every iteration must issue identical instructions
     * (including buffer ids and byte counts), and the body must not
     * contain phase markers.  The bytecode ProgramBuilder accepts
     * repeats and folds them into Program loops; decorators
     * (analysis::VerifyingSink) forward the offer to their inner sink.
     */
    virtual bool beginRepeat(u64 trips)
    {
        (void)trips;
        return false;
    }
    virtual void endRepeat() {}
};

} // namespace isa
} // namespace ufc

#endif // UFC_ISA_INST_H
