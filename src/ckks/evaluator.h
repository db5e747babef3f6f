/**
 * @file
 * CKKS homomorphic evaluator.
 *
 * Implements the high-level operations of paper Figure 3: addition,
 * multiplication with relinearization, rescaling, rotation via Galois
 * automorphisms, conjugation and plaintext operations.  Key switching is
 * the hybrid dnum-digit variant: ModUp (per-digit base conversion to
 * Q x P), inner product with the evaluation key, then ModDown.
 *
 * Ciphertexts stay in evaluation form, and so does most of the work:
 *   - ModUp runs an INTT on each input limb once; a digit's own limbs
 *     are the eval-form input times a constant, and only the limbs
 *     outside the digit go through BConv and an NTT.
 *   - The key inner product sums every digit per coefficient in 128
 *     bits and reduces once, reading the key limbs in place.
 *   - ModDown runs an INTT on the K special limbs only, and rescale on
 *     the last limb only; both subtract the NTT of the converted limbs
 *     and scale by the dropped modulus' inverse in eval form.
 * Every constant comes precomputed from CkksContext (ModUpPlan,
 * DropPlan), the BConv is math/rns.h's BaseConverter, and temporaries
 * live in a per-thread workspace that later calls reuse, so a warmed
 * multiply, rescale or rotate allocates only its outputs.  Output words
 * are the canonical residues of the textbook formulas, independent of
 * the operation order and of the kernel thread count.
 */

#ifndef UFC_CKKS_EVALUATOR_H
#define UFC_CKKS_EVALUATOR_H

#include "ckks/keys.h"

namespace ufc {
namespace ckks {

/** Homomorphic operation engine; stateless apart from context pointers. */
class CkksEvaluator
{
  public:
    explicit CkksEvaluator(const CkksContext *ctx) : ctx_(ctx) {}

    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;
    Ciphertext negate(const Ciphertext &a) const;

    Ciphertext addPlain(const Ciphertext &a, const Plaintext &p) const;
    Ciphertext subPlain(const Ciphertext &a, const Plaintext &p) const;
    Ciphertext mulPlain(const Ciphertext &a, const Plaintext &p) const;

    /** Full multiply: tensor, relinearize with `relin`, no rescale. */
    Ciphertext multiply(const Ciphertext &a, const Ciphertext &b,
                        const EvalKey &relin) const;

    /** Square (saves one tensor product half). */
    Ciphertext square(const Ciphertext &a, const EvalKey &relin) const;

    /** Divide by the last modulus and drop it (paper Section II-B1). */
    Ciphertext rescale(const Ciphertext &a) const;

    /** Drop limbs without scaling (level alignment). */
    Ciphertext dropToLimbs(const Ciphertext &a, int limbs) const;

    /** Slot rotation by `steps` using the matching Galois key. */
    Ciphertext rotate(const Ciphertext &a, int steps,
                      const EvalKey &galoisKey) const;

    /** Slot-wise complex conjugation. */
    Ciphertext conjugate(const Ciphertext &a,
                         const EvalKey &conjKey) const;

    /** Apply automorphism k to both components and key-switch. */
    Ciphertext applyGalois(const Ciphertext &a, u64 k,
                           const EvalKey &galoisKey) const;

    /**
     * Hybrid key switching core: given a polynomial `c` (Eval form, q
     * basis) that currently multiplies some source secret, return the pair
     * (d0, d1) over the q basis such that d0 + d1*s ~ c * s_src.
     */
    std::pair<RnsPoly, RnsPoly> keySwitch(const RnsPoly &c,
                                          const EvalKey &key) const;

  private:
    const CkksContext *ctx_;
};

} // namespace ckks
} // namespace ufc

#endif // UFC_CKKS_EVALUATOR_H
