/**
 * @file
 * Gadget-based RLWE-to-RLWE key switching.
 *
 * Switches an RLWE ciphertext under a source ring key to the target ring
 * key: the workhorse behind homomorphic automorphisms (the sigma_k(s) -> s
 * switch used by EvalTrace in ring packing) and generic ring-key changes
 * during scheme switching.
 */

#ifndef UFC_TFHE_RLWE_KS_H
#define UFC_TFHE_RLWE_KS_H

#include "tfhe/rlwe.h"

namespace ufc {
namespace tfhe {

/** Key-switching key: l RLWE rows encrypting srcKey * g_i. */
class RlweKeySwitchKey
{
  public:
    /**
     * @param srcKey     the key (coefficient form) the input is under
     * @param dstKey     the key the output should be under
     * @param gadget     decomposition parameters
     * @param sigma      encryption noise for the key rows
     */
    RlweKeySwitchKey(const Poly &srcKey, const RlweSecretKey &dstKey,
                     const Gadget &gadget, double sigma, Rng &rng);

    /** Switch ct (under srcKey) to an encryption under dstKey. */
    RlweCiphertext apply(const RlweCiphertext &ct) const;

  private:
    Gadget gadget_;
    std::vector<RlweCiphertext> rows_; ///< Eval form
};

/**
 * Homomorphic automorphism: apply X -> X^k to the plaintext of `ct` using
 * the key-switching key built for sigma_k(s) -> s.
 */
RlweCiphertext applyRingAutomorphism(const RlweCiphertext &ct, u64 k,
                                     const RlweKeySwitchKey &ksk);

} // namespace tfhe
} // namespace ufc

#endif // UFC_TFHE_RLWE_KS_H
