/**
 * @file
 * LWE -> RLWE ring packing via EvalTrace (paper Section II-D: repacking).
 *
 * Each input LWE embeds into an RLWE whose constant coefficient carries
 * its phase (the other coefficients are garbage); log(N) homomorphic
 * automorphism-and-add steps (the field trace) zero the garbage while
 * multiplying the message by N; monomial shifts then superpose the packed
 * values into distinct coefficients.
 *
 * The trace factor N means packed messages are recovered as
 * (N mod t) * m mod t, so the plaintext modulus t must be coprime to N
 * (odd): the caller inverts the factor after decryption.  This is the
 * standard scaling behaviour of trace-based packing (Chen et al.).
 */

#ifndef UFC_SWITCHING_REPACK_H
#define UFC_SWITCHING_REPACK_H

#include <memory>
#include <vector>

#include "tfhe/rlwe_ks.h"

namespace ufc {
namespace switching {

/** Packs LWE ciphertexts (dim N_ring, same modulus) into one RLWE. */
class RingPacker
{
  public:
    /**
     * @param ringKey   the target ring key (the LWE inputs must already be
     *                  under its coefficient vector; use
     *                  tfhe::LweSwitchKey to get there)
     * @param gadget    decomposition for the automorphism key switches
     * @param sigma     key-encryption noise
     */
    RingPacker(const tfhe::RlweSecretKey &ringKey, const Gadget &gadget,
               double sigma, Rng &rng);

    /**
     * Pack lwes[i] into coefficient i of one RLWE ciphertext.  At most
     * N_ring inputs.  The packed message at coefficient i decrypts to
     * (N mod t) * m_i (mod t) for plaintext modulus t coprime to N.
     */
    tfhe::RlweCiphertext pack(
        const std::vector<tfhe::LweCiphertext> &lwes) const;

    /** The LWE key the inputs must be under. */
    tfhe::LweSecretKey inputLweKey() const;

    /** Multiplier applied to packed messages: N mod t. */
    u64 traceFactor(u64 t) const { return degree_ % t; }

  private:
    u64 degree_;
    const NttTable *table_;
    /// Trace-step key-switch keys for k = N/2^j + 1.
    std::vector<std::unique_ptr<tfhe::RlweKeySwitchKey>> traceKeys_;
    std::vector<u64> traceAutos_;
    tfhe::RlweSecretKey ringKey_;
};

} // namespace switching
} // namespace ufc

#endif // UFC_SWITCHING_REPACK_H
