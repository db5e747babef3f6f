/**
 * @file
 * CKKS <-> TFHE scheme switching (paper Section II-D, Figure 1).
 *
 * Extraction: a CKKS ciphertext at the last level (one RNS limb) is an
 * RLWE ciphertext mod q0; each plaintext coefficient extracts to an LWE
 * under the CKKS ring key's coefficient vector, which an LweSwitchKey then
 * normalizes to the logic scheme's key, dimension and modulus.
 *
 * Repacking: see switching/repack.h (EvalTrace-based ring packing).
 */

#ifndef UFC_SWITCHING_SCHEME_SWITCH_H
#define UFC_SWITCHING_SCHEME_SWITCH_H

#include <memory>

#include "ckks/keys.h"
#include "tfhe/lwe_switch.h"

namespace ufc {
namespace switching {

/** The CKKS secret key's coefficients viewed as an LWE key mod q0. */
tfhe::LweSecretKey ckksKeyAsLwe(const ckks::CkksContext &ctx,
                                const ckks::SecretKey &sk);

/**
 * Extract the LWE encryption of plaintext coefficient `index` from a
 * one-limb CKKS ciphertext.  The result is an LWE of dimension N_ckks
 * modulo q0 under ckksKeyAsLwe(...); its message is the scaled value
 * round(value * ct.scale).
 */
tfhe::LweCiphertext extractFromCkks(const ckks::CkksContext &ctx,
                                    const ckks::Ciphertext &ct, u64 index);

/**
 * Everything needed to move extracted CKKS values into the logic scheme:
 * mod-switch q0 -> q_tfhe, then key/dimension switch to the TFHE key.
 */
class CkksToTfheBridge
{
  public:
    CkksToTfheBridge(const ckks::CkksContext &ctx,
                     const ckks::SecretKey &ckksSk,
                     const tfhe::LweSecretKey &tfheKey,
                     const tfhe::TfheParams &tfheParams, Rng &rng);

    /**
     * Full path: extract coefficient `index`, switch modulus to the TFHE
     * prime, switch key/dimension to the TFHE key.
     */
    tfhe::LweCiphertext convert(const ckks::Ciphertext &ct,
                                u64 index) const;

  private:
    const ckks::CkksContext *ctx_;
    std::unique_ptr<tfhe::LweSwitchKey> dimSwitch_;
    u64 tfheQ_;
};

} // namespace switching
} // namespace ufc

#endif // UFC_SWITCHING_SCHEME_SWITCH_H
