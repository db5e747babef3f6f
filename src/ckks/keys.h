/**
 * @file
 * CKKS key material: secret key, evaluation (key-switching) keys and the
 * key generator.
 *
 * Hybrid key switching with dnum digits (paper Section II-B3): an
 * evaluation key for a source key s_src has one RLWE pair per digit d,
 * encrypting P * Qhat_d * s_src over the extended basis Q x P.  Relin keys
 * use s_src = s^2; Galois keys use s_src = sigma_k(s).
 */

#ifndef UFC_CKKS_KEYS_H
#define UFC_CKKS_KEYS_H

#include <map>
#include <vector>

#include "ckks/ciphertext.h"
#include "ckks/context.h"
#include "ckks/encoder.h"

namespace ufc {
namespace ckks {

/** Ternary secret key stored over the full Q x P basis in Eval form. */
struct SecretKey
{
    RnsPoly s;
};

/** One key-switching key: dnum RLWE pairs over the full Q x P basis. */
struct EvalKey
{
    std::vector<RnsPoly> b; ///< per digit, Eval form
    std::vector<RnsPoly> a; ///< per digit, Eval form
};

/** Generates secrets and evaluation keys. */
class CkksKeyGenerator
{
  public:
    CkksKeyGenerator(const CkksContext *ctx, Rng &rng);

    const SecretKey &secretKey() const { return sk_; }

    /** Relinearization key (s_src = s^2). */
    EvalKey makeRelinKey() const;
    /** Galois key for the automorphism X -> X^k. */
    EvalKey makeGaloisKey(u64 k) const;
    /** Galois key for a slot rotation by `steps` (k = 5^steps mod 2N). */
    EvalKey makeRotationKey(int steps) const;
    /** Conjugation key (k = 2N - 1). */
    EvalKey makeConjugationKey() const;

    /** Automorphism index for a slot rotation by `steps`. */
    u64 rotationAutomorphism(int steps) const;

    /** Key-switching key from an arbitrary source secret to this secret
     *  (used by scheme switching / repacking). */
    EvalKey makeSwitchingKey(const RnsPoly &srcSecretQp) const;

  private:
    const CkksContext *ctx_;
    Rng *rng_;
    SecretKey sk_;
};

/** Symmetric encryption / decryption under the secret key. */
class CkksEncryptor
{
  public:
    CkksEncryptor(const CkksContext *ctx, const SecretKey *sk, Rng &rng)
        : ctx_(ctx), sk_(sk), rng_(&rng)
    {}

    Ciphertext encrypt(const Plaintext &pt) const;
    Plaintext decrypt(const Ciphertext &ct) const;

  private:
    const CkksContext *ctx_;
    const SecretKey *sk_;
    Rng *rng_;
};

/** Select only the q limbs [0, limbs) of a full poly. */
RnsPoly subPolyQ(const CkksContext *ctx, const RnsPoly &full, int limbs);

} // namespace ckks
} // namespace ufc

#endif // UFC_CKKS_KEYS_H
