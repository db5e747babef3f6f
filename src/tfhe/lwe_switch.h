/**
 * @file
 * LWE-to-LWE key switching between arbitrary keys, dimensions and (via
 * LweCiphertext::modSwitch) moduli: the last step of every bootstrap
 * (paper Section II-C3) and the glue of every scheme-switching path in
 * Figure 1 of the paper.
 */

#ifndef UFC_TFHE_LWE_SWITCH_H
#define UFC_TFHE_LWE_SWITCH_H

#include <vector>

#include "math/gadget.h"
#include "tfhe/lwe.h"

namespace ufc {
namespace tfhe {

/** Switches LWE ciphertexts from `srcKey` to `dstKey` (same modulus). */
class LweSwitchKey
{
  public:
    /**
     * @param srcKey   key of the inputs (any small values mod q)
     * @param dstKey   key of the outputs
     * @param q        ciphertext modulus
     * @param logBase  log2 of the decomposition base
     * @param levels   decomposition depth
     * @param sigma    key-encryption noise
     *
     * Throws ConfigError unless srcDim * levels * (B/2) * q < 2^63, the
     * bound under which apply() sums signed digit products in an i64.
     */
    LweSwitchKey(const LweSecretKey &srcKey, const LweSecretKey &dstKey,
                 u64 q, int logBase, int levels, double sigma, Rng &rng);

    LweCiphertext apply(const LweCiphertext &ct) const;

  private:
    u64 q_;
    u32 srcDim_;
    u32 dstDim_;
    Gadget gadget_;
    /** Row (i, j), at words [(i * levels + j) * (dstDim + 1), ...), holds
     *  the a-vector then the body of an encryption of srcKey_i * g_j
     *  under dstKey. */
    std::vector<u64> rows_;
};

} // namespace tfhe
} // namespace ufc

#endif // UFC_TFHE_LWE_SWITCH_H
