/**
 * @file
 * Functional bootstrapping for the logic scheme (paper Section II-C2).
 *
 * The three-step flow — packing (modulus switch + test-vector setup),
 * accumulation (blind rotation with RGSW bootstrapping keys), and
 * extraction (sample extract + key switch back to the small key) — follows
 * the paper's breakdown in Figure 4.
 */

#ifndef UFC_TFHE_BOOTSTRAP_H
#define UFC_TFHE_BOOTSTRAP_H

#include <vector>

#include "poly/rns_poly.h"
#include "tfhe/lwe_switch.h"
#include "tfhe/rlwe.h"

namespace ufc {
namespace tfhe {

/** Everything needed to bootstrap: RGSW keys, key switch key, tables. */
class BootstrapContext
{
  public:
    /**
     * Generate bootstrapping material: RGSW encryptions of the small-key
     * bits under the ring key, and a key switching key from the extracted
     * ring key back to the small key.
     */
    BootstrapContext(const TfheParams &params, const LweSecretKey &lweKey,
                     const RlweSecretKey &ringKey, Rng &rng);

    const TfheParams &params() const { return params_; }
    const NttTable *ringTable() const { return ringTable_; }
    const Gadget &gadget() const { return gadget_; }

    /**
     * Blind rotation: homomorphically computes testVector * X^(-phase')
     * where phase' is the mod-switched phase of `ct`.  Returns the RLWE
     * accumulator.  Each step is acc += BK_i ⊡ ((X^(a_i) - 1) * acc) on
     * one workspace allocated per call, so concurrent calls on a shared
     * context stay independent.
     */
    RlweCiphertext blindRotate(const LweCiphertext &ct,
                               const Poly &testVector) const;

    /** Key switch from the extracted (dimension N) key to the small key. */
    LweCiphertext keySwitch(const LweCiphertext &ct) const;

    /**
     * Programmable bootstrapping: evaluates lut (size t, message space
     * Z_t, inputs restricted to [0, t/2) — the padding-bit convention) on
     * the encrypted message and refreshes the noise.  When tOut is
     * nonzero the output is encoded in Z_tOut instead of Z_t (useful for
     * re-encoding before scheme switching or packing).
     */
    LweCiphertext programmableBootstrap(const LweCiphertext &ct,
                                        const std::vector<u64> &lut,
                                        u64 t, u64 tOut = 0) const;

    /**
     * Sign bootstrapping used by the boolean gates: returns an encryption
     * of +q/8 when the phase lies in [0, q/2), -q/8 otherwise.
     */
    LweCiphertext signBootstrap(const LweCiphertext &ct) const;

    /** Build a test vector for a lut over Z_t, outputs encoded in
     *  Z_tOut (tOut == 0 means tOut = t). */
    Poly makeTestVector(const std::vector<u64> &lut, u64 t,
                        u64 tOut = 0) const;

  private:
    TfheParams params_;
    const NttTable *ringTable_;
    Gadget gadget_;
    std::vector<RgswCiphertext> btk_; ///< one RGSW per small-key bit
    /** Extracted ring key (dimension N) -> small key. */
    LweSwitchKey ksk_;
};

} // namespace tfhe
} // namespace ufc

#endif // UFC_TFHE_BOOTSTRAP_H
