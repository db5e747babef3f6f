/**
 * @file
 * RLWE and RGSW ciphertexts for the logic scheme (paper Sections II-A2/3).
 *
 * Convention mirrors lwe.h: RLWE(m) = (a, b) with b = a*s + m + e over
 * R_q = Z_q[X]/(X^N + 1).  RGSW(m) is the 2l x 2 matrix Z + m*G with
 * G = I_2 (x) g for the gadget vector g; external products with RLWE
 * ciphertexts implement CMux and blind rotation.
 */

#ifndef UFC_TFHE_RLWE_H
#define UFC_TFHE_RLWE_H

#include <span>
#include <vector>

#include "common/rng.h"
#include "math/gadget.h"
#include "poly/poly.h"
#include "tfhe/lwe.h"
#include "tfhe/params.h"

namespace ufc {
namespace tfhe {

/** Binary RLWE secret key s(X) with coefficients in {0, 1}. */
struct RlweSecretKey
{
    Poly s; ///< coefficient form

    static RlweSecretKey generate(const NttTable *table, Rng &rng);
};

/** An RLWE ciphertext (a, b) in R_q^2. */
struct RlweCiphertext
{
    Poly a;
    Poly b;

    /** Noiseless encryption (0, m). */
    static RlweCiphertext trivial(Poly m);

    u64 degree() const { return b.degree(); }
    u64 modulus() const { return b.modulus(); }

    void addInPlace(const RlweCiphertext &other);
    void subInPlace(const RlweCiphertext &other);
    /** Multiply both components by the monomial X^r (coefficient form). */
    RlweCiphertext mulByMonomial(i64 r) const;
    void toCoeff();
    void toEval();
};

/** Fresh RLWE encryption of message polynomial m (coefficient form). */
RlweCiphertext rlweEncrypt(const Poly &m, const RlweSecretKey &key,
                           double sigma, Rng &rng);

/** Phase b - a*s (message plus noise), coefficient form. */
Poly rlwePhase(const RlweCiphertext &ct, const RlweSecretKey &key);

/**
 * RGSW ciphertext: rows 0..l-1 encrypt m*g_i in the `a` slot, rows l..2l-1
 * encrypt m*g_i in the `b` slot; every row is an RLWE encryption of zero
 * plus the gadget term.  Rows are stored in evaluation form, ready for
 * external products.
 */
struct RgswCiphertext
{
    std::vector<RlweCiphertext> rows; ///< 2l rows, Eval form
    int levels = 0;
};

/** Encrypt a scalar (0/1 in blind rotation) or small polynomial m. */
RgswCiphertext rgswEncrypt(const Poly &m, const RlweSecretKey &key,
                           const Gadget &gadget, double sigma, Rng &rng);

/**
 * The gadget product behind external products, CMux, blind rotation and
 * RLWE key switching, i.e. paper Figure 4's Decomp -> NTT -> EWMM/EWMA
 * -> INTT chain:
 *
 *     out = sum_k sum_i Decomp_i(in[k]) * rows[k * l + i]
 *
 * `in` are one or two coefficient-form polynomials of one ring; `rows`
 * holds in.size() * l evaluation-form rows; `out` ends in coefficient
 * form.  Decomp and EWMM/EWMA run on Gadget's IFMA kernels where they
 * apply and on its scalar loops elsewhere, with the same output words.
 * `digits` is caller-owned scratch, grown on first use, so a loop over
 * gadget products allocates nothing.
 */
void gadgetProduct(std::span<const Poly *const> in,
                   const RlweCiphertext *rows, const Gadget &gadget,
                   std::vector<u64> &digits, RlweCiphertext &out);

/** External product RGSW(m) ⊡ RLWE(mu) -> RLWE(m * mu) (gadgetProduct
 *  of rlwe's two components against the 2l RGSW rows). */
RlweCiphertext externalProduct(const RgswCiphertext &rgsw,
                               const RlweCiphertext &rlwe,
                               const Gadget &gadget);

/** CMux(c, ct0, ct1) = ct0 + c ⊡ (ct1 - ct0); selects ct1 when c = 1. */
RlweCiphertext cmux(const RgswCiphertext &c, const RlweCiphertext &ct0,
                    const RlweCiphertext &ct1, const Gadget &gadget);

/**
 * Extract the LWE encryption of the coefficient `index` of the RLWE
 * plaintext, under the key given by the RLWE key coefficients (the Extract
 * primitive of paper Table I).
 */
LweCiphertext sampleExtract(const RlweCiphertext &ct, u64 index = 0);

} // namespace tfhe
} // namespace ufc

#endif // UFC_TFHE_RLWE_H
