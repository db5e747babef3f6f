/**
 * @file
 * Residue number system (RNS) machinery: bases, exact CRT reconstruction
 * helpers, and the fast base conversion (BConv) used by CKKS hybrid
 * key-switching and rescaling (paper Section II-B3).
 *
 * BaseConverter is the one BConv kernel: every constant is precomputed,
 * and each target coefficient sums its terms in 128 bits and is
 * Barrett-reduced once, so no division or data-dependent branch runs
 * per term.  baseConvert() is its scalar oracle, as
 * NttTable::forwardReference is the NTT's.
 */

#ifndef UFC_MATH_RNS_H
#define UFC_MATH_RNS_H

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "math/mod_arith.h"

namespace ufc {

/**
 * An RNS basis: a set of pairwise-coprime word-size primes q_0..q_{L-1}
 * together with the precomputation needed by base conversion.
 */
class RnsBasis
{
  public:
    RnsBasis() = default;
    explicit RnsBasis(std::vector<u64> moduli);

    size_t size() const { return mods_.size(); }
    const Modulus &mod(size_t i) const { return mods_[i]; }
    u64 value(size_t i) const { return mods_[i].value(); }
    const std::vector<u64> &values() const { return values_; }

    /** (Q / q_i)^-1 mod q_i — the qHatInv factors of the BConv formula. */
    u64 qHatInvModQi(size_t i) const { return qHatInvModQi_[i]; }

    /** Q / q_i reduced mod an arbitrary target modulus p. */
    u64 qHatModP(size_t i, const Modulus &p) const;

    /** Total log2 of the basis product (for parameter accounting). */
    double logQ() const;

  private:
    std::vector<Modulus> mods_;
    std::vector<u64> values_;
    std::vector<u64> qHatInvModQi_;
};

/**
 * True when `terms` products a * b with a < aBound and b < bBound always
 * sum below 2^128, the range of one u128 accumulator.
 */
bool u128SumFits(std::size_t terms, u64 aBound, u64 bBound);

/**
 * Precomputed fast base conversion of polynomials from the basis
 * Q = {q_i} to the basis {p_t}:
 *
 *   BConv(x)_t = sum_i [x_i * f_i]_{q_i} * (Q/q_i mod p_t)  (mod p_t)
 *
 * with f_i = (Q/q_i)^-1 mod q_i times an optional per-limb factor the
 * caller folds in (hybrid key switching folds Qhat_d^-1 into it, so
 * digit extraction and conversion take one multiply).  Polynomials are
 * limb-major: source limb i of an n-coefficient polynomial starts at
 * word i * n.
 */
class BaseConverter
{
  public:
    BaseConverter() = default;

    /**
     * Throws ConfigError when a target sum could reach 2^128, i.e.
     * unless from.size() * max(q_i) * max(p_t) < 2^128.
     */
    BaseConverter(const std::vector<u64> &from, const std::vector<u64> &to,
                  const std::vector<u64> &fold = {});

    /** Source step: y[k] = x[k] * f_i mod q_i for k < n (y may be x). */
    void scale(std::size_t i, const u64 *x, u64 *y, std::size_t n) const;

    /**
     * Target step: out[k] = BConv_t for k < n, from all scaled source
     * limbs, stored n words apart in y.
     */
    void convert(std::size_t t, const u64 *y, u64 *out,
                 std::size_t n) const;

  private:
    std::vector<Modulus> from_;
    std::vector<Modulus> to_;
    std::vector<u64> factor_;      ///< f_i
    std::vector<u64> factorShoup_; ///< Shoup companions of f_i
    std::vector<u64> hat_;         ///< [t * from_.size() + i] = Q/q_i mod p_t
};

/**
 * Fast base conversion of a single RNS integer (given as residues w.r.t.
 * `from`) into residues w.r.t. the moduli of `to`:
 *
 *   BConv(x) = sum_j [x_j * qHat_j^-1]_{q_j} * qHat_j  (mod p_i)
 *
 * This is the standard approximate conversion (result may be off by a small
 * multiple of Q, which the CKKS noise analysis absorbs).  One term and one
 * reduction at a time: the scalar oracle BaseConverter must match.
 */
std::vector<u64> baseConvert(const std::vector<u64> &residues,
                             const RnsBasis &from, const RnsBasis &to);

/**
 * Exact CRT reconstruction of a small signed integer from its residues.
 * Valid when |x| < Q/2 and Q fits in 128 bits; used by tests.
 */
i128 crtReconstructSigned(const std::vector<u64> &residues,
                          const RnsBasis &basis);

} // namespace ufc

#endif // UFC_MATH_RNS_H
