/**
 * @file
 * Gadget (digit) decomposition.
 *
 * TFHE external products and key switching decompose ciphertext elements
 * w.r.t. a gadget vector g = (q/B, q/B^2, ..., q/B^l) so that
 * sum_i d_i * g_i ≈ x with |d_i| <= B/2 (signed, balanced digits).  This is
 * the Decomp primitive of paper Table I.
 */

#ifndef UFC_MATH_GADGET_H
#define UFC_MATH_GADGET_H

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "math/mod_arith.h"

namespace ufc {

/** Balanced base-B digit decomposition over Z_q. */
class Gadget
{
  public:
    /**
     * @param q       ciphertext modulus
     * @param logBase log2 of the decomposition base B
     * @param levels  number of digits l
     *
     * Throws ConfigError unless B <= q and (q-1)*B^l + q/2 < 2^64, the
     * range in which decompose() scales x without a 128-bit division.
     */
    Gadget(u64 q, int logBase, int levels);

    int levels() const { return levels_; }
    int logBase() const { return logBase_; }
    u64 base() const { return 1ULL << logBase_; }

    /** The gadget element g_i = round(q / B^(i+1)). */
    u64 g(int i) const { return g_[i]; }

    /**
     * Decompose each x[c] in [0, q), c < count, into `levels` balanced
     * digits d_i (returned mod q) with sum_i d_i * g_i ≈ x[c]; the
     * approximation error is at most g_{l-1}/2 in absolute value.  Digit
     * i of x[c] is written to digits[i * count + c], so a polynomial
     * decomposes straight into l digit polynomials and a single value
     * (count 1) into l consecutive words.
     */
    void decompose(const u64 *x, std::size_t count, u64 *digits) const;

    /** Recompose digits back; useful for tests. */
    u64 recompose(const u64 *digits) const;

  private:
    Modulus mod_;
    int logBase_ = 0;
    int levels_ = 0;
    u64 recip_ = 0; ///< floor(2^64 / q)
    std::vector<u64> g_;
};

} // namespace ufc

#endif // UFC_MATH_GADGET_H
