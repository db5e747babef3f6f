/**
 * @file
 * Gadget (digit) decomposition and the gadget product's multiply-accumulate.
 *
 * TFHE external products and key switching decompose ciphertext elements
 * w.r.t. a gadget vector g = (q/B, q/B^2, ..., q/B^l) so that
 * sum_i d_i * g_i ≈ x with |d_i| <= B/2 (signed, balanced digits).  This is
 * the Decomp primitive of paper Table I; Gadget::mac is the EWMM/EWMA step
 * that follows it in the gadget product (paper Fig. 4).
 *
 * Both run on AVX-512 IFMA kernels (math/avx512_ifma.cpp) when the CPU has
 * them and the gadget lies inside the kernels' exactness range, and on
 * scalar loops otherwise; decomposeReference()/macReference() are the
 * scalar loops alone, kept as the differential-testing oracle the way
 * NttTable::forwardReference is.  Every path returns the same words.
 */

#ifndef UFC_MATH_GADGET_H
#define UFC_MATH_GADGET_H

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "math/mod_arith.h"

namespace ufc {

namespace detail {

/** The constants the IFMA gadget kernels read (see Gadget). */
struct GadgetKernelView
{
    u64 q = 0;
    double qInv = 0;  ///< 1.0 / q, the quotient-estimate factor
    u64 pow52 = 0;    ///< 2^52 mod q, folds a 52-bit high half back
    int logBase = 0;
    int levels = 0;
};

} // namespace detail

/** Balanced base-B digit decomposition over Z_q. */
class Gadget
{
  public:
    /** Largest digit count: logBase * levels < 64 with logBase >= 1. */
    static constexpr int kMaxLevels = 63;
    /** mac() takes at most two rows per level (the two RLWE components
     *  of a gadget product's input). */
    static constexpr std::size_t kMaxMacRows = 2 * kMaxLevels;
    /** The IFMA decompose needs logBase * levels at most this. */
    static constexpr int kIfmaDecomposeMaxBits = 48;
    /** The IFMA MAC needs kIfmaMacModulusMin <= q < this. */
    static constexpr u64 kIfmaMacModulusBound = 1ULL << 32;
    static constexpr u64 kIfmaMacModulusMin = 8;

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

    /** decompose() on the scalar loops only: the oracle. */
    void decomposeReference(const u64 *x, std::size_t count,
                            u64 *digits) const;

    /** One row of a gadget product's key: its two evaluation-form
     *  components, each n words in [0, q). */
    struct MacRow
    {
        const u64 *a = nullptr;
        const u64 *b = nullptr;
    };

    /**
     * The gadget product's EWMM + EWMA: for c < n,
     *
     *     outA[c] = sum_{r < count} digits[r * n + c] * rows[r].a[c]  mod q
     *
     * and outB likewise from rows[r].b, fully reduced.  Digits and row
     * words must lie in [0, q); count is at most kMaxMacRows.
     */
    void mac(const u64 *digits, const MacRow *rows, std::size_t count,
             std::size_t n, u64 *outA, u64 *outB) const;

    /** mac() on the scalar loop only: the oracle. */
    void macReference(const u64 *digits, const MacRow *rows,
                      std::size_t count, std::size_t n, u64 *outA,
                      u64 *outB) const;

    /** True when decompose() runs on the IFMA kernel (all but the last
     *  count % 8 values). */
    bool decomposeUsesAvx512() const { return ifmaDecompose_; }
    /** True when mac() runs on the IFMA kernel (all but the last n % 8
     *  coefficients). */
    bool macUsesAvx512() const { return ifmaMac_; }

    /** Recompose digits back; useful for tests. */
    u64 recompose(const u64 *digits) const;

  private:
    void decomposeScalar(const u64 *x, std::size_t begin, std::size_t end,
                         std::size_t stride, u64 *digits) const;
    void macScalar(const u64 *digits, const MacRow *rows, std::size_t count,
                   std::size_t n, std::size_t begin, u64 *outA,
                   u64 *outB) const;

    Modulus mod_;
    int logBase_ = 0;
    int levels_ = 0;
    u64 recip_ = 0; ///< floor(2^64 / q)
    std::vector<u64> g_;
    bool ifmaDecompose_ = false;
    bool ifmaMac_ = false;
    detail::GadgetKernelView view_;
};

namespace detail {

/**
 * AVX-512 IFMA gadget kernels (math/avx512_ifma.cpp); they require
 * avx512IfmaAvailable() and the ranges Gadget checks before selecting
 * them.  ifmaDecompose handles x[0, count) for count a multiple of 8 and
 * writes digit i of x[c] to digits[i * stride + c].  ifmaGadgetMac
 * computes Gadget::mac's outputs for c < end, end a multiple of 8.
 */
void ifmaDecompose(const GadgetKernelView &v, const u64 *x,
                   std::size_t count, std::size_t stride, u64 *digits);
void ifmaGadgetMac(const GadgetKernelView &v, const u64 *digits,
                   const Gadget::MacRow *rows, std::size_t count,
                   std::size_t n, std::size_t end, u64 *outA, u64 *outB);

} // namespace detail

} // namespace ufc

#endif // UFC_MATH_GADGET_H
