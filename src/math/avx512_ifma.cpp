/**
 * @file
 * AVX-512 IFMA kernels: the NTT butterflies (Intel HEXL technique) and
 * the TFHE gadget product's decomposition and multiply-accumulate.
 *
 * This translation unit is compiled with AVX-512 IFMA code generation
 * enabled (see src/CMakeLists.txt) and must only be entered after a
 * runtime avx512IfmaAvailable() check.  On toolchains without AVX-512
 * support the kernels compile to aborting stubs that the dispatchers in
 * ntt.cpp and gadget.cpp never reach.
 *
 * ## NTT
 *
 * The kernels use 52-bit Shoup multiplication built on the IFMA
 * instructions _mm512_madd52{hi,lo}_epu64, which compute the high/low
 * halves of a 52x52-bit product.  For w < q and any a < 2^52 the lazy
 * product a*w - floor(a*w'/2^52)*q with w' = floor(w*2^52/q) is < 2q,
 * so the Harvey invariants (forward values < 4q, inverse values < 2q)
 * hold as long as 4q < 2^52, i.e. q < 2^50 (NttTable::kIfmaModulusBound).
 *
 * Stage layout: stages whose butterfly span t is >= 8 use contiguous
 * 8-lane loads; the last three forward stages (t = 4, 2, 1) and the
 * first three inverse stages process 16-element chunks with cross-lane
 * permutes so every stage stays fully vectorized.  The final forward
 * stage and the inverse n^{-1} scale fold the renormalization to [0, q)
 * into branchless unsigned-min conditional subtracts, and the
 * bit-reversal permutation is a gather fused with the scratch-buffer
 * round trip.
 *
 * ## Gadget decomposition and MAC
 *
 * Both kernels divide by q through a double-precision quotient estimate
 * that one mullo/compare step corrects (divEstimate and estimateRemainder
 * below),
 * and both return exactly the words of Gadget's scalar loops; the
 * exactness argument for each sits at its kernel.
 */

#include "math/gadget.h"
#include "math/ntt.h"

#include "common/check.h"

#if defined(__AVX512IFMA__) && defined(__AVX512F__) && defined(__AVX512DQ__)
#define UFC_HAVE_AVX512_IFMA 1
#include <immintrin.h>
#endif

namespace ufc {
namespace detail {

bool
avx512IfmaAvailable()
{
#ifdef UFC_HAVE_AVX512_IFMA
    static const bool ok = __builtin_cpu_supports("avx512ifma") &&
                           __builtin_cpu_supports("avx512f") &&
                           __builtin_cpu_supports("avx512dq");
    return ok;
#else
    return false;
#endif
}

#ifdef UFC_HAVE_AVX512_IFMA

namespace {

/** Lazy 52-bit Shoup product: y*w - floor(y*wS/2^52)*q, < 2q, for
 *  y < 2^52 and w < q < 2^50. */
inline __m512i
mulShoupLazy52(__m512i y, __m512i w, __m512i wS, __m512i qv, __m512i mask52)
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i qhat = _mm512_madd52hi_epu64(zero, y, wS);
    const __m512i lo = _mm512_madd52lo_epu64(zero, y, w);
    const __m512i lq = _mm512_madd52lo_epu64(zero, qhat, qv);
    return _mm512_and_si512(_mm512_sub_epi64(lo, lq), mask52);
}

// GCC 12's unmasked _mm512_min_epu64, _mm512_permutexvar_epi64 and
// 64-bit shifts pass _mm512_undefined_epi32() (`__m512i __Y = __Y;`) as
// the pass-through operand, and every inlined call then warns
// -Wmaybe-uninitialized.  The helpers below use the all-lanes masked
// forms instead: they take an explicit pass-through and emit the same
// unmasked instructions.

/** x - c if x >= c else x, branchless (underflow makes x - c huge). */
inline __m512i
condSub(__m512i x, __m512i c)
{
    return _mm512_mask_min_epu64(x, 0xFF, x, _mm512_sub_epi64(x, c));
}

/** Lane i of the result is v[idx[i]]. */
inline __m512i
permuteLanes(__m512i idx, __m512i v)
{
    return _mm512_mask_permutexvar_epi64(v, 0xFF, idx, v);
}

/** Lane i of x shifted left by s[i] bits. */
inline __m512i
shiftLeft(__m512i x, __m512i s)
{
    return _mm512_mask_sllv_epi64(x, 0xFF, x, s);
}

/** Lane i of x shifted right by s[i] bits. */
inline __m512i
shiftRight(__m512i x, __m512i s)
{
    return _mm512_mask_srlv_epi64(x, 0xFF, x, s);
}

/** The top 12 bits of each lane: x >> 52. */
inline __m512i
high12(__m512i x)
{
    return _mm512_mask_srli_epi64(x, 0xFF, x, 52);
}

/**
 * Cross-lane permute indices for a stage with butterfly span t in
 * {1, 2, 4}, processing 16 consecutive elements (8 butterflies) per
 * iteration.  Butterfly b takes lanes u = (b/t)*2t + b%t and v = u + t
 * of the [A|B] pair; output lane p of each stored half selects from the
 * concatenated [xNew|yNew] registers; twiddle lane b uses the (b/t)-th
 * twiddle of the chunk.
 */
struct TailIndices
{
    __m512i u, v, lo, hi, tw;

    explicit TailIndices(u64 t)
    {
        alignas(64) long long uI[8], vI[8], loI[8], hiI[8], twI[8];
        for (u64 b = 0; b < 8; ++b) {
            uI[b] = static_cast<long long>((b / t) * 2 * t + b % t);
            vI[b] = uI[b] + static_cast<long long>(t);
            twI[b] = static_cast<long long>(b / t);
        }
        for (u64 p = 0; p < 16; ++p) {
            const u64 b = (p / (2 * t)) * t + (p % t);
            const long long sel =
                static_cast<long long>((p % (2 * t)) < t ? b : b + 8);
            (p < 8 ? loI[p] : hiI[p - 8]) = sel;
        }
        u = _mm512_load_si512(uI);
        v = _mm512_load_si512(vI);
        lo = _mm512_load_si512(loI);
        hi = _mm512_load_si512(hiI);
        tw = _mm512_load_si512(twI);
    }
};

} // namespace

void
ifmaForward(const NttKernelView &view, u64 *a, u64 *scratch)
{
    const u64 n = view.n;
    const u64 q = view.q;
    const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    const __m512i twoQ = _mm512_set1_epi64(static_cast<long long>(2 * q));
    const __m512i mask52 = _mm512_set1_epi64((1LL << 52) - 1);

    // First stage (m = 1, t = n/2 >= 8): out-of-place a -> scratch, so
    // later stages run in scratch and the output gather lands back in a.
    u64 t = n >> 1;
    {
        const __m512i w = _mm512_set1_epi64(
            static_cast<long long>(view.fwdTw[1]));
        const __m512i wS = _mm512_set1_epi64(
            static_cast<long long>(view.fwdTwShoup52[1]));
        for (u64 j = 0; j < t; j += 8) {
            const __m512i xv = _mm512_loadu_si512(a + j);
            const __m512i yv = _mm512_loadu_si512(a + j + t);
            const __m512i tv = mulShoupLazy52(yv, w, wS, qv, mask52);
            _mm512_storeu_si512(scratch + j, _mm512_add_epi64(xv, tv));
            _mm512_storeu_si512(
                scratch + j + t,
                _mm512_add_epi64(_mm512_sub_epi64(xv, tv), twoQ));
        }
    }
    t >>= 1;

    // Middle stages with t >= 8: contiguous vector butterflies.
    u64 m = 2;
    for (; t >= 8; m <<= 1, t >>= 1) {
        for (u64 i = 0; i < m; ++i) {
            const __m512i w = _mm512_set1_epi64(
                static_cast<long long>(view.fwdTw[m + i]));
            const __m512i wS = _mm512_set1_epi64(
                static_cast<long long>(view.fwdTwShoup52[m + i]));
            u64 *x = scratch + 2 * i * t;
            u64 *y = x + t;
            for (u64 j = 0; j < t; j += 8) {
                __m512i xv = _mm512_loadu_si512(x + j);
                const __m512i yv = _mm512_loadu_si512(y + j);
                xv = condSub(xv, twoQ);
                const __m512i tv = mulShoupLazy52(yv, w, wS, qv, mask52);
                _mm512_storeu_si512(x + j, _mm512_add_epi64(xv, tv));
                _mm512_storeu_si512(
                    y + j,
                    _mm512_add_epi64(_mm512_sub_epi64(xv, tv), twoQ));
            }
        }
    }

    // Tail stages t = 4, 2, 1 via cross-lane permutes; the t == 1 stage
    // fuses the full renormalization to [0, q).
    for (; t >= 1; m <<= 1, t >>= 1) {
        const TailIndices ix(t);
        const u64 perChunk = 8 / t; // distinct twiddles per 16 elements
        for (u64 g = 0; g < n / 16; ++g) {
            u64 *base = scratch + g * 16;
            const u64 twBase = m + g * perChunk;
            const __m512i w = permuteLanes(
                ix.tw, _mm512_loadu_si512(view.fwdTw + twBase));
            const __m512i wS = permuteLanes(
                ix.tw, _mm512_loadu_si512(view.fwdTwShoup52 + twBase));
            const __m512i A = _mm512_loadu_si512(base);
            const __m512i B = _mm512_loadu_si512(base + 8);
            __m512i xv = _mm512_permutex2var_epi64(A, ix.u, B);
            const __m512i yv = _mm512_permutex2var_epi64(A, ix.v, B);
            xv = condSub(xv, twoQ);
            const __m512i tv = mulShoupLazy52(yv, w, wS, qv, mask52);
            __m512i xn = _mm512_add_epi64(xv, tv);
            __m512i yn = _mm512_add_epi64(_mm512_sub_epi64(xv, tv), twoQ);
            if (t == 1) {
                xn = condSub(xn, twoQ);
                xn = condSub(xn, qv);
                yn = condSub(yn, twoQ);
                yn = condSub(yn, qv);
            }
            _mm512_storeu_si512(base,
                                _mm512_permutex2var_epi64(xn, ix.lo, yn));
            _mm512_storeu_si512(base + 8,
                                _mm512_permutex2var_epi64(xn, ix.hi, yn));
        }
    }

    // Bit-reversal gather back into the caller's array (values already
    // fully reduced by the last stage).
    const u32 *brev = view.brev;
    for (u64 i = 0; i < n; ++i)
        a[i] = scratch[brev[i]];
}

void
ifmaInverse(const NttKernelView &view, u64 *a, u64 *scratch)
{
    const u64 n = view.n;
    const u64 q = view.q;
    const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    const __m512i twoQ = _mm512_set1_epi64(static_cast<long long>(2 * q));
    const __m512i mask52 = _mm512_set1_epi64((1LL << 52) - 1);

    // Gather into bit-reversed order (inputs < q, so the Gentleman-Sande
    // < 2q invariant holds from the start).
    const u32 *brev = view.brev;
    for (u64 i = 0; i < n; ++i)
        scratch[i] = a[brev[i]];

    // First three stages t = 1, 2, 4 via cross-lane permutes.
    u64 t = 1;
    u64 h = n >> 1;
    for (; t <= 4; h >>= 1, t <<= 1) {
        const TailIndices ix(t);
        const u64 perChunk = 8 / t;
        for (u64 g = 0; g < n / 16; ++g) {
            u64 *base = scratch + g * 16;
            const u64 twBase = h + g * perChunk;
            const __m512i w = permuteLanes(
                ix.tw, _mm512_loadu_si512(view.invTw + twBase));
            const __m512i wS = permuteLanes(
                ix.tw, _mm512_loadu_si512(view.invTwShoup52 + twBase));
            const __m512i A = _mm512_loadu_si512(base);
            const __m512i B = _mm512_loadu_si512(base + 8);
            const __m512i xv = _mm512_permutex2var_epi64(A, ix.u, B);
            const __m512i yv = _mm512_permutex2var_epi64(A, ix.v, B);
            const __m512i xn = condSub(_mm512_add_epi64(xv, yv), twoQ);
            const __m512i diff =
                _mm512_add_epi64(_mm512_sub_epi64(xv, yv), twoQ);
            const __m512i yn = mulShoupLazy52(diff, w, wS, qv, mask52);
            _mm512_storeu_si512(base,
                                _mm512_permutex2var_epi64(xn, ix.lo, yn));
            _mm512_storeu_si512(base + 8,
                                _mm512_permutex2var_epi64(xn, ix.hi, yn));
        }
    }

    // Remaining stages with t >= 8: contiguous vector butterflies.
    for (; h >= 1; h >>= 1, t <<= 1) {
        for (u64 i = 0; i < h; ++i) {
            const __m512i w = _mm512_set1_epi64(
                static_cast<long long>(view.invTw[h + i]));
            const __m512i wS = _mm512_set1_epi64(
                static_cast<long long>(view.invTwShoup52[h + i]));
            u64 *x = scratch + 2 * i * t;
            u64 *y = x + t;
            for (u64 j = 0; j < t; j += 8) {
                const __m512i xv = _mm512_loadu_si512(x + j);
                const __m512i yv = _mm512_loadu_si512(y + j);
                const __m512i xn =
                    condSub(_mm512_add_epi64(xv, yv), twoQ);
                const __m512i diff =
                    _mm512_add_epi64(_mm512_sub_epi64(xv, yv), twoQ);
                const __m512i yn = mulShoupLazy52(diff, w, wS, qv, mask52);
                _mm512_storeu_si512(x + j, xn);
                _mm512_storeu_si512(y + j, yn);
            }
        }
    }

    // Scale by n^{-1} while copying back; one conditional subtract fully
    // reduces the < 2q lazy product.
    const __m512i nI = _mm512_set1_epi64(static_cast<long long>(view.nInv));
    const __m512i nIS =
        _mm512_set1_epi64(static_cast<long long>(view.nInvShoup52));
    for (u64 i = 0; i < n; i += 8) {
        const __m512i xv = _mm512_loadu_si512(scratch + i);
        __m512i r = mulShoupLazy52(xv, nI, nIS, qv, mask52);
        r = condSub(r, qv);
        _mm512_storeu_si512(a + i, r);
    }
}

namespace {

/**
 * Quotient estimate e = trunc(fl(fl(u) * qInv)) of u / q, 8 lanes.  Under
 * any rounding mode each of the three roundings (u to double, 1/q,
 * the product) is off by a relative 2^-52 at most, so
 * |fl(fl(u) * qInv) - u/q| < (u/q) * 2^-50.4; callers keep that below 1,
 * which leaves e within one of floor(u / q).
 */
inline __m512i
divEstimate(__m512i u, __m512d qInv)
{
    return _mm512_cvttpd_epu64(_mm512_mul_pd(_mm512_cvtepu64_pd(u), qInv));
}

/**
 * The remainder r = u - e*q of an estimate e within one of floor(u / q),
 * so r in [-q, 2q): computed mod 2^64 by mullo and read as signed, which
 * is exact for q < 2^62.  *below gets the lanes with r < 0 (e one too
 * big), *above those with r >= q (e one too small).
 */
inline __m512i
estimateRemainder(__m512i u, __m512i e, __m512i qv, __mmask8 *below,
                  __mmask8 *above)
{
    const __m512i r = _mm512_sub_epi64(u, _mm512_mullo_epi64(e, qv));
    *below = _mm512_cmplt_epi64_mask(r, _mm512_setzero_si512());
    *above = _mm512_cmpge_epi64_mask(r, qv);
    return r;
}

} // namespace

/*
 * Decompose, 8 values per step.  num = (x << logBase*l) + floor(q/2)
 * < 2^64 (Gadget's constructor) and xHat = floor(num / q) is the scaled
 * value the digits are peeled from.  num / q < 2^(logBase*l) + 1/2, so
 * for logBase*l <= 48 (Gadget::kIfmaDecomposeMaxBits) the estimate is
 * off by less than (2^48 + 1/2) * 2^-50.4 < 0.2 and one correction step
 * makes it exact for any q the constructor accepts (q < 2^60).  The
 * digit loop is the scalar one with the carry as a lane mask: digit i
 * is y mod B, or y mod B - B stored as q - B + (y mod B) when
 * y mod B >= B/2, which carries one into y >> logBase.
 */
void
ifmaDecompose(const GadgetKernelView &v, const u64 *x, std::size_t count,
              std::size_t stride, u64 *digits)
{
    const u64 base = 1ULL << v.logBase;
    const __m512i qv = _mm512_set1_epi64(static_cast<long long>(v.q));
    const __m512d qInv = _mm512_set1_pd(v.qInv);
    const __m512i halfQ = _mm512_set1_epi64(static_cast<long long>(v.q / 2));
    const __m512i total = _mm512_set1_epi64(v.logBase * v.levels);
    const __m512i shift = _mm512_set1_epi64(v.logBase);
    const __m512i mask = _mm512_set1_epi64(static_cast<long long>(base - 1));
    const __m512i halfB = _mm512_set1_epi64(static_cast<long long>(base / 2));
    const __m512i negBias =
        _mm512_set1_epi64(static_cast<long long>(v.q - base));
    const __m512i one = _mm512_set1_epi64(1);
    for (std::size_t c = 0; c < count; c += 8) {
        const __m512i num = _mm512_add_epi64(
            shiftLeft(_mm512_loadu_si512(x + c), total), halfQ);
        __m512i y = divEstimate(num, qInv);
        __mmask8 below, above;
        estimateRemainder(num, y, qv, &below, &above);
        y = _mm512_mask_sub_epi64(y, below, y, one);
        y = _mm512_mask_add_epi64(y, above, y, one);
        for (int i = v.levels - 1; i >= 0; --i) {
            const __m512i d = _mm512_and_si512(y, mask);
            const __mmask8 carry = _mm512_cmpge_epu64_mask(d, halfB);
            u64 *row = digits + static_cast<std::size_t>(i) * stride;
            _mm512_storeu_si512(row + c,
                                _mm512_mask_add_epi64(d, carry, d, negBias));
            const __m512i rest = shiftRight(y, shift);
            y = _mm512_mask_add_epi64(rest, carry, rest, one);
        }
    }
}

/*
 * MAC, 8 coefficients per step.  Digits and row words are below
 * q < 2^32 (Gadget::kIfmaMacModulusBound), so each product p < 2^64
 * splits exactly into madd52lo's p mod 2^52 and madd52hi's p >> 52
 * < 2^12.  Over count <= 126 rows the two 64-bit lanes hold
 * lo < 126 * 2^52 and hi < 126 * 2^12, and the sum is hi * 2^52 + lo.
 * The fold t = lo + hi * (2^52 mod q) keeps it mod q: hi * (2^52 mod q)
 * < 2^51 is exact in one madd52lo, and t < 2^59.  A second fold of t's
 * top bits, u = (t mod 2^52) + (t >> 52) * (2^52 mod q) < 2^52 + 2^39,
 * leaves u < 2^53, so the quotient estimate is off by less than
 * (2^53/q) * 2^-50.4 < 6.1/q < 1 for q >= 8 (Gadget::kIfmaMacModulusMin),
 * and one correction of the remainder reduces u to [0, q).
 */
void
ifmaGadgetMac(const GadgetKernelView &v, const u64 *digits,
              const Gadget::MacRow *rows, std::size_t count, std::size_t n,
              std::size_t end, u64 *outA, u64 *outB)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<long long>(v.q));
    const __m512d qInv = _mm512_set1_pd(v.qInv);
    const __m512i pow52 = _mm512_set1_epi64(static_cast<long long>(v.pow52));
    const __m512i mask52 = _mm512_set1_epi64((1LL << 52) - 1);
    const __m512i zero = _mm512_setzero_si512();
    const auto reduce = [&](__m512i lo, __m512i hi) {
        const __m512i t = _mm512_madd52lo_epu64(lo, hi, pow52);
        const __m512i u = _mm512_madd52lo_epu64(
            _mm512_and_si512(t, mask52), high12(t), pow52);
        __mmask8 below, above;
        __m512i r =
            estimateRemainder(u, divEstimate(u, qInv), qv, &below, &above);
        r = _mm512_mask_add_epi64(r, below, r, qv);
        return _mm512_mask_sub_epi64(r, above, r, qv);
    };
    for (std::size_t c = 0; c < end; c += 8) {
        __m512i loA = zero, hiA = zero, loB = zero, hiB = zero;
        for (std::size_t r = 0; r < count; ++r) {
            const __m512i d = _mm512_loadu_si512(digits + r * n + c);
            const __m512i a = _mm512_loadu_si512(rows[r].a + c);
            const __m512i b = _mm512_loadu_si512(rows[r].b + c);
            loA = _mm512_madd52lo_epu64(loA, d, a);
            hiA = _mm512_madd52hi_epu64(hiA, d, a);
            loB = _mm512_madd52lo_epu64(loB, d, b);
            hiB = _mm512_madd52hi_epu64(hiB, d, b);
        }
        _mm512_storeu_si512(outA + c, reduce(loA, hiA));
        _mm512_storeu_si512(outB + c, reduce(loB, hiB));
    }
}

#else // !UFC_HAVE_AVX512_IFMA

void
ifmaForward(const NttKernelView &view, u64 *a, u64 *scratch)
{
    (void)view;
    (void)a;
    (void)scratch;
    UFC_CHECK(false, "IFMA NTT kernel called without AVX-512 support");
}

void
ifmaInverse(const NttKernelView &view, u64 *a, u64 *scratch)
{
    (void)view;
    (void)a;
    (void)scratch;
    UFC_CHECK(false, "IFMA NTT kernel called without AVX-512 support");
}

void
ifmaDecompose(const GadgetKernelView &v, const u64 *x, std::size_t count,
              std::size_t stride, u64 *digits)
{
    (void)v;
    (void)x;
    (void)count;
    (void)stride;
    (void)digits;
    UFC_CHECK(false, "IFMA gadget kernel called without AVX-512 support");
}

void
ifmaGadgetMac(const GadgetKernelView &v, const u64 *digits,
              const Gadget::MacRow *rows, std::size_t count, std::size_t n,
              std::size_t end, u64 *outA, u64 *outB)
{
    (void)v;
    (void)digits;
    (void)rows;
    (void)count;
    (void)n;
    (void)end;
    (void)outA;
    (void)outB;
    UFC_CHECK(false, "IFMA gadget kernel called without AVX-512 support");
}

#endif // UFC_HAVE_AVX512_IFMA

} // namespace detail
} // namespace ufc
