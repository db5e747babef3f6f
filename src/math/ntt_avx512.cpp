/**
 * @file
 * AVX-512 IFMA NTT butterfly kernels (Intel HEXL technique).
 *
 * This translation unit is compiled with AVX-512 IFMA code generation
 * enabled (see src/CMakeLists.txt) and must only be entered after a
 * runtime avx512IfmaAvailable() check.  On toolchains without AVX-512
 * support the kernels compile to aborting stubs that the dispatcher in
 * ntt.cpp never reaches.
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
 */

#include "math/ntt.h"

#include "common/check.h"

#if defined(__AVX512IFMA__) && defined(__AVX512F__) && defined(__AVX512DQ__)
#define UFC_HAVE_AVX512_NTT 1
#include <immintrin.h>
#endif

namespace ufc {
namespace detail {

bool
avx512IfmaAvailable()
{
#ifdef UFC_HAVE_AVX512_NTT
    static const bool ok = __builtin_cpu_supports("avx512ifma") &&
                           __builtin_cpu_supports("avx512f") &&
                           __builtin_cpu_supports("avx512dq");
    return ok;
#else
    return false;
#endif
}

#ifdef UFC_HAVE_AVX512_NTT

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

// GCC 12's unmasked _mm512_min_epu64 and _mm512_permutexvar_epi64 pass
// _mm512_undefined_epi32() (`__m512i __Y = __Y;`) as the pass-through
// operand, and every inlined call then warns -Wmaybe-uninitialized.
// The two helpers below use the all-lanes masked forms instead: they take
// an explicit pass-through and emit the same unmasked instructions.

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

#else // !UFC_HAVE_AVX512_NTT

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

#endif // UFC_HAVE_AVX512_NTT

} // namespace detail
} // namespace ufc
