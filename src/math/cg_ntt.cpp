/**
 * @file
 * Constant-geometry NTT implementation.
 *
 * Stage structure (forward, DIF): every stage reads element pairs
 * (x[j], x[j + N/2]) and writes (y[2j], y[2j + 1]) — the perfect shuffle —
 * with the stage-t twiddle for pair j equal to omega^(2^t * (j >> t)).
 * After log(N) identical stages the output is in bit-reversed order; this
 * implementation re-permutes to natural order to match NttTable's
 * convention (the hardware simply keeps the bit-reversed lane layout).
 *
 * Twiddles for the default root are fully precomputed per stage (value
 * plus Shoup constant), so the stage loops run multiply-free of any
 * division.  Automorphism transforms use an arbitrary root omega^k and
 * fall back to incremental Barrett-multiplied twiddles.
 */

#include "math/cg_ntt.h"

#include <bit>

#include "common/check.h"
#include "math/ntt.h"
#include "math/ntt_cache.h"
#include "math/primes.h"

namespace ufc {

CgNtt::CgNtt(u64 n, u64 q, u64 psi)
    : n_(n), mod_(q)
{
    UFC_CHECK(n >= 2 && std::has_single_bit(n), "CG-NTT degree must be 2^k");
    UFC_CHECK((q - 1) % (2 * n) == 0,
              "q=" << q << " is not NTT-friendly for n=" << n);
    logN_ = std::countr_zero(n);

    psi_ = psi ? psi : findPrimitiveRoot(2 * n, q);
    UFC_CHECK(powMod(psi_, n, q) == q - 1, "psi^N must equal -1 mod q");
    psiInv_ = invMod(psi_, q);
    omega_ = mod_.mul(psi_, psi_);
    omegaInv_ = invMod(omega_, q);
    nInv_ = invMod(n % q, q);

    twist_.resize(n);
    twistShoup_.resize(n);
    untwist_.resize(n);
    untwistShoup_.resize(n);
    brev_.resize(n);
    u64 t = 1, u = nInv_;
    for (u64 j = 0; j < n; ++j) {
        brev_[j] = bitReverse(static_cast<u32>(j), logN_);
        twist_[j] = t;
        twistShoup_[j] = mod_.shoupPrecompute(t);
        untwist_[j] = u;
        untwistShoup_[j] = mod_.shoupPrecompute(u);
        t = mod_.mul(t, psi_);
        u = mod_.mul(u, psiInv_);
    }

    // Stage twiddle tables for the default root: stage t uses powers of
    // omega^(2^t), indices 0 .. (half >> t) - 1.
    const u64 half = n / 2;
    stageFwdTw_.resize(logN_);
    stageFwdTwShoup_.resize(logN_);
    stageInvTw_.resize(logN_);
    stageInvTwShoup_.resize(logN_);
    for (int s = 0; s < logN_; ++s) {
        const u64 count = (half >> s) ? (half >> s) : 1;
        const u64 fwdBase = powMod(omega_, 1ULL << s, q);
        const u64 invBase = powMod(omegaInv_, 1ULL << s, q);
        stageFwdTw_[s].resize(count);
        stageFwdTwShoup_[s].resize(count);
        stageInvTw_[s].resize(count);
        stageInvTwShoup_[s].resize(count);
        u64 fw = 1, iw = 1;
        for (u64 i = 0; i < count; ++i) {
            stageFwdTw_[s][i] = fw;
            stageFwdTwShoup_[s][i] = mod_.shoupPrecompute(fw);
            stageInvTw_[s][i] = iw;
            stageInvTwShoup_[s][i] = mod_.shoupPrecompute(iw);
            fw = mod_.mul(fw, fwdBase);
            iw = mod_.mul(iw, invBase);
        }
    }
}

void
CgNtt::cyclicForward(std::vector<u64> &a, u64 w) const
{
    const u64 q = mod_.value();
    const u64 half = n_ / 2;
    std::vector<u64> buf(n_);
    std::vector<u64> *src = &a, *dst = &buf;

    if (w == omega_) {
        // Default root: precomputed per-stage twiddles.
        for (int t = 0; t < logN_; ++t) {
            const u64 *tw = stageFwdTw_[t].data();
            const u64 *twS = stageFwdTwShoup_[t].data();
            for (u64 j = 0; j < half; ++j) {
                const u64 s = j >> t;
                const u64 u = (*src)[j];
                const u64 v = (*src)[j + half];
                (*dst)[2 * j] = addMod(u, v, q);
                (*dst)[2 * j + 1] =
                    mod_.mulShoup(subMod(u, v, q), tw[s], twS[s]);
            }
            std::swap(src, dst);
        }
    } else {
        // Arbitrary root (automorphism path): twiddles stepped
        // incrementally with Barrett multiplication.
        u64 base = w;
        for (int t = 0; t < logN_; ++t) {
            u64 tw = 1;
            u64 lastStep = 0;
            for (u64 j = 0; j < half; ++j) {
                const u64 step = j >> t;
                while (lastStep < step) {
                    tw = mod_.mul(tw, base);
                    ++lastStep;
                }
                const u64 u = (*src)[j];
                const u64 v = (*src)[j + half];
                (*dst)[2 * j] = addMod(u, v, q);
                (*dst)[2 * j + 1] = mod_.mul(subMod(u, v, q), tw);
            }
            std::swap(src, dst);
            base = mod_.mul(base, base);
        }
    }
    if (src != &a)
        a = *src;
}

void
CgNtt::cyclicInverse(std::vector<u64> &a, u64 w) const
{
    const u64 q = mod_.value();
    const u64 half = n_ / 2;
    std::vector<u64> buf(n_);
    std::vector<u64> *src = &a, *dst = &buf;

    if (w == omega_) {
        for (int t = logN_ - 1; t >= 0; --t) {
            const u64 *tw = stageInvTw_[t].data();
            const u64 *twS = stageInvTwShoup_[t].data();
            for (u64 j = 0; j < half; ++j) {
                const u64 sdx = j >> t;
                const u64 s = (*src)[2 * j];
                const u64 d =
                    mod_.mulShoup((*src)[2 * j + 1], tw[sdx], twS[sdx]);
                (*dst)[j] = addMod(s, d, q);
                (*dst)[j + half] = subMod(s, d, q);
            }
            std::swap(src, dst);
        }
    } else {
        const u64 wInv = invMod(w, q);
        for (int t = logN_ - 1; t >= 0; --t) {
            // Inverse twiddle base omega^-(2^t); pair-j twiddle base^(j >> t).
            const u64 base = powMod(wInv, 1ULL << t, q);
            u64 tw = 1;
            u64 lastStep = 0;
            for (u64 j = 0; j < half; ++j) {
                const u64 step = j >> t;
                while (lastStep < step) {
                    tw = mod_.mul(tw, base);
                    ++lastStep;
                }
                const u64 s = (*src)[2 * j];
                const u64 d = mod_.mul((*src)[2 * j + 1], tw);
                (*dst)[j] = addMod(s, d, q);
                (*dst)[j + half] = subMod(s, d, q);
            }
            std::swap(src, dst);
        }
    }
    if (src != &a)
        a = *src;
}

void
CgNtt::forward(std::vector<u64> &a) const
{
    UFC_CHECK(a.size() == n_, "size mismatch");
    for (u64 j = 0; j < n_; ++j)
        a[j] = mod_.mulShoup(a[j], twist_[j], twistShoup_[j]);
    cyclicForward(a, omega_);
    // Bit-reversed to natural order.
    for (u64 i = 0; i < n_; ++i) {
        const u64 r = brev_[i];
        if (r > i)
            std::swap(a[i], a[r]);
    }
}

void
CgNtt::inverse(std::vector<u64> &a) const
{
    UFC_CHECK(a.size() == n_, "size mismatch");
    for (u64 i = 0; i < n_; ++i) {
        const u64 r = brev_[i];
        if (r > i)
            std::swap(a[i], a[r]);
    }
    cyclicInverse(a, omega_);
    // Untwist tables already fold in the 1/N scale factor.
    for (u64 j = 0; j < n_; ++j)
        a[j] = mod_.mulShoup(a[j], untwist_[j], untwistShoup_[j]);
}

void
CgNtt::forwardAutomorphism(std::vector<u64> &a, u64 k) const
{
    UFC_CHECK(a.size() == n_, "size mismatch");
    UFC_CHECK(k % 2 == 1, "automorphism index must be odd");
    k %= 2 * n_;
    // Twist with psi^k and run the same network with omega^k: the output is
    // the natural-order evaluation form of f(X^k).
    const u64 q = mod_.value();
    const u64 psiK = powMod(psi_, k, q);
    u64 t = 1;
    for (u64 j = 0; j < n_; ++j) {
        a[j] = mod_.mul(a[j], t);
        t = mod_.mul(t, psiK);
    }
    cyclicForward(a, powMod(omega_, k % n_, q));
    for (u64 i = 0; i < n_; ++i) {
        const u64 r = brev_[i];
        if (r > i)
            std::swap(a[i], a[r]);
    }
}

void
CgNtt::packedForward(std::vector<u64> &a, u64 m) const
{
    UFC_CHECK(a.size() == n_, "size mismatch");
    UFC_CHECK(m >= 2 && m <= n_ && n_ % m == 0, "bad packed degree " << m);
    const u64 p = n_ / m;
    // Functionally: per-polynomial negacyclic NTT of degree m, results in
    // the interleaved layout of Figure 7.  The hardware achieves the same
    // effect with log(m) constant-geometry stages on the packed vector.
    const NttTable *small = cachedNttTable(
        m, mod_.value(), powMod(psi_, n_ / m, mod_.value()));
    std::vector<u64> out(n_);
    std::vector<u64> tmp(m);
    for (u64 pi = 0; pi < p; ++pi) {
        std::copy(a.begin() + pi * m, a.begin() + (pi + 1) * m, tmp.begin());
        small->forward(tmp);
        for (u64 i = 0; i < m; ++i)
            out[i * p + pi] = tmp[i];
    }
    a = std::move(out);
}

void
CgNtt::packedInverse(std::vector<u64> &a, u64 m) const
{
    UFC_CHECK(a.size() == n_, "size mismatch");
    UFC_CHECK(m >= 2 && m <= n_ && n_ % m == 0, "bad packed degree " << m);
    const u64 p = n_ / m;
    const NttTable *small = cachedNttTable(
        m, mod_.value(), powMod(psi_, n_ / m, mod_.value()));
    std::vector<u64> out(n_);
    std::vector<u64> tmp(m);
    for (u64 pi = 0; pi < p; ++pi) {
        for (u64 i = 0; i < m; ++i)
            tmp[i] = a[i * p + pi];
        small->inverse(tmp);
        std::copy(tmp.begin(), tmp.end(), out.begin() + pi * m);
    }
    a = std::move(out);
}

} // namespace ufc
