/**
 * @file
 * Iterative negacyclic NTT implementation: table construction, scalar
 * Harvey lazy-reduction kernels, reference kernels, and dispatch to the
 * AVX-512 IFMA kernels in math/avx512_ifma.cpp.
 */

#include "math/ntt.h"

#include <bit>

#include "common/check.h"
#include "math/primes.h"

namespace ufc {

namespace {

/**
 * Per-thread transform scratch.  The lazy kernels run their butterfly
 * stages out-of-place into this buffer so the final pass can fuse the
 * bit-reversal permutation (a gather, much faster than the pairwise
 * swap walk) with renormalization.  thread_local keeps concurrent
 * limb-parallel transforms from sharing it.
 */
thread_local std::vector<u64> tlsScratch;

u64 *
scratchBuf(u64 n)
{
    if (tlsScratch.size() < n)
        tlsScratch.resize(n);
    return tlsScratch.data();
}

} // namespace

NttTable::NttTable(u64 n, u64 q, u64 psi)
    : n_(n), mod_(q)
{
    UFC_CHECK(n >= 2 && std::has_single_bit(n), "NTT degree must be 2^k");
    UFC_CHECK((q - 1) % (2 * n) == 0,
              "q=" << q << " is not NTT-friendly for n=" << n);
    logN_ = std::countr_zero(n);

    psi_ = psi ? psi : findPrimitiveRoot(2 * n, q);
    UFC_CHECK(powMod(psi_, n, q) == q - 1, "psi^N must equal -1 mod q");
    const u64 psiInv = invMod(psi_, q);

    fwdTw_.resize(n);
    fwdTwShoup_.resize(n);
    invTw_.resize(n);
    invTwShoup_.resize(n);
    brev_.resize(n);
    const bool smallQ = q < kIfmaModulusBound;
    if (smallQ) {
        fwdTwShoup52_.resize(n);
        invTwShoup52_.resize(n);
    }
    for (u64 i = 0; i < n; ++i) {
        const u64 rev = bitReverse(static_cast<u32>(i), logN_);
        brev_[i] = static_cast<u32>(rev);
        fwdTw_[i] = powMod(psi_, rev, q);
        fwdTwShoup_[i] = mod_.shoupPrecompute(fwdTw_[i]);
        invTw_[i] = powMod(psiInv, rev, q);
        invTwShoup_[i] = mod_.shoupPrecompute(invTw_[i]);
        if (smallQ) {
            fwdTwShoup52_[i] = mod_.shoupPrecompute52(fwdTw_[i]);
            invTwShoup52_[i] = mod_.shoupPrecompute52(invTw_[i]);
        }
    }
    nInv_ = invMod(n % q, q);
    nInvShoup_ = mod_.shoupPrecompute(nInv_);
    if (smallQ)
        nInvShoup52_ = mod_.shoupPrecompute52(nInv_);

    useIfma_ = smallQ && n >= 16 && detail::avx512IfmaAvailable();
    view_.n = n_;
    view_.logN = logN_;
    view_.q = q;
    view_.fwdTw = fwdTw_.data();
    view_.fwdTwShoup52 = smallQ ? fwdTwShoup52_.data() : nullptr;
    view_.invTw = invTw_.data();
    view_.invTwShoup52 = smallQ ? invTwShoup52_.data() : nullptr;
    view_.brev = brev_.data();
    view_.nInv = nInv_;
    view_.nInvShoup52 = nInvShoup52_;
}

void
NttTable::forward(u64 *a) const
{
    if (useIfma_)
        detail::ifmaForward(view_, a, scratchBuf(n_));
    else
        forwardScalar(a);
}

void
NttTable::inverse(u64 *a) const
{
    if (useIfma_)
        detail::ifmaInverse(view_, a, scratchBuf(n_));
    else
        inverseScalar(a);
}

void
NttTable::forwardScalar(u64 *a) const
{
    // Cooley-Tukey with Harvey lazy reduction: butterfly inputs stay in
    // [0, 4q), renormalized only by the final permutation pass.  The
    // first stage reads the input array and writes the scratch buffer;
    // the rest run in scratch, so the output pass can gather back into
    // `a` in natural order instead of doing the pairwise swap walk.
    const u64 q = mod_.value();
    const u64 twoQ = 2 * q;
    u64 *buf = scratchBuf(n_);

    u64 t = n_ >> 1;
    {
        // m = 1, out-of-place a -> buf.
        const u64 w = fwdTw_[1];
        const u64 wShoup = fwdTwShoup_[1];
        for (u64 j = 0; j < t; ++j) {
            const u64 x = a[j]; // input < q, already reduced
            const u64 v = mod_.mulShoupLazy(a[j + t], w, wShoup);
            buf[j] = x + v;
            buf[j + t] = x - v + twoQ;
        }
    }
    t >>= 1;
    for (u64 m = 2; m < n_; m <<= 1, t >>= 1) {
        for (u64 i = 0; i < m; ++i) {
            const u64 j1 = 2 * i * t;
            const u64 w = fwdTw_[m + i];
            const u64 wShoup = fwdTwShoup_[m + i];
            u64 *x = buf + j1;
            u64 *y = x + t;
            for (u64 j = 0; j < t; ++j) {
                u64 u = x[j];
                if (u >= twoQ)
                    u -= twoQ; // keep < 2q so u + v < 4q
                const u64 v = mod_.mulShoupLazy(y[j], w, wShoup);
                x[j] = u + v;
                y[j] = u - v + twoQ;
            }
        }
    }
    // Gather back to natural order, renormalizing [0, 4q) -> [0, q).
    for (u64 i = 0; i < n_; ++i) {
        u64 r = buf[brev_[i]];
        if (r >= twoQ)
            r -= twoQ;
        if (r >= q)
            r -= q;
        a[i] = r;
    }
}

void
NttTable::inverseScalar(u64 *a) const
{
    // Gather into bit-reversed order, Gentleman-Sande with values held
    // in [0, 2q), then the n^{-1} scale renormalizes while copying back.
    const u64 q = mod_.value();
    const u64 twoQ = 2 * q;
    u64 *buf = scratchBuf(n_);

    for (u64 i = 0; i < n_; ++i)
        buf[i] = a[brev_[i]];

    u64 t = 1;
    for (u64 m = n_; m > 1; m >>= 1, t <<= 1) {
        const u64 h = m >> 1;
        u64 j1 = 0;
        for (u64 i = 0; i < h; ++i) {
            const u64 w = invTw_[h + i];
            const u64 wShoup = invTwShoup_[h + i];
            u64 *x = buf + j1;
            u64 *y = x + t;
            for (u64 j = 0; j < t; ++j) {
                const u64 u = x[j];
                const u64 v = y[j];
                u64 s = u + v; // < 4q
                if (s >= twoQ)
                    s -= twoQ;
                x[j] = s;
                y[j] = mod_.mulShoupLazy(u - v + twoQ, w, wShoup);
            }
            j1 += 2 * t;
        }
    }
    for (u64 i = 0; i < n_; ++i)
        a[i] = mod_.mulShoup(buf[i], nInv_, nInvShoup_);
}

void
NttTable::forwardReference(u64 *a) const
{
    const u64 q = mod_.value();
    // Cooley-Tukey, natural order in, bit-reversed order out.
    u64 t = n_;
    for (u64 m = 1; m < n_; m <<= 1) {
        t >>= 1;
        for (u64 i = 0; i < m; ++i) {
            const u64 j1 = 2 * i * t;
            const u64 w = fwdTw_[m + i];
            const u64 wShoup = fwdTwShoup_[m + i];
            for (u64 j = j1; j < j1 + t; ++j) {
                const u64 u = a[j];
                const u64 v = mod_.mulShoup(a[j + t], w, wShoup);
                a[j] = addMod(u, v, q);
                a[j + t] = subMod(u, v, q);
            }
        }
    }
    // Restore natural order.
    for (u64 i = 0; i < n_; ++i) {
        const u64 r = brev_[i];
        if (r > i)
            std::swap(a[i], a[r]);
    }
}

void
NttTable::inverseReference(u64 *a) const
{
    const u64 q = mod_.value();
    // To bit-reversed order, then Gentleman-Sande back to natural order.
    for (u64 i = 0; i < n_; ++i) {
        const u64 r = brev_[i];
        if (r > i)
            std::swap(a[i], a[r]);
    }
    u64 t = 1;
    for (u64 m = n_; m > 1; m >>= 1) {
        const u64 h = m >> 1;
        u64 j1 = 0;
        for (u64 i = 0; i < h; ++i) {
            const u64 w = invTw_[h + i];
            const u64 wShoup = invTwShoup_[h + i];
            for (u64 j = j1; j < j1 + t; ++j) {
                const u64 u = a[j];
                const u64 v = a[j + t];
                a[j] = addMod(u, v, q);
                a[j + t] = mod_.mulShoup(subMod(u, v, q), w, wShoup);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    for (u64 i = 0; i < n_; ++i)
        a[i] = mod_.mulShoup(a[i], nInv_, nInvShoup_);
}

std::vector<u64>
NttTable::negacyclicMulSchoolbook(const std::vector<u64> &a,
                                  const std::vector<u64> &b) const
{
    const u64 q = mod_.value();
    std::vector<u64> c(n_, 0);
    for (u64 i = 0; i < n_; ++i) {
        if (a[i] == 0)
            continue;
        for (u64 j = 0; j < n_; ++j) {
            const u64 p = mulMod(a[i], b[j], q);
            const u64 k = i + j;
            if (k < n_)
                c[k] = addMod(c[k], p, q);
            else
                c[k - n_] = subMod(c[k - n_], p, q);
        }
    }
    return c;
}

} // namespace ufc
