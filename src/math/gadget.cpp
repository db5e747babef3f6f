/**
 * @file
 * Balanced gadget decomposition and gadget-product MAC implementation:
 * the scalar loops and the dispatch to the IFMA kernels.
 */

#include "math/gadget.h"

#include "common/check.h"
#include "common/error.h"
#include "math/ntt.h"

namespace ufc {

Gadget::Gadget(u64 q, int logBase, int levels)
    : mod_(q), logBase_(logBase), levels_(levels)
{
    UFC_EXPECT(logBase >= 1 && levels >= 1 && logBase * levels < 64,
               ConfigError, "bad gadget parameters");
    const u128 scaled = static_cast<u128>(q - 1) << (logBase * levels);
    UFC_EXPECT(base() <= q && scaled + q / 2 < (static_cast<u128>(1) << 64),
               ConfigError,
               "gadget too wide: (q-1)*B^l + q/2 must stay below 2^64 (q="
                   << q << ", B=2^" << logBase << ", l=" << levels << ")");
    recip_ = static_cast<u64>((static_cast<u128>(1) << 64) / q);
    g_.resize(levels);
    // g_i = round(q / B^(i+1)), computed as scaled division.
    for (int i = 0; i < levels; ++i) {
        const u128 denom = static_cast<u128>(1)
            << (logBase_ * (i + 1));
        g_[i] = static_cast<u64>((static_cast<u128>(q) + denom / 2) / denom);
    }

    // The IFMA kernels take only the ranges their exactness arguments
    // cover (math/avx512_ifma.cpp); everything else stays scalar.
    const bool ifma = detail::avx512IfmaAvailable();
    ifmaDecompose_ = ifma && logBase * levels <= kIfmaDecomposeMaxBits;
    ifmaMac_ = ifma && q >= kIfmaMacModulusMin && q < kIfmaMacModulusBound;
    view_.q = q;
    view_.qInv = 1.0 / static_cast<double>(q);
    view_.pow52 = static_cast<u64>((static_cast<u128>(1) << 52) % q);
    view_.logBase = logBase;
    view_.levels = levels;
}

void
Gadget::decompose(const u64 *x, std::size_t count, u64 *digits) const
{
    std::size_t done = 0;
    if (ifmaDecompose_) {
        done = count - count % 8;
        detail::ifmaDecompose(view_, x, done, count, digits);
    }
    decomposeScalar(x, done, count, count, digits);
}

void
Gadget::decomposeReference(const u64 *x, std::size_t count,
                           u64 *digits) const
{
    decomposeScalar(x, 0, count, count, digits);
}

void
Gadget::decomposeScalar(const u64 *x, std::size_t begin, std::size_t end,
                        std::size_t stride, u64 *digits) const
{
    const u64 q = mod_.value();
    const u64 mask = base() - 1;
    const u64 halfB = base() >> 1;
    const int total = logBase_ * levels_;

    // Scale each x to a fixed-point value with logBase*levels fractional
    // bits of q: xHat = round(x * B^l / q) = floor(num / q).  num fits a
    // word (constructor), and with recip = floor(2^64/q) the estimate
    // floor(num * recip / 2^64) undershoots the quotient by at most one.
    // xHat lands in the row of the least significant digit, l - 1.
    u64 *row = digits + static_cast<std::size_t>(levels_ - 1) * stride;
    for (std::size_t c = begin; c < end; ++c) {
        const u64 num = (x[c] << total) + q / 2;
        u64 xHat = static_cast<u64>((static_cast<u128>(num) * recip_) >> 64);
        xHat += num - xHat * q >= q;
        row[c] = xHat;
    }

    // Peel balanced digits off least-significant first, one row at a
    // time: each pass reads the remaining value y from its own row,
    // writes the digit there and passes y >> logBase plus the carry to
    // the next row up.  A digit d >= B/2 stands for d - B, carries one
    // and is stored as q - (B - d) (B <= q keeps it in range); whatever
    // carries out of the top digit is a multiple of q up to the rounding
    // error the gadget tolerates, and is dropped.
    const u64 negBias = q - mask - 1;
    const auto balanced = [&](u64 d, u64 carry) {
        const u64 pick = 0 - carry;
        return ((negBias + d) & pick) | (d & ~pick);
    };
    for (int i = levels_ - 1; i > 0; --i) {
        u64 *cur = digits + static_cast<std::size_t>(i) * stride;
        u64 *next = cur - stride;
        for (std::size_t c = begin; c < end; ++c) {
            const u64 y = cur[c];
            const u64 d = y & mask;
            const u64 carry = (d + halfB) >> logBase_; // 1 iff d >= B/2
            cur[c] = balanced(d, carry);
            next[c] = (y >> logBase_) + carry;
        }
    }
    for (std::size_t c = begin; c < end; ++c) {
        const u64 d = digits[c] & mask;
        digits[c] = balanced(d, (d + halfB) >> logBase_);
    }
}

void
Gadget::mac(const u64 *digits, const MacRow *rows, std::size_t count,
            std::size_t n, u64 *outA, u64 *outB) const
{
    UFC_CHECK(count >= 1 && count <= kMaxMacRows, "gadget MAC row count");
    std::size_t done = 0;
    if (ifmaMac_) {
        done = n - n % 8;
        detail::ifmaGadgetMac(view_, digits, rows, count, n, done, outA,
                              outB);
    }
    macScalar(digits, rows, count, n, done, outA, outB);
}

void
Gadget::macReference(const u64 *digits, const MacRow *rows,
                     std::size_t count, std::size_t n, u64 *outA,
                     u64 *outB) const
{
    UFC_CHECK(count >= 1 && count <= kMaxMacRows, "gadget MAC row count");
    macScalar(digits, rows, count, n, 0, outA, outB);
}

void
Gadget::macScalar(const u64 *digits, const MacRow *rows, std::size_t count,
                  std::size_t n, std::size_t begin, u64 *outA,
                  u64 *outB) const
{
    // One reduction per output coefficient.  The 128-bit sums cannot
    // wrap: q < 2^60 (Modulus) and count <= kMaxMacRows = 126 bound them
    // by 126 * 2^120.
    for (std::size_t c = begin; c < n; ++c) {
        u128 accA = 0, accB = 0;
        for (std::size_t r = 0; r < count; ++r) {
            const u64 d = digits[r * n + c];
            accA += static_cast<u128>(d) * rows[r].a[c];
            accB += static_cast<u128>(d) * rows[r].b[c];
        }
        outA[c] = mod_.reduce(accA);
        outB[c] = mod_.reduce(accB);
    }
}

u64
Gadget::recompose(const u64 *digits) const
{
    u64 acc = 0;
    for (int i = 0; i < levels_; ++i)
        acc = mod_.add(acc, mod_.mul(digits[i], g_[i]));
    return acc;
}

} // namespace ufc
