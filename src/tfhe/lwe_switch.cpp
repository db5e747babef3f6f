/**
 * @file
 * LWE key switch implementation.
 */

#include "tfhe/lwe_switch.h"

#include "common/check.h"
#include "common/error.h"

namespace ufc {
namespace tfhe {

LweSwitchKey::LweSwitchKey(const LweSecretKey &srcKey,
                           const LweSecretKey &dstKey, u64 q, int logBase,
                           int levels, double sigma, Rng &rng)
    : q_(q), srcDim_(static_cast<u32>(srcKey.s.size())),
      dstDim_(static_cast<u32>(dstKey.s.size())),
      gadget_(q, logBase, levels)
{
    const u128 bound = static_cast<u128>(srcDim_) *
                       static_cast<u64>(levels) * (gadget_.base() / 2) * q;
    UFC_EXPECT(bound < (static_cast<u128>(1) << 63), ConfigError,
               "LWE key switch too wide for a 64-bit accumulator: srcDim "
                   << srcDim_ << ", l=" << levels << ", B=2^" << logBase
                   << ", q=" << q);
    TfheParams enc;
    enc.q = q;
    enc.lweSigma = sigma;
    rows_.reserve(static_cast<size_t>(srcDim_) * levels * (dstDim_ + 1));
    for (u32 i = 0; i < srcDim_; ++i) {
        for (int j = 0; j < levels; ++j) {
            const LweCiphertext ct = lweEncrypt(
                mulMod(srcKey.s[i], gadget_.g(j), q), dstKey, enc, rng);
            rows_.insert(rows_.end(), ct.a.begin(), ct.a.end());
            rows_.push_back(ct.b);
        }
    }
}

LweCiphertext
LweSwitchKey::apply(const LweCiphertext &ct) const
{
    UFC_CHECK(ct.q == q_ && ct.dim() == srcDim_,
              "key switch input mismatch");
    // out = (0, b) - sum_{i,j} d_ij * row_ij.  The balanced digits are
    // taken as signed values in [-B/2, B/2] and the products summed in
    // i64 (bounded by the constructor), then reduced once per word.
    const int l = gadget_.levels();
    const size_t width = dstDim_ + 1;
    const u64 halfQ = q_ / 2;
    std::vector<i64> acc(width, 0);
    std::vector<u64> digits(static_cast<size_t>(l) * srcDim_);
    gadget_.decompose(ct.a.data(), srcDim_, digits.data());
    for (u32 i = 0; i < srcDim_; ++i) {
        for (int j = 0; j < l; ++j) {
            const u64 dj = digits[static_cast<size_t>(j) * srcDim_ + i];
            const i64 d = dj > halfQ ? -static_cast<i64>(q_ - dj)
                                     : static_cast<i64>(dj);
            if (d == 0)
                continue;
            const u64 *row =
                rows_.data() + (static_cast<size_t>(i) * l + j) * width;
            for (size_t t = 0; t < width; ++t)
                acc[t] += d * static_cast<i64>(row[t]);
        }
    }
    const i64 q = static_cast<i64>(q_);
    const auto reduce = [q](i64 v) {
        const i64 r = v % q;
        return static_cast<u64>(r < 0 ? r + q : r);
    };
    LweCiphertext out;
    out.q = q_;
    out.a.resize(dstDim_);
    for (u32 t = 0; t < dstDim_; ++t)
        out.a[t] = negMod(reduce(acc[t]), q_);
    out.b = subMod(ct.b, reduce(acc[dstDim_]), q_);
    return out;
}

} // namespace tfhe
} // namespace ufc
