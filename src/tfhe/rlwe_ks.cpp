/**
 * @file
 * RLWE key switching implementation.
 */

#include "tfhe/rlwe_ks.h"

#include "common/check.h"

namespace ufc {
namespace tfhe {

RlweKeySwitchKey::RlweKeySwitchKey(const Poly &srcKey,
                                   const RlweSecretKey &dstKey,
                                   const Gadget &gadget, double sigma,
                                   Rng &rng)
    : gadget_(gadget)
{
    UFC_CHECK(srcKey.form() == PolyForm::Coeff,
              "source key must be in Coeff form");
    const int l = gadget_.levels();
    rows_.reserve(l);
    for (int i = 0; i < l; ++i) {
        Poly m = srcKey;
        m.scaleInPlace(gadget_.g(i));
        RlweCiphertext row = rlweEncrypt(m, dstKey, sigma, rng);
        row.toEval();
        rows_.push_back(std::move(row));
    }
}

RlweCiphertext
RlweKeySwitchKey::apply(const RlweCiphertext &ct) const
{
    // phase = b - a*srcKey.  Decompose a, accumulate against the rows:
    //   b' = b - sum_i d_i * kb_i,  a' = -sum_i d_i * ka_i
    // so that b' - a'*dstKey = phase - sum_i d_i * e_i.
    RlweCiphertext out = ct;
    out.toCoeff();
    const Poly *in[] = {&out.a};
    std::vector<u64> digits;
    RlweCiphertext acc;
    gadgetProduct(in, rows_.data(), gadget_, digits, acc);
    out.a = std::move(acc.a);
    out.a.negInPlace();
    out.b.subInPlace(acc.b);
    return out;
}

RlweCiphertext
applyRingAutomorphism(const RlweCiphertext &ct, u64 k,
                      const RlweKeySwitchKey &ksk)
{
    // Applying sigma_k to both components yields an encryption of
    // sigma_k(m) under sigma_k(s); the key switch returns to s.
    RlweCiphertext in = ct;
    in.toCoeff();
    RlweCiphertext rotated;
    rotated.a = in.a.automorphism(k);
    rotated.b = in.b.automorphism(k);
    return ksk.apply(rotated);
}

} // namespace tfhe
} // namespace ufc
