/**
 * @file
 * Blind rotation, key switching and programmable bootstrapping.
 */

#include "tfhe/bootstrap.h"

#include "common/check.h"

namespace ufc {
namespace tfhe {

namespace {

/** RGSW(s_i) under the ring key for every bit of the small key. */
std::vector<RgswCiphertext>
makeBootstrapKeys(const TfheParams &params, const LweSecretKey &lweKey,
                  const RlweSecretKey &ringKey, const Gadget &gadget,
                  Rng &rng)
{
    const NttTable *table = ringKey.s.table();
    UFC_CHECK(table->modulus().value() == params.q &&
              table->degree() == params.ringDim,
              "ring key parameters mismatch");
    std::vector<RgswCiphertext> btk;
    btk.reserve(params.lweDim);
    Poly bit(table, PolyForm::Coeff);
    for (u32 i = 0; i < params.lweDim; ++i) {
        bit[0] = lweKey.s[i];
        btk.push_back(
            rgswEncrypt(bit, ringKey, gadget, params.rlweSigma, rng));
    }
    return btk;
}

} // namespace

BootstrapContext::BootstrapContext(const TfheParams &params,
                                   const LweSecretKey &lweKey,
                                   const RlweSecretKey &ringKey, Rng &rng)
    : params_(params),
      ringTable_(ringKey.s.table()),
      gadget_(params.q, params.gadgetLogBase, params.gadgetLevels),
      btk_(makeBootstrapKeys(params, lweKey, ringKey, gadget_, rng)),
      // Extraction yields an LWE under the ring key's coefficients.
      ksk_(LweSecretKey{ringKey.s.data()}, lweKey, params.q,
           params.ksLogBase, params.ksLevels, params.lweSigma, rng)
{}

RlweCiphertext
BootstrapContext::blindRotate(const LweCiphertext &ct,
                              const Poly &testVector) const
{
    const u64 n2 = 2ULL * params_.ringDim;
    const LweCiphertext small = ct.modSwitch(n2);

    // acc = (0, tv * X^(-b~)); each iteration multiplies it by X^(a~_i)
    // when s_i = 1: acc += RGSW(s_i) ⊡ ((X^(a~_i) - 1) * acc).
    RlweCiphertext acc = RlweCiphertext::trivial(
        testVector.mulByMonomial(-static_cast<i64>(small.b)));
    RlweCiphertext rotated, product;
    std::vector<u64> digits;
    const Poly *in[] = {&rotated.a, &rotated.b};
    for (u32 i = 0; i < params_.lweDim; ++i) {
        if (small.a[i] == 0)
            continue;
        const i64 r = static_cast<i64>(small.a[i]);
        acc.a.mulByMonomialMinusOne(r, rotated.a);
        acc.b.mulByMonomialMinusOne(r, rotated.b);
        gadgetProduct(in, btk_[i].rows.data(), gadget_, digits, product);
        acc.addInPlace(product);
    }
    return acc;
}

LweCiphertext
BootstrapContext::keySwitch(const LweCiphertext &ct) const
{
    UFC_CHECK(ct.dim() == params_.ringDim, "key switch input dimension");
    return ksk_.apply(ct);
}

Poly
BootstrapContext::makeTestVector(const std::vector<u64> &lut, u64 t,
                                 u64 tOut) const
{
    const u64 n = params_.ringDim;
    const u64 q = params_.q;
    if (tOut == 0)
        tOut = t;
    UFC_CHECK(lut.size() == t, "lut size must equal message modulus");
    Poly tv(ringTable_, PolyForm::Coeff);
    // Window j in [0, N) covers phases [j*q/(2N), (j+1)*q/(2N)); together
    // with the half-window input shift in programmableBootstrap this makes
    // floor indexing hit the intended message.
    for (u64 j = 0; j < n; ++j) {
        const u64 m = static_cast<u64>(
            (static_cast<u128>(j) * t) / (2 * n)) % t;
        tv[j] = lweEncode(lut[m], q, tOut);
    }
    return tv;
}

LweCiphertext
BootstrapContext::programmableBootstrap(const LweCiphertext &ct,
                                        const std::vector<u64> &lut,
                                        u64 t, u64 tOut) const
{
    // Half-window shift so rounding errors around each encoded message
    // stay inside its window (the padding-bit convention keeps messages
    // in [0, t/2) so the negacyclic wrap is never hit).
    LweCiphertext shifted = ct;
    shifted.addConstant(params_.q / (2 * t));

    const Poly tv = makeTestVector(lut, t, tOut);
    const RlweCiphertext acc = blindRotate(shifted, tv);
    const LweCiphertext extracted = sampleExtract(acc, 0);
    return keySwitch(extracted);
}

LweCiphertext
BootstrapContext::signBootstrap(const LweCiphertext &ct) const
{
    const u64 q = params_.q;
    // Constant test vector q/8: +q/8 for phases in [0, q/2), -q/8 below.
    Poly tv(ringTable_, PolyForm::Coeff);
    const u64 eighth = q / 8;
    for (u64 j = 0; j < params_.ringDim; ++j)
        tv[j] = eighth;
    const RlweCiphertext acc = blindRotate(ct, tv);
    const LweCiphertext extracted = sampleExtract(acc, 0);
    return keySwitch(extracted);
}

} // namespace tfhe
} // namespace ufc
