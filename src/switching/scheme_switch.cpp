/**
 * @file
 * CKKS -> TFHE extraction path.
 */

#include "switching/scheme_switch.h"

#include "common/check.h"

namespace ufc {
namespace switching {

using tfhe::LweCiphertext;
using tfhe::LweSecretKey;

namespace {

/** Ternary CKKS key coefficients re-encoded modulo q. */
LweSecretKey
ternaryKeyMod(const ckks::CkksContext &ctx, const ckks::SecretKey &sk,
              u64 q)
{
    Poly limb0 = sk.s.limb(0);
    limb0.toCoeff();
    const u64 q0 = ctx.qAt(0);
    LweSecretKey key;
    key.s.resize(ctx.degree());
    for (u64 i = 0; i < ctx.degree(); ++i) {
        const u64 v = limb0[i];
        if (v == 0 || v == 1)
            key.s[i] = v;
        else if (v == q0 - 1)
            key.s[i] = q - 1;
        else
            ufcPanic("CKKS secret is not ternary");
    }
    return key;
}

} // namespace

LweSecretKey
ckksKeyAsLwe(const ckks::CkksContext &ctx, const ckks::SecretKey &sk)
{
    return ternaryKeyMod(ctx, sk, ctx.qAt(0));
}

LweCiphertext
extractFromCkks(const ckks::CkksContext &ctx, const ckks::Ciphertext &ct,
                u64 index)
{
    UFC_CHECK(ct.limbs == 1, "extraction requires a one-limb ciphertext");
    const u64 n = ctx.degree();
    UFC_CHECK(index < n, "extraction index out of range");
    const u64 q = ctx.qAt(0);

    Poly c0 = ct.c0.limb(0);
    Poly c1 = ct.c1.limb(0);
    c0.toCoeff();
    c1.toCoeff();

    // decrypt(ct) = c0 + c1*s; coefficient `index` of c1*s is
    // sum_{i<=k} c1[k-i]s_i - sum_{i>k} c1[N+k-i]s_i, so the LWE
    // convention phase = b - <a, s> needs a negated/wrapped copy of c1.
    LweCiphertext out;
    out.q = q;
    out.b = c0[index];
    out.a.resize(n);
    for (u64 i = 0; i < n; ++i) {
        if (i <= index)
            out.a[i] = negMod(c1[index - i], q);
        else
            out.a[i] = c1[n + index - i];
    }
    return out;
}

CkksToTfheBridge::CkksToTfheBridge(const ckks::CkksContext &ctx,
                                   const ckks::SecretKey &ckksSk,
                                   const tfhe::LweSecretKey &tfheKey,
                                   const tfhe::TfheParams &tfheParams,
                                   Rng &rng)
    : ctx_(&ctx), tfheQ_(tfheParams.q)
{
    // Dimension/key switch runs after the modulus switch, so the source
    // key (CKKS ternary coefficients) is encoded mod q_tfhe.
    const LweSecretKey src = ternaryKeyMod(ctx, ckksSk, tfheParams.q);
    dimSwitch_ = std::make_unique<tfhe::LweSwitchKey>(
        src, tfheKey, tfheParams.q, tfheParams.ksLogBase,
        tfheParams.ksLevels, tfheParams.lweSigma, rng);
}

LweCiphertext
CkksToTfheBridge::convert(const ckks::Ciphertext &ct, u64 index) const
{
    const LweCiphertext big = extractFromCkks(*ctx_, ct, index);
    const LweCiphertext switched = big.modSwitch(tfheQ_);
    return dimSwitch_->apply(switched);
}

} // namespace switching
} // namespace ufc
