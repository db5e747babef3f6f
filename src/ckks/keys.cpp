/**
 * @file
 * CKKS key generation and symmetric encryption.
 */

#include "ckks/keys.h"

#include "common/check.h"
#include "math/mod_arith.h"

namespace ufc {
namespace ckks {

RnsPoly
subPolyQ(const CkksContext *ctx, const RnsPoly &full, int limbs)
{
    RnsPoly out = ctx->makePoly(limbs, full.form());
    for (int i = 0; i < limbs; ++i)
        out.limb(i) = full.limb(i);
    return out;
}

CkksKeyGenerator::CkksKeyGenerator(const CkksContext *ctx, Rng &rng)
    : ctx_(ctx), rng_(&rng)
{
    sk_.s = ctx_->makePolyQP(ctx_->levels(), PolyForm::Coeff);
    const int h = ctx->params().secretHamming;
    if (h <= 0) {
        sk_.s.sampleTernary(rng);
    } else {
        // Sparse ternary secret: exactly h nonzero +-1 coefficients.
        const u64 n = ctx->degree();
        std::vector<i8> coeffs(n, 0);
        int placed = 0;
        while (placed < h) {
            const u64 pos = rng.uniform(n);
            if (coeffs[pos] == 0) {
                coeffs[pos] = (rng.next() & 1) ? 1 : -1;
                ++placed;
            }
        }
        for (u64 c = 0; c < n; ++c) {
            for (size_t l = 0; l < sk_.s.limbCount(); ++l) {
                const u64 q = sk_.s.limb(l).modulus();
                sk_.s.limb(l)[c] =
                    coeffs[c] == 0 ? 0 : (coeffs[c] == 1 ? 1 : q - 1);
            }
        }
    }
    sk_.s.toEval();
}

namespace {

/**
 * Build the evaluation key encrypting P * Qhat_d * srcSecret per digit.
 * srcSecretQp must be in Eval form over the full Q x P basis.
 */
EvalKey
makeEvalKey(const CkksContext *ctx, const RnsPoly &skQp,
            const RnsPoly &srcSecretQp, Rng &rng)
{
    const int L = ctx->levels();
    const int K = ctx->specialLimbs();
    const int dnum = ctx->dnum();

    EvalKey key;
    key.b.reserve(dnum);
    key.a.reserve(dnum);
    for (int d = 0; d < dnum; ++d) {
        RnsPoly a = ctx->makePolyQP(L, PolyForm::Eval);
        a.sampleUniform(rng);

        RnsPoly e = ctx->makePolyQP(L, PolyForm::Coeff);
        e.sampleGaussian(rng, ctx->params().sigma);
        e.toEval();

        // b = -a*s + e + P*Qhat_d * srcSecret, where the key term is
        // nonzero only on the q limbs (P vanishes mod p_j).
        RnsPoly b = a;
        b.mulEvalInPlace(skQp);
        b.negInPlace();
        b.addInPlace(e);

        RnsPoly term = srcSecretQp;
        std::vector<u64> factors(L + K, 0);
        for (int i = 0; i < L; ++i) {
            const Modulus qi(ctx->qAt(i));
            u64 f = ctx->qHatDigitMod(d, ctx->qAt(i));
            for (int j = 0; j < K; ++j)
                f = qi.mul(f, ctx->pAt(j) % ctx->qAt(i));
            factors[i] = f;
        }
        term.scaleInPlace(factors);
        b.addInPlace(term);

        key.b.push_back(std::move(b));
        key.a.push_back(std::move(a));
    }
    return key;
}

} // namespace

EvalKey
CkksKeyGenerator::makeRelinKey() const
{
    RnsPoly s2 = sk_.s;
    s2.mulEvalInPlace(sk_.s);
    return makeEvalKey(ctx_, sk_.s, s2, *rng_);
}

EvalKey
CkksKeyGenerator::makeGaloisKey(u64 k) const
{
    const RnsPoly sk = sk_.s.automorphism(k);
    return makeEvalKey(ctx_, sk_.s, sk, *rng_);
}

u64
CkksKeyGenerator::rotationAutomorphism(int steps) const
{
    const u64 twoN = 2 * ctx_->degree();
    const u64 order = ctx_->degree() / 2; // order of 5 in Z_2N^*
    i64 r = steps % static_cast<i64>(order);
    if (r < 0)
        r += static_cast<i64>(order);
    return powMod(5, static_cast<u64>(r), twoN);
}

EvalKey
CkksKeyGenerator::makeRotationKey(int steps) const
{
    return makeGaloisKey(rotationAutomorphism(steps));
}

EvalKey
CkksKeyGenerator::makeConjugationKey() const
{
    return makeGaloisKey(2 * ctx_->degree() - 1);
}

EvalKey
CkksKeyGenerator::makeSwitchingKey(const RnsPoly &srcSecretQp) const
{
    return makeEvalKey(ctx_, sk_.s, srcSecretQp, *rng_);
}

Ciphertext
CkksEncryptor::encrypt(const Plaintext &pt) const
{
    const int limbs = pt.limbs;
    Ciphertext ct;
    ct.limbs = limbs;
    ct.scale = pt.scale;

    ct.c1 = ctx_->makePoly(limbs, PolyForm::Eval);
    ct.c1.sampleUniform(*rng_);

    RnsPoly e = ctx_->makePoly(limbs, PolyForm::Coeff);
    e.sampleGaussian(*rng_, ctx_->params().sigma);
    e.toEval();

    // c0 = m + e - c1 * s
    RnsPoly c1s = ct.c1;
    c1s.mulEvalInPlace(subPolyQ(ctx_, sk_->s, limbs));
    ct.c0 = pt.poly;
    ct.c0.addInPlace(e);
    ct.c0.subInPlace(c1s);
    return ct;
}

Plaintext
CkksEncryptor::decrypt(const Ciphertext &ct) const
{
    RnsPoly m = ct.c1;
    m.mulEvalInPlace(subPolyQ(ctx_, sk_->s, ct.limbs));
    m.addInPlace(ct.c0);

    Plaintext pt;
    pt.poly = std::move(m);
    pt.limbs = ct.limbs;
    pt.scale = ct.scale;
    return pt;
}

} // namespace ckks
} // namespace ufc
