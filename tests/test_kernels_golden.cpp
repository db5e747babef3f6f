/**
 * @file
 * Golden known-answer tests for the kernel layer.  Every expected value
 * below is a frozen constant, so any change to kernel numerics —
 * twiddle generation, reduction algorithms, Montgomery constants, CKKS
 * encoding — shows up as an explicit diff against recorded history
 * rather than a silent behavior change.
 *
 * Provenance: constants were produced by the pre-existing (reference)
 * kernels and cross-checked against the direct evaluation definitions
 * (NTT output k = a(psi^(2k+1)); reductions against hardware divide).
 */

#include <gtest/gtest.h>

#include "ckks/evaluator.h"
#include "common/rng.h"
#include "math/mod_arith.h"
#include "math/ntt.h"
#include "tfhe/gates.h"
#include "tfhe/lwe_switch.h"
#include "tfhe/rlwe_ks.h"

namespace ufc {
namespace {

// ---------------------------------------------------------------------
// Small fixed NTT vectors: N = 8, q = 257, psi = 2 (2^8 = -1 mod 257).
// ---------------------------------------------------------------------

TEST(KernelGolden, NttForwardFixedVectorN8)
{
    NttTable ntt(8, 257, 2);
    ASSERT_EQ(ntt.psi(), 2u);

    std::vector<u64> a{1, 2, 3, 4, 5, 6, 7, 8};
    ntt.forward(a);
    const std::vector<u64> expect{251, 151, 253, 149, 60, 131, 17, 24};
    EXPECT_EQ(a, expect);

    ntt.inverse(a);
    EXPECT_EQ(a, (std::vector<u64>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(KernelGolden, NttForwardDeltaIsAllOnes)
{
    // The constant polynomial 1 evaluates to 1 everywhere.
    NttTable ntt(8, 257, 2);
    std::vector<u64> delta{1, 0, 0, 0, 0, 0, 0, 0};
    ntt.forward(delta);
    EXPECT_EQ(delta, (std::vector<u64>{1, 1, 1, 1, 1, 1, 1, 1}));
}

TEST(KernelGolden, NttForwardMonomialXIsOddPsiPowers)
{
    // X evaluates to psi^(2k+1) at slot k: the natural-order convention.
    NttTable ntt(8, 257, 2);
    std::vector<u64> x{0, 1, 0, 0, 0, 0, 0, 0};
    ntt.forward(x);
    EXPECT_EQ(x, (std::vector<u64>{2, 8, 32, 128, 255, 249, 225, 129}));
}

// ---------------------------------------------------------------------
// Reduction edge values, q = 2^59 - 55 (widest supported modulus class).
// ---------------------------------------------------------------------

TEST(KernelGolden, BarrettReduce64EdgeValues)
{
    const u64 q = (1ULL << 59) - 55;
    const Modulus mod(q);
    EXPECT_EQ(mod.reduce(u64{0}), 0u);
    EXPECT_EQ(mod.reduce(u64{1}), 1u);
    EXPECT_EQ(mod.reduce(q - 1), q - 1);
    EXPECT_EQ(mod.reduce(q), 0u);
    EXPECT_EQ(mod.reduce(q + 1), 1u);
    EXPECT_EQ(mod.reduce(2 * q - 1), q - 1);
    EXPECT_EQ(mod.reduce(2 * q), 0u);
    EXPECT_EQ(mod.reduce(u64{1} << 63), 880u);
    EXPECT_EQ(mod.reduce(~u64{0}), 1759u);
}

TEST(KernelGolden, BarrettReduce128EdgeValues)
{
    const u64 q = (1ULL << 59) - 55;
    const Modulus mod(q);
    // (q-1)^2 = (-1)^2 = 1 mod q.
    EXPECT_EQ(mod.reduce(static_cast<u128>(q - 1) * (q - 1)), 1u);
    EXPECT_EQ(mod.reduce(~static_cast<u128>(0)), 3097599u);
}

TEST(KernelGolden, ShoupMulEdgeValues)
{
    const u64 q = (1ULL << 59) - 55;
    const Modulus mod(q);
    const u64 w = q - 1;
    const u64 wShoup = mod.shoupPrecompute(w);
    EXPECT_EQ(wShoup, 18446744073709551583ULL);
    // (-1) * (-1): the lazy form returns the q-shifted representative.
    EXPECT_EQ(mod.mulShoupLazy(q - 1, w, wShoup), q + 1);
    EXPECT_EQ(mod.mulShoup(q - 1, w, wShoup), 1u);
    EXPECT_EQ(mod.mulShoup(0, w, wShoup), 0u);
    EXPECT_EQ(mod.mulShoup(1, w, wShoup), q - 1);
}

TEST(KernelGolden, MontgomeryEdgeValues)
{
    const u64 q = (1ULL << 59) - 55;
    const Modulus mod(q);
    ASSERT_TRUE(mod.hasMontgomery());
    // 2^64 mod q.
    EXPECT_EQ(mod.montOne(), 1760u);
    EXPECT_EQ(mod.toMont(1), 1760u);
    EXPECT_EQ(mod.toMont(0), 0u);
    EXPECT_EQ(mod.toMont(q - 1), 576460752303421673ULL);
    EXPECT_EQ(mod.fromMont(mod.toMont(q - 1)), q - 1);
    EXPECT_EQ(mod.fromMont(mod.mulMont(mod.toMont(2), mod.toMont(3))), 6u);
}

// ---------------------------------------------------------------------
// One CKKS encode -> encrypt -> multiply -> rescale -> decode chain with
// fixed inputs and a seeded RNG; locks the numerics of the full pipeline
// (encoder FFT, NTT kernels, key switching, rescale rounding).
// ---------------------------------------------------------------------

TEST(KernelGolden, CkksEncodeMulRescaleChain)
{
    using namespace ckks;
    CkksContext ctx(CkksParams::testFast());
    CkksEncoder encoder(&ctx);
    Rng rng(99);
    CkksKeyGenerator keygen(&ctx, rng);
    CkksEncryptor encryptor(&ctx, &keygen.secretKey(), rng);
    CkksEvaluator eval(&ctx);
    const auto relin = keygen.makeRelinKey();

    std::vector<double> va(ctx.slots()), vb(ctx.slots());
    for (size_t i = 0; i < va.size(); ++i) {
        va[i] = 0.5 + 0.001 * static_cast<double>(i % 97);
        vb[i] = 1.25 - 0.002 * static_cast<double>(i % 89);
    }
    const auto pa = encoder.encode(va, ctx.levels(), ctx.scale());
    const auto pb = encoder.encode(vb, ctx.levels(), ctx.scale());

    // Frozen first coefficients of the limb-0 encoding (eval form).
    const std::vector<u64> expectCoeffs{
        3920001961169507ULL,  5204230729603916ULL,  9141531009869672ULL,
        12562074613624618ULL, 28163077462280370ULL, 35790164201144753ULL};
    for (size_t c = 0; c < expectCoeffs.size(); ++c)
        EXPECT_EQ(pa.poly.limb(0)[c], expectCoeffs[c]) << "coeff " << c;

    auto ca = encryptor.encrypt(pa);
    auto cb = encryptor.encrypt(pb);
    auto prod = eval.rescale(eval.multiply(ca, cb, relin));
    EXPECT_EQ(prod.c0.limbCount(), static_cast<size_t>(ctx.levels()) - 1);

    const auto dec = encoder.decode(encryptor.decrypt(prod));
    // Frozen decoded slots (slot i carries va[i]*vb[i] plus the recorded
    // noise of this exact seeded run).
    const double expectReal[] = {0.624999994779, 0.625247986120,
                                 0.625491997935, 0.625731999964,
                                 0.625968000860, 0.626200000278};
    for (int i = 0; i < 6; ++i) {
        EXPECT_NEAR(dec[i].real(), expectReal[i], 1e-6) << "slot " << i;
        EXPECT_NEAR(dec[i].imag(), 0.0, 1e-6) << "slot " << i;
        // And the chain still computes the right product.
        EXPECT_NEAR(dec[i].real(), va[i] * vb[i], 1e-5) << "slot " << i;
    }
}

// ---------------------------------------------------------------------
// The TFHE substrate at TfheParams::testFast() with seeded keys: every
// gate truth table, a LUT bootstrap, a standalone external product, an
// RLWE key switch and an LWE key switch, folded into one FNV-1a digest
// of their output words.  Any change to decomposition, NTT, MAC or key
// switch numerics moves it.
// ---------------------------------------------------------------------

struct Fnv1a
{
    u64 h = 0xcbf29ce484222325ULL;

    void
    word(u64 w)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (w >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void
    lwe(const tfhe::LweCiphertext &ct)
    {
        for (u64 a : ct.a)
            word(a);
        word(ct.b);
    }

    void
    poly(const Poly &p)
    {
        word(p.isEval() ? 1 : 0);
        for (u64 c : p.data())
            word(c);
    }

    void
    rlwe(const tfhe::RlweCiphertext &ct)
    {
        poly(ct.a);
        poly(ct.b);
    }

    void
    ckks(const ckks::Ciphertext &ct)
    {
        word(static_cast<u64>(ct.limbs));
        for (const RnsPoly *p : {&ct.c0, &ct.c1})
            for (size_t i = 0; i < p->limbCount(); ++i)
                poly(p->limb(i));
    }
};

TEST(KernelGolden, TfheBootstrapDigest)
{
    using namespace tfhe;
    const TfheParams params = TfheParams::testFast();
    Rng rng(0x7f4e5eedULL);
    const LweSecretKey lweKey = LweSecretKey::generate(params.lweDim, rng);
    RingContext ring(params.ringDim);
    const NttTable *table = &ring.table(params.q);
    const RlweSecretKey ringKey = RlweSecretKey::generate(table, rng);
    const BootstrapContext bc(params, lweKey, ringKey, rng);
    Fnv1a digest;

    const LweCiphertext bits[2] = {encryptBit(false, lweKey, params, rng),
                                   encryptBit(true, lweKey, params, rng)};
    for (int x = 0; x < 2; ++x) {
        for (int y = 0; y < 2; ++y) {
            const LweCiphertext out[] = {gateNand(bc, bits[x], bits[y]),
                                         gateAnd(bc, bits[x], bits[y]),
                                         gateOr(bc, bits[x], bits[y]),
                                         gateXor(bc, bits[x], bits[y])};
            const bool expect[] = {!(x && y), x && y, x || y, x != y};
            for (int g = 0; g < 4; ++g) {
                EXPECT_EQ(decryptBit(out[g], lweKey), expect[g])
                    << "gate " << g << " on " << x << y;
                digest.lwe(out[g]);
            }
        }
    }

    const u64 t = 8;
    const std::vector<u64> lut{5, 3, 7, 1, 6, 0, 2, 4};
    const LweCiphertext in =
        lweEncrypt(lweEncode(3, params.q, t), lweKey, params, rng);
    digest.lwe(bc.programmableBootstrap(in, lut, t));

    Poly mono(table, PolyForm::Coeff);
    mono[7] = 1;
    const RgswCiphertext rgsw =
        rgswEncrypt(mono, ringKey, bc.gadget(), params.rlweSigma, rng);
    Poly msg(table, PolyForm::Coeff);
    msg.sampleUniform(rng);
    const RlweCiphertext rlwe =
        rlweEncrypt(msg, ringKey, params.rlweSigma, rng);
    digest.rlwe(externalProduct(rgsw, rlwe, bc.gadget()));

    const u64 k = 5;
    const RlweKeySwitchKey autoKey(ringKey.s.automorphism(k), ringKey,
                                   Gadget(params.q, 8, 3),
                                   params.rlweSigma, rng);
    digest.rlwe(applyRingAutomorphism(rlwe, k, autoKey));

    const LweSecretKey ringAsLwe{ringKey.s.data()};
    const LweSwitchKey lweSwitch(ringAsLwe, lweKey, params.q,
                                 params.ksLogBase, params.ksLevels,
                                 params.lweSigma, rng);
    digest.lwe(lweSwitch.apply(sampleExtract(rlwe, 3)));

    EXPECT_EQ(digest.h, 0xeab22f846b6fed77ULL);
}

// ---------------------------------------------------------------------
// CKKS hybrid key switching at CkksParams::testFast() (dnum 3) and
// testDeep() (dnum 4): multiply with relinearization, rescale, rotate
// and conjugate at every level, including the levels whose last digit
// is partial, folded into one FNV-1a digest of the output words.  Any
// change to ModUp, the key inner product, ModDown or rescale numerics
// moves it; the decoded-slot checks above cannot see a changed word.
// ---------------------------------------------------------------------

TEST(KernelGolden, CkksKeySwitchDigest)
{
    using namespace ckks;
    Fnv1a digest;
    for (const CkksParams &params :
         {CkksParams::testFast(), CkksParams::testDeep()}) {
        const CkksContext ctx(params);
        const CkksEncoder encoder(&ctx);
        Rng rng(0x6b5ea1edULL);
        const CkksKeyGenerator keygen(&ctx, rng);
        const CkksEncryptor encryptor(&ctx, &keygen.secretKey(), rng);
        const CkksEvaluator eval(&ctx);
        const EvalKey relin = keygen.makeRelinKey();
        const EvalKey rot = keygen.makeRotationKey(3);
        const EvalKey conj = keygen.makeConjugationKey();

        std::vector<double> va(ctx.slots()), vb(ctx.slots());
        for (size_t i = 0; i < va.size(); ++i) {
            va[i] = 0.75 - 0.003 * static_cast<double>(i % 101);
            vb[i] = 0.5 + 0.002 * static_cast<double>(i % 83);
        }
        const Ciphertext a = encryptor.encrypt(
            encoder.encode(va, ctx.levels(), ctx.scale()));
        const Ciphertext b = encryptor.encrypt(
            encoder.encode(vb, ctx.levels(), ctx.scale()));
        for (int limbs = ctx.levels(); limbs >= 1; --limbs) {
            const Ciphertext x = eval.dropToLimbs(a, limbs);
            const Ciphertext y = eval.dropToLimbs(b, limbs);
            const Ciphertext prod = eval.multiply(x, y, relin);
            digest.ckks(prod);
            if (limbs >= 2)
                digest.ckks(eval.rescale(prod));
            digest.ckks(eval.rotate(x, 3, rot));
            digest.ckks(eval.conjugate(x, conj));
        }
    }
    EXPECT_EQ(digest.h, 0x3a41d673535a5688ULL);
}

} // namespace
} // namespace ufc
