/**
 * @file
 * Unit and integration tests for the TFHE-style logic scheme.
 */

#include <gtest/gtest.h>

#include "math/gadget.h"
#include "math/primes.h"
#include "tfhe/gates.h"

namespace ufc {
namespace tfhe {
namespace {

struct TfheFixture : public ::testing::Test
{
    TfheFixture()
        : params(TfheParams::testFast()), rng(42),
          lweKey(LweSecretKey::generate(params.lweDim, rng)),
          ring(params.ringDim),
          ringKey(RlweSecretKey::generate(&ring.table(params.q), rng))
    {}

    TfheParams params;
    Rng rng;
    LweSecretKey lweKey;
    RingContext ring;
    RlweSecretKey ringKey;
};

TEST_F(TfheFixture, LweEncryptDecryptRoundTrip)
{
    const u64 t = 16;
    for (u64 m = 0; m < t; ++m) {
        auto ct = lweEncrypt(lweEncode(m, params.q, t), lweKey, params, rng);
        EXPECT_EQ(lweDecrypt(ct, lweKey, t), m);
    }
}

TEST_F(TfheFixture, LweHomomorphicAddition)
{
    const u64 t = 16;
    auto c1 = lweEncrypt(lweEncode(3, params.q, t), lweKey, params, rng);
    auto c2 = lweEncrypt(lweEncode(5, params.q, t), lweKey, params, rng);
    c1.addInPlace(c2);
    EXPECT_EQ(lweDecrypt(c1, lweKey, t), 8u);

    c1.subInPlace(c2);
    EXPECT_EQ(lweDecrypt(c1, lweKey, t), 3u);

    c1.scaleInPlace(4);
    EXPECT_EQ(lweDecrypt(c1, lweKey, t), 12u);
}

TEST_F(TfheFixture, LweModSwitchPreservesMessage)
{
    const u64 t = 4;
    auto ct = lweEncrypt(lweEncode(2, params.q, t), lweKey, params, rng);
    auto switched = ct.modSwitch(2ULL * params.ringDim);
    EXPECT_EQ(switched.q, 2ULL * params.ringDim);
    EXPECT_EQ(lweDecrypt(switched, lweKey, t), 2u);
}

TEST_F(TfheFixture, GadgetDecompositionRecomposesWithinError)
{
    Gadget g(params.q, params.gadgetLogBase, params.gadgetLevels);
    Rng r(7);
    std::vector<u64> digits(g.levels());
    const u64 halfB = g.base() / 2;
    for (int i = 0; i < 2000; ++i) {
        const u64 x = r.uniform(params.q);
        g.decompose(&x, 1, digits.data());
        // Digits are balanced: each represents a value in [-B/2, B/2].
        for (u64 d : digits) {
            const u64 mag = std::min(d, params.q - d);
            EXPECT_LE(mag, halfB);
        }
        const u64 back = g.recompose(digits.data());
        const u64 err = std::min(subMod(back, x, params.q),
                                 subMod(x, back, params.q));
        // Error bounded by the last gadget granularity.
        EXPECT_LE(err, g.g(g.levels() - 1));
    }
}

TEST_F(TfheFixture, RlweEncryptPhaseIsSmallNoise)
{
    Poly m(&ring.table(params.q), PolyForm::Coeff);
    m[0] = params.q / 4;
    m[3] = params.q / 8;
    auto ct = rlweEncrypt(m, ringKey, params.rlweSigma, rng);
    Poly phase = rlwePhase(ct, ringKey);
    for (u64 i = 0; i < phase.degree(); ++i) {
        const u64 diff = std::min(subMod(phase[i], m[i], params.q),
                                  subMod(m[i], phase[i], params.q));
        EXPECT_LT(diff, 64u) << "coeff " << i;
    }
}

TEST_F(TfheFixture, ExternalProductMultipliesPlaintexts)
{
    Gadget g(params.q, params.gadgetLogBase, params.gadgetLevels);
    const NttTable *table = &ring.table(params.q);

    // RGSW encrypts the monomial X^5; RLWE encrypts a large message.
    Poly mono(table, PolyForm::Coeff);
    mono[5] = 1;
    auto rgsw = rgswEncrypt(mono, ringKey, g, params.rlweSigma, rng);

    Poly msg(table, PolyForm::Coeff);
    msg[0] = params.q / 4;
    msg[1] = params.q / 2;
    auto rlwe = rlweEncrypt(msg, ringKey, params.rlweSigma, rng);

    auto prod = externalProduct(rgsw, rlwe, g);
    Poly phase = rlwePhase(prod, ringKey);
    Poly expect = msg.mulByMonomial(5);
    for (u64 i = 0; i < phase.degree(); ++i) {
        const u64 diff =
            std::min(subMod(phase[i], expect[i], params.q),
                     subMod(expect[i], phase[i], params.q));
        EXPECT_LT(diff, params.q / 64) << "coeff " << i;
    }
}

TEST_F(TfheFixture, CmuxSelectsBranch)
{
    Gadget g(params.q, params.gadgetLogBase, params.gadgetLevels);
    const NttTable *table = &ring.table(params.q);

    Poly m0(table, PolyForm::Coeff), m1(table, PolyForm::Coeff);
    m0[0] = params.q / 4;
    m1[0] = params.q / 2;
    auto ct0 = rlweEncrypt(m0, ringKey, params.rlweSigma, rng);
    auto ct1 = rlweEncrypt(m1, ringKey, params.rlweSigma, rng);

    Poly bit(table, PolyForm::Coeff);
    for (u64 sel : {u64{0}, u64{1}}) {
        bit[0] = sel;
        auto c = rgswEncrypt(bit, ringKey, g, params.rlweSigma, rng);
        auto out = cmux(c, ct0, ct1, g);
        Poly phase = rlwePhase(out, ringKey);
        const u64 expect = sel ? m1[0] : m0[0];
        const u64 diff = std::min(subMod(phase[0], expect, params.q),
                                  subMod(expect, phase[0], params.q));
        EXPECT_LT(diff, params.q / 64) << "sel=" << sel;
    }
}

TEST_F(TfheFixture, SampleExtractYieldsCoefficientLwe)
{
    const NttTable *table = &ring.table(params.q);
    Poly msg(table, PolyForm::Coeff);
    for (u64 i = 0; i < msg.degree(); ++i)
        msg[i] = lweEncode(i % 8, params.q, 8);
    auto ct = rlweEncrypt(msg, ringKey, params.rlweSigma, rng);

    // The extracted LWE key is the ring key's coefficient vector.
    LweSecretKey bigKey;
    bigKey.s = ringKey.s.data();

    for (u64 idx : {u64{0}, u64{1}, u64{17}, msg.degree() - 1}) {
        auto lwe = sampleExtract(ct, idx);
        EXPECT_EQ(lweDecrypt(lwe, bigKey, 8), idx % 8);
    }
}

struct BootstrapFixture : public TfheFixture
{
    BootstrapFixture() : bc(params, lweKey, ringKey, rng) {}
    BootstrapContext bc;
};

TEST_F(BootstrapFixture, KeySwitchPreservesMessage)
{
    LweSecretKey bigKey;
    bigKey.s = ringKey.s.data();

    const u64 t = 8;
    for (u64 m = 0; m < t / 2; ++m) {
        // Encrypt under the big (extracted) key via a trivial route:
        // RLWE-encrypt and extract.
        Poly msg(&ring.table(params.q), PolyForm::Coeff);
        msg[0] = lweEncode(m, params.q, t);
        auto rlwe = rlweEncrypt(msg, ringKey, params.rlweSigma, rng);
        auto big = sampleExtract(rlwe, 0);
        ASSERT_EQ(lweDecrypt(big, bigKey, t), m);

        auto small = bc.keySwitch(big);
        EXPECT_EQ(small.dim(), params.lweDim);
        EXPECT_EQ(lweDecrypt(small, lweKey, t), m);
    }
}

TEST_F(BootstrapFixture, ProgrammableBootstrapEvaluatesLut)
{
    const u64 t = 8;
    // f(m) = (3m + 1) mod 4 on the padded half-domain [0, 4).
    std::vector<u64> lut(t);
    for (u64 m = 0; m < t; ++m)
        lut[m] = (3 * m + 1) % 4;

    for (u64 m = 0; m < t / 2; ++m) {
        auto ct =
            lweEncrypt(lweEncode(m, params.q, t), lweKey, params, rng);
        auto out = bc.programmableBootstrap(ct, lut, t);
        EXPECT_EQ(lweDecrypt(out, lweKey, t), lut[m]) << "m=" << m;
    }
}

TEST_F(BootstrapFixture, BootstrapRefreshesNoise)
{
    const u64 t = 8;
    std::vector<u64> identity(t);
    for (u64 m = 0; m < t; ++m)
        identity[m] = m;

    // Accumulate noise with many additions, then refresh.
    auto ct = lweEncrypt(lweEncode(1, params.q, t), lweKey, params, rng);
    auto zero = lweEncrypt(lweEncode(0, params.q, t), lweKey, params, rng);
    for (int i = 0; i < 16; ++i)
        ct.addInPlace(zero);
    ASSERT_EQ(lweDecrypt(ct, lweKey, t), 1u);

    auto refreshed = bc.programmableBootstrap(ct, identity, t);
    EXPECT_EQ(lweDecrypt(refreshed, lweKey, t), 1u);

    // Refreshed noise must be small enough for further computation.
    const u64 phase = lwePhase(refreshed, lweKey);
    const u64 ideal = lweEncode(1, params.q, t);
    const u64 noise = std::min(subMod(phase, ideal, params.q),
                               subMod(ideal, phase, params.q));
    EXPECT_LT(noise, params.q / (4 * t));
}

TEST_F(BootstrapFixture, AllBinaryGatesMatchTruthTables)
{
    struct GateCase
    {
        const char *name;
        LweCiphertext (*fn)(const BootstrapContext &,
                            const LweCiphertext &, const LweCiphertext &);
        bool truth[4]; // (F,F), (F,T), (T,F), (T,T)
    };
    const GateCase cases[] = {
        {"NAND", gateNand, {true, true, true, false}},
        {"AND", gateAnd, {false, false, false, true}},
        {"OR", gateOr, {false, true, true, true}},
        {"NOR", gateNor, {true, false, false, false}},
        {"XOR", gateXor, {false, true, true, false}},
        {"XNOR", gateXnor, {true, false, false, true}},
    };
    for (const auto &gc : cases) {
        for (int in = 0; in < 4; ++in) {
            const bool x = in & 2, y = in & 1;
            auto cx = encryptBit(x, lweKey, params, rng);
            auto cy = encryptBit(y, lweKey, params, rng);
            auto out = gc.fn(bc, cx, cy);
            EXPECT_EQ(decryptBit(out, lweKey), gc.truth[in])
                << gc.name << "(" << x << "," << y << ")";
        }
    }
}

TEST_F(BootstrapFixture, NotAndMux)
{
    for (int in = 0; in < 2; ++in) {
        auto c = encryptBit(in, lweKey, params, rng);
        EXPECT_EQ(decryptBit(gateNot(c), lweKey), !in);
    }
    for (int in = 0; in < 8; ++in) {
        const bool s = in & 4, x = in & 2, y = in & 1;
        auto cs = encryptBit(s, lweKey, params, rng);
        auto cx = encryptBit(x, lweKey, params, rng);
        auto cy = encryptBit(y, lweKey, params, rng);
        auto out = gateMux(bc, cs, cx, cy);
        EXPECT_EQ(decryptBit(out, lweKey), s ? x : y)
            << "mux(" << s << "," << x << "," << y << ")";
    }
}

TEST(TfheParams, TableIIIParameterSets)
{
    const auto t1 = TfheParams::t1();
    EXPECT_EQ(t1.lweDim, 500u);
    EXPECT_EQ(t1.ringDim, 1u << 10);
    EXPECT_EQ(t1.gadgetLevels, 2);
    const auto t4 = TfheParams::t4();
    EXPECT_EQ(t4.lweDim, 991u);
    EXPECT_EQ(t4.ringDim, 1u << 14);
    // All moduli are 32-bit NTT-friendly primes.
    for (const auto &p : {TfheParams::t1(), TfheParams::t2(),
                          TfheParams::t3(), TfheParams::t4()}) {
        EXPECT_TRUE(isPrime(p.q));
        EXPECT_EQ(p.q % (2 * p.ringDim), 1u);
        EXPECT_LT(p.q, 1ULL << 32);
    }
}

} // namespace
} // namespace tfhe
} // namespace ufc
