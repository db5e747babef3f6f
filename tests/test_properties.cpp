/**
 * @file
 * Parameterized property sweeps across the substrate: gadget
 * decomposition over base/level combinations, encoder precision over
 * scales, CKKS multiplication across dnum configurations, and TFHE
 * external-product noise across gadget settings.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "ckks/evaluator.h"
#include "math/gadget.h"
#include "math/primes.h"
#include "tfhe/rlwe.h"

namespace ufc {
namespace {

// ---------------------------------------------------------------------
// Gadget decomposition sweep.
// ---------------------------------------------------------------------

using GadgetParam = std::tuple<int, int>; // (logBase, levels)

class GadgetSweep : public ::testing::TestWithParam<GadgetParam> {};

TEST_P(GadgetSweep, RecomposeErrorWithinBound)
{
    const auto [logBase, levels] = GetParam();
    const u64 q = findNttPrime(32, 1 << 11);
    Gadget g(q, logBase, levels);
    Rng rng(static_cast<u64>(logBase * 100 + levels));
    std::vector<u64> digits(levels);
    // Error sources: the final gadget granularity plus the accumulated
    // rounding of each g_i (each digit contributes up to |d_i| * 0.5
    // <= B/4 from g_i's rounding).
    const u64 bound = g.g(levels - 1) +
                      static_cast<u64>(levels) * (g.base() / 4) + 1;
    for (int i = 0; i < 500; ++i) {
        const u64 x = rng.uniform(q);
        g.decompose(&x, 1, digits.data());
        const u64 back = g.recompose(digits.data());
        const u64 err =
            std::min(subMod(back, x, q), subMod(x, back, q));
        EXPECT_LE(err, bound) << "x=" << x;
        for (u64 d : digits) {
            const u64 mag = std::min(d, q - d);
            EXPECT_LE(mag, g.base() / 2);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    BaseLevelGrid, GadgetSweep,
    ::testing::Values(GadgetParam{2, 8}, GadgetParam{4, 6},
                      GadgetParam{8, 3}, GadgetParam{8, 4},
                      GadgetParam{11, 2}, GadgetParam{16, 2}),
    [](const auto &info) {
        std::string name = "B";
        name += std::to_string(std::get<0>(info.param));
        name += "_l";
        name += std::to_string(std::get<1>(info.param));
        return name;
    });

// ---------------------------------------------------------------------
// Encoder precision across scales.
// ---------------------------------------------------------------------

class EncoderPrecision : public ::testing::TestWithParam<int> {};

TEST_P(EncoderPrecision, RoundTripErrorScalesInversely)
{
    const int scaleBits = GetParam();
    ckks::CkksParams p = ckks::CkksParams::testFast();
    ckks::CkksContext ctx(p);
    ckks::CkksEncoder encoder(&ctx);

    Rng rng(static_cast<u64>(scaleBits));
    std::vector<double> v(ctx.slots());
    for (auto &x : v)
        x = 2.0 * rng.uniformReal() - 1.0;

    const double scale = std::ldexp(1.0, scaleBits);
    auto pt = encoder.encode(v, 2, scale);
    auto back = encoder.decode(pt);
    double worst = 0.0;
    for (size_t i = 0; i < v.size(); ++i)
        worst = std::max(worst, std::abs(back[i].real() - v[i]));
    // Rounding error ~ sqrt(N)/scale; allow two orders of headroom.
    EXPECT_LT(worst, 100.0 * std::sqrt(
                         static_cast<double>(ctx.degree())) / scale)
        << "scaleBits=" << scaleBits;
}

INSTANTIATE_TEST_SUITE_P(Scales, EncoderPrecision,
                         ::testing::Values(30, 35, 40, 45, 50));

// ---------------------------------------------------------------------
// CKKS multiplication across dnum configurations.
// ---------------------------------------------------------------------

class DnumSweep : public ::testing::TestWithParam<int> {};

TEST_P(DnumSweep, MultiplicationCorrectUnderAnyDigitCount)
{
    const int dnum = GetParam();
    ckks::CkksParams p = ckks::CkksParams::testFast();
    p.dnum = dnum;
    p.specialLimbs = (p.levels + dnum - 1) / dnum; // K = alpha
    ckks::CkksContext ctx(p);
    ckks::CkksEncoder encoder(&ctx);
    Rng rng(static_cast<u64>(900 + dnum));
    ckks::CkksKeyGenerator keygen(&ctx, rng);
    ckks::CkksEncryptor enc(&ctx, &keygen.secretKey(), rng);
    ckks::CkksEvaluator eval(&ctx);
    auto relin = keygen.makeRelinKey();

    std::vector<double> a(ctx.slots()), b(ctx.slots());
    for (size_t i = 0; i < a.size(); ++i) {
        a[i] = 0.3 + 0.001 * (i % 100);
        b[i] = -0.7 + 0.002 * (i % 50);
    }
    auto ca = enc.encrypt(encoder.encode(a, p.levels, ctx.scale()));
    auto cb = enc.encrypt(encoder.encode(b, p.levels, ctx.scale()));
    auto prod = eval.rescale(eval.multiply(ca, cb, relin));
    auto dec = encoder.decode(enc.decrypt(prod));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(dec[i].real(), a[i] * b[i], 1e-4)
            << "dnum=" << dnum << " slot " << i;
}

INSTANTIATE_TEST_SUITE_P(DigitCounts, DnumSweep,
                         ::testing::Values(1, 2, 3, 6));

// ---------------------------------------------------------------------
// External-product noise across gadget settings (paper's g_k values).
// ---------------------------------------------------------------------

class ExternalProductSweep
    : public ::testing::TestWithParam<GadgetParam> {};

TEST_P(ExternalProductSweep, NoiseStaysDecodable)
{
    const auto [logBase, levels] = GetParam();
    auto params = tfhe::TfheParams::testFast();
    params.gadgetLogBase = logBase;
    params.gadgetLevels = levels;
    Rng rng(static_cast<u64>(77 + logBase));
    RingContext ring(params.ringDim);
    auto key = tfhe::RlweSecretKey::generate(&ring.table(params.q), rng);
    Gadget g(params.q, logBase, levels);

    Poly bit(key.s.table(), PolyForm::Coeff);
    bit[0] = 1;
    auto rgsw = tfhe::rgswEncrypt(bit, key, g, params.rlweSigma, rng);

    const u64 t = 8;
    Poly msg(key.s.table(), PolyForm::Coeff);
    msg[0] = tfhe::lweEncode(3, params.q, t);
    auto rlwe = tfhe::rlweEncrypt(msg, key, params.rlweSigma, rng);

    // Chain several external products; the message must survive.
    auto acc = rlwe;
    for (int i = 0; i < 4; ++i)
        acc = tfhe::externalProduct(rgsw, acc, g);
    Poly phase = tfhe::rlwePhase(acc, key);
    EXPECT_EQ(tfhe::lweDecode(phase[0], params.q, t), 3u)
        << "B=2^" << logBase << " l=" << levels;
}

INSTANTIATE_TEST_SUITE_P(
    PaperGadgets, ExternalProductSweep,
    ::testing::Values(GadgetParam{11, 2}, GadgetParam{8, 3},
                      GadgetParam{8, 4}, GadgetParam{4, 6}),
    [](const auto &info) {
        std::string name = "B";
        name += std::to_string(std::get<0>(info.param));
        name += "_l";
        name += std::to_string(std::get<1>(info.param));
        return name;
    });

// ---------------------------------------------------------------------
// Prime search properties.
// ---------------------------------------------------------------------

class PrimeSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrimeSweep, NttPrimesSupportNegacyclicTransforms)
{
    const int bits = GetParam();
    const u64 n = 1 << 10;
    const u64 q = findNttPrime(bits, 2 * n);
    EXPECT_TRUE(isPrime(q));
    // A full transform round trip works at every prime size.
    NttTable ntt(n, q);
    Rng rng(static_cast<u64>(bits));
    std::vector<u64> a(n);
    for (auto &x : a)
        x = rng.uniform(q);
    auto b = a;
    ntt.forward(b);
    ntt.inverse(b);
    EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Bits, PrimeSweep,
                         ::testing::Values(25, 32, 40, 48, 55, 59));

} // namespace
} // namespace ufc
