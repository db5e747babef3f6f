/**
 * @file
 * Integration tests for scheme switching: CKKS -> LWE extraction, LWE
 * key/dimension/modulus switching, TFHE processing of extracted values,
 * and EvalTrace ring packing.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "ckks/evaluator.h"
#include "math/primes.h"
#include "switching/repack.h"
#include "switching/scheme_switch.h"
#include "tfhe/bootstrap.h"

namespace ufc {
namespace switching {
namespace {

struct SwitchFixture : public ::testing::Test
{
    SwitchFixture()
        : ckksCtx(ckks::CkksParams::testFast()), encoder(&ckksCtx),
          rng(2024), keygen(&ckksCtx, rng),
          encryptor(&ckksCtx, &keygen.secretKey(), rng), eval(&ckksCtx)
    {}

    ckks::CkksContext ckksCtx;
    ckks::CkksEncoder encoder;
    Rng rng;
    ckks::CkksKeyGenerator keygen;
    ckks::CkksEncryptor encryptor;
    ckks::CkksEvaluator eval;
};

TEST_F(SwitchFixture, ExtractionRecoversCoefficients)
{
    // Encode integers in the coefficient domain at scale q0/t.
    const u64 t = 16;
    const double scale =
        static_cast<double>(ckksCtx.qAt(0)) / static_cast<double>(t);
    std::vector<double> coeffs(32);
    for (size_t i = 0; i < coeffs.size(); ++i)
        coeffs[i] = static_cast<double>(i % 7);

    auto pt = encoder.encodeCoefficients(coeffs, 1, scale);
    auto ct = encryptor.encrypt(pt);

    const auto lweKey = ckksKeyAsLwe(ckksCtx, keygen.secretKey());
    for (u64 idx : {u64{0}, u64{3}, u64{31}}) {
        const auto lwe = extractFromCkks(ckksCtx, ct, idx);
        EXPECT_EQ(tfhe::lweDecrypt(lwe, lweKey, t),
                  static_cast<u64>(coeffs[idx]));
    }
}

TEST_F(SwitchFixture, LweSwitchKeyChangesKeyAndDimension)
{
    const u64 q = findNttPrime(32, 1 << 12);
    Rng r(5);
    tfhe::LweSecretKey big = tfhe::LweSecretKey::generate(1024, r);
    tfhe::LweSecretKey small = tfhe::LweSecretKey::generate(256, r);
    tfhe::LweSwitchKey ks(big, small, q, 4, 6, 3.2, r);

    const u64 t = 16;
    for (u64 m = 0; m < 8; ++m) {
        // Encrypt under the big key directly.
        tfhe::LweCiphertext ct;
        ct.q = q;
        ct.a.resize(1024);
        u64 acc = tfhe::lweEncode(m, q, t);
        for (u32 i = 0; i < 1024; ++i) {
            ct.a[i] = r.uniform(q);
            if (big.s[i])
                acc = addMod(acc, ct.a[i], q);
        }
        ct.b = addMod(acc, r.gaussianMod(3.2, q), q);

        const auto out = ks.apply(ct);
        EXPECT_EQ(out.dim(), 256u);
        EXPECT_EQ(tfhe::lweDecrypt(out, small, t), m);
    }
}

TEST_F(SwitchFixture, CkksToTfheBridgeEndToEnd)
{
    // CKKS-encrypted small integers, converted to TFHE LWEs and decrypted
    // under the TFHE key.
    auto tfheParams = tfhe::TfheParams::testFast();
    Rng r(7);
    auto tfheKey = tfhe::LweSecretKey::generate(tfheParams.lweDim, r);
    CkksToTfheBridge bridge(ckksCtx, keygen.secretKey(), tfheKey,
                            tfheParams, r);

    const u64 t = 16;
    const double scale =
        static_cast<double>(ckksCtx.qAt(0)) / static_cast<double>(t);
    std::vector<double> coeffs = {1, 5, 2, 7, 0, 3};
    auto ct = encryptor.encrypt(encoder.encodeCoefficients(coeffs, 1,
                                                           scale));

    for (size_t i = 0; i < coeffs.size(); ++i) {
        const auto lwe = bridge.convert(ct, i);
        EXPECT_EQ(lwe.dim(), tfheParams.lweDim);
        EXPECT_EQ(tfhe::lweDecrypt(lwe, tfheKey, t),
                  static_cast<u64>(coeffs[i])) << "coeff " << i;
    }
}

TEST_F(SwitchFixture, ExtractedValuesSurviveTfheBootstrap)
{
    // Full hybrid path: CKKS -> extract -> TFHE programmable bootstrap.
    auto tfheParams = tfhe::TfheParams::testFast();
    Rng r(11);
    auto tfheKey = tfhe::LweSecretKey::generate(tfheParams.lweDim, r);
    RingContext ring(tfheParams.ringDim);
    auto ringKey = tfhe::RlweSecretKey::generate(
        &ring.table(tfheParams.q), r);
    tfhe::BootstrapContext bc(tfheParams, tfheKey, ringKey, r);
    CkksToTfheBridge bridge(ckksCtx, keygen.secretKey(), tfheKey,
                            tfheParams, r);

    const u64 t = 8;
    const double scale =
        static_cast<double>(ckksCtx.qAt(0)) / static_cast<double>(t);
    std::vector<double> coeffs = {0, 1, 2, 3};
    auto ct = encryptor.encrypt(encoder.encodeCoefficients(coeffs, 1,
                                                           scale));

    // LUT computes f(m) = (m * 2 + 1) mod 4 on the padded half-domain.
    std::vector<u64> lut(t);
    for (u64 m = 0; m < t; ++m)
        lut[m] = (2 * m + 1) % 4;

    for (size_t i = 0; i < coeffs.size(); ++i) {
        const auto lwe = bridge.convert(ct, i);
        const auto out = bc.programmableBootstrap(lwe, lut, t);
        EXPECT_EQ(tfhe::lweDecrypt(out, tfheKey, t),
                  lut[static_cast<u64>(coeffs[i])]) << "coeff " << i;
    }
}

TEST(RingPacker, PacksLwesIntoRlweCoefficients)
{
    // Small ring, odd plaintext modulus (trace factor N mod t != 0).
    const u64 n = 64;
    const u64 t = 17;
    const u64 q = findNttPrime(32, 8192); // supports rings up to 2^12
    Rng rng(13);
    RingContext ring(n);
    auto ringKey = tfhe::RlweSecretKey::generate(&ring.table(q), rng);
    Gadget gadget(q, 8, 3);
    RingPacker packer(ringKey, gadget, 3.2, rng);

    const auto lweKey = packer.inputLweKey();
    tfhe::TfheParams encParams;
    encParams.q = q;
    encParams.lweSigma = 3.2;

    std::vector<tfhe::LweCiphertext> lwes;
    std::vector<u64> messages = {3, 0, 16, 7, 1, 12};
    for (u64 m : messages) {
        lwes.push_back(tfhe::lweEncrypt(tfhe::lweEncode(m, q, t), lweKey,
                                        encParams, rng));
    }

    const auto packed = packer.pack(lwes);
    const Poly phase = tfhe::rlwePhase(packed, ringKey);

    const u64 factor = packer.traceFactor(t);
    ASSERT_NE(factor % t, 0u);
    const u64 factorInv = invMod(factor, t);
    for (size_t i = 0; i < messages.size(); ++i) {
        const u64 raw = tfhe::lweDecode(phase[i], q, t);
        EXPECT_EQ(mulMod(raw, factorInv, t), messages[i]) << "slot " << i;
    }
    // Coefficients beyond the packed range decode to zero.
    for (size_t i = messages.size(); i < 10; ++i)
        EXPECT_EQ(tfhe::lweDecode(phase[i], q, t), 0u);
}

TEST(RingPacker, TraceZeroesGarbageCoefficients)
{
    // Packing a single LWE must produce an RLWE whose non-constant phase
    // coefficients are (noise-level) zero.
    const u64 n = 32;
    const u64 t = 5;
    const u64 q = findNttPrime(32, 4096);
    Rng rng(17);
    RingContext ring(n);
    auto ringKey = tfhe::RlweSecretKey::generate(&ring.table(q), rng);
    Gadget gadget(q, 8, 3);
    RingPacker packer(ringKey, gadget, 3.2, rng);

    tfhe::TfheParams encParams;
    encParams.q = q;
    encParams.lweSigma = 3.2;
    auto lwe = tfhe::lweEncrypt(tfhe::lweEncode(2, q, t),
                                packer.inputLweKey(), encParams, rng);

    const auto packed = packer.pack({lwe});
    const Poly phase = tfhe::rlwePhase(packed, ringKey);
    for (u64 i = 1; i < n; ++i) {
        const u64 mag = std::min(phase[i], q - phase[i]);
        EXPECT_LT(mag, q / (4 * t)) << "coefficient " << i;
    }
}

} // namespace
} // namespace switching
} // namespace ufc
