/**
 * @file
 * Hybrid-scheme example: the k-nearest-neighbour flow of the paper's
 * Figure 1 on small parameters — SIMD distance computation in CKKS,
 * extraction to LWE, an exact encrypted comparison tournament in TFHE,
 * and ring packing of the winner's index bits.
 *
 * Build and run:  ./build/examples/example_hybrid_knn
 */

#include <cstdio>

#include "ckks/evaluator.h"
#include "switching/repack.h"
#include "switching/scheme_switch.h"
#include "tfhe/gates.h"

using namespace ufc;

int
main()
{
    // ------------------------------------------------------------------
    // Setup: CKKS context (SIMD arithmetic) + TFHE context (comparisons)
    // + the bridges between them.
    // ------------------------------------------------------------------
    ckks::CkksContext cctx(ckks::CkksParams::testFast());
    ckks::CkksEncoder encoder(&cctx);
    Rng rng(31337);
    ckks::CkksKeyGenerator keygen(&cctx, rng);
    ckks::CkksEncryptor encryptor(&cctx, &keygen.secretKey(), rng);

    auto tparams = tfhe::TfheParams::testFast();
    auto tfheKey = tfhe::LweSecretKey::generate(tparams.lweDim, rng);
    RingContext tring(tparams.ringDim);
    auto tfheRingKey =
        tfhe::RlweSecretKey::generate(&tring.table(tparams.q), rng);
    tfhe::BootstrapContext bc(tparams, tfheKey, tfheRingKey, rng);
    switching::CkksToTfheBridge bridge(cctx, keygen.secretKey(), tfheKey,
                                       tparams, rng);

    // ------------------------------------------------------------------
    // Phase 1 (CKKS): quantized squared distances from the query to four
    // database points, computed slot-wise and placed into coefficients.
    // Message space t = 16 (distances quantized to [0, 8)).
    // ------------------------------------------------------------------
    const u64 t = 16;
    const double query[2] = {0.3, 0.7};
    const double db[4][2] = {
        {0.9, 0.1}, {0.35, 0.6}, {0.0, 0.0}, {0.5, 0.2}};

    // For this small demo the distance arithmetic is done on plaintext
    // scales but carried through encryption: d_i = round(8*||q - p_i||^2)
    // encoded into coefficient i at scale q0/t, then encrypted.
    std::vector<double> distCoeffs(4);
    for (int i = 0; i < 4; ++i) {
        const double dx = query[0] - db[i][0];
        const double dy = query[1] - db[i][1];
        distCoeffs[i] = std::floor(8.0 * (dx * dx + dy * dy));
        if (distCoeffs[i] > 7.0)
            distCoeffs[i] = 7.0;
    }
    const double scale =
        static_cast<double>(cctx.qAt(0)) / static_cast<double>(t);
    auto distCt = encryptor.encrypt(
        encoder.encodeCoefficients(distCoeffs, 1, scale));
    std::printf("quantized encrypted distances: %g %g %g %g\n",
                distCoeffs[0], distCoeffs[1], distCoeffs[2],
                distCoeffs[3]);

    // ------------------------------------------------------------------
    // Phase 2 (switch): extract each distance as a TFHE LWE.
    // ------------------------------------------------------------------
    std::vector<tfhe::LweCiphertext> distances;
    for (u64 i = 0; i < 4; ++i)
        distances.push_back(bridge.convert(distCt, i));

    // ------------------------------------------------------------------
    // Phase 3 (TFHE): exact comparison tournament.  less(x, y) is a sign
    // PBS on x - y; MUX-style selection keeps the smaller distance's
    // one-hot indicator.
    // ------------------------------------------------------------------
    auto lessThan = [&](const tfhe::LweCiphertext &x,
                        const tfhe::LweCiphertext &y) {
        // diff = x - y has phase in (-q/2, q/2); the sign bootstrap
        // returns +q/8 when the phase is in [0, q/2), i.e. x >= y.
        tfhe::LweCiphertext diff = x;
        diff.subInPlace(y);
        auto geBit = bc.signBootstrap(diff);
        return tfhe::gateNot(geBit); // true iff x < y
    };

    // Round 1: winners of (0,1) and (2,3).
    auto b01 = lessThan(distances[0], distances[1]); // d0 < d1 ?
    auto b23 = lessThan(distances[2], distances[3]);

    // Select the winning distances with bootstrapped arithmetic MUX:
    // min = b*x + (1-b)*y done as gates on quantized bits would be
    // costly; instead compare cross pairs directly for the final.
    // winner01 = b01 ? d0 : d1 — realized by comparing both candidates
    // against both of the other bracket's candidates would blow up, so
    // use the standard trick: final = min over pairwise comparisons.
    auto b02 = lessThan(distances[0], distances[2]);
    auto b03 = lessThan(distances[0], distances[3]);
    auto b12 = lessThan(distances[1], distances[2]);
    auto b13 = lessThan(distances[1], distances[3]);

    // One-hot winner bits: w_i = AND of i's wins.
    std::vector<tfhe::LweCiphertext> oneHot;
    oneHot.push_back(tfhe::gateAnd(bc, b01, tfhe::gateAnd(bc, b02, b03)));
    oneHot.push_back(tfhe::gateAnd(bc, tfhe::gateNot(b01),
                                   tfhe::gateAnd(bc, b12, b13)));
    oneHot.push_back(tfhe::gateAnd(
        bc, tfhe::gateNot(b02),
        tfhe::gateAnd(bc, tfhe::gateNot(b12), b23)));
    oneHot.push_back(tfhe::gateAnd(
        bc, tfhe::gateNot(b03),
        tfhe::gateAnd(bc, tfhe::gateNot(b13), tfhe::gateNot(b23))));

    // ------------------------------------------------------------------
    // Phase 4 (switch): normalize the indicator bits with a programmable
    // bootstrap into an odd message space and repack them into one RLWE.
    // ------------------------------------------------------------------
    // Gate booleans sit at +-q/8; after an additive q/8 shift a true bit
    // has phase q/4 (message 2 in Z_8) and a false bit phase 0 (message
    // 0), so a LUT bootstrap re-encodes them exactly into the odd packing
    // domain Z_5.
    const u64 tOdd = 5;
    std::vector<u64> toOdd(8, 0);
    toOdd[2] = 1;

    const u64 packN = 64;
    RingContext packRing(packN);
    auto packRingKey = tfhe::RlweSecretKey::generate(
        &packRing.table(tparams.q), rng);
    Gadget packGadget(tparams.q, 8, 3);
    switching::RingPacker packer(packRingKey, packGadget, tparams.rlweSigma,
                                 rng);
    tfhe::LweSwitchKey toPackKey(tfheKey, packer.inputLweKey(), tparams.q,
                                 tparams.ksLogBase, tparams.ksLevels,
                                 tparams.lweSigma, rng);

    std::vector<tfhe::LweCiphertext> packInputs;
    for (auto &bit : oneHot) {
        // Normalize: PBS outputs lweEncode(1 or 0, q, 5).
        tfhe::LweCiphertext shifted = bit;
        shifted.addConstant(tparams.q / 8);
        auto norm = bc.programmableBootstrap(shifted, toOdd, 8, tOdd);
        packInputs.push_back(toPackKey.apply(norm));
    }

    const auto packed = packer.pack(packInputs);
    const Poly phase = tfhe::rlwePhase(packed, packRingKey);
    const u64 factorInv = invMod(packer.traceFactor(tOdd), tOdd);

    // ------------------------------------------------------------------
    // Verify against the plaintext computation.
    // ------------------------------------------------------------------
    int expectWinner = 0;
    for (int i = 1; i < 4; ++i)
        if (distCoeffs[i] < distCoeffs[expectWinner])
            expectWinner = i;

    bool ok = true;
    std::printf("packed one-hot winner indicator: ");
    for (u64 i = 0; i < 4; ++i) {
        const u64 raw = tfhe::lweDecode(phase[i], tparams.q, tOdd);
        const u64 m = mulMod(raw, factorInv, tOdd);
        std::printf("%llu ", static_cast<unsigned long long>(m));
        ok = ok && (m == (i == static_cast<u64>(expectWinner) ? 1u : 0u));
    }
    std::printf("(expected winner: point %d)\n", expectWinner);
    std::printf(ok ? "OK\n" : "FAILED\n");
    return ok ? 0 : 1;
}
