/**
 * @file
 * Microbenchmarks for the FHE substrate: CKKS primitives (encode,
 * encrypt, multiply, rotate, rescale, hybrid key switching) and TFHE
 * primitives (external product, blind rotation, LWE key switch, gate and
 * programmable bootstrap).  A gate bootstrap is one blind rotation, one
 * sample extraction and one LWE key switch, so the two layer benches
 * split its time.  The CKKS multiply, rescale and rotate benches also
 * report `minflt`, the process's minor page faults per iteration: a
 * warmed op that reuses its temporaries should fault only for its
 * outputs.
 */

#include <sys/resource.h>

#include <benchmark/benchmark.h>

#include "ckks/evaluator.h"
#include "tfhe/gates.h"

using namespace ufc;

namespace {

struct CkksBench
{
    CkksBench()
        : ctx(ckks::CkksParams::testFast()), encoder(&ctx), rng(42),
          keygen(&ctx, rng), encryptor(&ctx, &keygen.secretKey(), rng),
          eval(&ctx), relin(keygen.makeRelinKey()),
          rot1(keygen.makeRotationKey(1))
    {
        std::vector<double> v(ctx.slots(), 0.5);
        ctA = encryptor.encrypt(encoder.encode(v, ctx.levels(),
                                               ctx.scale()));
        ctB = encryptor.encrypt(encoder.encode(v, ctx.levels(),
                                               ctx.scale()));
    }

    ckks::CkksContext ctx;
    ckks::CkksEncoder encoder;
    Rng rng;
    ckks::CkksKeyGenerator keygen;
    ckks::CkksEncryptor encryptor;
    ckks::CkksEvaluator eval;
    ckks::EvalKey relin;
    ckks::EvalKey rot1;
    ckks::Ciphertext ctA, ctB;
};

CkksBench &
ckksBench()
{
    static CkksBench b;
    return b;
}

long
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

/** Run `op` once per iteration and report minor faults per iteration. */
template <typename Op>
void
timeWithFaults(benchmark::State &state, Op op)
{
    const long before = minorFaults();
    for (auto _ : state) {
        auto ct = op();
        benchmark::DoNotOptimize(&ct);
    }
    state.counters["minflt"] =
        benchmark::Counter(static_cast<double>(minorFaults() - before),
                           benchmark::Counter::kAvgIterations);
}

void
BM_CkksEncode(benchmark::State &state)
{
    auto &b = ckksBench();
    std::vector<double> v(b.ctx.slots(), 0.25);
    for (auto _ : state) {
        auto pt = b.encoder.encode(v, b.ctx.levels(), b.ctx.scale());
        benchmark::DoNotOptimize(&pt);
    }
}

void
BM_CkksEncrypt(benchmark::State &state)
{
    auto &b = ckksBench();
    std::vector<double> v(b.ctx.slots(), 0.25);
    auto pt = b.encoder.encode(v, b.ctx.levels(), b.ctx.scale());
    for (auto _ : state) {
        auto ct = b.encryptor.encrypt(pt);
        benchmark::DoNotOptimize(&ct);
    }
}

void
BM_CkksMultiplyRelin(benchmark::State &state)
{
    auto &b = ckksBench();
    timeWithFaults(state,
                   [&] { return b.eval.multiply(b.ctA, b.ctB, b.relin); });
}

void
BM_CkksRescale(benchmark::State &state)
{
    auto &b = ckksBench();
    const auto prod = b.eval.multiply(b.ctA, b.ctB, b.relin);
    timeWithFaults(state, [&] { return b.eval.rescale(prod); });
}

void
BM_CkksRotate(benchmark::State &state)
{
    auto &b = ckksBench();
    timeWithFaults(state, [&] { return b.eval.rotate(b.ctA, 1, b.rot1); });
}

struct TfheBench
{
    TfheBench()
        : params(tfhe::TfheParams::testFast()), rng(7),
          lweKey(tfhe::LweSecretKey::generate(params.lweDim, rng)),
          ring(params.ringDim),
          ringKey(tfhe::RlweSecretKey::generate(&ring.table(params.q),
                                                rng)),
          bc(params, lweKey, ringKey, rng),
          gadget(params.q, params.gadgetLogBase, params.gadgetLevels)
    {
        Poly bit(ringKey.s.table(), PolyForm::Coeff);
        bit[0] = 1;
        rgsw = tfhe::rgswEncrypt(bit, ringKey, gadget, params.rlweSigma,
                                 rng);
        Poly msg(ringKey.s.table(), PolyForm::Coeff);
        msg[0] = params.q / 4;
        rlwe = tfhe::rlweEncrypt(msg, ringKey, params.rlweSigma, rng);
        bitA = tfhe::encryptBit(true, lweKey, params, rng);
        bitB = tfhe::encryptBit(false, lweKey, params, rng);
        testVector = bc.makeTestVector({0, 1, 1, 0}, 4);
        extracted = tfhe::sampleExtract(bc.blindRotate(bitA, testVector));
    }

    tfhe::TfheParams params;
    Rng rng;
    tfhe::LweSecretKey lweKey;
    RingContext ring;
    tfhe::RlweSecretKey ringKey;
    tfhe::BootstrapContext bc;
    Gadget gadget;
    tfhe::RgswCiphertext rgsw;
    tfhe::RlweCiphertext rlwe;
    tfhe::LweCiphertext bitA, bitB;
    Poly testVector;
    tfhe::LweCiphertext extracted; ///< dimension N, under the ring key
};

TfheBench &
tfheBench()
{
    static TfheBench b;
    return b;
}

void
BM_TfheExternalProduct(benchmark::State &state)
{
    auto &b = tfheBench();
    for (auto _ : state) {
        auto ct = tfhe::externalProduct(b.rgsw, b.rlwe, b.gadget);
        benchmark::DoNotOptimize(&ct);
    }
}

void
BM_TfheBlindRotate(benchmark::State &state)
{
    auto &b = tfheBench();
    for (auto _ : state) {
        auto acc = b.bc.blindRotate(b.bitA, b.testVector);
        benchmark::DoNotOptimize(&acc);
    }
}

void
BM_TfheLweKeySwitch(benchmark::State &state)
{
    auto &b = tfheBench();
    for (auto _ : state) {
        auto ct = b.bc.keySwitch(b.extracted);
        benchmark::DoNotOptimize(&ct);
    }
}

void
BM_TfheGateBootstrap(benchmark::State &state)
{
    auto &b = tfheBench();
    for (auto _ : state) {
        auto ct = tfhe::gateNand(b.bc, b.bitA, b.bitB);
        benchmark::DoNotOptimize(&ct);
    }
}

void
BM_TfheProgrammableBootstrap(benchmark::State &state)
{
    auto &b = tfheBench();
    const u64 t = 8;
    std::vector<u64> lut(t);
    for (u64 m = 0; m < t; ++m)
        lut[m] = (m * 3) % 4;
    auto ct = tfhe::lweEncrypt(tfhe::lweEncode(2, b.params.q, t),
                               b.lweKey, b.params, b.rng);
    for (auto _ : state) {
        auto out = b.bc.programmableBootstrap(ct, lut, t);
        benchmark::DoNotOptimize(&out);
    }
}

} // namespace

BENCHMARK(BM_CkksEncode);
BENCHMARK(BM_CkksEncrypt);
BENCHMARK(BM_CkksMultiplyRelin);
BENCHMARK(BM_CkksRescale);
BENCHMARK(BM_CkksRotate);
BENCHMARK(BM_TfheExternalProduct);
BENCHMARK(BM_TfheBlindRotate);
BENCHMARK(BM_TfheLweKeySwitch);
BENCHMARK(BM_TfheGateBootstrap);
BENCHMARK(BM_TfheProgrammableBootstrap);

BENCHMARK_MAIN();
