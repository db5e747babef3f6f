/**
 * @file
 * Microbenchmarks for the FHE substrate: CKKS primitives (encode,
 * encrypt, multiply, rotate, rescale, hybrid key switching) and TFHE
 * primitives (external product, blind rotation, LWE key switch, gate and
 * programmable bootstrap).  A gate bootstrap is one blind rotation, one
 * sample extraction and one LWE key switch, so the two layer benches
 * split its time; a blind rotation is lweDim gadget products, and the
 * gadget decompose, MAC and product benches split one of those (each
 * labelled with the path that ran: `ifma` or `scalar`).  The CKKS multiply, rescale and rotate benches also
 * report `minflt`, the process's minor page faults per iteration: a
 * warmed op that reuses its temporaries should fault only for its
 * outputs.
 */

#include <sys/resource.h>
#include <string>

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

const char *
pathLabel(bool ifma)
{
    return ifma ? "ifma" : "scalar";
}

/** Decompose one ring element: Gadget::decompose (dispatched:1) or its
 *  scalar reference (dispatched:0). */
void
BM_TfheGadgetDecompose(benchmark::State &state)
{
    auto &b = tfheBench();
    const bool dispatched = state.range(0) != 0;
    const u64 n = b.params.ringDim;
    const u64 *x = b.rlwe.a.data().data();
    std::vector<u64> digits(n * static_cast<u64>(b.gadget.levels()));
    for (auto _ : state) {
        if (dispatched)
            b.gadget.decompose(x, n, digits.data());
        else
            b.gadget.decomposeReference(x, n, digits.data());
        benchmark::DoNotOptimize(digits.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(pathLabel(dispatched && b.gadget.decomposeUsesAvx512()));
}

/** The gadget product's MAC over the 2l RGSW rows of one external
 *  product: Gadget::mac (dispatched:1) or its scalar reference
 *  (dispatched:0). */
void
BM_TfheGadgetMac(benchmark::State &state)
{
    auto &b = tfheBench();
    const bool dispatched = state.range(0) != 0;
    const u64 n = b.params.ringDim;
    const size_t count = b.rgsw.rows.size();
    const size_t l = static_cast<size_t>(b.gadget.levels());
    std::vector<u64> digits(count * n);
    b.gadget.decompose(b.rlwe.a.data().data(), n, digits.data());
    b.gadget.decompose(b.rlwe.b.data().data(), n, digits.data() + l * n);
    for (size_t r = 0; r < count; ++r)
        b.rlwe.a.table()->forward(digits.data() + r * n);
    std::vector<Gadget::MacRow> rows;
    for (const auto &row : b.rgsw.rows)
        rows.push_back({row.a.data().data(), row.b.data().data()});
    std::vector<u64> outA(n), outB(n);
    for (auto _ : state) {
        if (dispatched)
            b.gadget.mac(digits.data(), rows.data(), count, n, outA.data(),
                         outB.data());
        else
            b.gadget.macReference(digits.data(), rows.data(), count, n,
                                  outA.data(), outB.data());
        benchmark::DoNotOptimize(outA.data());
        benchmark::DoNotOptimize(outB.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(pathLabel(dispatched && b.gadget.macUsesAvx512()));
}

/** One tfhe::gadgetProduct call, a blind-rotation step without the
 *  rotation and the accumulate: decompose, 2l forward NTTs, MAC and two
 *  inverse NTTs, into reused scratch and output. */
void
BM_TfheGadgetProduct(benchmark::State &state)
{
    auto &b = tfheBench();
    const Poly *in[] = {&b.rlwe.a, &b.rlwe.b};
    std::vector<u64> digits;
    tfhe::RlweCiphertext out;
    for (auto _ : state) {
        tfhe::gadgetProduct(in, b.rgsw.rows.data(), b.gadget, digits, out);
        benchmark::DoNotOptimize(&out);
    }
    const std::string label =
        std::string("decompose=") +
        pathLabel(b.gadget.decomposeUsesAvx512()) + " mac=" +
        pathLabel(b.gadget.macUsesAvx512()) + " ntt=" +
        pathLabel(b.rlwe.a.table()->usesAvx512());
    state.SetLabel(label);
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
BENCHMARK(BM_TfheGadgetDecompose)->ArgName("dispatched")->Arg(1)->Arg(0);
BENCHMARK(BM_TfheGadgetMac)->ArgName("dispatched")->Arg(1)->Arg(0);
BENCHMARK(BM_TfheGadgetProduct);
BENCHMARK(BM_TfheBlindRotate);
BENCHMARK(BM_TfheLweKeySwitch);
BENCHMARK(BM_TfheGateBootstrap);
BENCHMARK(BM_TfheProgrammableBootstrap);

BENCHMARK_MAIN();
