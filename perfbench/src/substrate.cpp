/**
 * @file
 * The FHE substrate: functional CKKS at CkksParams::testFast() (multiply +
 * relinearize + rescale, rotate) and TFHE gate bootstraps at
 * TfheParams::testFast(), on operands drawn from the seed and checked
 * after every op.  Every workload's untraced run times these ops through
 * the op probe; the sweeps' traced runs also time the kernels below them
 * with the kernel pool at its default size.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "ckks/evaluator.h"
#include "common/parallel.h"
#include "harness.h"
#include "math/ntt.h"
#include "metrics/metrics.h"
#include "tfhe/gates.h"
#include "tfhe/rlwe.h"

namespace perfbench {

using namespace ufc;

namespace {

constexpr int kCkksPairs = 4;
constexpr int kBitPairs = 8;
constexpr double kCkksTolerance = 2e-3;
/// Untraced rounds between two set-up samples.

/** Plaintext operands drawn from the seed. */
struct Inputs
{
    std::vector<std::vector<double>> a, b; ///< kCkksPairs slot vectors each
    std::vector<bool> x, y;                ///< kBitPairs gate inputs each
};

Inputs
makeInputs(std::uint64_t seed, std::size_t slots)
{
    Rng rng(seed ^ 0x5b57a7eULL);
    Inputs in;
    for (int k = 0; k < kCkksPairs; ++k) {
        std::vector<double> a(slots), b(slots);
        for (std::size_t i = 0; i < slots; ++i) {
            a[i] = 2.0 * rng.uniformReal() - 1.0;
            b[i] = 2.0 * rng.uniformReal() - 1.0;
        }
        in.a.push_back(std::move(a));
        in.b.push_back(std::move(b));
    }
    for (int k = 0; k < kBitPairs; ++k) {
        in.x.push_back(rng.uniform(2) == 1);
        in.y.push_back(rng.uniform(2) == 1);
    }
    return in;
}

/** Keys and evaluators for both schemes. */
struct Keys
{
    explicit Keys(std::uint64_t seed)
        : rng(seed), ctx(ckks::CkksParams::testFast()), encoder(&ctx),
          keygen(&ctx, rng), encryptor(&ctx, &keygen.secretKey(), rng),
          eval(&ctx), relin(keygen.makeRelinKey()),
          rot1(keygen.makeRotationKey(1)), tp(tfhe::TfheParams::testFast()),
          lweKey(tfhe::LweSecretKey::generate(tp.lweDim, rng)),
          ring(tp.ringDim),
          ringKey(tfhe::RlweSecretKey::generate(&ring.table(tp.q), rng)),
          bc(tp, lweKey, ringKey, rng)
    {}

    Rng rng;
    ckks::CkksContext ctx;
    ckks::CkksEncoder encoder;
    ckks::CkksKeyGenerator keygen;
    ckks::CkksEncryptor encryptor;
    ckks::CkksEvaluator eval;
    ckks::EvalKey relin;
    ckks::EvalKey rot1;
    tfhe::TfheParams tp;
    tfhe::LweSecretKey lweKey;
    RingContext ring;
    tfhe::RlweSecretKey ringKey;
    tfhe::BootstrapContext bc;
};

/** Encrypted operands plus their plaintext expectations. */
struct Operands
{
    Inputs in;
    std::vector<ckks::Ciphertext> ctA, ctB;
    std::vector<tfhe::LweCiphertext> bitX, bitY;
};

Operands
encryptInputs(Keys &k, std::uint64_t seed)
{
    Operands ops;
    ops.in = makeInputs(seed, k.ctx.slots());
    for (int i = 0; i < kCkksPairs; ++i) {
        ops.ctA.push_back(k.encryptor.encrypt(
            k.encoder.encode(ops.in.a[i], k.ctx.levels(), k.ctx.scale())));
        ops.ctB.push_back(k.encryptor.encrypt(
            k.encoder.encode(ops.in.b[i], k.ctx.levels(), k.ctx.scale())));
    }
    for (int i = 0; i < kBitPairs; ++i) {
        ops.bitX.push_back(tfhe::encryptBit(ops.in.x[i], k.lweKey, k.tp,
                                            k.rng));
        ops.bitY.push_back(tfhe::encryptBit(ops.in.y[i], k.lweKey, k.tp,
                                            k.rng));
    }
    return ops;
}

double
maxSlotError(const Keys &k, const ckks::Ciphertext &ct,
             const std::vector<double> &expect)
{
    Scope s("ckks", "ckks.decrypt");
    const std::vector<cplx> dec = k.encoder.decode(k.encryptor.decrypt(ct));
    double worst = 0.0;
    for (std::size_t i = 0; i < expect.size(); ++i)
        worst = std::max(worst, std::abs(dec[i].real() - expect[i]));
    return worst;
}

/** Op latencies of the rounds run so far. */
struct OpTimes
{
    std::vector<double> multMs, rotateMs, pbsMs;
};

/**
 * One round: multiply+relinearize+rescale and rotate on each CKKS pair,
 * then the four bootstrapped gates on bit pair `round % kBitPairs`, so a
 * round times as many CKKS ops as gate bootstraps.  Every op is timed
 * alone and its result checked.  `failFirst` ops of the whole run are
 * checked against the wrong answer (the benchmark's own failure-counting
 * test).
 */
void
runRound(Keys &k, const Operands &ops, int round, int &failFirst,
         OpTimes &t, Report &rep)
{
    const std::size_t j = static_cast<std::size_t>(round % kBitPairs);
    const std::size_t n = k.ctx.slots();
    const auto expectFail = [&] { return failFirst-- > 0; };

    std::vector<double> expect(n);
    for (std::size_t i = 0; i < static_cast<std::size_t>(kCkksPairs); ++i) {
        Clock::time_point t0 = Clock::now();
        ckks::Ciphertext prod;
        {
            Scope s("ckks", "ckks.multiply_relin_rescale");
            prod = k.eval.rescale(
                k.eval.multiply(ops.ctA[i], ops.ctB[i], k.relin));
        }
        t.multMs.push_back(1e3 * secondsSince(t0));
        for (std::size_t s = 0; s < n; ++s)
            expect[s] = ops.in.a[i][s] * ops.in.b[i][s];
        const double multErr = maxSlotError(k, prod, expect);
        rep.unit((multErr < kCkksTolerance) != expectFail(),
                 "ckks multiply error " + std::to_string(multErr));

        t0 = Clock::now();
        ckks::Ciphertext rot;
        {
            Scope s("ckks", "ckks.rotate");
            rot = k.eval.rotate(ops.ctA[i], 1, k.rot1);
        }
        t.rotateMs.push_back(1e3 * secondsSince(t0));
        for (std::size_t s = 0; s < n; ++s)
            expect[s] = ops.in.a[i][(s + 1) % n];
        const double rotErr = maxSlotError(k, rot, expect);
        rep.unit((rotErr < kCkksTolerance) != expectFail(),
                 "ckks rotate error " + std::to_string(rotErr));
    }

    const bool x = ops.in.x[j], y = ops.in.y[j];
    const struct
    {
        const char *name;
        tfhe::LweCiphertext (*gate)(const tfhe::BootstrapContext &,
                                    const tfhe::LweCiphertext &,
                                    const tfhe::LweCiphertext &);
        bool expect;
    } gates[] = {{"nand", tfhe::gateNand, !(x && y)},
                 {"and", tfhe::gateAnd, x && y},
                 {"or", tfhe::gateOr, x || y},
                 {"xor", tfhe::gateXor, x != y}};
    for (const auto &g : gates) {
        const Clock::time_point t0 = Clock::now();
        tfhe::LweCiphertext out;
        {
            Scope s("tfhe", "tfhe.gate_bootstrap");
            out = g.gate(k.bc, ops.bitX[j], ops.bitY[j]);
        }
        t.pbsMs.push_back(1e3 * secondsSince(t0));
        bool bit;
        {
            Scope s("tfhe", "tfhe.decrypt");
            bit = tfhe::decryptBit(out, k.lweKey);
        }
        rep.unit((bit == g.expect) != expectFail(),
                 std::string("tfhe gate ") + g.name + " truth table");
    }
}

/** Kernel-level calls timed only in traced rounds (per-layer metrics). */
struct Kernels
{
    explicit Kernels(Keys &k)
        : ntt(k.ctx.degree(), k.ctx.qAt(0)),
          gadget(k.tp.q, k.tp.gadgetLogBase, k.tp.gadgetLevels)
    {
        Rng rng(0x6b65726eULL);
        vec.resize(k.ctx.degree());
        for (u64 &v : vec)
            v = rng.uniform(k.ctx.qAt(0));
        digit = k.ctx.makePoly(k.ctx.digitSize(), PolyForm::Coeff);
        digit.sampleUniform(rng);
        Poly bit(k.ringKey.s.table(), PolyForm::Coeff);
        bit[0] = 1;
        rgsw = tfhe::rgswEncrypt(bit, k.ringKey, gadget, k.tp.rlweSigma, rng);
        Poly msg(k.ringKey.s.table(), PolyForm::Coeff);
        msg[0] = k.tp.q / 4;
        rlwe = tfhe::rlweEncrypt(msg, k.ringKey, k.tp.rlweSigma, rng);
        testVector = k.bc.makeTestVector({0, 1, 1, 0}, 4);
    }

    NttTable ntt;
    Gadget gadget;
    std::vector<u64> vec;
    RnsPoly digit;
    tfhe::RgswCiphertext rgsw;
    tfhe::RlweCiphertext rlwe;
    Poly testVector;
};

void
runKernels(Keys &k, Kernels &kn, const Operands &ops)
{
    {
        Scope s("math", "math.ntt_forward");
        kn.ntt.forward(kn.vec);
    }
    {
        Scope s("math", "math.ntt_inverse");
        kn.ntt.inverse(kn.vec);
    }
    {
        RnsPoly p = kn.digit;
        Scope s("math", "math.base_convert");
        p.extendBasis(k.ctx.pChain());
    }
    {
        Scope s("ckks", "ckks.key_switch");
        (void)k.eval.keySwitch(ops.ctA[0].c1, k.relin);
    }
    {
        Scope s("tfhe", "tfhe.blind_rotate");
        (void)k.bc.blindRotate(ops.bitX[0], kn.testVector);
    }
    {
        Scope s("tfhe", "tfhe.external_product");
        (void)tfhe::externalProduct(kn.rgsw, kn.rlwe, kn.gadget);
    }
}

double
spanMedian(const LayerTimes &lt, const char *name, double scale)
{
    const auto it = lt.durations.find(name);
    return it == lt.durations.end() ? 0.0 : scale * median(it->second);
}

} // namespace

std::string
substrateInputDigest(std::uint64_t seed)
{
    const Inputs in =
        makeInputs(seed, ckks::CkksParams::testFast().ringDim / 2);
    std::string bytes;
    for (int i = 0; i < kCkksPairs; ++i)
        for (const auto *v : {&in.a[i], &in.b[i]})
            bytes.append(reinterpret_cast<const char *>(v->data()),
                         v->size() * sizeof(double));
    for (int i = 0; i < kBitPairs; ++i)
        bytes += static_cast<char>('0' + in.x[i] + 2 * in.y[i]);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(bytes)));
    return hex;
}

struct OpProbe::State
{
    State(std::uint64_t seed, int failOps, Report &r)
        : rep(r), keys(seed), ops(encryptInputs(keys, seed)),
          failFirst(failOps)
    {}

    Report &rep;
    Keys keys;
    Operands ops;
    OpTimes times;
    int rounds = 0;
    int failFirst;
};

OpProbe::OpProbe(std::uint64_t seed, int failOps, Report &rep)
{
    // Probe rounds are short and far apart: with more than one pool
    // thread they would mostly time how fast idle pool threads wake up.
    setKernelThreads(1);
    s_ = std::make_unique<State>(seed, failOps, rep);
}

OpProbe::~OpProbe() = default;

void
OpProbe::round()
{
    runRound(s_->keys, s_->ops, s_->rounds++, s_->failFirst, s_->times,
             s_->rep);
}

void
OpProbe::finish()
{
    s_->rep.metric("ckks_mult_ms", fastest(s_->times.multMs), "ms");
    s_->rep.metric("ckks_rotate_ms", fastest(s_->times.rotateMs), "ms");
    s_->rep.metric("tfhe_pbs_ms", fastest(s_->times.pbsMs), "ms");
}

void
traceSubstrate(std::uint64_t seed, double seconds, Report &rep)
{
    const int threads = kernelThreads();
    rep.note("substrate: kernel pool threads: " + std::to_string(threads));
    Keys k(seed);
    const Operands ops = encryptInputs(k, seed);
    Kernels kernels(k);
    int failFirst = 0;
    OpTimes times;
    runRound(k, ops, 0, failFirst, times, rep);

    Tracer &tr = tracer();
    const std::size_t from = tr.mark();
    double tracedWall = 0.0;
    std::uint64_t tracedBusyNs = 0;
    const Clock::time_point start = Clock::now();
    for (int r = 1; r <= 8 || secondsSince(start) < seconds; ++r) {
        const std::uint64_t b0 =
            counterValue("ufc_pool_task_busy_ns_total");
        const Clock::time_point t0 = Clock::now();
        {
            Scope root("bench", "bench.round");
            runRound(k, ops, r, failFirst, times, rep);
            runKernels(k, kernels, ops);
        }
        tracedWall += secondsSince(t0);
        tracedBusyNs += counterValue("ufc_pool_task_busy_ns_total") - b0;
    }

    const LayerTimes lt = layerTimes(tr.spans(), from);
    rep.metric("math.ntt_fwd_us", spanMedian(lt, "math.ntt_forward", 1e6),
               "us");
    rep.metric("math.ntt_inv_us", spanMedian(lt, "math.ntt_inverse", 1e6),
               "us");
    rep.metric("math.bconv_us", spanMedian(lt, "math.base_convert", 1e6),
               "us");
    rep.metric("ckks.keyswitch_ms", spanMedian(lt, "ckks.key_switch", 1e3),
               "ms");
    rep.metric("tfhe.blind_rotate_ms",
               spanMedian(lt, "tfhe.blind_rotate", 1e3), "ms");
    rep.metric("tfhe.external_product_us",
               spanMedian(lt, "tfhe.external_product", 1e6), "us");
    rep.metric("common.pool_busy_frac",
               tracedWall > 0 ? 1e-9 * static_cast<double>(tracedBusyNs) /
                                    (tracedWall * threads)
                              : 0.0,
               "ratio");
    rep.note("substrate: traced rounds (op and kernel spans):");
    reportLayerShares(lt, rep);
}

} // namespace perfbench
