/**
 * @file
 * Differential determinism tests for the kernel layer.
 *
 * The limb-parallel RNS operations promise bit-identical results at any
 * thread count (work is distributed as disjoint per-index writes, so
 * scheduling cannot reorder arithmetic).  These tests run a fixed seeded
 * pipeline of polynomial operations under several kernel-pool sizes and
 * require exact equality, and pin down the same contract between the
 * optimized NTT kernel tiers (AVX-512 IFMA / scalar Harvey) and the
 * reference kernels, between the division-free gadget decomposition and
 * its 128-bit-division oracle, and between concurrent and serial TFHE
 * bootstraps on one shared context.
 */

#include <thread>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "math/gadget.h"
#include "math/ntt.h"
#include "math/primes.h"
#include "poly/rns_poly.h"
#include "tfhe/gates.h"

namespace ufc {
namespace {

/** Restores the default kernel pool on scope exit so a failing test
 *  doesn't leak its thread-count override into later tests. */
struct KernelThreadsGuard
{
    ~KernelThreadsGuard() { setKernelThreads(0); }
};

std::vector<std::vector<u64>>
snapshot(const RnsPoly &p)
{
    std::vector<std::vector<u64>> out(p.limbCount());
    for (size_t i = 0; i < p.limbCount(); ++i) {
        out[i].resize(p.degree());
        for (u64 c = 0; c < p.degree(); ++c)
            out[i][c] = p.limb(i)[c];
    }
    return out;
}

/** A fixed, fully seeded pipeline exercising every limb-parallel op:
 *  NTT form changes, add/sub/neg/scale, eval products, automorphism,
 *  and basis extension. */
std::vector<std::vector<u64>>
runPipeline(u64 n, const std::vector<u64> &moduli,
            const std::vector<u64> &extModuli)
{
    RingContext ring(n);
    RnsPoly a(&ring, moduli, PolyForm::Coeff);
    RnsPoly b(&ring, moduli, PolyForm::Coeff);
    Rng rng(4242);
    a.sampleUniform(rng);
    b.sampleUniform(rng);

    a.toEval();
    b.toEval();
    a.mulEvalInPlace(b);
    RnsPoly acc = a;
    acc.fmaEval(a, b);
    acc.addInPlace(a);
    acc.subInPlace(b);
    acc.negInPlace();
    acc.scaleInPlace(7);
    acc = acc.automorphism(5);
    acc.toCoeff();
    acc.extendBasis(extModuli);
    return snapshot(acc);
}

TEST(KernelDifferential, LimbParallelOpsBitIdenticalToSerial)
{
    KernelThreadsGuard guard;
    const u64 n = 1ULL << 10;
    std::vector<u64> moduli, ext;
    for (int i = 0; i < 4; ++i)
        moduli.push_back(findNttPrime(45, 2 * n, i));
    for (int i = 4; i < 6; ++i)
        ext.push_back(findNttPrime(45, 2 * n, i));

    setKernelThreads(1);
    const auto serial = runPipeline(n, moduli, ext);
    for (const int threads : {2, 3, 8}) {
        setKernelThreads(threads);
        const auto parallel = runPipeline(n, moduli, ext);
        ASSERT_EQ(parallel, serial) << "threads=" << threads;
    }
}

TEST(KernelDifferential, OptimizedNttBitIdenticalToReference)
{
    // q < 2^50 dispatches to the IFMA tier where the host supports it,
    // q >= 2^50 always takes the scalar Harvey tier; both must agree
    // with the reference kernels on every input, bit for bit.
    for (const int bits : {45, 59}) {
        for (const int logN : {4, 6, 10, 13}) {
            const u64 n = 1ULL << logN;
            const u64 q = findNttPrime(bits, 2 * n);
            NttTable ntt(n, q);
            Rng rng(100 + bits + logN);
            for (int rep = 0; rep < 8; ++rep) {
                std::vector<u64> a(n);
                for (auto &x : a)
                    x = rng.uniform(q);
                auto optF = a, refF = a;
                ntt.forward(optF.data());
                ntt.forwardReference(refF.data());
                ASSERT_EQ(optF, refF)
                    << "forward bits=" << bits << " logN=" << logN;
                auto optI = a, refI = a;
                ntt.inverse(optI.data());
                ntt.inverseReference(refI.data());
                ASSERT_EQ(optI, refI)
                    << "inverse bits=" << bits << " logN=" << logN;
            }
        }
    }
}

TEST(KernelDifferential, SharedTableTransformsAreReentrant)
{
    // Concurrent transforms of distinct arrays against one shared table
    // must be independent (per-thread scratch): the parallel results
    // must equal the serial ones element for element.
    KernelThreadsGuard guard;
    const u64 n = 1ULL << 12;
    const u64 q = findNttPrime(45, 2 * n);
    NttTable ntt(n, q);
    Rng rng(777);
    const size_t count = 16;
    std::vector<std::vector<u64>> polys(count);
    for (auto &p : polys) {
        p.resize(n);
        for (auto &x : p)
            x = rng.uniform(q);
    }

    auto serial = polys;
    for (auto &p : serial)
        ntt.forward(p);

    setKernelThreads(8);
    auto parallel = polys;
    parallelFor(count, [&](size_t i) { ntt.forward(parallel[i]); });
    EXPECT_EQ(parallel, serial);
}

TEST(KernelDifferential, ParallelForRunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4);
    const size_t count = 10000;
    std::vector<int> hits(count, 0);
    pool.parallelFor(count, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < count; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(KernelDifferential, NestedParallelForRunsInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    std::vector<int> outer(64, 0);
    pool.parallelFor(64, [&](size_t i) {
        // A nested parallelFor from a worker must execute inline (and
        // to completion) rather than re-entering the pool.
        std::vector<int> inner(8, 0);
        pool.parallelFor(8, [&](size_t j) { ++inner[j]; });
        int sum = 0;
        for (int x : inner)
            sum += x;
        outer[i] = sum;
    });
    for (size_t i = 0; i < outer.size(); ++i)
        ASSERT_EQ(outer[i], 8) << "index " << i;
}

TEST(KernelDifferential, TfheConcurrentBootstrapsMatchSerial)
{
    // Bootstraps on threads sharing one const BootstrapContext keep no
    // shared scratch: each thread's outputs equal the serial ones.
    using namespace tfhe;
    const TfheParams params = TfheParams::testFast();
    Rng rng(0xc0ffeeULL);
    const LweSecretKey lweKey = LweSecretKey::generate(params.lweDim, rng);
    RingContext ring(params.ringDim);
    const RlweSecretKey ringKey =
        RlweSecretKey::generate(&ring.table(params.q), rng);
    const BootstrapContext bc(params, lweKey, ringKey, rng);

    using Gate = LweCiphertext (*)(const BootstrapContext &,
                                   const LweCiphertext &,
                                   const LweCiphertext &);
    const Gate gates[] = {gateNand, gateAnd, gateOr, gateXor};
    constexpr size_t kJobs = 8;
    constexpr size_t kThreads = 4;
    std::vector<LweCiphertext> x, y;
    x.reserve(kJobs);
    y.reserve(kJobs);
    for (size_t i = 0; i < kJobs; ++i) {
        x.push_back(encryptBit((i & 1) != 0, lweKey, params, rng));
        y.push_back(encryptBit((i & 2) != 0, lweKey, params, rng));
    }
    const auto job = [&](size_t i) { return gates[i % 4](bc, x[i], y[i]); };

    std::vector<LweCiphertext> serial;
    serial.reserve(kJobs);
    for (size_t i = 0; i < kJobs; ++i)
        serial.push_back(job(i));

    std::vector<LweCiphertext> concurrent(kJobs);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (size_t i = t; i < kJobs; i += kThreads)
                concurrent[i] = job(i);
        });
    }
    for (auto &th : threads)
        th.join();
    for (size_t i = 0; i < kJobs; ++i) {
        EXPECT_EQ(concurrent[i].a, serial[i].a) << "job " << i;
        EXPECT_EQ(concurrent[i].b, serial[i].b) << "job " << i;
    }
}

/**
 * Gadget decomposition as first written: round(x * B^l / q) by a 128-bit
 * division, then balanced digits with a branch per digit.  The oracle the
 * division-free Gadget::decompose must match digit for digit.
 */
void
wideDecompose(u64 q, int logBase, int levels, u64 x, u64 *digits)
{
    const u64 b = 1ULL << logBase;
    const u128 num =
        (static_cast<u128>(x) << (logBase * levels)) + q / 2;
    u64 xHat = static_cast<u64>(num / q);
    u64 carry = 0;
    for (int k = 0; k < levels; ++k) {
        const u64 d = (xHat & (b - 1)) + carry;
        xHat >>= logBase;
        if (d >= b / 2) {
            digits[levels - 1 - k] = subMod(0, b - d, q);
            carry = 1;
        } else {
            digits[levels - 1 - k] = d % q;
            carry = 0;
        }
    }
}

TEST(KernelDifferential, GadgetDecomposeMatchesWideOracle)
{
    struct Config
    {
        u64 q;
        int logBase, levels;
    };
    std::vector<Config> configs;
    // Bootstrapping and LWE key-switching gadgets of every TFHE set.
    for (const auto &p :
         {tfhe::TfheParams::t1(), tfhe::TfheParams::t2(),
          tfhe::TfheParams::t3(), tfhe::TfheParams::t4(),
          tfhe::TfheParams::testFast()}) {
        configs.push_back({p.q, p.gadgetLogBase, p.gadgetLevels});
        configs.push_back({p.q, p.ksLogBase, p.ksLevels});
    }
    // The property-sweep grid, the external-product sweep and the ring
    // packing gadget (hybrid kNN, RingPacker tests).
    const u64 q11 = findNttPrime(32, 1 << 11);
    const u64 qFast = tfhe::TfheParams::testFast().q;
    for (const auto &[lb, l] : {std::pair{2, 8}, std::pair{4, 6},
                                std::pair{8, 3}, std::pair{8, 4},
                                std::pair{11, 2}, std::pair{16, 2}}) {
        configs.push_back({q11, lb, l});
        configs.push_back({qFast, lb, l});
    }
    configs.push_back({findNttPrime(32, 8192), 8, 3});
    configs.push_back({findNttPrime(32, 4096), 8, 3});
    configs.push_back({findNttPrime(32, 1 << 12), 4, 6});

    Rng rng(0xdec0de);
    for (const Config &cfg : configs) {
        const Gadget g(cfg.q, cfg.logBase, cfg.levels);
        const u64 q = cfg.q;
        std::vector<u64> xs{0,         1,     q / 2 - 1, q / 2,
                            q / 2 + 1, q - 2, q - 1};
        const size_t edges = xs.size();
        xs.reserve(edges + 100000);
        for (int i = 0; i < 100000; ++i)
            xs.push_back(rng.uniform(q));

        const size_t l = static_cast<size_t>(cfg.levels);
        std::vector<u64> batch(l * xs.size());
        g.decompose(xs.data(), xs.size(), batch.data());
        std::vector<u64> expect(l), single(l);
        for (size_t c = 0; c < xs.size(); ++c) {
            wideDecompose(q, cfg.logBase, cfg.levels, xs[c], expect.data());
            for (size_t i = 0; i < l; ++i) {
                ASSERT_EQ(batch[i * xs.size() + c], expect[i])
                    << "q=" << q << " B=2^" << cfg.logBase
                    << " l=" << cfg.levels << " x=" << xs[c]
                    << " digit " << i;
            }
            if (c < edges) {
                g.decompose(&xs[c], 1, single.data());
                ASSERT_EQ(single, expect) << "x=" << xs[c];
            }
        }
    }
}

TEST(KernelDifferential, GadgetRejectsOverWideScaling)
{
    // (q-1) * B^l must stay below 2^64: a 50-bit q with B^l = 2^24 does
    // not, nor does a base larger than the modulus.
    const u64 q50 = findNttPrime(50, 1 << 11);
    EXPECT_THROW({ const Gadget g(q50, 8, 3); }, ConfigError);
    EXPECT_NO_THROW({ const Gadget g(q50, 4, 3); });
    EXPECT_THROW({ const Gadget g(257, 16, 1); }, ConfigError);
}

} // namespace
} // namespace ufc
