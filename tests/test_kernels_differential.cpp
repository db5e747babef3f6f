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
 * reference kernels, between the gadget decomposition (IFMA and scalar)
 * and its 128-bit-division oracle, between the gadget product's IFMA MAC
 * and its scalar loop, between the BConv kernel and its scalar
 * oracle, and between concurrent and serial TFHE bootstraps and CKKS key
 * switches on one shared context.
 */

#include <thread>

#include <gtest/gtest.h>

#include "ckks/evaluator.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "math/gadget.h"
#include "math/ntt.h"
#include "math/primes.h"
#include "math/rns.h"
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

/** Every output word of a CKKS ciphertext, limb after limb. */
std::vector<u64>
ciphertextWords(const ckks::Ciphertext &ct)
{
    std::vector<u64> out;
    for (const RnsPoly *p : {&ct.c0, &ct.c1})
        for (size_t i = 0; i < p->limbCount(); ++i)
            out.insert(out.end(), p->limb(i).data().begin(),
                       p->limb(i).data().end());
    return out;
}

TEST(KernelDifferential, CkksConcurrentKeySwitchesMatchSerial)
{
    // Multiplies, rescales, rotations and conjugations at several levels
    // share one const context and one set of keys; their temporaries
    // come from a per-thread workspace that each thread reuses across
    // shapes.  Limb-parallel runs and concurrent runs (each thread
    // inline, as a serve worker runs) must equal the serial outputs.
    using namespace ckks;
    KernelThreadsGuard guard;
    const CkksContext ctx(CkksParams::testFast());
    const CkksEncoder encoder(&ctx);
    Rng rng(0x5e1f5eedULL);
    const CkksKeyGenerator keygen(&ctx, rng);
    const CkksEncryptor encryptor(&ctx, &keygen.secretKey(), rng);
    const CkksEvaluator eval(&ctx);
    const EvalKey relin = keygen.makeRelinKey();
    const EvalKey rot = keygen.makeRotationKey(2);
    const EvalKey conj = keygen.makeConjugationKey();
    std::vector<double> va(ctx.slots()), vb(ctx.slots());
    for (size_t i = 0; i < va.size(); ++i) {
        va[i] = 0.25 + 0.001 * static_cast<double>(i % 37);
        vb[i] = 0.8 - 0.002 * static_cast<double>(i % 41);
    }
    const Ciphertext a =
        encryptor.encrypt(encoder.encode(va, ctx.levels(), ctx.scale()));
    const Ciphertext b =
        encryptor.encrypt(encoder.encode(vb, ctx.levels(), ctx.scale()));

    constexpr size_t kJobs = 16;
    constexpr size_t kThreads = 4;
    const auto job = [&](size_t i) {
        const int limbs = ctx.levels() - static_cast<int>(i % 5);
        const Ciphertext x = eval.dropToLimbs(a, limbs);
        const Ciphertext y = eval.dropToLimbs(b, limbs);
        switch (i % 4) {
        case 0:
            return ciphertextWords(eval.multiply(x, y, relin));
        case 1:
            return ciphertextWords(eval.rescale(eval.multiply(x, y, relin)));
        case 2:
            return ciphertextWords(eval.rotate(x, 2, rot));
        default:
            return ciphertextWords(eval.conjugate(x, conj));
        }
    };

    setKernelThreads(1);
    std::vector<std::vector<u64>> serial(kJobs);
    for (size_t i = 0; i < kJobs; ++i)
        serial[i] = job(i);

    setKernelThreads(3);
    for (size_t i = 0; i < kJobs; ++i)
        ASSERT_EQ(job(i), serial[i]) << "limb-parallel job " << i;

    std::vector<std::vector<u64>> concurrent(kJobs);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const ThreadPool::WorkerScope inline_;
            for (size_t i = t; i < kJobs; i += kThreads)
                concurrent[i] = job(i);
        });
    }
    for (auto &th : threads)
        th.join();
    for (size_t i = 0; i < kJobs; ++i)
        EXPECT_EQ(concurrent[i], serial[i]) << "concurrent job " << i;
}

TEST(KernelDifferential, BconvMatchesBaseConvertOracle)
{
    // The BConv kernel (one u128 sum and one Barrett reduction per
    // target coefficient) against the term-by-term scalar oracle, over
    // 30- to 60-bit moduli and 1 to 12 source limbs (C1's digit size),
    // on residues 0, q-1 and random ones, with and without a folded
    // per-limb factor.
    const u64 n = 64;
    Rng rng(0xbc0bc0ULL);
    for (const auto &[fromBits, toBits] :
         {std::pair{30, 30}, std::pair{40, 55}, std::pair{59, 45},
          std::pair{60, 60}}) {
        for (int m = 1; m <= 12; ++m) {
            std::vector<u64> from, to;
            for (int i = 0; i < m; ++i)
                from.push_back(findNttPrime(fromBits, 2 * n, i));
            const int skip = fromBits == toBits ? m : 0;
            for (int j = 0; j < 4; ++j)
                to.push_back(findNttPrime(toBits, 2 * n, skip + j));
            std::vector<u64> fold(m);
            for (int i = 0; i < m; ++i)
                fold[i] = 1 + rng.uniform(from[i] - 1);

            // Coefficient 0 is all zeros, 1 all q_i - 1, 2 alternates.
            std::vector<u64> x(m * n);
            for (int i = 0; i < m; ++i) {
                for (u64 k = 0; k < n; ++k) {
                    const u64 q = from[i];
                    x[i * n + k] = k == 0   ? 0
                                   : k == 1 ? q - 1
                                   : k == 2 ? (i % 2 ? q - 1 : 0)
                                            : rng.uniform(q);
                }
            }

            const RnsBasis fromBasis(from), toBasis(to);
            for (const bool folded : {false, true}) {
                const BaseConverter conv(
                    from, to, folded ? fold : std::vector<u64>{});
                std::vector<u64> y(m * n), out(to.size() * n);
                for (int i = 0; i < m; ++i)
                    conv.scale(i, &x[i * n], &y[i * n], n);
                for (size_t t = 0; t < to.size(); ++t)
                    conv.convert(t, y.data(), &out[t * n], n);
                std::vector<u64> residues(m);
                for (u64 k = 0; k < n; ++k) {
                    for (int i = 0; i < m; ++i) {
                        const Modulus q(from[i]);
                        residues[i] = folded ? q.mul(x[i * n + k], fold[i])
                                             : x[i * n + k];
                    }
                    const auto expect =
                        baseConvert(residues, fromBasis, toBasis);
                    for (size_t t = 0; t < to.size(); ++t) {
                        ASSERT_EQ(out[t * n + k], expect[t])
                            << fromBits << "->" << toBits << " bits, "
                            << m << " limbs, folded " << folded
                            << ", coefficient " << k << ", target " << t;
                    }
                }
            }
        }
    }
}

TEST(KernelDifferential, BconvRejectsOverflowingAccumulator)
{
    // A 128-bit accumulator holds 256 products of residues below 2^60
    // but not 257; BConv and the CKKS context refuse the wider sums.
    const u64 top = 1ULL << 60;
    EXPECT_TRUE(u128SumFits(256, top, top));
    EXPECT_FALSE(u128SumFits(257, top, top));
    const u64 q60 = findNttPrime(60, 1 << 10);
    EXPECT_THROW({ const BaseConverter c(std::vector<u64>(257, q60), {q60}); },
                 ConfigError);

    ckks::CkksParams wide = ckks::CkksParams::testFast();
    wide.levels = 257;
    wide.dnum = 257;
    wide.specialLimbs = 1;
    wide.firstModBits = wide.scaleBits = wide.specialBits = 60;
    EXPECT_THROW({ const ckks::CkksContext ctx(wide); }, ConfigError);
    wide.dnum = 1; // alpha = K = 257 special limbs in one digit
    wide.specialLimbs = 257;
    EXPECT_THROW({ const ckks::CkksContext ctx(wide); }, ConfigError);
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

struct GadgetConfig
{
    u64 q;
    int logBase, levels;
};

/** The gadgets the library and its tests build: the bootstrapping and LWE
 *  key-switching gadgets of every TFHE set, the property-sweep grid, the
 *  external-product sweep and the ring-packing gadgets (hybrid kNN,
 *  RingPacker tests). */
std::vector<GadgetConfig>
libraryGadgets()
{
    std::vector<GadgetConfig> configs;
    for (const auto &p :
         {tfhe::TfheParams::t1(), tfhe::TfheParams::t2(),
          tfhe::TfheParams::t3(), tfhe::TfheParams::t4(),
          tfhe::TfheParams::testFast()}) {
        configs.push_back({p.q, p.gadgetLogBase, p.gadgetLevels});
        configs.push_back({p.q, p.ksLogBase, p.ksLevels});
    }
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
    return configs;
}

/** Check decompose() and decomposeReference() of `g` against the wide
 *  oracle on xs, over the full batch and over the leading `counts`. */
void
checkDecomposeAgainstOracle(const Gadget &g, u64 q,
                            const std::vector<u64> &xs, size_t edges,
                            std::initializer_list<size_t> counts)
{
    const size_t l = static_cast<size_t>(g.levels());
    std::vector<u64> expect(l * xs.size());
    for (size_t c = 0; c < xs.size(); ++c) {
        u64 one[Gadget::kMaxLevels];
        wideDecompose(q, g.logBase(), g.levels(), xs[c], one);
        for (size_t i = 0; i < l; ++i)
            expect[i * xs.size() + c] = one[i];
    }
    std::vector<u64> batch(l * xs.size()), ref(l * xs.size());
    g.decompose(xs.data(), xs.size(), batch.data());
    g.decomposeReference(xs.data(), xs.size(), ref.data());
    for (size_t c = 0; c < xs.size(); ++c) {
        for (size_t i = 0; i < l; ++i) {
            const size_t at = i * xs.size() + c;
            ASSERT_EQ(batch[at], expect[at])
                << "q=" << q << " B=2^" << g.logBase() << " l="
                << g.levels() << " x=" << xs[c] << " digit " << i;
            ASSERT_EQ(ref[at], expect[at])
                << "reference: q=" << q << " x=" << xs[c] << " digit "
                << i;
        }
    }
    std::vector<u64> single(l), expectOne(l);
    for (size_t c = 0; c < edges; ++c) {
        for (size_t i = 0; i < l; ++i)
            expectOne[i] = expect[i * xs.size() + c];
        g.decompose(&xs[c], 1, single.data());
        ASSERT_EQ(single, expectOne) << "x=" << xs[c];
        g.decomposeReference(&xs[c], 1, single.data());
        ASSERT_EQ(single, expectOne) << "reference: x=" << xs[c];
    }
    // Counts that leave a scalar tail after the 8-value vector blocks.
    for (size_t count : counts) {
        ASSERT_LE(count, xs.size());
        std::vector<u64> part(l * count), partRef(l * count);
        g.decompose(xs.data(), count, part.data());
        g.decomposeReference(xs.data(), count, partRef.data());
        for (size_t c = 0; c < count; ++c) {
            for (size_t i = 0; i < l; ++i) {
                ASSERT_EQ(part[i * count + c], expect[i * xs.size() + c])
                    << "count " << count << " x=" << xs[c] << " digit "
                    << i;
                ASSERT_EQ(partRef[i * count + c], part[i * count + c])
                    << "reference: count " << count << " x=" << xs[c];
            }
        }
    }
}

/** q's edge values, the x whose scaled value (x << logBase*l) + q/2
 *  lies within 64 of a multiple of q (where a quotient estimate is off
 *  by one if anywhere), then `randoms` uniform draws.  q must be prime. */
std::vector<u64>
decomposeInputs(const Gadget &g, u64 q, Rng &rng, int randoms,
                size_t *edges)
{
    std::vector<u64> xs{0, 1, q / 2 - 1, q / 2, q / 2 + 1, q - 2, q - 1};
    const Modulus mod(q);
    const u64 unscale = mod.inv(mod.pow(2, g.logBase() * g.levels()));
    for (i64 r = -64; r <= 64; ++r) {
        const u64 num = (q + static_cast<u64>(r)) % q; // r mod q
        xs.push_back(mod.mul(mod.sub(num, q / 2), unscale));
    }
    *edges = xs.size();
    for (int i = 0; i < randoms; ++i)
        xs.push_back(rng.uniform(q));
    return xs;
}

TEST(KernelDifferential, GadgetDecomposeMatchesWideOracle)
{
    Rng rng(0xdec0de);
    for (const GadgetConfig &cfg : libraryGadgets()) {
        const Gadget g(cfg.q, cfg.logBase, cfg.levels);
        size_t edges = 0;
        const auto xs = decomposeInputs(g, cfg.q, rng, 100000, &edges);
        checkDecomposeAgainstOracle(g, cfg.q, xs, edges, {1, 7, 9, 513});
    }
}

/** Inputs for Gadget::mac over `rowCount` rows of n coefficients: the
 *  first 27 coefficients take every combination of 0, 1 and q-1 for the
 *  digit, the a word and the b word (each the same in every row, so q-1
 *  everywhere sums the largest products), the rest uniform draws until
 *  aimAt() rewrites some. */
struct MacInputs
{
    std::vector<u64> digits;
    std::vector<std::vector<u64>> a, b;
    std::vector<Gadget::MacRow> rows;

    MacInputs(u64 q, size_t rowCount, size_t n, Rng &rng)
        : digits(rowCount * n), a(rowCount, std::vector<u64>(n)),
          b(rowCount, std::vector<u64>(n))
    {
        const u64 edge[] = {0, 1, q - 1};
        for (size_t r = 0; r < rowCount; ++r) {
            for (size_t c = 0; c < n; ++c) {
                const bool fixed = c < 27;
                digits[r * n + c] = fixed ? edge[c % 3] : rng.uniform(q);
                a[r][c] = fixed ? edge[c / 3 % 3] : rng.uniform(q);
                b[r][c] = fixed ? edge[c / 9] : rng.uniform(q);
            }
            rows.push_back({a[r].data(), b[r].data()});
        }
    }

    static constexpr size_t kAimed = 27, kAimedSpan = 17;

    /** Make coefficients kAimed + j, j < kAimedSpan, sum to j - 8 mod q
     *  over the first `count` rows: fresh draws in rows below count - 1,
     *  whose digit becomes q - 1 and whose words make up the difference.
     *  A large sum near a multiple of q is where a quotient estimate is
     *  off by one if anywhere. */
    void
    aimAt(const Modulus &mod, size_t count, size_t n, Rng &rng)
    {
        const u64 q = mod.value();
        const size_t last = count - 1;
        for (size_t j = 0; j < kAimedSpan && kAimed + j < n; ++j) {
            const size_t c = kAimed + j;
            const u64 target = (q + j - 8) % q;
            u64 sumA = 0, sumB = 0;
            for (size_t r = 0; r < last; ++r) {
                digits[r * n + c] = rng.uniform(q);
                a[r][c] = rng.uniform(q);
                b[r][c] = rng.uniform(q);
                sumA = mod.add(sumA, mod.mul(digits[r * n + c], a[r][c]));
                sumB = mod.add(sumB, mod.mul(digits[r * n + c], b[r][c]));
            }
            digits[last * n + c] = q - 1;
            a[last][c] = mod.sub(sumA, target);
            b[last][c] = mod.sub(sumB, target);
        }
    }
};

TEST(KernelDifferential, GadgetProductMatchesScalarReference)
{
    if (!detail::avx512IfmaAvailable())
        GTEST_SKIP() << "no AVX-512 IFMA on this host: mac() and "
                        "decompose() run the scalar reference itself";
    // Besides the library's gadgets, narrower moduli inside the kernel's
    // range.  For every library modulus the folded sum stays below
    // 2^52 + 2^39, where its quotient estimate is exact even for sums
    // within 3 of a multiple of q; for these 26- and 31-bit primes it is
    // one too big for many multiples of q, so only they exercise the
    // final correction.  q = 97 is near the range's floor.
    auto configs = libraryGadgets();
    configs.push_back({97, 2, 3});
    configs.push_back({findNttPrime(26, 1 << 11), 4, 4});
    configs.push_back({findNttPrime(31, 1 << 11), 8, 3});
    Rng rng(0x3ac);
    for (const GadgetConfig &cfg : configs) {
        const Gadget g(cfg.q, cfg.logBase, cfg.levels);
        ASSERT_TRUE(g.macUsesAvx512()) << "q=" << cfg.q;
        ASSERT_TRUE(g.decomposeUsesAvx512()) << "q=" << cfg.q;
        const Modulus mod(cfg.q);
        const size_t maxRows = 2 * static_cast<size_t>(cfg.levels);
        for (size_t n : {16, 27, 64, 512, 1024, 2048, 16384}) {
            MacInputs in(cfg.q, maxRows, n, rng);
            std::vector<u64> outA(n), outB(n), refA(n), refB(n);
            for (size_t count = 1; count <= maxRows; ++count) {
                in.aimAt(mod, count, n, rng);
                g.mac(in.digits.data(), in.rows.data(), count, n,
                      outA.data(), outB.data());
                g.macReference(in.digits.data(), in.rows.data(), count, n,
                               refA.data(), refB.data());
                for (size_t c = 0; c < n; ++c) {
                    ASSERT_EQ(outA[c], refA[c])
                        << "q=" << cfg.q << " B=2^" << cfg.logBase
                        << " l=" << cfg.levels << " n=" << n
                        << " count=" << count << " coefficient " << c;
                    ASSERT_EQ(outB[c], refB[c])
                        << "q=" << cfg.q << " n=" << n
                        << " count=" << count << " coefficient " << c;
                }
            }
        }
    }
}

TEST(KernelDifferential, GadgetKernelsFallBackOutsideIfmaRange)
{
    // logBase * levels = 50 > kIfmaDecomposeMaxBits: scalar decompose on
    // every host, still equal to the oracle.
    Rng rng(0xfa11);
    const u64 q14 = 12289;
    const Gadget deep(q14, 1, 50);
    EXPECT_FALSE(deep.decomposeUsesAvx512());
    size_t edges = 0;
    const auto xs = decomposeInputs(deep, q14, rng, 2000, &edges);
    checkDecomposeAgainstOracle(deep, q14, xs, edges, {1, 7, 9, 513});

    // A 40-bit q is past kIfmaMacModulusBound: the MAC stays scalar, and
    // both entry points match a term-by-term modular sum.
    const u64 q40 = findNttPrime(40, 1 << 11);
    const Gadget wide(q40, 4, 3);
    EXPECT_FALSE(wide.macUsesAvx512());
    EXPECT_EQ(wide.decomposeUsesAvx512(), detail::avx512IfmaAvailable());
    const Modulus mod(q40);
    const size_t n = 64;
    const MacInputs in(q40, 6, n, rng);
    std::vector<u64> outA(n), outB(n), refA(n), refB(n);
    for (size_t count = 1; count <= 6; ++count) {
        wide.mac(in.digits.data(), in.rows.data(), count, n, outA.data(),
                 outB.data());
        wide.macReference(in.digits.data(), in.rows.data(), count, n,
                          refA.data(), refB.data());
        for (size_t c = 0; c < n; ++c) {
            u64 sumA = 0, sumB = 0;
            for (size_t r = 0; r < count; ++r) {
                sumA = mod.add(sumA, mod.mul(in.digits[r * n + c],
                                             in.a[r][c]));
                sumB = mod.add(sumB, mod.mul(in.digits[r * n + c],
                                             in.b[r][c]));
            }
            ASSERT_EQ(outA[c], sumA) << "count " << count << " c " << c;
            ASSERT_EQ(outB[c], sumB) << "count " << count << " c " << c;
            ASSERT_EQ(refA[c], sumA) << "count " << count << " c " << c;
            ASSERT_EQ(refB[c], sumB) << "count " << count << " c " << c;
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
