/**
 * @file
 * Property-based randomized tests for the modular-arithmetic and NTT
 * kernel layer, swept over all supported (N, q-width) combinations with
 * seeded PRNGs.  These are the invariants the optimized kernels must
 * preserve:
 *
 *   - forward/inverse round-trip identity for both NTT variants,
 *   - optimized kernels bit-identical to the reference kernels
 *     (covering the scalar Harvey path for wide moduli and the AVX-512
 *     IFMA path, when the host supports it, for q < 2^50),
 *   - classical and constant-geometry transforms agree,
 *   - pointwise eval-domain multiplication equals naive negacyclic
 *     convolution,
 *   - lazy Shoup, one-word Barrett, and Montgomery helpers match exact
 *     modular arithmetic on random and extreme operands.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "math/cg_ntt.h"
#include "math/ntt.h"
#include "math/ntt_cache.h"
#include "math/primes.h"

namespace ufc {
namespace {

std::vector<u64>
randomPoly(Rng &rng, u64 n, u64 q)
{
    std::vector<u64> a(n);
    for (auto &x : a)
        x = rng.uniform(q);
    return a;
}

/** (log2 N, modulus bits) sweep: every degree class the schemes use
 *  (tiny ring, TFHE-sized, CKKS-sized) crossed with moduli on both
 *  sides of the IFMA eligibility bound (q < 2^50). */
class KernelProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    u64 n() const { return 1ULL << std::get<0>(GetParam()); }
    int qBits() const { return std::get<1>(GetParam()); }
    u64 q() const { return findNttPrime(qBits(), 2 * n()); }
    u64 seed() const
    {
        return 1000 + 64 * std::get<0>(GetParam()) + qBits();
    }
};

TEST_P(KernelProperty, ForwardInverseRoundTripIsIdentity)
{
    NttTable ntt(n(), q());
    Rng rng(seed());
    for (int rep = 0; rep < 4; ++rep) {
        const auto a = randomPoly(rng, n(), q());
        auto b = a;
        ntt.forward(b);
        ntt.inverse(b);
        EXPECT_EQ(a, b) << "rep=" << rep;
    }
}

TEST_P(KernelProperty, OptimizedForwardMatchesReference)
{
    NttTable ntt(n(), q());
    Rng rng(seed() + 1);
    for (int rep = 0; rep < 4; ++rep) {
        const auto a = randomPoly(rng, n(), q());
        auto opt = a;
        auto ref = a;
        ntt.forward(opt.data());
        ntt.forwardReference(ref.data());
        ASSERT_EQ(opt, ref) << "rep=" << rep;
    }
}

TEST_P(KernelProperty, OptimizedInverseMatchesReference)
{
    NttTable ntt(n(), q());
    Rng rng(seed() + 2);
    for (int rep = 0; rep < 4; ++rep) {
        const auto a = randomPoly(rng, n(), q());
        auto opt = a;
        auto ref = a;
        ntt.inverse(opt.data());
        ntt.inverseReference(ref.data());
        ASSERT_EQ(opt, ref) << "rep=" << rep;
    }
}

TEST_P(KernelProperty, CgNttAgreesWithClassical)
{
    NttTable ntt(n(), q());
    CgNtt cg(n(), q(), ntt.psi());
    Rng rng(seed() + 3);
    const auto a = randomPoly(rng, n(), q());

    auto classical = a;
    ntt.forward(classical);
    auto pease = a;
    cg.forward(pease);
    EXPECT_EQ(classical, pease);

    cg.inverse(pease);
    EXPECT_EQ(pease, a);
}

TEST_P(KernelProperty, PointwiseMulMatchesSchoolbookConvolution)
{
    if (n() > 128)
        GTEST_SKIP() << "O(N^2) oracle kept to small rings";
    NttTable ntt(n(), q());
    Rng rng(seed() + 4);
    const auto a = randomPoly(rng, n(), q());
    const auto b = randomPoly(rng, n(), q());

    const auto expect = ntt.negacyclicMulSchoolbook(a, b);

    auto fa = a;
    auto fb = b;
    ntt.forward(fa);
    ntt.forward(fb);
    for (u64 i = 0; i < n(); ++i)
        fa[i] = ntt.modulus().mul(fa[i], fb[i]);
    ntt.inverse(fa);
    EXPECT_EQ(fa, expect);
}

TEST_P(KernelProperty, LazyShoupIsCongruentAndBounded)
{
    const Modulus mod(q());
    Rng rng(seed() + 5);
    for (int rep = 0; rep < 200; ++rep) {
        // Lazy Shoup must accept ANY 64-bit a (the NTT feeds it values
        // up to 4q), so draw from the full word range.
        const u64 a = rng.next();
        const u64 w = rng.uniform(q());
        const u64 wShoup = mod.shoupPrecompute(w);
        const u64 lazy = mod.mulShoupLazy(a, w, wShoup);
        EXPECT_LT(lazy, 2 * q());
        EXPECT_EQ(lazy % q(), mulMod(mod.reduce(a), w, q()));
        EXPECT_EQ(mod.mulShoup(a, w, wShoup), mulMod(mod.reduce(a), w, q()));
    }
}

TEST_P(KernelProperty, OneWordBarrettMatchesHardwareDivide)
{
    const Modulus mod(q());
    Rng rng(seed() + 6);
    for (int rep = 0; rep < 200; ++rep) {
        const u64 a = rng.next();
        EXPECT_EQ(mod.reduce(a), a % q());
    }
}

TEST_P(KernelProperty, MontgomeryMulMatchesExactProduct)
{
    const Modulus mod(q());
    ASSERT_TRUE(mod.hasMontgomery()); // every NTT prime is odd
    Rng rng(seed() + 7);
    for (int rep = 0; rep < 200; ++rep) {
        const u64 a = rng.uniform(q());
        const u64 b = rng.uniform(q());
        const u64 ma = mod.toMont(a);
        const u64 mb = mod.toMont(b);
        EXPECT_EQ(mod.fromMont(ma), a);
        EXPECT_EQ(mod.fromMont(mod.mulMont(ma, mb)), mulMod(a, b, q()));
    }
    EXPECT_EQ(mod.fromMont(mod.montOne()), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllDegreesAndWidths, KernelProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 8, 10, 12),
                       ::testing::Values(30, 45, 50, 59)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &info) {
        std::string name = "N";
        name += std::to_string(std::get<0>(info.param));
        name += "_Q";
        name += std::to_string(std::get<1>(info.param));
        return name;
    });

TEST(KernelProperty, TwiddleCacheReturnsStableSharedPointers)
{
    const u64 n = 64;
    const u64 q = findNttPrime(45, 2 * n);
    const NttTable *t1 = cachedNttTable(n, q);
    const NttTable *t2 = cachedNttTable(n, q);
    EXPECT_EQ(t1, t2); // one table per (n, q, psi)
    EXPECT_EQ(t1->degree(), n);
    EXPECT_EQ(t1->modulus().value(), q);

    // Distinct psi gets a distinct entry.
    const u64 psi2 = powMod(t1->psi(), 3, q);
    const NttTable *t3 = cachedNttTable(n, q, psi2);
    EXPECT_NE(t1, t3);
    EXPECT_EQ(t3->psi(), psi2);
}

TEST(KernelProperty, IfmaEligibilityFollowsModulusBound)
{
    // Wide moduli must never dispatch to the 52-bit IFMA kernels.
    const u64 n = 1024;
    NttTable wide(n, findNttPrime(55, 2 * n));
    EXPECT_FALSE(wide.usesAvx512());
    NttTable tiny(8, findNttPrime(45, 16));
    EXPECT_FALSE(tiny.usesAvx512()); // below the 16-point vector floor
}

} // namespace
} // namespace ufc
