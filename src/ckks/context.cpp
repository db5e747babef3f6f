/**
 * @file
 * CKKS context implementation.
 */

#include "ckks/context.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"
#include "math/primes.h"

namespace ufc {
namespace ckks {

namespace {

/** Division by the product of `drop`, landing in each limb of `keep`. */
DropPlan
makeDropPlan(const std::vector<u64> &drop, const std::vector<u64> &keep)
{
    DropPlan plan;
    plan.conv = BaseConverter(drop, keep);
    for (u64 q : keep) {
        const Modulus qi(q);
        u64 prod = 1;
        for (u64 d : drop)
            prod = qi.mul(prod, qi.reduce(d));
        const u64 inv = qi.inv(prod);
        plan.inv.push_back(inv);
        plan.invShoup.push_back(qi.shoupPrecompute(inv));
    }
    return plan;
}

} // namespace

CkksContext::CkksContext(const CkksParams &params)
    : params_(params),
      ring_(std::make_unique<RingContext>(params.ringDim)),
      scale_(std::ldexp(1.0, params.scaleBits))
{
    const u64 twoN = 2 * params.ringDim;
    UFC_CHECK(params.levels >= 1 && params.dnum >= 1, "bad level config");
    alpha_ = (params.levels + params.dnum - 1) / params.dnum;
    UFC_CHECK(params.specialLimbs >= alpha_,
              "special modulus P must cover one digit (K >= alpha)");
    // Each key-switching sum goes through one u128 accumulator: a BConv
    // adds up to K (>= alpha) products of two residues, the key inner
    // product one per digit.  Checked on the bit widths, before any
    // prime is generated (a width over the 60-bit limit fails the prime
    // search instead).
    const int maxBits = std::min(
        Modulus::kMaxBits,
        std::max({params.firstModBits, params.scaleBits, params.specialBits}));
    const int terms = std::max(params.specialLimbs, params.dnum);
    UFC_EXPECT(u128SumFits(static_cast<std::size_t>(terms), 1ULL << maxBits,
                           1ULL << maxBits),
               ConfigError,
               "key switching could overflow its 128-bit accumulator: "
                   << terms << " terms of " << maxBits << "-bit residues");

    // q0 and the special primes share a bit size; allocate them from one
    // skip sequence so they are all distinct.  Scale primes come from a
    // separate bit size.
    qChain_.push_back(findNttPrime(params.firstModBits, twoN, 0));
    int bigSkip = (params.firstModBits == params.specialBits) ? 1 : 0;
    for (int j = 0; j < params.specialLimbs; ++j)
        pChain_.push_back(
            findNttPrime(params.specialBits, twoN, bigSkip + j));
    int scaleSkip = 0;
    if (params.scaleBits == params.firstModBits ||
        params.scaleBits == params.specialBits) {
        scaleSkip = bigSkip + params.specialLimbs;
    }
    for (int i = 1; i < params.levels; ++i)
        qChain_.push_back(
            findNttPrime(params.scaleBits, twoN, scaleSkip + i - 1));

    // Build the twiddle tables of the whole modulus chain up front (in
    // parallel), so the first homomorphic op doesn't pay lazy NTT-table
    // construction limb by limb.
    std::vector<u64> allPrimes = qChain_;
    allPrimes.insert(allPrimes.end(), pChain_.begin(), pChain_.end());
    std::vector<const NttTable *> tables(allPrimes.size());
    parallelFor(allPrimes.size(),
                [&](std::size_t i) { tables[i] = &ring_->table(allPrimes[i]); });
    qTables_.assign(tables.begin(), tables.begin() + params.levels);
    pTables_.assign(tables.begin() + params.levels, tables.end());

    modDown_ = makeDropPlan(pChain_, qChain_);
    for (int limbs = 2; limbs <= params.levels; ++limbs) {
        rescale_.push_back(makeDropPlan(
            {qChain_[limbs - 1]},
            std::vector<u64>(qChain_.begin(), qChain_.begin() + limbs - 1)));
    }

    // Digit extraction: for each full-level digit d and each limb i
    // inside it, [ (Q/Qtilde_d)^-1 ] mod q_i.  Keys encrypt P * Qhat_d * s
    // over the full-level partition, so a partial last digit at a lower
    // level keeps these factors.
    std::vector<std::vector<u64>> qHatInvDigit(params.dnum);
    for (int d = 0; d < params.dnum; ++d) {
        qHatInvDigit[d].assign(params.levels, 0);
        const int lo = d * alpha_;
        const int hi = std::min((d + 1) * alpha_, params.levels);
        for (int i = lo; i < hi; ++i) {
            const Modulus qi(qChain_[i]);
            u64 prod = 1;
            for (int j = 0; j < params.levels; ++j) {
                if (j < lo || j >= hi)
                    prod = qi.mul(prod, qi.reduce(qChain_[j]));
            }
            qHatInvDigit[d][i] = qi.inv(prod);
        }
    }
    modUp_.resize(params.levels);
    for (int limbs = 1; limbs <= params.levels; ++limbs) {
        for (int d = 0; d < digitsForLimbs(limbs); ++d) {
            ModUpPlan plan;
            std::tie(plan.lo, plan.hi) = digitRange(d, limbs);
            std::vector<u64> targets;
            for (int t = 0; t < limbs; ++t) {
                if (t < plan.lo || t >= plan.hi)
                    targets.push_back(qChain_[t]);
            }
            targets.insert(targets.end(), pChain_.begin(), pChain_.end());
            for (int i = plan.lo; i < plan.hi; ++i) {
                const u64 f = qHatInvDigit[d][i];
                plan.inner.push_back(f);
                plan.innerShoup.push_back(
                    Modulus(qChain_[i]).shoupPrecompute(f));
            }
            plan.conv = BaseConverter(
                std::vector<u64>(qChain_.begin() + plan.lo,
                                 qChain_.begin() + plan.hi),
                targets, plan.inner);
            modUp_[limbs - 1].push_back(std::move(plan));
        }
    }
}

std::span<const NttTable *const>
CkksContext::qTables(int limbs) const
{
    UFC_CHECK(limbs >= 1 && limbs <= params_.levels, "bad limb count");
    return std::span(qTables_).first(static_cast<std::size_t>(limbs));
}

int
CkksContext::digitsForLimbs(int limbs) const
{
    return (limbs + alpha_ - 1) / alpha_;
}

std::pair<int, int>
CkksContext::digitRange(int d, int limbs) const
{
    const int lo = d * alpha_;
    const int hi = std::min((d + 1) * alpha_, limbs);
    UFC_CHECK(lo < hi, "empty key-switching digit");
    return {lo, hi};
}

u64
CkksContext::qHatDigitMod(int d, u64 prime) const
{
    const Modulus p(prime);
    const int lo = d * alpha_;
    const int hi = std::min((d + 1) * alpha_, params_.levels);
    u64 prod = 1;
    for (int j = 0; j < params_.levels; ++j) {
        if (j < lo || j >= hi)
            prod = p.mul(prod, qChain_[j] % prime);
    }
    return prod;
}

RnsPoly
CkksContext::makePoly(int limbs, PolyForm form) const
{
    return RnsPoly(ring_.get(), qTables(limbs), form);
}

RnsPoly
CkksContext::makePolyQP(int limbs, PolyForm form) const
{
    return RnsPoly(ring_.get(), qTables(limbs), form, pTables_);
}

} // namespace ckks
} // namespace ufc
