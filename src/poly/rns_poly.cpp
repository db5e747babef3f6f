/**
 * @file
 * RNS polynomial implementation.
 *
 * Limb-wise operations (NTT form changes, add/sub/neg/scale, eval-domain
 * products, automorphisms) act on independent per-modulus arrays, so they
 * fan out across the process-wide kernel pool with parallelFor.  Each
 * parallel index writes only its own limb, which keeps results
 * bit-identical at any thread count (the determinism contract the
 * kernel differential tests assert).  Sampling stays serial: all limbs
 * consume one shared sequential Rng stream.
 */

#include "poly/rns_poly.h"

#include "common/check.h"
#include "common/parallel.h"
#include "math/ntt_cache.h"

namespace ufc {

const NttTable &
RingContext::table(u64 q) const
{
    return *cachedNttTable(degree_, q);
}

RnsPoly::RnsPoly(const RingContext *ctx, const std::vector<u64> &moduli,
                 PolyForm form)
    : ctx_(ctx)
{
    limbs_.reserve(moduli.size());
    for (u64 q : moduli)
        limbs_.emplace_back(&ctx->table(q), form);
}

RnsPoly::RnsPoly(const RingContext *ctx,
                 std::span<const NttTable *const> tables, PolyForm form,
                 std::span<const NttTable *const> more)
    : ctx_(ctx)
{
    limbs_.reserve(tables.size() + more.size());
    for (const NttTable *t : tables)
        limbs_.emplace_back(t, form);
    for (const NttTable *t : more)
        limbs_.emplace_back(t, form);
}

std::vector<u64>
RnsPoly::moduli() const
{
    std::vector<u64> out;
    out.reserve(limbs_.size());
    for (const auto &l : limbs_)
        out.push_back(l.modulus());
    return out;
}

void
RnsPoly::toEval()
{
    parallelFor(limbs_.size(), [&](size_t i) { limbs_[i].toEval(); });
}

void
RnsPoly::toCoeff()
{
    parallelFor(limbs_.size(), [&](size_t i) { limbs_[i].toCoeff(); });
}

void
RnsPoly::addInPlace(const RnsPoly &other)
{
    UFC_CHECK(limbs_.size() == other.limbs_.size(), "limb count mismatch");
    parallelFor(limbs_.size(),
                [&](size_t i) { limbs_[i].addInPlace(other.limbs_[i]); });
}

void
RnsPoly::subInPlace(const RnsPoly &other)
{
    UFC_CHECK(limbs_.size() == other.limbs_.size(), "limb count mismatch");
    parallelFor(limbs_.size(),
                [&](size_t i) { limbs_[i].subInPlace(other.limbs_[i]); });
}

void
RnsPoly::negInPlace()
{
    parallelFor(limbs_.size(), [&](size_t i) { limbs_[i].negInPlace(); });
}

void
RnsPoly::scaleInPlace(const std::vector<u64> &scalars)
{
    UFC_CHECK(scalars.size() == limbs_.size(), "scalar count mismatch");
    parallelFor(limbs_.size(),
                [&](size_t i) { limbs_[i].scaleInPlace(scalars[i]); });
}

void
RnsPoly::scaleInPlace(u64 scalar)
{
    parallelFor(limbs_.size(),
                [&](size_t i) { limbs_[i].scaleInPlace(scalar); });
}

void
RnsPoly::mulEvalInPlace(const RnsPoly &other)
{
    UFC_CHECK(limbs_.size() == other.limbs_.size(), "limb count mismatch");
    parallelFor(limbs_.size(), [&](size_t i) {
        limbs_[i].mulEvalInPlace(other.limbs_[i]);
    });
}

RnsPoly
RnsPoly::automorphism(u64 k) const
{
    RnsPoly out;
    out.ctx_ = ctx_;
    out.limbs_.resize(limbs_.size());
    parallelFor(limbs_.size(), [&](size_t i) {
        out.limbs_[i] = limbs_[i].automorphism(k);
    });
    return out;
}

void
RnsPoly::dropLastLimb()
{
    UFC_CHECK(!limbs_.empty(), "no limb to drop");
    limbs_.pop_back();
}

void
RnsPoly::extendBasis(const std::vector<u64> &newModuli)
{
    UFC_CHECK(form() == PolyForm::Coeff, "extendBasis requires Coeff form");
    const u64 n = degree();
    const size_t first = limbs_.size();
    const BaseConverter conv(moduli(), newModuli);

    // Scale every source limb once, then build each new limb from the
    // scaled limbs; both steps write disjoint limbs, so the result is
    // thread-count invariant.
    std::vector<u64> scaled(first * n);
    parallelFor(first, [&](size_t i) {
        conv.scale(i, limbs_[i].data().data(), &scaled[i * n], n);
    });
    for (u64 q : newModuli)
        limbs_.emplace_back(&ctx_->table(q), PolyForm::Coeff);
    parallelFor(newModuli.size(), [&](size_t t) {
        conv.convert(t, scaled.data(), limbs_[first + t].data().data(), n);
    });
}

void
RnsPoly::sampleUniform(Rng &rng)
{
    // Independent uniform residues per limb give a uniform element of R_Q.
    for (auto &l : limbs_)
        l.sampleUniform(rng);
}

void
RnsPoly::sampleTernary(Rng &rng)
{
    // One ternary draw per coefficient, reduced into every limb, so all
    // limbs represent the same ring element.
    UFC_CHECK(form() == PolyForm::Coeff, "sampling requires Coeff form");
    const u64 n = degree();
    for (u64 c = 0; c < n; ++c) {
        const u64 t = rng.next() % 3; // 0, 1, 2 -> 0, 1, -1
        for (auto &l : limbs_) {
            const u64 q = l.modulus();
            l[c] = (t == 0) ? 0 : (t == 1 ? 1 : q - 1);
        }
    }
}

void
RnsPoly::sampleGaussian(Rng &rng, double sigma)
{
    UFC_CHECK(form() == PolyForm::Coeff, "sampling requires Coeff form");
    const u64 n = degree();
    for (u64 c = 0; c < n; ++c) {
        const i64 e = static_cast<i64>(std::llround(rng.gaussian(sigma)));
        for (auto &l : limbs_) {
            const i64 q = static_cast<i64>(l.modulus());
            i64 r = e % q;
            if (r < 0)
                r += q;
            l[c] = static_cast<u64>(r);
        }
    }
}

} // namespace ufc
