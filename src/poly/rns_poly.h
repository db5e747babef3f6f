/**
 * @file
 * RNS polynomials: a polynomial over R_Q with Q = q_0 * ... * q_{L-1}
 * stored as one word-size limb per modulus (paper Section II-B2).
 *
 * RingContext owns the per-modulus NTT tables for one ring degree and hands
 * out limb tables on demand, so every Poly limb across the CKKS modulus
 * chain shares precomputation.
 */

#ifndef UFC_POLY_RNS_POLY_H
#define UFC_POLY_RNS_POLY_H

#include <span>
#include <vector>

#include "common/rng.h"
#include "math/rns.h"
#include "poly/poly.h"

namespace ufc {

/**
 * Shared NTT tables for a fixed ring degree across many moduli.
 * Backed by the process-wide twiddle cache (math/ntt_cache.h), so
 * distinct contexts of the same degree — and the CG-NTT's packed
 * transforms — all share one table per modulus, and lazy table
 * creation is safe from limb-parallel code.
 */
class RingContext
{
  public:
    explicit RingContext(u64 degree) : degree_(degree) {}

    u64 degree() const { return degree_; }

    /** Lazily built NTT table for modulus q. */
    const NttTable &table(u64 q) const;

  private:
    u64 degree_;
};

/** A polynomial over R_Q in RNS form: one Poly limb per modulus. */
class RnsPoly
{
  public:
    RnsPoly() = default;

    /** Zero polynomial over the given moduli. */
    RnsPoly(const RingContext *ctx, const std::vector<u64> &moduli,
            PolyForm form);

    /**
     * Zero polynomial whose limbs use `tables` followed by `more` (a QP
     * basis is the first q limbs, then P), for callers that already hold
     * the tables: no basis vector, no table-cache lookup.
     */
    RnsPoly(const RingContext *ctx, std::span<const NttTable *const> tables,
            PolyForm form, std::span<const NttTable *const> more = {});

    u64 degree() const { return ctx_->degree(); }
    size_t limbCount() const { return limbs_.size(); }
    const RingContext *context() const { return ctx_; }
    PolyForm form() const { return limbs_.empty() ? PolyForm::Coeff
                                                  : limbs_[0].form(); }

    Poly &limb(size_t i) { return limbs_[i]; }
    const Poly &limb(size_t i) const { return limbs_[i]; }
    u64 modulus(size_t i) const { return limbs_[i].modulus(); }
    std::vector<u64> moduli() const;

    void toEval();
    void toCoeff();

    void addInPlace(const RnsPoly &other);
    void subInPlace(const RnsPoly &other);
    void negInPlace();
    /** Multiply every limb by a per-limb scalar. */
    void scaleInPlace(const std::vector<u64> &scalars);
    /** Multiply by a single small integer (reduced per limb). */
    void scaleInPlace(u64 scalar);
    void mulEvalInPlace(const RnsPoly &other);

    RnsPoly automorphism(u64 k) const;

    /** Drop the last limb (after rescale, paper Section II-B2). */
    void dropLastLimb();

    /**
     * Append limbs for new moduli, each computed by base-converting the
     * existing limbs (BaseConverter) — the ModUp half of hybrid key
     * switching.  Requires coefficient form.
     */
    void extendBasis(const std::vector<u64> &newModuli);

    void sampleUniform(Rng &rng);
    void sampleTernary(Rng &rng);
    void sampleGaussian(Rng &rng, double sigma);

  private:
    const RingContext *ctx_ = nullptr;
    std::vector<Poly> limbs_;
};

} // namespace ufc

#endif // UFC_POLY_RNS_POLY_H
