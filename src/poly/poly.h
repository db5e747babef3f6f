/**
 * @file
 * Single-modulus polynomial in Z_q[X]/(X^N + 1).
 *
 * Poly is the building block for both TFHE ciphertext components (one
 * word-size modulus) and CKKS RNS limbs (see poly/rns_poly.h).  A Poly
 * carries its representation form explicitly; element-wise multiplication
 * is only legal in evaluation (NTT) form, automorphisms and monomial
 * rotations are supported in both forms.
 */

#ifndef UFC_POLY_POLY_H
#define UFC_POLY_POLY_H

#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"
#include "math/ntt.h"

namespace ufc {

/** Representation of polynomial storage. */
enum class PolyForm { Coeff, Eval };

/** A polynomial over Z_q[X]/(X^N + 1) with an attached NTT table. */
class Poly
{
  public:
    Poly() = default;

    /** Zero polynomial bound to an NTT table (not owned). */
    Poly(const NttTable *table, PolyForm form)
        : table_(table), form_(form),
          coeffs_(table->degree(), 0)
    {}

    Poly(const NttTable *table, PolyForm form, std::vector<u64> coeffs)
        : table_(table), form_(form), coeffs_(std::move(coeffs))
    {
        UFC_CHECK(coeffs_.size() == table_->degree(), "degree mismatch");
    }

    u64 degree() const { return table_->degree(); }
    u64 modulus() const { return table_->modulus().value(); }
    const NttTable *table() const { return table_; }
    PolyForm form() const { return form_; }
    bool isEval() const { return form_ == PolyForm::Eval; }

    u64 &operator[](size_t i) { return coeffs_[i]; }
    u64 operator[](size_t i) const { return coeffs_[i]; }
    const std::vector<u64> &data() const { return coeffs_; }
    std::vector<u64> &data() { return coeffs_; }

    /** Convert (in place) to evaluation form; no-op if already there. */
    void
    toEval()
    {
        if (form_ == PolyForm::Coeff) {
            table_->forward(coeffs_);
            form_ = PolyForm::Eval;
        }
    }

    /** Convert (in place) to coefficient form; no-op if already there. */
    void
    toCoeff()
    {
        if (form_ == PolyForm::Eval) {
            table_->inverse(coeffs_);
            form_ = PolyForm::Coeff;
        }
    }

    /** this += other (element-wise in either matching form). */
    void addInPlace(const Poly &other);
    /** this -= other. */
    void subInPlace(const Poly &other);
    /** this = -this. */
    void negInPlace();
    /** this *= scalar (mod q). */
    void scaleInPlace(u64 scalar);
    /** this *= other, element-wise; both must be in Eval form. */
    void mulEvalInPlace(const Poly &other);

    /**
     * Apply the Galois automorphism X -> X^k (k odd).  Works in either
     * form: index permutation with sign fix-ups in coefficient form, pure
     * index permutation in evaluation form.
     */
    Poly automorphism(u64 k) const;

    /**
     * Multiply by the monomial X^r (r may be negative / any integer; it is
     * reduced mod 2N) — the negacyclic "Rotate" primitive of Table I.
     * Coefficient form only.
     */
    Poly mulByMonomial(i64 r) const;

    /**
     * out = (X^r - 1) * this in one pass, into a caller-owned polynomial
     * of the same ring (resized if needed) — the rotate-and-subtract of
     * blind rotation.  Coefficient form only.
     */
    void mulByMonomialMinusOne(i64 r, Poly &out) const;

    /** Fill with uniform random values in [0, q). */
    void sampleUniform(Rng &rng);
    /** Fill with ternary {-1,0,1} values (coefficient form). */
    void sampleTernary(Rng &rng);
    /** Fill with rounded gaussians of parameter sigma (coefficient form). */
    void sampleGaussian(Rng &rng, double sigma);

  private:
    void
    checkCompatible(const Poly &other) const
    {
        UFC_CHECK(table_ == other.table_ && form_ == other.form_,
                  "polynomial form/ring mismatch");
    }

    const NttTable *table_ = nullptr;
    PolyForm form_ = PolyForm::Coeff;
    std::vector<u64> coeffs_;
};

/**
 * The automorphism X -> X^k (k odd) of n evaluation-form words: out[j] =
 * in[((2j+1)k mod 2n - 1) / 2], a pure index permutation.  out must not
 * alias in.
 */
void automorphismEval(const u64 *in, u64 *out, u64 n, u64 k);

/** Full negacyclic product c = a * b through the NTT (inputs unchanged). */
Poly negacyclicMul(const Poly &a, const Poly &b);

} // namespace ufc

#endif // UFC_POLY_POLY_H
