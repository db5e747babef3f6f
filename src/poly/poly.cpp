/**
 * @file
 * Polynomial arithmetic implementation.
 */

#include "poly/poly.h"

namespace ufc {

void
Poly::addInPlace(const Poly &other)
{
    checkCompatible(other);
    const u64 q = modulus();
    for (size_t i = 0; i < coeffs_.size(); ++i)
        coeffs_[i] = addMod(coeffs_[i], other.coeffs_[i], q);
}

void
Poly::subInPlace(const Poly &other)
{
    checkCompatible(other);
    const u64 q = modulus();
    for (size_t i = 0; i < coeffs_.size(); ++i)
        coeffs_[i] = subMod(coeffs_[i], other.coeffs_[i], q);
}

void
Poly::negInPlace()
{
    const u64 q = modulus();
    for (auto &c : coeffs_)
        c = negMod(c, q);
}

void
Poly::scaleInPlace(u64 scalar)
{
    const Modulus &m = table_->modulus();
    scalar = m.reduce(scalar);
    const u64 shoup = m.shoupPrecompute(scalar);
    for (auto &c : coeffs_)
        c = m.mulShoup(c, scalar, shoup);
}

void
Poly::mulEvalInPlace(const Poly &other)
{
    checkCompatible(other);
    UFC_CHECK(isEval(), "element-wise multiply requires Eval form");
    const Modulus &m = table_->modulus();
    for (size_t i = 0; i < coeffs_.size(); ++i)
        coeffs_[i] = m.mul(coeffs_[i], other.coeffs_[i]);
}

Poly
Poly::automorphism(u64 k) const
{
    const u64 n = degree();
    const u64 twoN = 2 * n;
    k %= twoN;
    UFC_CHECK(k % 2 == 1, "automorphism index must be odd");
    Poly out(table_, form_);
    const u64 q = modulus();
    if (form_ == PolyForm::Coeff) {
        // X^i -> X^(ik mod 2N); exponents >= N pick up a sign from
        // X^N = -1.
        for (u64 i = 0; i < n; ++i) {
            const u64 e = static_cast<u64>(
                (static_cast<u128>(i) * k) % twoN);
            if (e < n)
                out.coeffs_[e] = addMod(out.coeffs_[e], coeffs_[i], q);
            else
                out.coeffs_[e - n] =
                    subMod(out.coeffs_[e - n], coeffs_[i], q);
        }
    } else {
        automorphismEval(coeffs_.data(), out.coeffs_.data(), n, k);
    }
    return out;
}

void
automorphismEval(const u64 *in, u64 *out, u64 n, u64 k)
{
    // Evaluation points are psi^(2j+1); sigma_k(f)(psi^(2j+1)) =
    // f(psi^((2j+1)k)).
    const u64 twoN = 2 * n;
    for (u64 j = 0; j < n; ++j) {
        const u64 src = ((static_cast<u128>(2 * j + 1) * k) % twoN - 1) / 2;
        out[j] = in[src];
    }
}

namespace {

/**
 * Call f(i, e, negate) for every coefficient index i of a degree-n
 * polynomial, where X^r * X^i = (-1)^negate * X^e in Z[X]/(X^n + 1).
 */
template <typename F>
void
forEachRotated(u64 n, i64 r, F f)
{
    const i64 twoN = static_cast<i64>(2 * n);
    i64 rr = r % twoN;
    if (rr < 0)
        rr += twoN;
    // Rotating by n + s is rotating by s and negating; the indices that
    // wrap past X^n flip the sign once more.
    const bool flip = static_cast<u64>(rr) >= n;
    const u64 s = flip ? static_cast<u64>(rr) - n : static_cast<u64>(rr);
    for (u64 i = 0; i < n - s; ++i)
        f(i, i + s, flip);
    for (u64 i = n - s; i < n; ++i)
        f(i, i + s - n, !flip);
}

} // namespace

Poly
Poly::mulByMonomial(i64 r) const
{
    UFC_CHECK(form_ == PolyForm::Coeff,
              "monomial rotation requires Coeff form");
    const u64 q = modulus();
    Poly out(table_, form_);
    forEachRotated(degree(), r, [&](u64 i, u64 e, bool negate) {
        out.coeffs_[e] = negate ? negMod(coeffs_[i], q) : coeffs_[i];
    });
    return out;
}

void
Poly::mulByMonomialMinusOne(i64 r, Poly &out) const
{
    UFC_CHECK(form_ == PolyForm::Coeff,
              "monomial rotation requires Coeff form");
    UFC_CHECK(&out != this, "rotate-and-subtract cannot run in place");
    out.table_ = table_;
    out.form_ = PolyForm::Coeff;
    out.coeffs_.resize(degree());
    const u64 q = modulus();
    forEachRotated(degree(), r, [&](u64 i, u64 e, bool negate) {
        const u64 rotated = negate ? negMod(coeffs_[i], q) : coeffs_[i];
        out.coeffs_[e] = subMod(rotated, coeffs_[e], q);
    });
}

void
Poly::sampleUniform(Rng &rng)
{
    const u64 q = modulus();
    for (auto &c : coeffs_)
        c = rng.uniform(q);
}

void
Poly::sampleTernary(Rng &rng)
{
    const u64 q = modulus();
    for (auto &c : coeffs_)
        c = rng.ternary(q);
}

void
Poly::sampleGaussian(Rng &rng, double sigma)
{
    const u64 q = modulus();
    for (auto &c : coeffs_)
        c = rng.gaussianMod(sigma, q);
}

Poly
negacyclicMul(const Poly &a, const Poly &b)
{
    Poly fa = a;
    Poly fb = b;
    fa.toEval();
    fb.toEval();
    fa.mulEvalInPlace(fb);
    return fa;
}

} // namespace ufc
