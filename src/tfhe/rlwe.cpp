/**
 * @file
 * RLWE / RGSW operations: external product, CMux, sample extraction.
 */

#include "tfhe/rlwe.h"

#include <array>

#include "common/check.h"

namespace ufc {
namespace tfhe {

RlweSecretKey
RlweSecretKey::generate(const NttTable *table, Rng &rng)
{
    RlweSecretKey key;
    key.s = Poly(table, PolyForm::Coeff);
    for (u64 i = 0; i < table->degree(); ++i)
        key.s[i] = rng.next() & 1;
    return key;
}

RlweCiphertext
RlweCiphertext::trivial(Poly m)
{
    RlweCiphertext ct;
    ct.a = Poly(m.table(), m.form());
    ct.b = std::move(m);
    return ct;
}

void
RlweCiphertext::addInPlace(const RlweCiphertext &other)
{
    a.addInPlace(other.a);
    b.addInPlace(other.b);
}

void
RlweCiphertext::subInPlace(const RlweCiphertext &other)
{
    a.subInPlace(other.a);
    b.subInPlace(other.b);
}

RlweCiphertext
RlweCiphertext::mulByMonomial(i64 r) const
{
    RlweCiphertext out;
    out.a = a.mulByMonomial(r);
    out.b = b.mulByMonomial(r);
    return out;
}

void
RlweCiphertext::toCoeff()
{
    a.toCoeff();
    b.toCoeff();
}

void
RlweCiphertext::toEval()
{
    a.toEval();
    b.toEval();
}

RlweCiphertext
rlweEncrypt(const Poly &m, const RlweSecretKey &key, double sigma, Rng &rng)
{
    UFC_CHECK(m.form() == PolyForm::Coeff, "message must be in Coeff form");
    RlweCiphertext ct;
    ct.a = Poly(m.table(), PolyForm::Coeff);
    ct.a.sampleUniform(rng);

    // b = a*s + m + e
    ct.b = negacyclicMul(ct.a, key.s); // Eval form
    ct.b.toCoeff();
    Poly e(m.table(), PolyForm::Coeff);
    e.sampleGaussian(rng, sigma);
    ct.b.addInPlace(m);
    ct.b.addInPlace(e);
    return ct;
}

Poly
rlwePhase(const RlweCiphertext &ct, const RlweSecretKey &key)
{
    RlweCiphertext c = ct;
    c.toCoeff();
    Poly as = negacyclicMul(c.a, key.s);
    as.toCoeff();
    Poly phase = c.b;
    phase.subInPlace(as);
    return phase;
}

RgswCiphertext
rgswEncrypt(const Poly &m, const RlweSecretKey &key, const Gadget &gadget,
            double sigma, Rng &rng)
{
    UFC_CHECK(m.form() == PolyForm::Coeff, "message must be in Coeff form");
    const int l = gadget.levels();
    RgswCiphertext out;
    out.levels = l;
    out.rows.reserve(2 * l);

    Poly zero(m.table(), PolyForm::Coeff);
    for (int i = 0; i < 2 * l; ++i) {
        RlweCiphertext row = rlweEncrypt(zero, key, sigma, rng);
        // Add m * g_i to the `a` slot (rows 0..l-1) or `b` slot.
        Poly mg = m;
        mg.scaleInPlace(gadget.g(i % l));
        if (i < l)
            row.a.addInPlace(mg);
        else
            row.b.addInPlace(mg);
        row.toEval();
        out.rows.push_back(std::move(row));
    }
    return out;
}

void
gadgetProduct(std::span<const Poly *const> in, const RlweCiphertext *rows,
              const Gadget &gadget, std::vector<u64> &digits,
              RlweCiphertext &out)
{
    UFC_CHECK(!in.empty() && in.size() <= 2,
              "gadget product takes one or two RLWE components");
    const NttTable *table = in[0]->table();
    const u64 n = table->degree();
    const size_t l = static_cast<size_t>(gadget.levels());
    const size_t count = in.size() * l;

    // Decomp straight into the digit polynomials, then NTT each of them.
    digits.resize(count * n);
    for (size_t k = 0; k < in.size(); ++k) {
        const Poly &p = *in[k];
        UFC_CHECK(p.table() == table && p.form() == PolyForm::Coeff,
                  "gadget product input must be a Coeff-form ring element");
        gadget.decompose(p.data().data(), n, digits.data() + k * l * n);
    }
    for (size_t r = 0; r < count; ++r)
        table->forward(digits.data() + r * n);

    // EWMM + EWMA against the key rows, read in place, with one reduction
    // per output coefficient (Gadget::mac).  The scalar loop sums each
    // coefficient in 128 bits: q < 2^60 and count <= 2 * 63 bound the sum
    // by 126 * 2^120.  The IFMA kernel (q < 2^32) splits each product
    // into a 52-bit low half and a high half below 2^12 and sums them in
    // two 64-bit lanes, below 126 * 2^52 and 126 * 2^12.
    for (Poly *p : {&out.a, &out.b}) {
        if (p->table() != table || p->form() != PolyForm::Coeff)
            *p = Poly(table, PolyForm::Coeff);
    }
    std::array<Gadget::MacRow, Gadget::kMaxMacRows> macRows;
    for (size_t r = 0; r < count; ++r)
        macRows[r] = {rows[r].a.data().data(), rows[r].b.data().data()};
    u64 *outA = out.a.data().data();
    u64 *outB = out.b.data().data();
    gadget.mac(digits.data(), macRows.data(), count, n, outA, outB);
    // The sums are evaluation-form values in coefficient-form storage
    // until the inverse transforms below.
    table->inverse(outA);
    table->inverse(outB);
}

RlweCiphertext
externalProduct(const RgswCiphertext &rgsw, const RlweCiphertext &rlwe,
                const Gadget &gadget)
{
    UFC_CHECK(static_cast<int>(rgsw.rows.size()) == 2 * gadget.levels(),
              "RGSW row count mismatch");
    RlweCiphertext in = rlwe;
    in.toCoeff();
    const Poly *polys[] = {&in.a, &in.b};
    std::vector<u64> digits;
    RlweCiphertext out;
    gadgetProduct(polys, rgsw.rows.data(), gadget, digits, out);
    return out;
}

RlweCiphertext
cmux(const RgswCiphertext &c, const RlweCiphertext &ct0,
     const RlweCiphertext &ct1, const Gadget &gadget)
{
    RlweCiphertext diff = ct1;
    diff.subInPlace(ct0);
    RlweCiphertext sel = externalProduct(c, diff, gadget);
    sel.addInPlace(ct0);
    return sel;
}

LweCiphertext
sampleExtract(const RlweCiphertext &ct, u64 index)
{
    RlweCiphertext c = ct;
    c.toCoeff();
    const u64 n = c.b.degree();
    const u64 q = c.b.modulus();
    UFC_CHECK(index < n, "extract index out of range");

    LweCiphertext out;
    out.q = q;
    out.a.resize(n);
    // phase_k = b_k - sum_{i<=k} a_{k-i} s_i + sum_{i>k} a_{N+k-i} s_i
    for (u64 i = 0; i < n; ++i) {
        if (i <= index)
            out.a[i] = c.a[index - i];
        else
            out.a[i] = negMod(c.a[n + index - i], q);
    }
    out.b = c.b[index];
    return out;
}

} // namespace tfhe
} // namespace ufc
