/**
 * @file
 * RNS basis and base-conversion implementation.
 */

#include "math/rns.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/error.h"

namespace ufc {

RnsBasis::RnsBasis(std::vector<u64> moduli)
    : values_(std::move(moduli))
{
    UFC_CHECK(!values_.empty(), "empty RNS basis");
    mods_.reserve(values_.size());
    for (u64 q : values_)
        mods_.emplace_back(q);

    // qHatInv_i = (prod_{j != i} q_j)^-1 mod q_i
    qHatInvModQi_.resize(values_.size());
    for (size_t i = 0; i < values_.size(); ++i) {
        u64 prod = 1;
        for (size_t j = 0; j < values_.size(); ++j) {
            if (j != i)
                prod = mods_[i].mul(prod, values_[j] % values_[i]);
        }
        qHatInvModQi_[i] = invMod(prod, values_[i]);
    }
}

u64
RnsBasis::qHatModP(size_t i, const Modulus &p) const
{
    u64 prod = 1;
    for (size_t j = 0; j < values_.size(); ++j) {
        if (j != i)
            prod = p.mul(prod, values_[j] % p.value());
    }
    return prod;
}

double
RnsBasis::logQ() const
{
    double acc = 0.0;
    for (u64 q : values_)
        acc += std::log2(static_cast<double>(q));
    return acc;
}

bool
u128SumFits(std::size_t terms, u64 aBound, u64 bBound)
{
    if (terms == 0 || aBound == 0 || bBound == 0)
        return true;
    const u128 largest =
        static_cast<u128>(aBound - 1) * static_cast<u128>(bBound - 1);
    return largest <= ~static_cast<u128>(0) / terms;
}

BaseConverter::BaseConverter(const std::vector<u64> &from,
                             const std::vector<u64> &to,
                             const std::vector<u64> &fold)
{
    UFC_CHECK(!from.empty() && !to.empty(), "empty conversion basis");
    UFC_CHECK(fold.empty() || fold.size() == from.size(),
              "one fold factor per source limb");
    const u64 maxFrom = *std::max_element(from.begin(), from.end());
    const u64 maxTo = *std::max_element(to.begin(), to.end());
    UFC_EXPECT(u128SumFits(from.size(), maxFrom, maxTo), ConfigError,
               "base conversion from " << from.size()
                   << " limbs could overflow its 128-bit accumulator");

    const std::size_t m = from.size();
    from_.reserve(m);
    for (u64 q : from)
        from_.emplace_back(q);
    to_.reserve(to.size());
    for (u64 p : to)
        to_.emplace_back(p);

    // f_i = (prod_{j != i} q_j)^-1 * fold_i mod q_i
    factor_.resize(m);
    factorShoup_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
        const Modulus &qi = from_[i];
        u64 prod = 1;
        for (std::size_t j = 0; j < m; ++j) {
            if (j != i)
                prod = qi.mul(prod, qi.reduce(from[j]));
        }
        u64 f = qi.inv(prod);
        if (!fold.empty())
            f = qi.mul(f, qi.reduce(fold[i]));
        factor_[i] = f;
        factorShoup_[i] = qi.shoupPrecompute(f);
    }

    hat_.resize(to.size() * m);
    for (std::size_t t = 0; t < to.size(); ++t) {
        const Modulus &p = to_[t];
        for (std::size_t i = 0; i < m; ++i) {
            u64 prod = 1;
            for (std::size_t j = 0; j < m; ++j) {
                if (j != i)
                    prod = p.mul(prod, p.reduce(from[j]));
            }
            hat_[t * m + i] = prod;
        }
    }
}

void
BaseConverter::scale(std::size_t i, const u64 *x, u64 *y,
                     std::size_t n) const
{
    const Modulus &q = from_[i];
    const u64 f = factor_[i];
    const u64 fShoup = factorShoup_[i];
    for (std::size_t k = 0; k < n; ++k)
        y[k] = q.mulShoup(x[k], f, fShoup);
}

void
BaseConverter::convert(std::size_t t, const u64 *y, u64 *out,
                       std::size_t n) const
{
    const Modulus &p = to_[t];
    const std::size_t m = from_.size();
    const u64 *hat = &hat_[t * m];
    if (m == 1) {
        // Q/q_0 = 1: the conversion is y_0 reduced into p_t, and a
        // one-word Barrett reduction does it.
        for (std::size_t k = 0; k < n; ++k)
            out[k] = p.reduce(y[k]);
        return;
    }
    for (std::size_t k = 0; k < n; ++k) {
        u128 acc = 0;
        for (std::size_t i = 0; i < m; ++i)
            acc += static_cast<u128>(y[i * n + k]) * hat[i];
        out[k] = p.reduce(acc);
    }
}

std::vector<u64>
baseConvert(const std::vector<u64> &residues, const RnsBasis &from,
            const RnsBasis &to)
{
    UFC_CHECK(residues.size() == from.size(), "residue count mismatch");
    // y_j = [x_j * qHat_j^-1]_{q_j}
    std::vector<u64> y(from.size());
    for (size_t j = 0; j < from.size(); ++j)
        y[j] = from.mod(j).mul(residues[j], from.qHatInvModQi(j));

    std::vector<u64> out(to.size());
    for (size_t i = 0; i < to.size(); ++i) {
        const Modulus &p = to.mod(i);
        u64 acc = 0;
        for (size_t j = 0; j < from.size(); ++j)
            acc = p.add(acc, p.mul(y[j] % p.value(), from.qHatModP(j, p)));
        out[i] = acc;
    }
    return out;
}

i128
crtReconstructSigned(const std::vector<u64> &residues, const RnsBasis &basis)
{
    UFC_CHECK(residues.size() == basis.size(), "residue count mismatch");
    UFC_CHECK(basis.logQ() < 126.0, "basis too large for 128-bit CRT");
    u128 bigQ = 1;
    for (u64 q : basis.values())
        bigQ *= q;

    u128 acc = 0;
    for (size_t j = 0; j < basis.size(); ++j) {
        const u64 qj = basis.value(j);
        const u128 qHat = bigQ / qj;
        const u64 y = basis.mod(j).mul(residues[j], basis.qHatInvModQi(j));
        acc = (acc + (qHat % bigQ) * y) % bigQ;
    }
    if (acc > bigQ / 2)
        return static_cast<i128>(acc) - static_cast<i128>(bigQ);
    return static_cast<i128>(acc);
}

} // namespace ufc
