/**
 * @file
 * CKKS evaluator implementation.
 */

#include "ckks/evaluator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"

namespace ufc {
namespace ckks {

namespace {

/**
 * Per-thread key-switching and rescale temporaries, limb-major (limb i
 * of a buffer starts at word i * n).  They grow to the largest shape a
 * thread has seen and are reused by its later calls, so a warmed op
 * allocates only its outputs.  Limb-parallel phases write disjoint
 * limbs of the calling thread's buffers.
 */
struct Workspace
{
    std::vector<u64> in;   ///< key-switch input, eval form
    std::vector<u64> y;    ///< input in coefficient form, times f_i
    std::vector<u64> up;   ///< [digit][Q x P limb]: ModUp output, eval
    std::vector<u64> drop; ///< dropped limbs, coefficient form, times f
    std::vector<u64> conv; ///< BConv of the dropped limbs, eval form
    std::vector<const u64 *> keys; ///< [out][Q x P limb][digit] key limbs
};

thread_local Workspace tlsWorkspace;

u64 *
reserve(std::vector<u64> &buf, std::size_t words)
{
    if (buf.size() < words)
        buf.resize(words);
    return buf.data();
}

/**
 * Hybrid key switching of the `limbs`-limb eval-form polynomial staged in
 * ws.in, adding the result (d0, d1) into out0 and out1:
 *   - ModUp: y_i = INTT(c_i) * [Qhat_d^-1 * dHat_i^-1]_{q_i}; a digit's
 *     own limbs are c_i * [Qhat_d^-1]_{q_i} straight from the eval form,
 *     every other limb of Q x P is BConv(y) through an NTT.
 *   - Inner product: sum_d up_d * key_d over all digits in 128 bits, one
 *     reduction per coefficient, reading the key limbs in place.
 *   - ModDown: INTT on the K special limbs only; each q limb subtracts
 *     NTT(BConv_{P->q_i}) and scales by P^-1 in eval form.
 * Every output word equals the canonical residue of the textbook
 * formulas, so the result does not depend on this operation order.
 */
void
keySwitchStaged(const CkksContext &ctx, Workspace &ws, int limbs,
                const EvalKey &key, RnsPoly &out0, RnsPoly &out1)
{
    const int L = ctx.levels();
    const int K = ctx.specialLimbs();
    const int T = limbs + K; // limbs of Q x P
    const int digits = ctx.digitsForLimbs(limbs);
    const std::size_t n = ctx.degree();
    UFC_CHECK(limbs >= 1 && limbs <= L, "bad limb count");
    UFC_CHECK(static_cast<int>(key.b.size()) >= digits &&
                  static_cast<int>(key.a.size()) >= digits,
              "evaluation key has too few digits");

    const u64 *in = ws.in.data();
    u64 *y = reserve(ws.y, limbs * n);
    u64 *up = reserve(ws.up, digits * T * n);
    u64 *drop = reserve(ws.drop, 2 * K * n);
    u64 *conv = reserve(ws.conv, 2 * limbs * n);
    ws.keys.resize(2 * T * digits);
    for (int s = 0; s < 2; ++s) {
        const std::vector<RnsPoly> &parts = s == 0 ? key.b : key.a;
        for (int d = 0; d < digits; ++d)
            UFC_CHECK(static_cast<int>(parts[d].limbCount()) == L + K,
                      "expected a full Q x P evaluation key");
        for (int t = 0; t < T; ++t) {
            const int full = t < limbs ? t : L + t - limbs;
            for (int d = 0; d < digits; ++d)
                ws.keys[(s * T + t) * digits + d] =
                    parts[d].limb(full).data().data();
        }
    }
    // sum_d up_d[t] * key_d[t] for output s, coefficient k.
    const auto innerProduct = [&](int s, int t, std::size_t k) {
        const u64 *const *kp = &ws.keys[(s * T + t) * digits];
        u128 acc = 0;
        for (int d = 0; d < digits; ++d)
            acc += static_cast<u128>(up[(d * T + t) * n + k]) * kp[d][k];
        return acc;
    };

    parallelFor(limbs, [&](std::size_t i) {
        const ModUpPlan &plan =
            ctx.modUpPlan(limbs, static_cast<int>(i) / ctx.digitSize());
        u64 *yi = y + i * n;
        std::copy(in + i * n, in + (i + 1) * n, yi);
        ctx.qTable(static_cast<int>(i)).inverse(yi);
        plan.conv.scale(i - plan.lo, yi, yi, n);
    });

    parallelFor(digits * T, [&](std::size_t idx) {
        const int d = static_cast<int>(idx) / T;
        const int t = static_cast<int>(idx) % T;
        const ModUpPlan &plan = ctx.modUpPlan(limbs, d);
        const NttTable &tab =
            t < limbs ? ctx.qTable(t) : ctx.pTable(t - limbs);
        u64 *dst = up + idx * n;
        if (t >= plan.lo && t < plan.hi) {
            const Modulus &q = tab.modulus();
            const u64 f = plan.inner[t - plan.lo];
            const u64 fShoup = plan.innerShoup[t - plan.lo];
            const u64 *src = in + t * n;
            for (std::size_t k = 0; k < n; ++k)
                dst[k] = q.mulShoup(src[k], f, fShoup);
            return;
        }
        const int target = t < plan.lo ? t : t - (plan.hi - plan.lo);
        plan.conv.convert(target, y + plan.lo * n, dst, n);
        tab.forward(dst);
    });

    const DropPlan &md = ctx.modDownPlan();
    parallelFor(2 * K, [&](std::size_t idx) {
        const int s = static_cast<int>(idx) / K;
        const int j = static_cast<int>(idx) % K;
        const NttTable &tab = ctx.pTable(j);
        const Modulus &p = tab.modulus();
        u64 *dst = drop + idx * n;
        for (std::size_t k = 0; k < n; ++k)
            dst[k] = p.reduce(innerProduct(s, limbs + j, k));
        tab.inverse(dst);
        md.conv.scale(j, dst, dst, n);
    });

    parallelFor(2 * limbs, [&](std::size_t idx) {
        const int s = static_cast<int>(idx) / limbs;
        const int i = static_cast<int>(idx) % limbs;
        const NttTable &tab = ctx.qTable(i);
        const Modulus &q = tab.modulus();
        u64 *c = conv + idx * n;
        md.conv.convert(i, drop + s * K * n, c, n);
        tab.forward(c);
        const u64 inv = md.inv[i];
        const u64 invShoup = md.invShoup[i];
        u64 *o = (s == 0 ? out0 : out1).limb(i).data().data();
        for (std::size_t k = 0; k < n; ++k) {
            const u64 x = q.reduce(innerProduct(s, i, k));
            o[k] = q.add(o[k], q.mulShoup(q.sub(x, c[k]), inv, invShoup));
        }
    });
}

void
checkSameShape(const Ciphertext &a, const Ciphertext &b)
{
    UFC_CHECK(a.limbs == b.limbs, "ciphertext level mismatch");
    const double ratio = a.scale / b.scale;
    UFC_CHECK(ratio > 0.999 && ratio < 1.001,
              "ciphertext scale mismatch: " << a.scale << " vs " << b.scale);
}

} // namespace

Ciphertext
CkksEvaluator::add(const Ciphertext &a, const Ciphertext &b) const
{
    checkSameShape(a, b);
    Ciphertext out = a;
    out.c0.addInPlace(b.c0);
    out.c1.addInPlace(b.c1);
    return out;
}

Ciphertext
CkksEvaluator::sub(const Ciphertext &a, const Ciphertext &b) const
{
    checkSameShape(a, b);
    Ciphertext out = a;
    out.c0.subInPlace(b.c0);
    out.c1.subInPlace(b.c1);
    return out;
}

Ciphertext
CkksEvaluator::negate(const Ciphertext &a) const
{
    Ciphertext out = a;
    out.c0.negInPlace();
    out.c1.negInPlace();
    return out;
}

Ciphertext
CkksEvaluator::addPlain(const Ciphertext &a, const Plaintext &p) const
{
    UFC_CHECK(a.limbs == p.limbs, "plaintext level mismatch");
    Ciphertext out = a;
    out.c0.addInPlace(p.poly);
    return out;
}

Ciphertext
CkksEvaluator::subPlain(const Ciphertext &a, const Plaintext &p) const
{
    UFC_CHECK(a.limbs == p.limbs, "plaintext level mismatch");
    Ciphertext out = a;
    out.c0.subInPlace(p.poly);
    return out;
}

Ciphertext
CkksEvaluator::mulPlain(const Ciphertext &a, const Plaintext &p) const
{
    UFC_CHECK(a.limbs == p.limbs, "plaintext level mismatch");
    Ciphertext out = a;
    out.c0.mulEvalInPlace(p.poly);
    out.c1.mulEvalInPlace(p.poly);
    out.scale = a.scale * p.scale;
    return out;
}

Ciphertext
CkksEvaluator::multiply(const Ciphertext &a, const Ciphertext &b,
                        const EvalKey &relin) const
{
    checkSameShape(a, b);
    for (const RnsPoly *p : {&a.c0, &a.c1, &b.c0, &b.c1})
        UFC_CHECK(p->form() == PolyForm::Eval,
                  "multiply expects eval-form ciphertexts");
    const int limbs = a.limbs;
    const std::size_t n = ctx_->degree();
    Workspace &ws = tlsWorkspace;
    u64 *e2 = reserve(ws.in, limbs * n);

    // Tensor product (e0, e1, e2), e2 multiplying s^2: e0 and e1 become
    // the outputs, e2 is staged for relinearization.
    Ciphertext out;
    out.c0 = ctx_->makePoly(limbs, PolyForm::Eval);
    out.c1 = ctx_->makePoly(limbs, PolyForm::Eval);
    out.limbs = limbs;
    out.scale = a.scale * b.scale;
    parallelFor(limbs, [&](std::size_t i) {
        const Modulus &q = ctx_->qTable(static_cast<int>(i)).modulus();
        const u64 *a0 = a.c0.limb(i).data().data();
        const u64 *a1 = a.c1.limb(i).data().data();
        const u64 *b0 = b.c0.limb(i).data().data();
        const u64 *b1 = b.c1.limb(i).data().data();
        u64 *e0 = out.c0.limb(i).data().data();
        u64 *e1 = out.c1.limb(i).data().data();
        u64 *e2i = e2 + i * n;
        for (std::size_t k = 0; k < n; ++k) {
            e0[k] = q.mul(a0[k], b0[k]);
            e1[k] = q.reduce(static_cast<u128>(a0[k]) * b1[k] +
                             static_cast<u128>(a1[k]) * b0[k]);
            e2i[k] = q.mul(a1[k], b1[k]);
        }
    });

    // Relinearize e2 back onto (c0, c1).
    keySwitchStaged(*ctx_, ws, limbs, relin, out.c0, out.c1);
    return out;
}

Ciphertext
CkksEvaluator::square(const Ciphertext &a, const EvalKey &relin) const
{
    return multiply(a, a, relin);
}

Ciphertext
CkksEvaluator::rescale(const Ciphertext &a) const
{
    UFC_CHECK(a.limbs >= 2, "cannot rescale at the last level");
    UFC_CHECK(a.c0.form() == PolyForm::Eval && a.c1.form() == PolyForm::Eval,
              "rescale expects an eval-form ciphertext");
    const int limbs = a.limbs;
    const std::size_t n = ctx_->degree();
    const DropPlan &plan = ctx_->rescalePlan(limbs);

    Ciphertext out;
    out.limbs = limbs - 1;
    out.scale = a.scale / static_cast<double>(ctx_->qAt(limbs - 1));
    out.c0 = ctx_->makePoly(limbs - 1, PolyForm::Eval);
    out.c1 = ctx_->makePoly(limbs - 1, PolyForm::Eval);

    // The last limb of each component to coefficient form (the only
    // INTT), then out_i = (x_i - NTT([last]_{q_i})) * q_last^-1 per limb.
    // A one-limb basis has source factor 1, so the INTT output is
    // already scaled.
    u64 *last = reserve(tlsWorkspace.drop, 2 * n);
    const RnsPoly *src[2] = {&a.c0, &a.c1};
    RnsPoly *dst[2] = {&out.c0, &out.c1};
    parallelFor(2, [&](std::size_t s) {
        u64 *l = last + s * n;
        const u64 *x = src[s]->limb(limbs - 1).data().data();
        std::copy(x, x + n, l);
        ctx_->qTable(limbs - 1).inverse(l);
    });
    parallelFor(2 * (limbs - 1), [&](std::size_t idx) {
        const std::size_t s = idx / (limbs - 1);
        const int i = static_cast<int>(idx % (limbs - 1));
        const NttTable &tab = ctx_->qTable(i);
        const Modulus &q = tab.modulus();
        u64 *o = dst[s]->limb(i).data().data();
        plan.conv.convert(i, last + s * n, o, n);
        tab.forward(o);
        const u64 *x = src[s]->limb(i).data().data();
        const u64 inv = plan.inv[i];
        const u64 invShoup = plan.invShoup[i];
        for (std::size_t k = 0; k < n; ++k)
            o[k] = q.mulShoup(q.sub(x[k], o[k]), inv, invShoup);
    });
    return out;
}

Ciphertext
CkksEvaluator::dropToLimbs(const Ciphertext &a, int limbs) const
{
    UFC_CHECK(limbs >= 1 && limbs <= a.limbs, "bad target limbs");
    Ciphertext out;
    out.limbs = limbs;
    out.scale = a.scale;
    out.c0 = subPolyQ(ctx_, a.c0, limbs);
    out.c1 = subPolyQ(ctx_, a.c1, limbs);
    return out;
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keySwitch(const RnsPoly &c, const EvalKey &key) const
{
    UFC_CHECK(c.form() == PolyForm::Eval, "key switching expects Eval form");
    const int limbs = static_cast<int>(c.limbCount());
    const std::size_t n = ctx_->degree();
    Workspace &ws = tlsWorkspace;
    u64 *in = reserve(ws.in, limbs * n);
    for (int i = 0; i < limbs; ++i)
        std::copy(c.limb(i).data().begin(), c.limb(i).data().end(),
                  in + i * n);
    std::pair<RnsPoly, RnsPoly> out{ctx_->makePoly(limbs, PolyForm::Eval),
                                    ctx_->makePoly(limbs, PolyForm::Eval)};
    keySwitchStaged(*ctx_, ws, limbs, key, out.first, out.second);
    return out;
}

Ciphertext
CkksEvaluator::applyGalois(const Ciphertext &a, u64 k,
                           const EvalKey &galoisKey) const
{
    // Permute both components, then switch sigma_k(c1) from sigma_k(s)
    // back to s: sigma_k(c0) is the output c0 the switch adds into, and
    // sigma_k(c1) is staged straight into the workspace.
    UFC_CHECK(a.c1.form() == PolyForm::Eval,
              "Galois automorphisms expect an eval-form ciphertext");
    const int limbs = a.limbs;
    const std::size_t n = ctx_->degree();
    Workspace &ws = tlsWorkspace;
    u64 *in = reserve(ws.in, limbs * n);

    Ciphertext out;
    out.c0 = a.c0.automorphism(k);
    out.c1 = ctx_->makePoly(limbs, PolyForm::Eval);
    out.limbs = limbs;
    out.scale = a.scale;
    parallelFor(limbs, [&](std::size_t i) {
        automorphismEval(a.c1.limb(i).data().data(), in + i * n, n, k);
    });
    keySwitchStaged(*ctx_, ws, limbs, galoisKey, out.c0, out.c1);
    return out;
}

Ciphertext
CkksEvaluator::rotate(const Ciphertext &a, int steps,
                      const EvalKey &galoisKey) const
{
    const u64 twoN = 2 * ctx_->degree();
    const u64 order = ctx_->degree() / 2;
    i64 r = steps % static_cast<i64>(order);
    if (r < 0)
        r += static_cast<i64>(order);
    const u64 k = powMod(5, static_cast<u64>(r), twoN);
    return applyGalois(a, k, galoisKey);
}

Ciphertext
CkksEvaluator::conjugate(const Ciphertext &a, const EvalKey &conjKey) const
{
    return applyGalois(a, 2 * ctx_->degree() - 1, conjKey);
}

} // namespace ckks
} // namespace ufc
