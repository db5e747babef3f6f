/**
 * @file
 * CKKS context: the modulus chain, ring tables and the RNS precomputation
 * used by rescaling and hybrid key switching.
 *
 * Every constant the key-switching and rescale kernels need is built
 * here once, with its Shoup companion: one ModUpPlan per (limbs, digit)
 * and one DropPlan for ModDown and for each rescale.  A homomorphic op
 * then runs no RnsBasis, invMod or 128-bit division.
 */

#ifndef UFC_CKKS_CONTEXT_H
#define UFC_CKKS_CONTEXT_H

#include <memory>
#include <span>
#include <vector>

#include "ckks/params.h"
#include "poly/rns_poly.h"

namespace ufc {
namespace ckks {

/**
 * ModUp of one key-switching digit [lo, hi) at one limb count: the
 * digit's limbs are the input times [Qhat_d^-1]_{q_i}, every other limb
 * of Q x P is a BConv of the digit.
 */
struct ModUpPlan
{
    int lo = 0;
    int hi = 0;
    /// [Qhat_d^-1]_{q_i} for i in [lo, hi), with Shoup companions.
    std::vector<u64> inner, innerShoup;
    /// Digit limbs -> the limbs of Q x P outside [lo, hi), in order;
    /// Qhat_d^-1 is folded into its source factors.
    BaseConverter conv;
};

/**
 * Exact division by the product D of dropped limbs: out_i = (x_i -
 * BConv_{D->q_i}(x_D)) * D^-1 mod q_i.  ModDown drops D = P, rescale
 * drops D = q_last.
 */
struct DropPlan
{
    BaseConverter conv;              ///< D -> q_0, q_1, ...
    std::vector<u64> inv, invShoup;  ///< [D^-1]_{q_i} and Shoup companions
};

/**
 * Owns everything shared between CKKS objects: NTT tables, the q/p prime
 * chains and per-level digit bookkeeping for key switching.
 */
class CkksContext
{
  public:
    explicit CkksContext(const CkksParams &params);

    const CkksParams &params() const { return params_; }
    const RingContext *ring() const { return ring_.get(); }
    u64 degree() const { return params_.ringDim; }
    u64 slots() const { return params_.ringDim / 2; }
    double scale() const { return scale_; }

    int levels() const { return params_.levels; }
    int specialLimbs() const { return params_.specialLimbs; }
    int dnum() const { return params_.dnum; }
    /** Limbs per key-switching digit (alpha). */
    int digitSize() const { return alpha_; }

    u64 qAt(int i) const { return qChain_[i]; }
    u64 pAt(int j) const { return pChain_[j]; }
    const std::vector<u64> &qChain() const { return qChain_; }
    const std::vector<u64> &pChain() const { return pChain_; }

    /** NTT tables of q_0..q_{limbs-1}. */
    std::span<const NttTable *const> qTables(int limbs) const;

    /** Number of key-switching digits active for a given limb count. */
    int digitsForLimbs(int limbs) const;
    /** Global limb indices covered by digit d at a given limb count. */
    std::pair<int, int> digitRange(int d, int limbs) const;

    /** Qhat_d = prod of q limbs outside digit d, mod an arbitrary prime. */
    u64 qHatDigitMod(int d, u64 prime) const;

    /** ModUp of digit d at `limbs` active limbs. */
    const ModUpPlan &
    modUpPlan(int limbs, int d) const
    {
        return modUp_[limbs - 1][d];
    }
    /** ModDown: P -> q_0..q_{L-1}. */
    const DropPlan &modDownPlan() const { return modDown_; }
    /** Rescale from `limbs` to `limbs` - 1: q_{limbs-1} -> the rest. */
    const DropPlan &
    rescalePlan(int limbs) const
    {
        return rescale_[limbs - 2];
    }

    /** NTT table of q_i. */
    const NttTable &qTable(int i) const { return *qTables_[i]; }
    /** NTT table of p_j. */
    const NttTable &pTable(int j) const { return *pTables_[j]; }

    /** Fresh zero RnsPoly over q_0..q_{limbs-1}. */
    RnsPoly makePoly(int limbs, PolyForm form) const;
    /** Fresh zero RnsPoly over q-basis plus special primes. */
    RnsPoly makePolyQP(int limbs, PolyForm form) const;

  private:
    CkksParams params_;
    std::unique_ptr<RingContext> ring_;
    std::vector<u64> qChain_;
    std::vector<u64> pChain_;
    int alpha_ = 0;
    double scale_ = 0.0;
    std::vector<const NttTable *> qTables_;
    std::vector<const NttTable *> pTables_;
    std::vector<std::vector<ModUpPlan>> modUp_; ///< [limbs - 1][digit]
    DropPlan modDown_;
    std::vector<DropPlan> rescale_;             ///< [limbs - 2]
};

} // namespace ckks
} // namespace ufc

#endif // UFC_CKKS_CONTEXT_H
