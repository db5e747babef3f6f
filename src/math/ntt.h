/**
 * @file
 * Negacyclic number-theoretic transform over Z_q[X]/(X^N + 1).
 *
 * NttTable implements the classical iterative algorithm (Cooley-Tukey DIT
 * forward, Gentleman-Sande DIF inverse, merged psi powers, Shoup constant
 * multiplication).  The public convention is that both coefficient and
 * evaluation forms are stored in natural index order; bit reversal is
 * handled internally.
 *
 * ## Kernel tiers
 *
 * Three kernel implementations share every table:
 *
 *  - forward()/inverse() dispatch to the fastest available kernel:
 *    an AVX-512 IFMA butterfly kernel (52-bit multiply-accumulate, HEXL
 *    technique) when the CPU supports it and q < 2^50, otherwise a
 *    scalar kernel with Harvey lazy-reduction butterflies.  Both lazy
 *    kernels keep forward values in [0, 4q) and inverse values in
 *    [0, 2q) between stages and renormalize once at the end (see
 *    math/mod_arith.h for the invariants).
 *  - forwardReference()/inverseReference() are the original fully
 *    reduced butterflies.  They are the differential-testing oracle and
 *    the "pre-PR kernel" baseline measured by bench/bench_kernels; every
 *    kernel tier must agree with them bit-for-bit.
 *
 * All kernels are const and re-entrant: transforms of distinct arrays
 * may run concurrently against one shared table (the limb-parallel RNS
 * ops in poly/rns_poly.cpp depend on this).  Scratch space is per-thread.
 *
 * The constant-geometry variant used by the UFC hardware lives in
 * math/cg_ntt.h and is tested for equivalence against this implementation.
 * Prefer obtaining tables through math/ntt_cache.h so all users of one
 * (N, q) pair share a single set of twiddles.
 */

#ifndef UFC_MATH_NTT_H
#define UFC_MATH_NTT_H

#include <vector>

#include "common/types.h"
#include "math/mod_arith.h"

namespace ufc {

/** Bit-reverse the low `bits` bits of x. */
inline u32
bitReverse(u32 x, int bits)
{
    u32 r = 0;
    for (int i = 0; i < bits; ++i) {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    return r;
}

namespace detail {

/**
 * Raw-pointer view of one NttTable's precomputation, the interface
 * between NttTable and the SIMD kernel translation unit
 * (math/avx512_ifma.cpp), which is compiled with AVX-512 flags and must
 * not be entered on machines without the feature.
 */
struct NttKernelView
{
    u64 n = 0;
    int logN = 0;
    u64 q = 0;
    const u64 *fwdTw = nullptr;      ///< forward twiddles, bit-rev order
    const u64 *fwdTwShoup52 = nullptr;
    const u64 *invTw = nullptr;      ///< inverse twiddles, bit-rev order
    const u64 *invTwShoup52 = nullptr;
    const u32 *brev = nullptr;       ///< bit-reverse permutation table
    u64 nInv = 0;
    u64 nInvShoup52 = 0;
};

/** True iff this CPU can run the AVX-512 IFMA kernels. */
bool avx512IfmaAvailable();

/** AVX-512 IFMA kernels; requires avx512IfmaAvailable(), q < 2^50 and
 *  n >= 16.  `scratch` must hold n words. */
void ifmaForward(const NttKernelView &v, u64 *a, u64 *scratch);
void ifmaInverse(const NttKernelView &v, u64 *a, u64 *scratch);

} // namespace detail

/**
 * Precomputed tables for the negacyclic NTT of a fixed (N, q) pair.
 *
 * q must be prime with q ≡ 1 (mod 2N).  The forward transform maps the
 * coefficient form of a polynomial to its evaluations at odd powers of the
 * 2N-th root of unity psi; multiplication in the evaluation domain realizes
 * negacyclic convolution.
 */
class NttTable
{
  public:
    /** Moduli below this bound are eligible for the IFMA kernels
     *  (butterfly operands stay under 4q < 2^52). */
    static constexpr u64 kIfmaModulusBound = 1ULL << 50;

    /**
     * Build tables for ring degree n (a power of two) and modulus q.
     * If psi == 0 a primitive 2n-th root of unity is found automatically;
     * passing psi explicitly supports the automorphism-via-NTT technique
     * (Section IV-C2 of the paper), which re-runs the NTT with psi^k.
     */
    NttTable(u64 n, u64 q, u64 psi = 0);

    // Non-copyable/movable: the kernel view holds pointers into the
    // twiddle vectors.  Tables are shared by pointer (see ntt_cache.h).
    NttTable(const NttTable &) = delete;
    NttTable &operator=(const NttTable &) = delete;

    u64 degree() const { return n_; }
    const Modulus &modulus() const { return mod_; }
    u64 psi() const { return psi_; }

    /** True when forward()/inverse() run on the AVX-512 IFMA kernels. */
    bool usesAvx512() const { return useIfma_; }

    /** Natural-order position of bit-reversed index i (and vice versa:
     *  the permutation is an involution). */
    u32 bitRev(u64 i) const { return brev_[i]; }

    /** In-place forward NTT; input and output in natural order. */
    void forward(u64 *a) const;
    void forward(std::vector<u64> &a) const { forward(a.data()); }

    /** In-place inverse NTT; input and output in natural order. */
    void inverse(u64 *a) const;
    void inverse(std::vector<u64> &a) const { inverse(a.data()); }

    /**
     * Original (pre-optimization) kernels with fully reduced butterflies.
     * Kept as the differential-testing oracle and as the baseline the
     * kernel microbenchmarks compare against.  Semantics are identical
     * to forward()/inverse().
     */
    void forwardReference(u64 *a) const;
    void inverseReference(u64 *a) const;

    /**
     * Reference negacyclic convolution in O(N^2); used by tests only.
     */
    std::vector<u64> negacyclicMulSchoolbook(const std::vector<u64> &a,
                                             const std::vector<u64> &b) const;

  private:
    void forwardScalar(u64 *a) const;
    void inverseScalar(u64 *a) const;

    u64 n_ = 0;
    int logN_ = 0;
    Modulus mod_;
    u64 psi_ = 0;
    bool useIfma_ = false;

    // Twiddles in the bit-reversed order the iterative algorithms consume.
    std::vector<u64> fwdTw_, fwdTwShoup_;
    std::vector<u64> invTw_, invTwShoup_;
    // 52-bit Shoup companions for the IFMA kernels (empty when q >= 2^50).
    std::vector<u64> fwdTwShoup52_, invTwShoup52_;
    // brev_[i] = bit-reverse of i over logN_ bits.
    std::vector<u32> brev_;
    u64 nInv_ = 0, nInvShoup_ = 0, nInvShoup52_ = 0;
    detail::NttKernelView view_;
};

} // namespace ufc

#endif // UFC_MATH_NTT_H
