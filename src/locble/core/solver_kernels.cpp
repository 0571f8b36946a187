#include "locble/core/solver_kernels.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

#include "locble/core/location_solver.hpp"

// This is the only translation unit compiled with the optional ISA flags
// (-mavx512f or -mavx2, whichever the LOCBLE_KERNEL_SIMD probe found, plus
// -fno-trapping-math — see src/locble/core/CMakeLists.txt). By the lane
// contract documented in solver_kernels.hpp the flags are performance-only:
// every kernel performs the same per-lane addition sequences and the same
// fixed-order tree reduction whatever code the compiler emits, so results
// are bit-identical across ISAs and W.
//
// The lane block. Every kernel runs on one idiom: the 8 logical lanes of
// an element block are kAccLanes / W register blocks of W doubles (GCC/
// Clang vector extensions), and each accumulator is an array of those
// blocks indexed by a compile-time block number, so it lives in registers.
// The n % 8 tail runs through the same block code: its inputs are copied
// into zeroed blocks, and a select keeps every inactive lane's accumulator
// bits unchanged. The element math is written once as templates over
// double (the AoS `*_ref` twins) and the block type (the lane kernels).
//
// -Wpsabi rule: no vector type is passed or returned by value across a
// function boundary. Helpers take and write blocks by reference and are
// force-inlined, so the warning stays quiet under -Werror at every W and
// ISA without a suppression.
//
// Reduction discipline (kernel-reduce lint rule, allow() pragmas ignored
// here): partial sums live in fixed kAccLanes-lane blocks indexed by
// `i % kAccLanes` and are only ever combined by reduce_lanes().

#define LOCBLE_BLOCK_INLINE __attribute__((always_inline))

namespace locble::core::kernels {

namespace {

// --- the lane block ----------------------------------------------------------

/// The vector types of a W-wide register block: V holds W doubles, M a
/// lane mask (-1 active, 0 inactive), U the bit pattern of a V.
template <std::size_t W>
struct Lanes;

#define LOCBLE_LANES(W_)                                                        \
    template <>                                                                 \
    struct Lanes<W_> {                                                          \
        typedef double V __attribute__((vector_size(W_ * sizeof(double))));     \
        typedef std::int64_t M __attribute__((vector_size(W_ * sizeof(double)))); \
        typedef std::uint64_t U __attribute__((vector_size(W_ * sizeof(double)))); \
    };
LOCBLE_LANES(1)
LOCBLE_LANES(2)
LOCBLE_LANES(4)
LOCBLE_LANES(8)
#undef LOCBLE_LANES

/// One register block: W lanes starting at element e, kAccLanes / W such
/// blocks per 8-element block. Masked marks the n % 8 tail, where only
/// `count` of the W elements exist: load() copies just those (the kernels
/// never read past n) and zeroes the other lanes, store() writes just
/// those, and add() leaves an inactive lane's accumulator bits unchanged.
template <std::size_t W, bool Masked>
struct Block {
    using V = typename Lanes<W>::V;
    using M = typename Lanes<W>::M;

    std::size_t e;      ///< first element of the block
    std::size_t count;  ///< elements present: W, or fewer in the tail
    M active{};         ///< lane j < count (tail only)

    LOCBLE_BLOCK_INLINE void load(V& v, const double* a) const {
        if constexpr (Masked) {
            v = V{};
            std::memcpy(&v, a + e, count * sizeof(double));
        } else {
            std::memcpy(&v, a + e, sizeof v);
        }
    }

    /// Gamma of each lane's segment, gammas[min(seg, k - 1)].
    LOCBLE_BLOCK_INLINE void load_gammas(V& g, const int* seg, const double* gammas,
                                         int k) const {
        g = V{};
        for (std::size_t j = 0; j < (Masked ? count : W); ++j)
            g[j] = gammas[static_cast<std::size_t>(std::min(seg[e + j], k - 1))];
    }

    LOCBLE_BLOCK_INLINE void store(double* a, const V& v) const {
        std::memcpy(a + e, &v, (Masked ? count : W) * sizeof(double));
    }

    /// acc += x on the active lanes.
    LOCBLE_BLOCK_INLINE void add(V& acc, const V& x) const {
        if constexpr (Masked)
            acc = active ? acc + x : acc;
        else
            acc += x;
    }
};

template <class F, std::size_t... B>
LOCBLE_BLOCK_INLINE inline void for_blocks(F& f, std::index_sequence<B...>) {
    (f(std::integral_constant<std::size_t, B>{}), ...);
}

/// Drive one kernel over n elements: `step(blk, b)` runs register block b
/// (a compile-time constant, so `acc[b]` names a register) of every
/// element block; the n % 8 tail runs the same step on Masked blocks, for
/// the register blocks it reaches.
template <std::size_t W, class Step>
LOCBLE_BLOCK_INLINE inline void sweep(std::size_t n, Step&& step) {
    constexpr auto blocks = std::make_index_sequence<kAccLanes / W>{};
    std::size_t i = 0;
    for (; i + kAccLanes <= n; i += kAccLanes) {
        auto full = [&](auto b) LOCBLE_BLOCK_INLINE {
            const Block<W, false> blk{i + b * W, W};
            step(blk, b);
        };
        for_blocks(full, blocks);
    }
    if (i == n) return;
    const std::size_t tail = n - i;
    auto partial = [&](auto b) LOCBLE_BLOCK_INLINE {
        if (b * W >= tail) return;
        Block<W, true> blk{i + b * W, std::min(tail - b * W, W)};
        typename Lanes<W>::M lane{};
        for (std::size_t j = 0; j < W; ++j) lane[j] = static_cast<std::int64_t>(j);
        blk.active = lane < static_cast<std::int64_t>(blk.count);
        step(blk, b);
    };
    for_blocks(partial, blocks);
}

/// reduce_lanes() over one accumulator's 8 logical lanes (register block b
/// holds lanes b*W .. b*W + W - 1).
template <class V, std::size_t N>
LOCBLE_BLOCK_INLINE inline double reduce_blocks(const V (&acc)[N]) {
    double lanes[kAccLanes];
    static_assert(sizeof lanes == sizeof acc);
    std::memcpy(lanes, acc, sizeof lanes);
    return reduce_lanes(lanes);
}

// --- element math: T is double (U = std::uint64_t) or a block ----------------

/// Squared distance under the 0.1 m floor: std::max(l2, kMinDistanceSq)
/// spelled as its select, so NaN stays NaN on both paths.
template <class T>
LOCBLE_BLOCK_INLINE inline void floored_l2(const T& dx, const T& dy, T& l2) {
    l2 = dx * dx + dy * dy;
    l2 = l2 < kMinDistanceSq ? kMinDistanceSq : l2;
}

/// One sample's k == 1 GN terms: jacobian entries and dB residual at
/// sample displacement (sp, sq) against candidate (x, h, gamma, exponent).
template <class U, class T>
LOCBLE_BLOCK_INLINE inline void gn2_element(const T& sp, const T& sq, const T& srssi,
                                            double x, double h, double gamma,
                                            double exponent, double c, T& jx, T& jy,
                                            T& r) {
    const T dx = x + sp;
    const T dy = h + sq;
    T l2, lg;
    floored_l2(dx, dy, l2);
    det_log10_into<U>(l2, lg);
    const T pred = gamma - 5.0 * exponent * lg;
    const T inv = c / l2;
    jx = inv * dx;
    jy = inv * dy;
    r = srssi - pred;
}

/// One sample's dB residual. G is double (one Gamma for every sample) or,
/// in residual_seg_lanes, the block of each lane's segment Gamma.
template <class U, class T, class G>
LOCBLE_BLOCK_INLINE inline void residual2_element(const T& sp, const T& sq,
                                                  const T& srssi, double x, double h,
                                                  const G& gamma, double exponent,
                                                  T& r) {
    const T dx = x + sp;
    const T dy = h + sq;
    T l2, lg;
    floored_l2(dx, dy, l2);
    det_log10_into<U>(l2, lg);
    r = srssi - (gamma - 5.0 * exponent * lg);
}

/// One sample's multi-segment GN terms, in the AoS loop's own spelling:
/// `c * dx / l2`, and predict_rssi_db's re-floor of l2 is a no-op.
template <class U, class T>
LOCBLE_BLOCK_INLINE inline void gn_seg_element(const T& sp, const T& sq, const T& srssi,
                                               const T& g, double x, double h,
                                               double exponent, double c, T& jx,
                                               T& jy, T& r) {
    const T dx = x + sp;
    const T dy = h + sq;
    T l2, lg;
    floored_l2(dx, dy, l2);
    det_log10_into<U>(l2, lg);
    r = srssi - (g - 5.0 * exponent * lg);
    jx = c * dx / l2;
    jy = c * dy / l2;
}

using Bits = std::uint64_t;  // U of the scalar twins

}  // namespace

// --- 2-D Gauss-Newton accumulation ------------------------------------------

template <std::size_t W>
void gn2_lanes(const double* __restrict p, const double* __restrict q,
               const double* __restrict rssi, std::size_t n, double x, double h,
               double gamma, double exponent, double c, GnSums2& out) {
    using V = typename Lanes<W>::V;
    using U = typename Lanes<W>::U;
    V A00[kAccLanes / W] = {}, A01[kAccLanes / W] = {}, A02[kAccLanes / W] = {},
      A11[kAccLanes / W] = {}, A12[kAccLanes / W] = {}, R0[kAccLanes / W] = {},
      R1[kAccLanes / W] = {}, R2[kAccLanes / W] = {};
    sweep<W>(n, [&](const auto& blk, auto b) LOCBLE_BLOCK_INLINE {
        V sp, sq, sr, jx, jy, r;
        blk.load(sp, p);
        blk.load(sq, q);
        blk.load(sr, rssi);
        gn2_element<U>(sp, sq, sr, x, h, gamma, exponent, c, jx, jy, r);
        blk.add(R0[b], jx * r);
        blk.add(R1[b], jy * r);
        blk.add(R2[b], r);
        blk.add(A00[b], jx * jx);
        blk.add(A01[b], jx * jy);
        blk.add(A02[b], jx);
        blk.add(A11[b], jy * jy);
        blk.add(A12[b], jy);
    });
    out.a00 = reduce_blocks(A00);
    out.a01 = reduce_blocks(A01);
    out.a02 = reduce_blocks(A02);
    out.a11 = reduce_blocks(A11);
    out.a12 = reduce_blocks(A12);
    out.a22 = static_cast<double>(n);  // sum of exact 1.0s, any order
    out.r0 = reduce_blocks(R0);
    out.r1 = reduce_blocks(R1);
    out.r2 = reduce_blocks(R2);
}

void gn2_ref(const FusedSample* s, std::size_t n, double x, double h,
             double gamma, double exponent, double c, GnSums2& out) {
    double A00[kAccLanes] = {}, A01[kAccLanes] = {}, A02[kAccLanes] = {},
           A11[kAccLanes] = {}, A12[kAccLanes] = {}, R0[kAccLanes] = {},
           R1[kAccLanes] = {}, R2[kAccLanes] = {};
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t lane = i % kAccLanes;
        double jx, jy, r;
        gn2_element<Bits>(s[i].p, s[i].q, s[i].rssi, x, h, gamma, exponent, c, jx,
                          jy, r);
        R0[lane] += jx * r;
        R1[lane] += jy * r;
        R2[lane] += r;
        A00[lane] += jx * jx;
        A01[lane] += jx * jy;
        A02[lane] += jx;
        A11[lane] += jy * jy;
        A12[lane] += jy;
    }
    out.a00 = reduce_lanes(A00);
    out.a01 = reduce_lanes(A01);
    out.a02 = reduce_lanes(A02);
    out.a11 = reduce_lanes(A11);
    out.a12 = reduce_lanes(A12);
    out.a22 = static_cast<double>(n);
    out.r0 = reduce_lanes(R0);
    out.r1 = reduce_lanes(R1);
    out.r2 = reduce_lanes(R2);
}

// --- 2-D residual pass -------------------------------------------------------

template <std::size_t W>
void residual2_lanes(const double* __restrict p, const double* __restrict q,
                     const double* __restrict rssi, std::size_t n, double x,
                     double h, double gamma, double exponent,
                     double* __restrict resid, double& sum, double& ss) {
    using V = typename Lanes<W>::V;
    using U = typename Lanes<W>::U;
    V S[kAccLanes / W] = {}, SS[kAccLanes / W] = {};
    sweep<W>(n, [&](const auto& blk, auto b) LOCBLE_BLOCK_INLINE {
        V sp, sq, sr, r;
        blk.load(sp, p);
        blk.load(sq, q);
        blk.load(sr, rssi);
        residual2_element<U>(sp, sq, sr, x, h, gamma, exponent, r);
        blk.store(resid, r);
        blk.add(S[b], r);
        blk.add(SS[b], r * r);
    });
    sum = reduce_blocks(S);
    ss = reduce_blocks(SS);
}

void residual2_ref(const FusedSample* s, std::size_t n, double x, double h,
                   double gamma, double exponent, double* resid, double& sum,
                   double& ss) {
    double S[kAccLanes] = {}, SS[kAccLanes] = {};
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t lane = i % kAccLanes;
        double r;
        residual2_element<Bits>(s[i].p, s[i].q, s[i].rssi, x, h, gamma, exponent, r);
        resid[i] = r;
        S[lane] += r;
        SS[lane] += r * r;
    }
    sum = reduce_lanes(S);
    ss = reduce_lanes(SS);
}

// --- centered second moment --------------------------------------------------

template <std::size_t W>
double centered_m2_lanes(const double* __restrict resid, std::size_t n,
                         double mean) {
    using V = typename Lanes<W>::V;
    V M2[kAccLanes / W] = {};
    sweep<W>(n, [&](const auto& blk, auto b) LOCBLE_BLOCK_INLINE {
        V r;
        blk.load(r, resid);
        const V d = r - mean;
        blk.add(M2[b], d * d);
    });
    return reduce_blocks(M2);
}

double centered_m2_ref(const double* resid, std::size_t n, double mean) {
    double M2[kAccLanes] = {};
    for (std::size_t i = 0; i < n; ++i) {
        const double d = resid[i] - mean;
        M2[i % kAccLanes] += d * d;
    }
    return reduce_lanes(M2);
}

// --- seed residual sum -------------------------------------------------------

template <std::size_t W>
double seed_sum_lanes(const double* __restrict p, const double* __restrict q,
                      const double* __restrict rssi, std::size_t n, double x,
                      double h, double gamma, double exponent) {
    using V = typename Lanes<W>::V;
    using U = typename Lanes<W>::U;
    V S[kAccLanes / W] = {};
    sweep<W>(n, [&](const auto& blk, auto b) LOCBLE_BLOCK_INLINE {
        V sp, sq, sr, r;
        blk.load(sp, p);
        blk.load(sq, q);
        blk.load(sr, rssi);
        residual2_element<U>(sp, sq, sr, x, h, gamma, exponent, r);
        blk.add(S[b], r);
    });
    return reduce_blocks(S);
}

double seed_sum_ref(const FusedSample* s, std::size_t n, double x, double h,
                    double gamma, double exponent) {
    double S[kAccLanes] = {};
    for (std::size_t i = 0; i < n; ++i) {
        double r;
        residual2_element<Bits>(s[i].p, s[i].q, s[i].rssi, x, h, gamma, exponent, r);
        S[i % kAccLanes] += r;
    }
    return reduce_lanes(S);
}

// --- 2-D multi-segment element kernels --------------------------------------

template <std::size_t W>
void gn_seg_lanes(const double* __restrict p, const double* __restrict q,
                  const double* __restrict rssi, const int* __restrict seg,
                  std::size_t n, double x, double h, const double* __restrict gammas,
                  int k, double exponent, double c, double* __restrict jx,
                  double* __restrict jy, double* __restrict r) {
    using V = typename Lanes<W>::V;
    using U = typename Lanes<W>::U;
    sweep<W>(n, [&](const auto& blk, auto) LOCBLE_BLOCK_INLINE {
        V sp, sq, sr, g, vjx, vjy, vr;
        blk.load(sp, p);
        blk.load(sq, q);
        blk.load(sr, rssi);
        blk.load_gammas(g, seg, gammas, k);
        gn_seg_element<U>(sp, sq, sr, g, x, h, exponent, c, vjx, vjy, vr);
        blk.store(jx, vjx);
        blk.store(jy, vjy);
        blk.store(r, vr);
    });
}

template <std::size_t W>
void residual_seg_lanes(const double* __restrict p, const double* __restrict q,
                        const double* __restrict rssi, const int* __restrict seg,
                        std::size_t n, double x, double h,
                        const double* __restrict gammas, int k, double exponent,
                        double* __restrict r) {
    using V = typename Lanes<W>::V;
    using U = typename Lanes<W>::U;
    sweep<W>(n, [&](const auto& blk, auto) LOCBLE_BLOCK_INLINE {
        V sp, sq, sr, g, vr;
        blk.load(sp, p);
        blk.load(sq, q);
        blk.load(sr, rssi);
        blk.load_gammas(g, seg, gammas, k);
        residual2_element<U>(sp, sq, sr, x, h, g, exponent, vr);
        blk.store(r, vr);
    });
}

// --- explicit instantiations (the full contract sweep) ----------------------

#define LOCBLE_KERNELS_INSTANTIATE(W)                                            \
    template void gn2_lanes<W>(const double*, const double*, const double*,      \
                               std::size_t, double, double, double, double,      \
                               double, GnSums2&);                                \
    template void residual2_lanes<W>(const double*, const double*,               \
                                     const double*, std::size_t, double, double, \
                                     double, double, double*, double&, double&); \
    template double centered_m2_lanes<W>(const double*, std::size_t, double);    \
    template double seed_sum_lanes<W>(const double*, const double*,              \
                                      const double*, std::size_t, double,        \
                                      double, double, double);                   \
    template void gn_seg_lanes<W>(const double*, const double*, const double*,   \
                                  const int*, std::size_t, double, double,       \
                                  const double*, int, double, double, double*,   \
                                  double*, double*);                             \
    template void residual_seg_lanes<W>(const double*, const double*,            \
                                        const double*, const int*, std::size_t,  \
                                        double, double, const double*, int,      \
                                        double, double*);

LOCBLE_KERNELS_INSTANTIATE(1)
LOCBLE_KERNELS_INSTANTIATE(2)
LOCBLE_KERNELS_INSTANTIATE(4)
LOCBLE_KERNELS_INSTANTIATE(8)
#undef LOCBLE_KERNELS_INSTANTIATE

}  // namespace locble::core::kernels
