#include "locble/core/solver_kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>

#include "locble/common/linalg.hpp"
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

/// f(j) for the runs j < `runs`: unrolled at compile time when R > 0 (then
/// runs == R), a loop otherwise.
template <std::size_t R, class F>
LOCBLE_BLOCK_INLINE inline void for_runs(std::size_t runs, F& f) {
    if constexpr (R != 0)
        for_blocks(f, std::make_index_sequence<R>{});
    else
        for (std::size_t j = 0; j < runs; ++j) f(j);
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
/// in residual_seg_lanes, the block of each lane's segment Gamma. The
/// sample (S) and the candidate (P) are each a double or a block: samples
/// ride the lanes in the per-run kernels, runs ride them in the k > 1
/// lockstep sweeps.
template <class U, class T, class S, class P, class G>
LOCBLE_BLOCK_INLINE inline void residual2_element(const S& sp, const S& sq,
                                                  const S& srssi, const P& x,
                                                  const P& h, const G& gamma,
                                                  const P& exponent, T& r) {
    const T dx = x + sp;
    const T dy = h + sq;
    T l2, lg;
    floored_l2(dx, dy, l2);
    det_log10_into<U>(l2, lg);
    r = srssi - (gamma - 5.0 * exponent * lg);
}

/// One sample's multi-segment GN terms, in the AoS loop's own spelling:
/// `c * dx / l2`, and predict_rssi_db's re-floor of l2 is a no-op. S and P
/// as in residual2_element.
template <class U, class T, class S, class P>
LOCBLE_BLOCK_INLINE inline void gn_seg_element(const S& sp, const S& sq, const S& srssi,
                                               const T& g, const P& x, const P& h,
                                               const P& exponent, const P& c, T& jx,
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

/// The runs a lockstep batch still advances, compacted to slots
/// 0 .. live - 1 in batch order: run[j] is slot j's index in the batch.
/// Run j sits at (x[j], h[j]) with exponent e[j], jacobian factor
/// c[j] = -10 e[j] / ln 10 and, at k == 1, Gamma g[j]. Slots past `live`
/// hold stale values, any value at all (a run that reached NaN leaves NaN
/// behind): a lane block that carries them computes on them, and nothing
/// reads those lanes' results.
struct LiveRuns {
    std::size_t live{0};
    std::size_t run[kAccLanes]{};
    double x[kAccLanes]{}, h[kAccLanes]{}, e[kAccLanes]{}, c[kAccLanes]{};
    double g[kAccLanes]{};
};

/// k == 1 normal-equation sums of the first `runs` runs in one sweep. The
/// samples stay in the 8 logical lanes and every block step loops over the
/// runs, each with its own 8-lane partials and the fixed tree, so run j's
/// sums are gn2_lanes<W>'s at its candidate — for any number of runs.
/// The run loop is unrolled at compile time for R > 0 runs (the lone run's
/// partials then stay in registers); R == 0 takes the count at run time.
template <std::size_t W, std::size_t R>
[[gnu::noinline]] void gn2_runs(const double* __restrict p, const double* __restrict q,
                                const double* __restrict rssi, std::size_t n,
                                const LiveRuns& lr, std::size_t runs, GnSums2* out) {
    using V = typename Lanes<W>::V;
    using U = typename Lanes<W>::U;
    constexpr std::size_t NB = kAccLanes / W;
    if constexpr (R != 0) runs = R;
    // Per run: R0, R1, R2, A00, A01, A02, A11, A12.
    V acc[R != 0 ? R : kAccLanes][8][NB] = {};
    sweep<W>(n, [&](const auto& blk, auto b) LOCBLE_BLOCK_INLINE {
        V sp, sq, sr;
        blk.load(sp, p);
        blk.load(sq, q);
        blk.load(sr, rssi);
        auto run = [&](auto j) LOCBLE_BLOCK_INLINE {
            V jx, jy, r;
            gn2_element<U>(sp, sq, sr, lr.x[j], lr.h[j], lr.g[j], lr.e[j], lr.c[j], jx,
                           jy, r);
            auto& a = acc[j];
            blk.add(a[0][b], jx * r);
            blk.add(a[1][b], jy * r);
            blk.add(a[2][b], r);
            blk.add(a[3][b], jx * jx);
            blk.add(a[4][b], jx * jy);
            blk.add(a[5][b], jx);
            blk.add(a[6][b], jy * jy);
            blk.add(a[7][b], jy);
        };
        for_runs<R>(runs, run);
    });
    for (std::size_t j = 0; j < runs; ++j) {
        out[j].r0 = reduce_blocks(acc[j][0]);
        out[j].r1 = reduce_blocks(acc[j][1]);
        out[j].r2 = reduce_blocks(acc[j][2]);
        out[j].a00 = reduce_blocks(acc[j][3]);
        out[j].a01 = reduce_blocks(acc[j][4]);
        out[j].a02 = reduce_blocks(acc[j][5]);
        out[j].a11 = reduce_blocks(acc[j][6]);
        out[j].a12 = reduce_blocks(acc[j][7]);
        out[j].a22 = static_cast<double>(n);  // sum of exact 1.0s, any order
    }
}

/// k == 1 segment-seed residual sums of the first `runs` runs (Gamma g[j]
/// is the trial seed), laid out like gn2_runs (R likewise): run j's sum is
/// seed_sum_lanes<W>'s.
template <std::size_t W, std::size_t R>
[[gnu::noinline]] void seed2_runs(const double* __restrict p, const double* __restrict q,
                                  const double* __restrict rssi, std::size_t n,
                                  const LiveRuns& lr, std::size_t runs, double* out) {
    using V = typename Lanes<W>::V;
    using U = typename Lanes<W>::U;
    constexpr std::size_t NB = kAccLanes / W;
    if constexpr (R != 0) runs = R;
    V acc[R != 0 ? R : kAccLanes][NB] = {};
    sweep<W>(n, [&](const auto& blk, auto b) LOCBLE_BLOCK_INLINE {
        V sp, sq, sr;
        blk.load(sp, p);
        blk.load(sq, q);
        blk.load(sr, rssi);
        auto run = [&](auto j) LOCBLE_BLOCK_INLINE {
            V r;
            residual2_element<U>(sp, sq, sr, lr.x[j], lr.h[j], lr.g[j], lr.e[j], r);
            blk.add(acc[j][b], r);
        };
        for_runs<R>(runs, run);
    });
    for (std::size_t j = 0; j < runs; ++j) out[j] = reduce_blocks(acc[j]);
}

}  // namespace

// --- 2-D Gauss-Newton accumulation ------------------------------------------

template <std::size_t W>
void gn2_lanes(const double* __restrict p, const double* __restrict q,
               const double* __restrict rssi, std::size_t n, double x, double h,
               double gamma, double exponent, double c, GnSums2& out) {
    LiveRuns lr;
    lr.x[0] = x;
    lr.h[0] = h;
    lr.g[0] = gamma;
    lr.e[0] = exponent;
    lr.c[0] = c;
    gn2_runs<W, 1>(p, q, rssi, n, lr, 1, &out);
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
    LiveRuns lr;
    lr.x[0] = x;
    lr.h[0] = h;
    lr.g[0] = gamma;
    lr.e[0] = exponent;
    double out;
    seed2_runs<W, 1>(p, q, rssi, n, lr, 1, &out);
    return out;
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

// --- lockstep Gauss-Newton ---------------------------------------------------

namespace {

constexpr double kLn10 = 2.302585092994046;

/// Levenberg damping of iteration `it`: conservative first steps, and a
/// small ridge that also guards segments with very few samples.
inline double gn_damping(int it) { return 1e-6 + (it < 3 ? 0.1 : 0.0); }

/// One run's step from its solution d (stride ds: x, h, Gamma_1..Gamma_k):
/// x and h move freely, the Gammas (stride gs) are clamped into the band.
/// Returns whether the run stops — the step's L1 norm is below 1e-6.
inline bool take_step(double& x, double& h, double* g, std::size_t gs, std::size_t k,
                      const double* d, std::size_t ds, double gamma_min,
                      double gamma_max) {
    x += d[0];
    h += d[ds];
    double step = std::abs(d[0]) + std::abs(d[ds]);
    for (std::size_t s = 0; s < k; ++s) {
        g[s * gs] = std::clamp(g[s * gs] + d[(2 + s) * ds], gamma_min, gamma_max);
        step += std::abs(d[(2 + s) * ds]);
    }
    return step < 1e-6;
}

/// Lane blocks of a batch of L runs at build width W: VW-wide blocks, no
/// wider than the runs need (a divide costs the same per double at every
/// width, so an empty lane is pure waste), NB of them. The k == 1 sweeps
/// unroll their run loop (`unrolled` runs, 0 for a loop) while the runs
/// fit one block's width: runs x register blocks stays within kAccLanes
/// unrolled element bodies, which bounds code size at small W.
template <std::size_t W, std::size_t L>
struct RunBlocks {
    static constexpr std::size_t VW = std::min(W, std::bit_ceil(L));
    static constexpr std::size_t NB = (L + VW - 1) / VW;
    static constexpr std::size_t unrolled = L <= W ? L : 0;
};

/// Call f(integral_constant<L>) for the runtime live count 1 .. kAccLanes.
template <class F>
LOCBLE_BLOCK_INLINE inline void dispatch_live(std::size_t live, F&& f) {
    switch (live) {
        case 1: f(std::integral_constant<std::size_t, 1>{}); break;
        case 2: f(std::integral_constant<std::size_t, 2>{}); break;
        case 3: f(std::integral_constant<std::size_t, 3>{}); break;
        case 4: f(std::integral_constant<std::size_t, 4>{}); break;
        case 5: f(std::integral_constant<std::size_t, 5>{}); break;
        case 6: f(std::integral_constant<std::size_t, 6>{}); break;
        case 7: f(std::integral_constant<std::size_t, 7>{}); break;
        default: f(std::integral_constant<std::size_t, 8>{}); break;
    }
}

/// |v| per lane: the sign bit cleared, as std::abs does.
template <class V, class U>
LOCBLE_BLOCK_INLINE inline void abs_into(const V& v, V& out) {
    U bits;
    std::memcpy(&bits, &v, sizeof bits);
    bits &= 0x7fffffffffffffffULL;
    std::memcpy(&out, &bits, sizeof out);
}

/// solve_linear_flat's operations on lanes 0 .. NB * VW - 1 of the
/// solve_lanes layout, VW lanes per block. Per lane: the partial pivot by
/// strict `>` against the running pivot magnitude, failure below 1e-14,
/// the row swap and the `f == 0` skip as selects, vector divides in the
/// elimination and back-substitution. Dim is the dimension when the
/// compiler may know it, 0 for the runtime `dim`. fail[j] is nonzero for a
/// lane solve_linear_flat rejects; its x lanes are then meaningless.
template <std::size_t VW, std::size_t NB, std::size_t Dim>
[[gnu::noinline]] void lane_solve(double* __restrict a, double* __restrict b,
                                  double* __restrict x, std::size_t dim,
                                  std::int64_t* __restrict fail) {
    using V = typename Lanes<VW>::V;
    using M = typename Lanes<VW>::M;
    using U = typename Lanes<VW>::U;
    const std::size_t n = Dim != 0 ? Dim : dim;
    for (std::size_t blk = 0; blk < NB; ++blk) {
        const std::size_t l0 = blk * VW;
        const auto ld = [&](V& v, const double* base, std::size_t i) LOCBLE_BLOCK_INLINE {
            std::memcpy(&v, base + i * kAccLanes + l0, sizeof v);
        };
        const auto st = [&](double* base, std::size_t i, const V& v) LOCBLE_BLOCK_INLINE {
            std::memcpy(base + i * kAccLanes + l0, &v, sizeof v);
        };
        M bad{};
        for (std::size_t col = 0; col < n; ++col) {
            V pv, v;
            ld(v, a, col * n + col);
            abs_into<V, U>(v, pv);
            M piv = M{} + static_cast<std::int64_t>(col);
            for (std::size_t r = col + 1; r < n; ++r) {
                ld(v, a, r * n + col);
                abs_into<V, U>(v, v);
                const M gt = v > pv;
                pv = gt ? v : pv;
                piv = gt ? M{} + static_cast<std::int64_t>(r) : piv;
            }
            bad |= pv < 1e-14;
            for (std::size_t r = col + 1; r < n; ++r) {
                const M sw = piv == static_cast<std::int64_t>(r);
                V u, w;
                for (std::size_t c = 0; c < n; ++c) {
                    ld(u, a, col * n + c);
                    ld(w, a, r * n + c);
                    st(a, col * n + c, sw ? w : u);
                    st(a, r * n + c, sw ? u : w);
                }
                ld(u, b, col);
                ld(w, b, r);
                st(b, col, sw ? w : u);
                st(b, r, sw ? u : w);
            }
            V piv_val;
            ld(piv_val, a, col * n + col);
            for (std::size_t r = col + 1; r < n; ++r) {
                V u, w;
                ld(u, a, r * n + col);
                const V f = u / piv_val;
                const M skip = f == 0.0;
                for (std::size_t c = col; c < n; ++c) {
                    ld(u, a, r * n + c);
                    ld(w, a, col * n + c);
                    st(a, r * n + c, skip ? u : u - f * w);
                }
                ld(u, b, r);
                ld(w, b, col);
                st(b, r, skip ? u : u - f * w);
            }
        }
        for (std::size_t i = n; i-- > 0;) {
            V sum, u, w;
            ld(sum, b, i);
            for (std::size_t c = i + 1; c < n; ++c) {
                ld(u, a, i * n + c);
                ld(w, x, c);
                sum -= u * w;
            }
            ld(u, a, i * n + i);
            st(x, i, sum / u);
        }
        std::memcpy(fail + l0, &bad, sizeof bad);
    }
}

/// Lane solve of the first L lanes, at the narrowest blocks that hold them.
template <std::size_t W, std::size_t L, std::size_t Dim>
LOCBLE_BLOCK_INLINE inline void lane_solve_runs(double* a, double* b, double* x,
                                                std::size_t dim, std::int64_t* fail) {
    lane_solve<RunBlocks<W, L>::VW, RunBlocks<W, L>::NB, Dim>(a, b, x, dim, fail);
}

/// Retire the runs that stopped (their final state goes back to the batch
/// through `retire(slot)`) and compact the rest, in order, to the front.
/// `move(from, to)` moves one slot's state.
template <class Retire, class Move>
LOCBLE_BLOCK_INLINE inline void compact(LiveRuns& lr, const bool* stop, Retire&& retire,
                                        Move&& move) {
    std::size_t w = 0;
    for (std::size_t j = 0; j < lr.live; ++j) {
        if (stop[j]) {
            retire(j);
            continue;
        }
        if (w != j) {
            lr.run[w] = lr.run[j];
            lr.x[w] = lr.x[j];
            lr.h[w] = lr.h[j];
            lr.e[w] = lr.e[j];
            lr.c[w] = lr.c[j];
            lr.g[w] = lr.g[j];
            move(j, w);
        }
        ++w;
    }
    lr.live = w;
}

/// Load the batch's runs into slots 0 .. runs - 1; `g` reads the k == 1
/// Gamma (or the seed) of run j.
template <class G>
LOCBLE_BLOCK_INLINE inline void load_runs(const GnBatch& batch, LiveRuns& lr, G&& g) {
    lr.live = batch.runs;
    for (std::size_t j = 0; j < batch.runs; ++j) {
        lr.run[j] = j;
        lr.x[j] = batch.x[j];
        lr.h[j] = batch.h[j];
        lr.e[j] = batch.exponent[j];
        lr.c[j] = -10.0 * batch.exponent[j] / kLn10;
        lr.g[j] = g(j);
    }
}

/// One k == 1 iteration of the L live runs: one sweep, one lane solve (the
/// scalar solve_linear_flat for a lone run, whose latency a vector divide
/// would only lengthen), then each run's own step, exactly as the serial
/// run takes it.
template <std::size_t W, std::size_t L>
void gn2_iteration(const double* p, const double* q, const double* rssi, std::size_t n,
                   LiveRuns& lr, int it, double gamma_min, double gamma_max, bool* stop) {
    GnSums2 sums[L];
    gn2_runs<W, RunBlocks<W, L>::unrolled>(p, q, rssi, n, lr, L, sums);
    const double damping = gn_damping(it);
    double d[3][kAccLanes];
    std::int64_t fail[kAccLanes] = {};
    if constexpr (L == 1) {
        const GnSums2& sm = sums[0];
        double jtj[9] = {sm.a00 * (1.0 + damping) + 1e-9,
                         sm.a01,
                         sm.a02,
                         sm.a01,
                         sm.a11 * (1.0 + damping) + 1e-9,
                         sm.a12,
                         sm.a02,
                         sm.a12,
                         sm.a22 * (1.0 + damping) + 1e-9};
        double jtr[3] = {sm.r0, sm.r1, sm.r2};
        double delta[3] = {};
        fail[0] = !locble::solve_linear_flat(jtj, jtr, delta, 3);
        for (std::size_t r = 0; r < 3; ++r) d[r][0] = delta[r];
    } else {
        // Lanes past L solve the identity.
        double a[9][kAccLanes], rhs[3][kAccLanes];
        for (std::size_t j = 0; j < kAccLanes; ++j) {
            const bool run = j < L;
            const GnSums2& sm = sums[run ? j : 0];
            a[0][j] = run ? sm.a00 * (1.0 + damping) + 1e-9 : 1.0;
            a[1][j] = run ? sm.a01 : 0.0;
            a[2][j] = run ? sm.a02 : 0.0;
            a[3][j] = run ? sm.a01 : 0.0;
            a[4][j] = run ? sm.a11 * (1.0 + damping) + 1e-9 : 1.0;
            a[5][j] = run ? sm.a12 : 0.0;
            a[6][j] = run ? sm.a02 : 0.0;
            a[7][j] = run ? sm.a12 : 0.0;
            a[8][j] = run ? sm.a22 * (1.0 + damping) + 1e-9 : 1.0;
            rhs[0][j] = run ? sm.r0 : 0.0;
            rhs[1][j] = run ? sm.r1 : 0.0;
            rhs[2][j] = run ? sm.r2 : 0.0;
        }
        lane_solve_runs<W, L, 3>(&a[0][0], &rhs[0][0], &d[0][0], 3, fail);
    }
    for (std::size_t j = 0; j < L; ++j)
        stop[j] = fail[j] != 0 || take_step(lr.x[j], lr.h[j], &lr.g[j], 1, 1, &d[0][j],
                                            kAccLanes, gamma_min, gamma_max);
}

// k > 1: the runs ride the lanes (run j in lane j) and the samples go in
// index order, so each lane's sums are the AoS loop's left-to-right folds
// for its run. All runs share a sample's segment s = min(seg, k - 1): the
// Gamma is the per-run vector G[s], and the sums of the current segment's
// Gamma column are carried in registers until the segment changes.
//
// One or two live runs take the one-run form instead, one after the
// other: the samples ride the lanes of gn_seg_lanes / residual_seg_lanes,
// a chunk at a time, and a scalar fold adds the outputs in index order —
// the same sums. A lane of the run-lane sweep costs a whole vector's
// divides, so a batch that would leave most lanes empty is cheaper this
// way.
//
// Scratch layout (doubles, lane-major, kAccLanes lanes per entry): G (k
// entries), the Gamma-column sums (3k), the x/h sums (5), the counts per
// segment (k, one double each), the system (dim^2), its right-hand side
// and solution (dim each), dim = 2 + k, and one run's Gammas (k).
struct SegScratch {
    double* gam;   ///< G[s * 8 + j]
    double* col;   ///< Jtr_g, JtJ_xg, JtJ_hg: col[(t * k + s) * 8 + j]
    double* xy;    ///< Jtr_x, Jtr_h, JtJ_xx, JtJ_xh, JtJ_hh: xy[t * 8 + j]
    double* cnt;   ///< samples of segment s
    double* a;
    double* rhs;
    double* sol;
    double* one;   ///< the Gammas of a run in the one-run form

    SegScratch(double* s, std::size_t k) {
        const std::size_t dim = 2 + k;
        gam = s;
        col = gam + k * kAccLanes;
        xy = col + 3 * k * kAccLanes;
        cnt = xy + 5 * kAccLanes;
        a = cnt + k;
        rhs = a + dim * dim * kAccLanes;
        sol = rhs + dim * kAccLanes;
        one = sol + dim * kAccLanes;
    }
    static std::size_t size(std::size_t k) {
        const std::size_t dim = 2 + k;
        return (4 * k + 5 + dim * dim + 2 * dim) * kAccLanes + 2 * k;
    }
};

/// Live runs at most this many take the k > 1 one-run form. Measured at
/// W = 8 (docs/PERFORMANCE.md): in the run-lane form a lone run costs
/// ~2.7x and two runs ~1.3x the one-run form, three runs are about even.
constexpr std::size_t kOneRunMax = 2;

/// Samples per call of a one-run element kernel: its outputs live in
/// stack buffers of this size, folded before the next chunk.
constexpr std::size_t kSegChunk = 256;

/// Complete a dim x dim normal system from its upper triangle and damp
/// its diagonal for iteration `it`.
void mirror_and_damp(double* jtj, std::size_t dim, int it) {
    for (std::size_t a = 0; a < dim; ++a)
        for (std::size_t b = 0; b < a; ++b) jtj[a * dim + b] = jtj[b * dim + a];
    const double damping = gn_damping(it);
    for (std::size_t a = 0; a < dim; ++a)
        jtj[a * dim + a] = jtj[a * dim + a] * (1.0 + damping) + 1e-9;
}

/// The k > 1 normal-equation sums of one run (upper triangle of the
/// dim x dim jtj and jtr, zeroed by the caller), samples in the lanes: the
/// element kernel computes each sample's (jx, jy, r) a chunk at a time and
/// the fold adds them into every sum in index order. The entries of the
/// current segment's Gamma column are carried in locals and written back
/// when the segment changes.
template <std::size_t W>
void seg_sums_one(const double* p, const double* q, const double* rssi, const int* seg,
                  std::size_t n, std::size_t k, double x, double h, const double* gammas,
                  double exponent, double c, double* jtj, double* jtr) {
    const std::size_t dim = 2 + k;
    double jx[kSegChunk], jy[kSegChunk], r[kSegChunk];
    double r0 = 0.0, r1 = 0.0, a00 = 0.0, a01 = 0.0, a11 = 0.0;
    std::size_t g = 2;  // Jtr / JtJ index of the current segment's Gamma
    double rg = 0.0, a0g = 0.0, a1g = 0.0, agg = 0.0;
    const int last = static_cast<int>(k) - 1;
    for (std::size_t i0 = 0; i0 < n; i0 += kSegChunk) {
        const std::size_t len = std::min(kSegChunk, n - i0);
        gn_seg_lanes<W>(p + i0, q + i0, rssi + i0, seg + i0, len, x, h, gammas, last + 1,
                        exponent, c, jx, jy, r);
        for (std::size_t j = 0; j < len; ++j) {
            const std::size_t gj =
                2 + static_cast<std::size_t>(std::min(seg[i0 + j], last));
            if (gj != g) {
                jtr[g] = rg;
                jtj[g] = a0g;
                jtj[dim + g] = a1g;
                jtj[g * dim + g] = agg;
                g = gj;
                rg = jtr[g];
                a0g = jtj[g];
                a1g = jtj[dim + g];
                agg = jtj[g * dim + g];
            }
            r0 += jx[j] * r[j];
            r1 += jy[j] * r[j];
            rg += r[j];
            a00 += jx[j] * jx[j];
            a01 += jx[j] * jy[j];
            a0g += jx[j];
            a11 += jy[j] * jy[j];
            a1g += jy[j];
            agg += 1.0;
        }
    }
    jtr[g] = rg;
    jtj[g] = a0g;
    jtj[dim + g] = a1g;
    jtj[g * dim + g] = agg;
    jtr[0] = r0;
    jtr[1] = r1;
    jtj[0] = a00;
    jtj[1] = a01;
    jtj[dim + 1] = a11;
}

/// One k > 1 iteration of the run in slot j in the one-run form.
template <std::size_t W>
void seg_iteration_one(const double* p, const double* q, const double* rssi,
                       const int* seg, std::size_t n, std::size_t k, LiveRuns& lr,
                       std::size_t j, const SegScratch& sc, int it, double gamma_min,
                       double gamma_max, bool* stop) {
    const std::size_t dim = 2 + k;
    double* jtj = sc.a;
    double* jtr = sc.rhs;
    double* delta = sc.sol;
    for (std::size_t s = 0; s < k; ++s) sc.one[s] = sc.gam[s * kAccLanes + j];
    std::fill_n(jtj, dim * dim, 0.0);
    std::fill_n(jtr, dim, 0.0);
    seg_sums_one<W>(p, q, rssi, seg, n, k, lr.x[j], lr.h[j], sc.one, lr.e[j], lr.c[j],
                    jtj, jtr);
    mirror_and_damp(jtj, dim, it);
    stop[j] = !locble::solve_linear_flat(jtj, jtr, delta, dim) ||
              take_step(lr.x[j], lr.h[j], sc.gam + j, kAccLanes, k, delta, 1, gamma_min,
                        gamma_max);
}

/// The k > 1 segment-seed residual sums of the run in slot j in the
/// one-run form, into col[s * 8 + j]: the residuals under the one trial
/// Gamma (a one-entry Gamma table), folded per segment in index order.
template <std::size_t W>
void seg_seed_one(const double* p, const double* q, const double* rssi, const int* seg,
                  std::size_t n, std::size_t k, const LiveRuns& lr, std::size_t j,
                  const SegScratch& sc) {
    double r[kSegChunk];
    for (std::size_t s = 0; s < k; ++s) sc.col[s * kAccLanes + j] = 0.0;
    const int last = static_cast<int>(k) - 1;
    for (std::size_t i0 = 0; i0 < n; i0 += kSegChunk) {
        const std::size_t len = std::min(kSegChunk, n - i0);
        residual_seg_lanes<W>(p + i0, q + i0, rssi + i0, seg + i0, len, lr.x[j], lr.h[j],
                              &lr.g[j], 1, lr.e[j], r);
        for (std::size_t i = 0; i < len; ++i) {
            const auto s = static_cast<std::size_t>(std::min(seg[i0 + i], last));
            sc.col[s * kAccLanes + j] += r[i];
        }
    }
}

/// Samples of each segment, s = min(seg, k - 1), as exact double counts.
void count_segments(const int* seg, std::size_t n, std::size_t k, double* cnt) {
    std::fill_n(cnt, k, 0.0);
    const int last = static_cast<int>(k) - 1;
    for (std::size_t i = 0; i < n; ++i)
        cnt[static_cast<std::size_t>(std::min(seg[i], last))] += 1.0;
}

/// One k > 1 GN sweep of the live runs in NB blocks of VW lanes.
template <std::size_t VW, std::size_t NB>
[[gnu::noinline]] void seg_runs(const double* __restrict p, const double* __restrict q,
                                const double* __restrict rssi, const int* __restrict seg,
                                std::size_t n, std::size_t k, const LiveRuns& lr,
                                const SegScratch& sc) {
    using V = typename Lanes<VW>::V;
    using U = typename Lanes<VW>::U;
    const auto ld = [](V& v, const double* a) LOCBLE_BLOCK_INLINE {
        std::memcpy(&v, a, sizeof v);
    };
    V x[NB], h[NB], e[NB], c[NB], g[NB];
    V r0[NB] = {}, r1[NB] = {}, a00[NB] = {}, a01[NB] = {}, a11[NB] = {};
    V rg[NB] = {}, a0g[NB] = {}, a1g[NB] = {};
    for (std::size_t b = 0; b < NB; ++b) {
        ld(x[b], lr.x + b * VW);
        ld(h[b], lr.h + b * VW);
        ld(e[b], lr.e + b * VW);
        ld(c[b], lr.c + b * VW);
        ld(g[b], sc.gam + b * VW);
    }
    std::fill_n(sc.col, 3 * k * kAccLanes, 0.0);
    const auto column = [&](std::size_t t, std::size_t s, std::size_t b) {
        return sc.col + (t * k + s) * kAccLanes + b * VW;
    };
    const int last = static_cast<int>(k) - 1;
    std::size_t cur = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto s = static_cast<std::size_t>(std::min(seg[i], last));
        if (s != cur) {
            for (std::size_t b = 0; b < NB; ++b) {
                std::memcpy(column(0, cur, b), &rg[b], sizeof(V));
                std::memcpy(column(1, cur, b), &a0g[b], sizeof(V));
                std::memcpy(column(2, cur, b), &a1g[b], sizeof(V));
                ld(rg[b], column(0, s, b));
                ld(a0g[b], column(1, s, b));
                ld(a1g[b], column(2, s, b));
                ld(g[b], sc.gam + s * kAccLanes + b * VW);
            }
            cur = s;
        }
        const double sp = p[i], sq = q[i], sr = rssi[i];
        auto block = [&](auto b) LOCBLE_BLOCK_INLINE {
            V jx, jy, r;
            gn_seg_element<U>(sp, sq, sr, g[b], x[b], h[b], e[b], c[b], jx, jy, r);
            r0[b] += jx * r;
            r1[b] += jy * r;
            rg[b] += r;
            a00[b] += jx * jx;
            a01[b] += jx * jy;
            a0g[b] += jx;
            a11[b] += jy * jy;
            a1g[b] += jy;
        };
        for_blocks(block, std::make_index_sequence<NB>{});
    }
    for (std::size_t b = 0; b < NB; ++b) {
        std::memcpy(column(0, cur, b), &rg[b], sizeof(V));
        std::memcpy(column(1, cur, b), &a0g[b], sizeof(V));
        std::memcpy(column(2, cur, b), &a1g[b], sizeof(V));
        std::memcpy(sc.xy + 0 * kAccLanes + b * VW, &r0[b], sizeof(V));
        std::memcpy(sc.xy + 1 * kAccLanes + b * VW, &r1[b], sizeof(V));
        std::memcpy(sc.xy + 2 * kAccLanes + b * VW, &a00[b], sizeof(V));
        std::memcpy(sc.xy + 3 * kAccLanes + b * VW, &a01[b], sizeof(V));
        std::memcpy(sc.xy + 4 * kAccLanes + b * VW, &a11[b], sizeof(V));
    }
}

/// k > 1 segment-seed residual sums of the runs (the seed Gamma in g),
/// per segment in index order, into col[s * 8 + j].
template <std::size_t VW, std::size_t NB>
[[gnu::noinline]] void seg_seed_runs(const double* __restrict p,
                                     const double* __restrict q,
                                     const double* __restrict rssi,
                                     const int* __restrict seg, std::size_t n,
                                     std::size_t k, const LiveRuns& lr,
                                     const SegScratch& sc) {
    using V = typename Lanes<VW>::V;
    using U = typename Lanes<VW>::U;
    const auto ld = [](V& v, const double* a) LOCBLE_BLOCK_INLINE {
        std::memcpy(&v, a, sizeof v);
    };
    V x[NB], h[NB], e[NB], g[NB], sum[NB] = {};
    for (std::size_t b = 0; b < NB; ++b) {
        ld(x[b], lr.x + b * VW);
        ld(h[b], lr.h + b * VW);
        ld(e[b], lr.e + b * VW);
        ld(g[b], lr.g + b * VW);
    }
    std::fill_n(sc.col, k * kAccLanes, 0.0);
    const int last = static_cast<int>(k) - 1;
    std::size_t cur = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto s = static_cast<std::size_t>(std::min(seg[i], last));
        if (s != cur) {
            for (std::size_t b = 0; b < NB; ++b) {
                std::memcpy(sc.col + cur * kAccLanes + b * VW, &sum[b], sizeof(V));
                ld(sum[b], sc.col + s * kAccLanes + b * VW);
            }
            cur = s;
        }
        const double sp = p[i], sq = q[i], sr = rssi[i];
        auto block = [&](auto b) LOCBLE_BLOCK_INLINE {
            V r;
            residual2_element<U>(sp, sq, sr, x[b], h[b], g[b], e[b], r);
            sum[b] += r;
        };
        for_blocks(block, std::make_index_sequence<NB>{});
    }
    for (std::size_t b = 0; b < NB; ++b)
        std::memcpy(sc.col + cur * kAccLanes + b * VW, &sum[b], sizeof(V));
}

/// One k > 1 iteration of the L live runs: one sweep, the normal equations
/// assembled per lane exactly as the serial run assembles them, one lane
/// solve, then each run's own step.
template <std::size_t W, std::size_t L>
void seg_iteration(const double* p, const double* q, const double* rssi, const int* seg,
                   std::size_t n, std::size_t k, LiveRuns& lr, const SegScratch& sc,
                   int it, double gamma_min, double gamma_max, bool* stop) {
    constexpr std::size_t VW = RunBlocks<W, L>::VW, NB = RunBlocks<W, L>::NB;
    seg_runs<VW, NB>(p, q, rssi, seg, n, k, lr, sc);
    const std::size_t dim = 2 + k;
    const double damping = gn_damping(it);
    double* a = sc.a;
    std::fill_n(a, dim * dim * kAccLanes, 0.0);
    const auto entry = [&](std::size_t r, std::size_t c) {
        return a + (r * dim + c) * kAccLanes;
    };
    for (std::size_t j = 0; j < VW * NB; ++j) {
        entry(0, 0)[j] = sc.xy[2 * kAccLanes + j];
        entry(0, 1)[j] = sc.xy[3 * kAccLanes + j];
        entry(1, 1)[j] = sc.xy[4 * kAccLanes + j];
        sc.rhs[0 * kAccLanes + j] = sc.xy[0 * kAccLanes + j];
        sc.rhs[1 * kAccLanes + j] = sc.xy[1 * kAccLanes + j];
        for (std::size_t s = 0; s < k; ++s) {
            entry(0, 2 + s)[j] = sc.col[(1 * k + s) * kAccLanes + j];
            entry(1, 2 + s)[j] = sc.col[(2 * k + s) * kAccLanes + j];
            entry(2 + s, 2 + s)[j] = sc.cnt[s];
            sc.rhs[(2 + s) * kAccLanes + j] = sc.col[(0 * k + s) * kAccLanes + j];
        }
        for (std::size_t r = 0; r < dim; ++r)
            for (std::size_t c = 0; c < r; ++c) entry(r, c)[j] = entry(c, r)[j];
        for (std::size_t r = 0; r < dim; ++r)
            entry(r, r)[j] = entry(r, r)[j] * (1.0 + damping) + 1e-9;
    }
    std::int64_t fail[kAccLanes] = {};
    lane_solve_runs<W, L, 0>(a, sc.rhs, sc.sol, dim, fail);
    for (std::size_t j = 0; j < L; ++j)
        stop[j] = fail[j] != 0 || take_step(lr.x[j], lr.h[j], sc.gam + j, kAccLanes, k,
                                            sc.sol + j, kAccLanes, gamma_min, gamma_max);
}

}  // namespace

std::size_t lockstep_scratch_size(std::size_t k) {
    const std::size_t dim = 2 + k;
    // The references need a dim x dim system, its rhs and step, and two
    // k-entry sums; the k == 1 lockstep kernels keep everything on the
    // stack.
    const std::size_t ref = dim * dim + 2 * dim + 2 * k;
    return k == 1 ? ref : std::max(SegScratch::size(k), ref);
}

template <std::size_t W>
void seed_lockstep(const double* __restrict p, const double* __restrict q,
                   const double* __restrict rssi, const int* __restrict seg,
                   std::size_t n, GnBatch& batch, double* scratch) {
    if (batch.runs == 0) return;
    const std::size_t k = batch.k;
    LiveRuns lr;
    load_runs(batch, lr, [&](std::size_t j) { return batch.gamma_seed[j]; });
    if (k == 1) {
        double sums[kAccLanes];
        dispatch_live(lr.live, [&](auto L) {
            constexpr std::size_t R = RunBlocks<W, decltype(L)::value>::unrolled;
            seed2_runs<W, R>(p, q, rssi, n, lr, lr.live, sums);
        });
        for (std::size_t j = 0; j < batch.runs; ++j) {
            double g = batch.gamma_seed[j];
            if (n > 0) g += sums[j] / static_cast<double>(n);
            batch.gammas[j] = std::clamp(g, batch.gamma_min, batch.gamma_max);
        }
        return;
    }
    const SegScratch sc(scratch, k);
    count_segments(seg, n, k, sc.cnt);
    if (lr.live <= kOneRunMax) {
        for (std::size_t j = 0; j < lr.live; ++j)
            seg_seed_one<W>(p, q, rssi, seg, n, k, lr, j, sc);
    } else {
        dispatch_live(lr.live, [&](auto L) {
            constexpr std::size_t VW = RunBlocks<W, decltype(L)::value>::VW;
            constexpr std::size_t NB = RunBlocks<W, decltype(L)::value>::NB;
            if constexpr (decltype(L)::value > kOneRunMax)
                seg_seed_runs<VW, NB>(p, q, rssi, seg, n, k, lr, sc);
        });
    }
    for (std::size_t j = 0; j < batch.runs; ++j) {
        double* gammas = batch.gammas + j * k;
        for (std::size_t s = 0; s < k; ++s) {
            gammas[s] = batch.gamma_seed[j];
            if (sc.cnt[s] > 0) gammas[s] += sc.col[s * kAccLanes + j] / sc.cnt[s];
            gammas[s] = std::clamp(gammas[s], batch.gamma_min, batch.gamma_max);
        }
    }
}

template <std::size_t W>
void gn_lockstep(const double* __restrict p, const double* __restrict q,
                 const double* __restrict rssi, const int* __restrict seg,
                 std::size_t n, GnBatch& batch, double* scratch) {
    if (batch.runs == 0) return;
    const std::size_t k = batch.k;
    LiveRuns lr;
    bool stop[kAccLanes];
    if (k == 1) {
        load_runs(batch, lr, [&](std::size_t j) { return batch.gammas[j]; });
        const auto retire = [&](std::size_t j) {
            batch.x[lr.run[j]] = lr.x[j];
            batch.h[lr.run[j]] = lr.h[j];
            batch.gammas[lr.run[j]] = lr.g[j];
        };
        for (int it = 0; it < kGnIterations && lr.live > 0; ++it) {
            std::fill_n(stop, kAccLanes, false);
            dispatch_live(lr.live, [&](auto L) {
                gn2_iteration<W, decltype(L)::value>(p, q, rssi, n, lr, it,
                                                     batch.gamma_min, batch.gamma_max,
                                                     stop);
            });
            compact(lr, stop, retire, [](std::size_t, std::size_t) {});
        }
        for (std::size_t j = 0; j < lr.live; ++j) retire(j);
        return;
    }
    const SegScratch sc(scratch, k);
    load_runs(batch, lr, [](std::size_t) { return 0.0; });
    std::fill_n(sc.gam, k * kAccLanes, 0.0);
    for (std::size_t j = 0; j < batch.runs; ++j)
        for (std::size_t s = 0; s < k; ++s)
            sc.gam[s * kAccLanes + j] = batch.gammas[j * k + s];
    count_segments(seg, n, k, sc.cnt);
    const auto retire = [&](std::size_t j) {
        const std::size_t run = lr.run[j];
        batch.x[run] = lr.x[j];
        batch.h[run] = lr.h[j];
        for (std::size_t s = 0; s < k; ++s)
            batch.gammas[run * k + s] = sc.gam[s * kAccLanes + j];
    };
    const auto move = [&](std::size_t from, std::size_t to) {
        for (std::size_t s = 0; s < k; ++s)
            sc.gam[s * kAccLanes + to] = sc.gam[s * kAccLanes + from];
    };
    for (int it = 0; it < kGnIterations && lr.live > 0; ++it) {
        std::fill_n(stop, kAccLanes, false);
        if (lr.live <= kOneRunMax) {
            for (std::size_t j = 0; j < lr.live; ++j)
                seg_iteration_one<W>(p, q, rssi, seg, n, k, lr, j, sc, it,
                                     batch.gamma_min, batch.gamma_max, stop);
        } else {
            dispatch_live(lr.live, [&](auto L) {
                constexpr std::size_t live = decltype(L)::value;
                if constexpr (live > kOneRunMax)
                    seg_iteration<W, live>(p, q, rssi, seg, n, k, lr, sc, it,
                                           batch.gamma_min, batch.gamma_max, stop);
            });
        }
        compact(lr, stop, retire, move);
    }
    for (std::size_t j = 0; j < lr.live; ++j) retire(j);
}

void seed_lockstep_ref(const FusedSample* s, std::size_t n, GnBatch& batch,
                       double* scratch) {
    const std::size_t k = batch.k;
    const int last = static_cast<int>(k) - 1;
    for (std::size_t j = 0; j < batch.runs; ++j) {
        const double x = batch.x[j], h = batch.h[j], e = batch.exponent[j];
        const double seed = batch.gamma_seed[j];
        double* gammas = batch.gammas + j * k;
        if (k == 1) {
            double g = seed;
            if (n > 0) g += seed_sum_ref(s, n, x, h, seed, e) / static_cast<double>(n);
            gammas[0] = std::clamp(g, batch.gamma_min, batch.gamma_max);
            continue;
        }
        double* sum = scratch;
        double* cnt = scratch + k;
        std::fill_n(scratch, 2 * k, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            const auto seg = static_cast<std::size_t>(std::min(s[i].segment, last));
            const double dx = x + s[i].p;
            const double dy = h + s[i].q;
            sum[seg] += s[i].rssi - predict_rssi_db(seed, e, dx * dx + dy * dy);
            cnt[seg] += 1.0;
        }
        for (std::size_t g = 0; g < k; ++g) {
            gammas[g] = seed;
            if (cnt[g] > 0) gammas[g] += sum[g] / cnt[g];
            gammas[g] = std::clamp(gammas[g], batch.gamma_min, batch.gamma_max);
        }
    }
}

void gn_lockstep_ref(const FusedSample* s, std::size_t n, GnBatch& batch,
                     double* scratch) {
    const std::size_t k = batch.k;
    const std::size_t dim = 2 + k;
    double* jtj = scratch;
    double* jtr = jtj + dim * dim;
    double* delta = jtr + dim;
    for (std::size_t j = 0; j < batch.runs; ++j) {
        const double exponent = batch.exponent[j];
        const double c = -10.0 * exponent / kLn10;
        double x = batch.x[j], h = batch.h[j];
        double* gammas = batch.gammas + j * k;
        for (int it = 0; it < kGnIterations; ++it) {
            std::fill_n(jtj, dim * dim, 0.0);
            std::fill_n(jtr, dim, 0.0);
            if (k == 1) {
                GnSums2 sm;
                gn2_ref(s, n, x, h, gammas[0], exponent, c, sm);
                jtj[0] = sm.a00;
                jtj[1] = sm.a01;
                jtj[2] = sm.a02;
                jtj[4] = sm.a11;
                jtj[5] = sm.a12;
                jtj[8] = sm.a22;
                jtr[0] = sm.r0;
                jtr[1] = sm.r1;
                jtr[2] = sm.r2;
            } else {
                for (std::size_t i = 0; i < n; ++i) {
                    const double dx = x + s[i].p;
                    const double dy = h + s[i].q;
                    const double l2 = std::max(dx * dx + dy * dy, kMinDistanceSq);
                    const auto seg = static_cast<std::size_t>(
                        std::min<int>(s[i].segment, static_cast<int>(k) - 1));
                    const double r =
                        s[i].rssi - predict_rssi_db(gammas[seg], exponent, l2);
                    const double jx = c * dx / l2;
                    const double jy = c * dy / l2;
                    // Fused sparse JtJ/Jtr accumulation (upper triangle).
                    jtr[0] += jx * r;
                    jtr[1] += jy * r;
                    jtr[2 + seg] += 1.0 * r;
                    jtj[0 * dim + 0] += jx * jx;
                    jtj[0 * dim + 1] += jx * jy;
                    jtj[0 * dim + (2 + seg)] += jx * 1.0;
                    jtj[1 * dim + 1] += jy * jy;
                    jtj[1 * dim + (2 + seg)] += jy * 1.0;
                    jtj[(2 + seg) * dim + (2 + seg)] += 1.0 * 1.0;
                }
            }
            mirror_and_damp(jtj, dim, it);
            if (!locble::solve_linear_flat(jtj, jtr, delta, dim) ||
                take_step(x, h, gammas, 1, k, delta, 1, batch.gamma_min, batch.gamma_max))
                break;
        }
        batch.x[j] = x;
        batch.h[j] = h;
    }
}

template <std::size_t W>
void solve_lanes(double* a, double* b, double* x, std::size_t dim,
                 bool (&ok)[kAccLanes]) {
    std::int64_t fail[kAccLanes] = {};
    if (dim == 3)
        lane_solve_runs<W, kAccLanes, 3>(a, b, x, dim, fail);
    else
        lane_solve_runs<W, kAccLanes, 0>(a, b, x, dim, fail);
    for (std::size_t j = 0; j < kAccLanes; ++j) ok[j] = fail[j] == 0;
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
                                        double, double*);                         \
    template void seed_lockstep<W>(const double*, const double*, const double*,  \
                                   const int*, std::size_t, GnBatch&, double*);   \
    template void gn_lockstep<W>(const double*, const double*, const double*,    \
                                 const int*, std::size_t, GnBatch&, double*);     \
    template void solve_lanes<W>(double*, double*, double*, std::size_t,         \
                                 bool (&)[kAccLanes]);

LOCBLE_KERNELS_INSTANTIATE(1)
LOCBLE_KERNELS_INSTANTIATE(2)
LOCBLE_KERNELS_INSTANTIATE(4)
LOCBLE_KERNELS_INSTANTIATE(8)
#undef LOCBLE_KERNELS_INSTANTIATE

}  // namespace locble::core::kernels
