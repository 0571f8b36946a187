#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

/// SIMD structure-of-arrays solver kernels with a lane-width determinism
/// contract (docs/PERFORMANCE.md "Lane kernels and the determinism
/// contract").
///
/// The solver's per-sample passes — the Gauss-Newton normal-equation
/// accumulation, the residual/score pass and the per-segment Gamma seed —
/// are data-parallel sweeps over contiguous sample arrays. This header
/// declares them as *lane kernels*: every per-element contribution is
/// routed to one of kAccLanes == 8 logical partial accumulators by its
/// element index (`lane = i % 8`), and the eight partials are combined with
/// one fixed-order tree reduction. The template parameter W only controls
/// the *physical* width of the register block the 8 logical lanes are
/// split into, so for any W in {1, 2, 4, 8} — and for any instruction set
/// the compiler targets (scalar, SSE2, AVX2, AVX-512, NEON) — the per-lane
/// addition sequences are identical and the results bit-exact. This is the
/// same determinism idiom as the obs bucket-sum merge. The multi-segment
/// element kernels (k > 1) reduce nothing: they write per-sample terms that
/// are folded in index order, which is trivially width-invariant. The
/// lockstep Gauss-Newton executor runs up to 8 independent solver runs
/// together under the same contract: a run's arithmetic never depends on
/// its lane, its batch or W.
///
/// The kernels are *defined* in solver_kernels.cpp (the only TU compiled
/// with the optional ISA flags the LOCBLE_KERNEL_SIMD probe picks — see the
/// top-level CMakeLists.txt) and explicitly instantiated for W in
/// {1, 2, 4, 8}; callers pick the build-selected width via kLaneWidth. Each
/// reducing lane kernel has an AoS scalar-reference twin (`*_ref`) that
/// performs the same canonical 8-lane accumulation over FusedSample
/// structs: the bench's naive baseline, the cross-mode identity gate, and
/// the anchor of the W-sweep property tests
/// (tests/core/test_solver_kernels.cpp).
///
/// Determinism rules for this file and solver_kernels.cpp (enforced by the
/// `kernel-reduce` lint rule, which ignores allow() pragmas here): no
/// OpenMP reductions, no std::execution parallel reduces, no atomic
/// floating-point accumulators — the fixed-order tree is the only allowed
/// reduction.

namespace locble::core {

struct FusedSample;

namespace kernels {

/// Logical partial-accumulator count of the determinism contract. Fixed
/// forever at 8: changing it changes every lane kernel's results.
inline constexpr std::size_t kAccLanes = 8;

/// Physical register-block width the library's hot paths run with.
/// Build-time selectable (-DLOCBLE_LANE_WIDTH=1|2|4|8); CMake defaults it to
/// the register width of the ISA its probe picked (8 for AVX-512F, 4 for
/// AVX2, 2 otherwise). By the contract above the choice is performance-only,
/// never observable in results.
#ifndef LOCBLE_LANE_WIDTH
#define LOCBLE_LANE_WIDTH 8
#endif
inline constexpr std::size_t kLaneWidth = LOCBLE_LANE_WIDTH;
static_assert(kLaneWidth >= 1 && kAccLanes % kLaneWidth == 0,
              "LOCBLE_LANE_WIDTH must be 1, 2, 4 or 8");

/// The fixed-order tree reduction of the 8 logical lanes. Every kernel
/// result is produced by exactly this expression — never a left-to-right
/// fold, never a pairwise order chosen by the compiler.
inline double reduce_lanes(const double (&acc)[kAccLanes]) {
    return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
           ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// Deterministic base-10 logarithm for the kernel hot loops: bit-identical
/// on every ISA (plain +,-,*,/ in a fixed order; FMA contraction is off
/// tree-wide via -ffp-contract=off) and branchless, so it runs elementwise
/// on a lane block. T is double (with U = std::uint64_t) or a W-wide vector
/// of doubles (with U the matching vector of uint64), and every lane of a
/// vector result equals det_log10 of that lane: the one definition serves
/// the scalar call sites and the lane kernels alike. The result goes through
/// `out`, and the bit casts through memcpy, so no vector type is passed or
/// returned by value (the -Wpsabi rule of solver_kernels.cpp). Domain:
/// finite normal x > 0 — every caller clamps its argument to
/// >= kMinDistanceSq first. Max relative error vs glibc log10 is ~9e-16
/// over the solver's distance range (property-tested in
/// tests/core/test_solver_kernels.cpp).
template <class U, class T>
[[gnu::always_inline]] inline void det_log10_into(const T& x, T& out) {
    // Decompose x = 2^e * m with m in [1, 2): the exponent field becomes a
    // double via the 2^52 magic-number trick (integer or + fp subtract —
    // vectorizes without an int64->double conversion), the mantissa via
    // bit masking.
    U bits;
    std::memcpy(&bits, &x, sizeof bits);
    const U expfield = bits >> 52;  // in [1, 2046] for normal x > 0
    const U ebits = expfield | 0x4330000000000000ULL;
    const U mbits = (bits & 0xfffffffffffffULL) | 0x3ff0000000000000ULL;
    T e, m;
    std::memcpy(&e, &ebits, sizeof e);
    std::memcpy(&m, &mbits, sizeof m);
    e = e - (4503599627370496.0 + 1023.0);  // 2^52 + exponent bias
    // Normalize m to [sqrt(1/2), sqrt(2)) with if-converted selects.
    const auto big = m > 1.4142135623730951;
    e = big ? e + 1.0 : e;
    m = big ? m * 0.5 : m;
    // atanh series: ln(m) = 2t (1 + u/3 + u^2/5 + ... + u^8/17) with
    // t = (m-1)/(m+1), u = t^2; |t| < 0.1716 keeps 9 terms past 1 ulp.
    const T t = (m - 1.0) / (m + 1.0);
    const T u = t * t;
    T poly = (1.0 / 17.0) * u + 1.0 / 15.0;
    poly = poly * u + 1.0 / 13.0;
    poly = poly * u + 1.0 / 11.0;
    poly = poly * u + 1.0 / 9.0;
    poly = poly * u + 1.0 / 7.0;
    poly = poly * u + 1.0 / 5.0;
    poly = poly * u + 1.0 / 3.0;
    poly = poly * u + 1.0;
    const T ln_m = 2.0 * t * poly;
    constexpr double kLog10E = 0.43429448190325182;  // log10(e)
    constexpr double kLog102 = 0.30102999566398120;  // log10(2)
    out = e * kLog102 + ln_m * kLog10E;
}

inline double det_log10(double x) {
    double out;
    det_log10_into<std::uint64_t>(x, out);
    return out;
}

/// Normal-equation sums of one 2-D Gauss-Newton iteration at fixed
/// exponent with a single Gamma (the k == 1 fast path): jacobian row
/// (jx, jy, 1) against residual r, upper triangle of JtJ plus Jtr.
struct GnSums2 {
    double a00, a01, a02, a11, a12, a22;
    double r0, r1, r2;
};

// --- 2-D kernels (LocationSolver k == 1 hot paths) --------------------------

/// SoA lane kernel: GN accumulation over (p[i], q[i], rssi[i]) at candidate
/// (x, h, gamma, exponent); c = -10 * exponent / ln(10) is the shared
/// jacobian factor the caller hoists.
template <std::size_t W>
void gn2_lanes(const double* p, const double* q, const double* rssi,
               std::size_t n, double x, double h, double gamma, double exponent,
               double c, GnSums2& out);

/// AoS scalar-reference twin: same canonical 8-lane accumulation order over
/// FusedSample structs — bit-identical to gn2_lanes<W> for every W.
void gn2_ref(const FusedSample* s, std::size_t n, double x, double h,
             double gamma, double exponent, double c, GnSums2& out);

/// SoA lane kernel: residual pass at (x, h, gamma, exponent). Writes each
/// dB residual into resid[i] and returns the lane-reduced sum and sum of
/// squares.
template <std::size_t W>
void residual2_lanes(const double* p, const double* q, const double* rssi,
                     std::size_t n, double x, double h, double gamma,
                     double exponent, double* resid, double& sum, double& ss);

void residual2_ref(const FusedSample* s, std::size_t n, double x, double h,
                   double gamma, double exponent, double* resid, double& sum,
                   double& ss);

/// Centered second moment of a residual buffer about `mean` (the stddev
/// pass of ResidualStats), lane-accumulated.
template <std::size_t W>
double centered_m2_lanes(const double* resid, std::size_t n, double mean);

double centered_m2_ref(const double* resid, std::size_t n, double mean);

/// Residual sum under a trial (gamma_seed, exponent) model — the k == 1
/// per-segment Gamma initialization (mean residual offset).
template <std::size_t W>
double seed_sum_lanes(const double* p, const double* q, const double* rssi,
                      std::size_t n, double x, double h, double gamma,
                      double exponent);

double seed_sum_ref(const FusedSample* s, std::size_t n, double x, double h,
                    double gamma, double exponent);

// --- 2-D multi-segment element kernels (LocationSolver, k > 1) -------------

/// SoA element kernel for one Gauss-Newton iteration with one Gamma per
/// environment segment. For each i < n, with s = min(seg[i], k - 1),
/// dx = x + p[i], dy = h + q[i] and l2 = max(dx^2 + dy^2, kMinDistanceSq):
///
///   r[i]  = rssi[i] - predict_rssi_db(gammas[s], exponent, l2)
///   jx[i] = c * dx / l2        jy[i] = c * dy / l2
///
/// — the exact expressions of the solver's AoS multi-segment loop (not the
/// k == 1 kernel's `(c / l2) * dx`), so a caller that folds these outputs
/// in index order reproduces that loop's sums bit for bit. Nothing is
/// reduced here, so every W gives identical outputs.
template <std::size_t W>
void gn_seg_lanes(const double* p, const double* q, const double* rssi,
                  const int* seg, std::size_t n, double x, double h,
                  const double* gammas, int k, double exponent, double c,
                  double* jx, double* jy, double* r);

/// The residual column of gn_seg_lanes alone: r[i] as above. With k == 1
/// every sample reads gammas[0] (the trial Gamma of the segment seed).
template <std::size_t W>
void residual_seg_lanes(const double* p, const double* q, const double* rssi,
                        const int* seg, std::size_t n, double x, double h,
                        const double* gammas, int k, double exponent,
                        double* r);

// --- lockstep Gauss-Newton (LocationSolver's independent starts) -----------

/// Iterations of one dB-domain Gauss-Newton run.
inline constexpr int kGnIterations = 12;

/// Up to kAccLanes independent runs of LocationSolver's dB-domain
/// Gauss-Newton over one sample set, each at its own exponent from its own
/// start. A run refines (x, h, Gamma_1..Gamma_k) at its fixed exponent,
/// minimizing the dB-domain residual — the maximum-likelihood objective
/// under Gaussian RSS noise, with one power offset per environment segment
/// (the paper's Gamma(e)). Run j < runs reads and writes (x[j], h[j]) and its k Gammas
/// gammas[j * k .. j * k + k - 1]; seeding also reads gamma_seed[j].
///
/// One run, whatever its batch, lane or width:
///
///   - seed: Gamma_s = clamp(gamma_seed + mean residual of segment s's
///     samples under (x, h, gamma_seed, exponent)), s = min(seg, k - 1) —
///     the k == 1 sum is seed_sum_lanes', the k > 1 sums are index-order
///     folds;
///   - refine: kGnIterations steps of the normal equations (the k == 1
///     sums of gn2_lanes, the k > 1 sums of gn_seg_lanes' outputs folded in
///     index order), Levenberg damping 0.1 on the first three, a 1e-9
///     ridge, solved by solve_linear_flat's arithmetic; x and h move
///     freely, Gammas are clamped into [gamma_min, gamma_max]. A run stops
///     when its system is singular (no step taken) or after a step whose
///     L1 norm is below 1e-6.
struct GnBatch {
    std::size_t runs{0};
    std::size_t k{1};
    double gamma_min{0.0}, gamma_max{0.0};
    double exponent[kAccLanes]{};
    double x[kAccLanes]{}, h[kAccLanes]{};
    double gamma_seed[kAccLanes]{};
    double* gammas{nullptr};  ///< runs * k entries, run-major
};

/// Doubles of scratch the lockstep kernels and their references need at k
/// Gamma segments (a caller-owned buffer, so solves stay allocation-free).
std::size_t lockstep_scratch_size(std::size_t k);

/// The lockstep executor: every run of `batch` advances together. With
/// k == 1 the samples stay in the 8 logical lanes and each block step
/// loops over the runs, each keeping its own 8-lane partials; with k > 1
/// the runs ride the lanes and the samples go in index order. Per
/// iteration the live runs' normal equations are solved lane-parallel by
/// solve_lanes' arithmetic; runs that stopped leave the sweep.
template <std::size_t W>
void seed_lockstep(const double* p, const double* q, const double* rssi,
                   const int* seg, std::size_t n, GnBatch& batch, double* scratch);
template <std::size_t W>
void gn_lockstep(const double* p, const double* q, const double* rssi,
                 const int* seg, std::size_t n, GnBatch& batch, double* scratch);

/// AoS scalar-reference twins: each run alone, one after another, with the
/// `*_ref` sums and locble::solve_linear_flat — the oracle the lockstep
/// executor matches bit for bit.
void seed_lockstep_ref(const FusedSample* s, std::size_t n, GnBatch& batch,
                       double* scratch);
void gn_lockstep_ref(const FusedSample* s, std::size_t n, GnBatch& batch,
                     double* scratch);

/// locble::solve_linear_flat on each of the kAccLanes lanes: lane j's
/// dim x dim system is a[(r * dim + c) * kAccLanes + j] with right-hand side
/// b[r * kAccLanes + j]; its solution goes to x[r * kAccLanes + j] and
/// ok[j] is solve_linear_flat's return value. a and b are overwritten.
/// The executor's per-iteration solve, exposed for the property tests.
template <std::size_t W>
void solve_lanes(double* a, double* b, double* x, std::size_t dim,
                 bool (&ok)[kAccLanes]);

// The lane kernels are instantiated once, in solver_kernels.cpp, for every
// contract width — the library hot path links kLaneWidth, the W-sweep
// property tests link all four.
#define LOCBLE_KERNELS_EXTERN(W)                                                 \
    extern template void gn2_lanes<W>(const double*, const double*,              \
                                      const double*, std::size_t, double,        \
                                      double, double, double, double, GnSums2&); \
    extern template void residual2_lanes<W>(                                     \
        const double*, const double*, const double*, std::size_t, double,        \
        double, double, double, double*, double&, double&);                      \
    extern template double centered_m2_lanes<W>(const double*, std::size_t,      \
                                                double);                         \
    extern template double seed_sum_lanes<W>(const double*, const double*,       \
                                             const double*, std::size_t, double, \
                                             double, double, double);            \
    extern template void gn_seg_lanes<W>(                                        \
        const double*, const double*, const double*, const int*, std::size_t,    \
        double, double, const double*, int, double, double, double*, double*,    \
        double*);                                                                \
    extern template void residual_seg_lanes<W>(                                  \
        const double*, const double*, const double*, const int*, std::size_t,    \
        double, double, const double*, int, double, double*);                    \
    extern template void seed_lockstep<W>(const double*, const double*,          \
                                          const double*, const int*,             \
                                          std::size_t, GnBatch&, double*);       \
    extern template void gn_lockstep<W>(const double*, const double*,            \
                                        const double*, const int*, std::size_t,  \
                                        GnBatch&, double*);                      \
    extern template void solve_lanes<W>(double*, double*, double*, std::size_t,  \
                                        bool (&)[kAccLanes]);

LOCBLE_KERNELS_EXTERN(1)
LOCBLE_KERNELS_EXTERN(2)
LOCBLE_KERNELS_EXTERN(4)
LOCBLE_KERNELS_EXTERN(8)
#undef LOCBLE_KERNELS_EXTERN

}  // namespace kernels
}  // namespace locble::core
