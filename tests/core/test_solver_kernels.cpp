#include "locble/core/solver_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "locble/common/linalg.hpp"
#include "locble/common/rng.hpp"
#include "locble/core/location_solver.hpp"

// Property tests of the lane-width determinism contract
// (solver_kernels.hpp): the SoA pack mirrors the AoS stream exactly, every
// lane kernel is bit-identical to its scalar reference twin at every
// physical width, and whole solves are bit-identical across kernel modes
// and warm/cold sessions.

namespace locble::core {
namespace {

using kernels::GnSums2;
using KernelMode = LocationSolver::Config::KernelMode;

constexpr double kLn10 = 2.302585092994046;

// ---------------------------------------------------------------------------
// det_log10

TEST(DetLog10Test, ExactAtOne) {
    EXPECT_EQ(kernels::det_log10(1.0), 0.0);
}

TEST(DetLog10Test, MatchesLibmOverSolverRange) {
    // The solver evaluates log10 on squared distances clamped to
    // [kMinDistanceSq, ~max_range^2]; sweep well past both ends.
    double max_rel = 0.0;
    locble::Rng rng(7);
    for (int i = 0; i < 200000; ++i) {
        const double x = std::exp(rng.uniform(std::log(1e-4), std::log(1e8)));
        const double got = kernels::det_log10(x);
        const double want = std::log10(x);
        const double rel = std::abs(got - want) /
                           std::max(std::abs(want), 1e-30);
        max_rel = std::max(max_rel, rel);
    }
    EXPECT_LT(max_rel, 5e-15);
    // Spot-check exact powers of ten stay within 1 ulp-ish territory.
    EXPECT_NEAR(kernels::det_log10(10.0), 1.0, 1e-15);
    EXPECT_NEAR(kernels::det_log10(0.01), -2.0, 1e-14);
}

TEST(DetLog10Test, DeterministicAcrossCallSites) {
    // Same input, any call pattern -> same bits (pure function of x).
    locble::Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double x = std::exp(rng.uniform(std::log(0.01), std::log(1e4)));
        EXPECT_EQ(kernels::det_log10(x), kernels::det_log10(x));
    }
}

// ---------------------------------------------------------------------------
// SoA pack round-trip

std::vector<FusedSample> random_samples(std::size_t n, std::uint64_t seed,
                                        int segments = 1) {
    locble::Rng rng(seed);
    std::vector<FusedSample> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i].t = static_cast<double>(i) * 0.1;
        out[i].p = rng.uniform(-15.0, 15.0);
        out[i].q = rng.uniform(-15.0, 15.0);
        out[i].rssi = rng.uniform(-90.0, -40.0);
        out[i].segment =
            static_cast<int>(i * static_cast<std::size_t>(segments) / n);
    }
    return out;
}

void expect_pack_matches(const SolverWorkspace& ws,
                         const std::vector<FusedSample>& samples) {
    ASSERT_EQ(ws.packed_count(), samples.size());
    ASSERT_GE(ws.packed_p().size(), samples.size());
    ASSERT_GE(ws.packed_q().size(), samples.size());
    ASSERT_GE(ws.packed_rssi().size(), samples.size());
    ASSERT_GE(ws.packed_segment().size(), samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(ws.packed_p()[i], samples[i].p) << i;
        EXPECT_EQ(ws.packed_q()[i], samples[i].q) << i;
        EXPECT_EQ(ws.packed_rssi()[i], samples[i].rssi) << i;
        EXPECT_EQ(ws.packed_segment()[i], samples[i].segment) << i;
    }
}

TEST(SoaPackTest, ColdSolveRoundTripsAoS) {
    const auto samples = random_samples(97, 21, 3);
    SolverWorkspace ws;
    LocationFit out;
    const LocationSolver solver;
    (void)solver.solve(samples, {}, nullptr, ws, out);  // fit may or may not converge
    expect_pack_matches(ws, samples);
}

TEST(SoaPackTest, IncrementalFlushesAppendExactly) {
    const auto all = random_samples(120, 22, 2);
    LocationSolver solver;
    LocationSolver::Session session(solver);
    std::vector<FusedSample> so_far;
    // Uneven batch sizes (>= min_samples so each flush actually solves),
    // including ones that are not multiples of the 8-lane block.
    const std::size_t cuts[] = {9, 30, 61, 120};
    std::size_t pos = 0;
    for (std::size_t cut : cuts) {
        for (; pos < cut; ++pos) {
            session.add(all[pos]);
            so_far.push_back(all[pos]);
        }
        (void)session.solve();
        expect_pack_matches(session.workspace(), so_far);
    }
}

TEST(SoaPackTest, ResetThenRefillRepacks) {
    const auto a = random_samples(40, 23);
    const auto b = random_samples(33, 24);
    LocationSolver solver;
    LocationSolver::Session session(solver);
    session.add(a);
    (void)session.solve();
    session.reset();
    session.add(b);
    (void)session.solve();
    expect_pack_matches(session.workspace(), b);
}

// ---------------------------------------------------------------------------
// W-sweep: lane kernels bit-identical to the scalar reference at every
// physical width, for counts with and without tails.

struct Problem2 {
    std::vector<FusedSample> aos;
    std::vector<double> p, q, rssi;
    double x, h, gamma, exponent, c;

    Problem2(std::size_t n, std::uint64_t seed) {
        locble::Rng rng(seed);
        aos = random_samples(n, seed ^ 0x9e3779b9ULL);
        p.resize(n);
        q.resize(n);
        rssi.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            p[i] = aos[i].p;
            q[i] = aos[i].q;
            rssi[i] = aos[i].rssi;
        }
        x = rng.uniform(-10.0, 10.0);
        h = rng.uniform(-10.0, 10.0);
        gamma = rng.uniform(-80.0, -40.0);
        exponent = rng.uniform(1.5, 4.0);
        c = -10.0 * exponent / kLn10;
    }
};

template <std::size_t W>
void check_width_2d(const Problem2& pr) {
    const std::size_t n = pr.aos.size();
    SCOPED_TRACE(::testing::Message() << "W=" << W << " n=" << n);

    GnSums2 ref{}, got{};
    kernels::gn2_ref(pr.aos.data(), n, pr.x, pr.h, pr.gamma, pr.exponent, pr.c,
                     ref);
    kernels::gn2_lanes<W>(pr.p.data(), pr.q.data(), pr.rssi.data(), n, pr.x,
                          pr.h, pr.gamma, pr.exponent, pr.c, got);
    EXPECT_EQ(got.a00, ref.a00);
    EXPECT_EQ(got.a01, ref.a01);
    EXPECT_EQ(got.a02, ref.a02);
    EXPECT_EQ(got.a11, ref.a11);
    EXPECT_EQ(got.a12, ref.a12);
    EXPECT_EQ(got.a22, ref.a22);
    EXPECT_EQ(got.r0, ref.r0);
    EXPECT_EQ(got.r1, ref.r1);
    EXPECT_EQ(got.r2, ref.r2);
    // The Gamma-column diagonal is a sum of exact ones.
    EXPECT_EQ(got.a22, static_cast<double>(n));

    std::vector<double> resid_ref(n), resid_got(n);
    double sum_ref = 0.0, ss_ref = 0.0, sum_got = 0.0, ss_got = 0.0;
    kernels::residual2_ref(pr.aos.data(), n, pr.x, pr.h, pr.gamma, pr.exponent,
                           resid_ref.data(), sum_ref, ss_ref);
    kernels::residual2_lanes<W>(pr.p.data(), pr.q.data(), pr.rssi.data(), n,
                                pr.x, pr.h, pr.gamma, pr.exponent,
                                resid_got.data(), sum_got, ss_got);
    EXPECT_EQ(sum_got, sum_ref);
    EXPECT_EQ(ss_got, ss_ref);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(resid_got[i], resid_ref[i]);

    const double mean = sum_ref / static_cast<double>(n);
    EXPECT_EQ(kernels::centered_m2_lanes<W>(resid_got.data(), n, mean),
              kernels::centered_m2_ref(resid_ref.data(), n, mean));

    EXPECT_EQ(kernels::seed_sum_lanes<W>(pr.p.data(), pr.q.data(),
                                         pr.rssi.data(), n, pr.x, pr.h,
                                         pr.gamma, pr.exponent),
              kernels::seed_sum_ref(pr.aos.data(), n, pr.x, pr.h, pr.gamma,
                                    pr.exponent));
}

TEST(LaneContractTest, Kernels2DBitIdenticalAcrossWidths) {
    // Counts straddling the 8-lane block: empty tails, full tails, single
    // elements, and larger sizes.
    const std::size_t counts[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100, 257};
    std::uint64_t seed = 100;
    for (std::size_t n : counts) {
        const Problem2 pr(n, seed++);
        check_width_2d<1>(pr);
        check_width_2d<2>(pr);
        check_width_2d<4>(pr);
        check_width_2d<8>(pr);
    }
}

/// Bitwise equality, except that any NaN equals any NaN.
bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
           (std::isnan(a) && std::isnan(b));
}

// Multi-segment element kernels (k > 1): every output against the solver
// AoS loop's scalar expressions, at every width.

struct ProblemSeg {
    std::vector<double> p, q, rssi;
    std::vector<int> seg;
    double gammas[3];
    double x, h, exponent, c;

    ProblemSeg(std::size_t n, std::uint64_t seed) {
        locble::Rng rng(seed);
        const auto aos = random_samples(n, seed ^ 0x5bd1e995ULL);
        for (const auto& s : aos) {
            p.push_back(s.p);
            q.push_back(s.q);
            rssi.push_back(s.rssi);
            // Ids up to k + 1 with k == 3, so some hit the min(seg, k - 1)
            // clamp.
            seg.push_back(static_cast<int>(rng.uniform(0.0, 4.999)));
        }
        for (double& g : gammas) g = rng.uniform(-80.0, -40.0);
        x = rng.uniform(-10.0, 10.0);
        h = rng.uniform(-10.0, 10.0);
        exponent = rng.uniform(1.5, 4.0);
        c = -10.0 * exponent / kLn10;
    }
};

template <std::size_t W>
void check_width_seg(const ProblemSeg& pr) {
    const std::size_t n = pr.p.size();
    SCOPED_TRACE(::testing::Message() << "W=" << W << " n=" << n);
    constexpr double kSentinel = -1234.5;
    // Outputs carry one spare block past n: a tail block must not write it.
    std::vector<double> jx(n + 8, kSentinel), jy(n + 8, kSentinel),
        r(n + 8, kSentinel), r_only(n + 8, kSentinel), r_seed(n + 8, kSentinel);
    const int k = 3;
    kernels::gn_seg_lanes<W>(pr.p.data(), pr.q.data(), pr.rssi.data(),
                             pr.seg.data(), n, pr.x, pr.h, pr.gammas, k,
                             pr.exponent, pr.c, jx.data(), jy.data(), r.data());
    kernels::residual_seg_lanes<W>(pr.p.data(), pr.q.data(), pr.rssi.data(),
                                   pr.seg.data(), n, pr.x, pr.h, pr.gammas, k,
                                   pr.exponent, r_only.data());
    // The segment seed's form: a one-entry Gamma table.
    kernels::residual_seg_lanes<W>(pr.p.data(), pr.q.data(), pr.rssi.data(),
                                   pr.seg.data(), n, pr.x, pr.h, pr.gammas, 1,
                                   pr.exponent, r_seed.data());
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = pr.x + pr.p[i];
        const double dy = pr.h + pr.q[i];
        const double l2 = std::max(dx * dx + dy * dy, kMinDistanceSq);
        const double g = pr.gammas[std::min(pr.seg[i], k - 1)];
        const double want_r = pr.rssi[i] - predict_rssi_db(g, pr.exponent, l2);
        EXPECT_TRUE(same_bits(r[i], want_r)) << i;
        EXPECT_TRUE(same_bits(jx[i], pr.c * dx / l2)) << i;
        EXPECT_TRUE(same_bits(jy[i], pr.c * dy / l2)) << i;
        EXPECT_TRUE(same_bits(r_only[i], want_r)) << i;
        const double want_seed =
            pr.rssi[i] - predict_rssi_db(pr.gammas[0], pr.exponent,
                                         dx * dx + dy * dy);
        EXPECT_TRUE(same_bits(r_seed[i], want_seed)) << i;
    }
    for (std::size_t i = n; i < n + 8; ++i) {
        EXPECT_EQ(jx[i], kSentinel) << i;
        EXPECT_EQ(jy[i], kSentinel) << i;
        EXPECT_EQ(r[i], kSentinel) << i;
        EXPECT_EQ(r_only[i], kSentinel) << i;
        EXPECT_EQ(r_seed[i], kSentinel) << i;
    }
}

TEST(LaneContractTest, MultiSegmentKernelsMatchScalarExpressionsAcrossWidths) {
    std::vector<std::size_t> counts;
    for (std::size_t n = 1; n <= 17; ++n) counts.push_back(n);
    counts.push_back(64);
    counts.push_back(257);
    std::uint64_t seed = 500;
    for (std::size_t n : counts) {
        const ProblemSeg pr(n, seed++);
        check_width_seg<1>(pr);
        check_width_seg<2>(pr);
        check_width_seg<4>(pr);
        check_width_seg<8>(pr);
    }
}

// Non-finite input in the n % 8 tail: the lane kernels must give the
// reference's values (NaN equal to NaN) however p, q or rssi is poisoned,
// and memory past n — poisoned too — must never reach an accumulator.

void expect_same_2d(const Problem2& pr, std::size_t n, GnSums2 got,
                    const std::vector<double>& resid_got, double sum_got,
                    double ss_got, double m2_got, double seed_got) {
    GnSums2 ref{};
    kernels::gn2_ref(pr.aos.data(), n, pr.x, pr.h, pr.gamma, pr.exponent, pr.c,
                     ref);
    EXPECT_TRUE(same_bits(got.a00, ref.a00));
    EXPECT_TRUE(same_bits(got.a01, ref.a01));
    EXPECT_TRUE(same_bits(got.a02, ref.a02));
    EXPECT_TRUE(same_bits(got.a11, ref.a11));
    EXPECT_TRUE(same_bits(got.a12, ref.a12));
    EXPECT_TRUE(same_bits(got.a22, ref.a22));
    EXPECT_TRUE(same_bits(got.r0, ref.r0));
    EXPECT_TRUE(same_bits(got.r1, ref.r1));
    EXPECT_TRUE(same_bits(got.r2, ref.r2));
    std::vector<double> resid_ref(n);
    double sum_ref = 0.0, ss_ref = 0.0;
    kernels::residual2_ref(pr.aos.data(), n, pr.x, pr.h, pr.gamma, pr.exponent,
                           resid_ref.data(), sum_ref, ss_ref);
    EXPECT_TRUE(same_bits(sum_got, sum_ref));
    EXPECT_TRUE(same_bits(ss_got, ss_ref));
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(same_bits(resid_got[i], resid_ref[i])) << i;
    EXPECT_TRUE(same_bits(m2_got, kernels::centered_m2_ref(resid_ref.data(), n, 0.5)));
    EXPECT_TRUE(same_bits(seed_got, kernels::seed_sum_ref(pr.aos.data(), n, pr.x,
                                                          pr.h, pr.gamma,
                                                          pr.exponent)));
}

template <std::size_t W>
void check_nonfinite_tail(const Problem2& pr, std::size_t n) {
    SCOPED_TRACE(::testing::Message() << "W=" << W << " n=" << n);
    GnSums2 got{};
    kernels::gn2_lanes<W>(pr.p.data(), pr.q.data(), pr.rssi.data(), n, pr.x,
                          pr.h, pr.gamma, pr.exponent, pr.c, got);
    std::vector<double> resid(n);
    double sum = 0.0, ss = 0.0;
    kernels::residual2_lanes<W>(pr.p.data(), pr.q.data(), pr.rssi.data(), n,
                                pr.x, pr.h, pr.gamma, pr.exponent, resid.data(),
                                sum, ss);
    const double m2 = kernels::centered_m2_lanes<W>(resid.data(), n, 0.5);
    const double seed = kernels::seed_sum_lanes<W>(
        pr.p.data(), pr.q.data(), pr.rssi.data(), n, pr.x, pr.h, pr.gamma,
        pr.exponent);
    expect_same_2d(pr, n, got, resid, sum, ss, m2, seed);
}

TEST(LaneContractTest, NonFiniteTailsMatchReferenceAndSpareInactiveLanes) {
    const double kPoison[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
    std::uint64_t seed = 700;
    for (const std::size_t n : {1u, 3u, 5u, 7u, 9u, 12u, 15u, 23u}) {
        for (const double v : kPoison) {
            for (int field = 0; field < 3; ++field) {
                SCOPED_TRACE(::testing::Message()
                             << "poison " << v << " in field " << field);
                // The arrays hold one spare block past n, poisoned in every
                // field: the kernels see n elements and must match the
                // reference over those n exactly.
                Problem2 pr(n + kernels::kAccLanes, seed++);
                for (std::size_t i = n; i < pr.aos.size(); ++i) {
                    pr.p[i] = pr.q[i] = pr.rssi[i] = v;
                    pr.aos[i].p = pr.aos[i].q = pr.aos[i].rssi = v;
                }
                check_nonfinite_tail<1>(pr, n);
                check_nonfinite_tail<2>(pr, n);
                check_nonfinite_tail<4>(pr, n);
                check_nonfinite_tail<8>(pr, n);
                // Now poison the last active element too (a tail lane).
                double* col = field == 0 ? pr.p.data()
                              : field == 1 ? pr.q.data()
                                           : pr.rssi.data();
                col[n - 1] = v;
                auto& s = pr.aos[n - 1];
                (field == 0 ? s.p : field == 1 ? s.q : s.rssi) = v;
                check_nonfinite_tail<1>(pr, n);
                check_nonfinite_tail<2>(pr, n);
                check_nonfinite_tail<4>(pr, n);
                check_nonfinite_tail<8>(pr, n);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lockstep Gauss-Newton: every run of a batch, at every width and batch
// size, equals the same run taken alone through the scalar reference.

/// Samples of the k-segment path-loss model around a target, with segment
/// ids up to k (the last ones clamp into k - 1), noiseless or noisy.
std::vector<FusedSample> lockstep_samples(std::size_t n, std::size_t k, bool noisy,
                                          std::uint64_t seed) {
    locble::Rng rng(seed);
    std::vector<FusedSample> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto& s = out[i];
        s.p = rng.uniform(-8.0, 8.0);
        s.q = rng.uniform(-8.0, 8.0);
        s.segment = static_cast<int>(i * (k + 1) / n);
        const double dx = 3.0 + s.p, dy = 2.0 + s.q;
        s.rssi = -59.0 - 3.0 * s.segment -
                 5.0 * 2.4 * std::log10(std::max(dx * dx + dy * dy, 0.01)) +
                 (noisy ? rng.gaussian(0.0, 2.0) : 0.0);
    }
    return out;
}

template <std::size_t W>
void check_lockstep(const std::vector<FusedSample>& aos, std::size_t k,
                    std::size_t runs, std::uint64_t seed) {
    const std::size_t n = aos.size();
    SCOPED_TRACE(::testing::Message() << "W=" << W << " n=" << n << " k=" << k
                                      << " runs=" << runs);
    std::vector<double> p, q, rssi;
    std::vector<int> seg;
    for (const auto& s : aos) {
        p.push_back(s.p);
        q.push_back(s.q);
        rssi.push_back(s.rssi);
        seg.push_back(s.segment);
    }
    locble::Rng rng(seed);
    kernels::GnBatch batch;
    batch.runs = runs;
    batch.k = k;
    batch.gamma_min = -90.0;
    batch.gamma_max = -30.0;
    for (std::size_t j = 0; j < runs; ++j) {
        // Distinct exponents. Every third run starts at the model's target
        // with the model's exponent (it stops early on the step test with
        // noiseless samples); one run of a larger batch starts at NaN.
        const bool at_target = j % 3 == 0;
        batch.exponent[j] =
            at_target ? 2.4 : rng.uniform(1.5, 4.0) + 1e-3 * static_cast<double>(j);
        batch.x[j] = at_target ? 3.0 : rng.uniform(-10.0, 10.0);
        batch.h[j] = at_target ? 2.0 : rng.uniform(-10.0, 10.0);
        batch.gamma_seed[j] = at_target ? -59.0 : rng.uniform(-80.0, -40.0);
        if (runs >= 5 && j == runs - 1)
            batch.x[j] = std::numeric_limits<double>::quiet_NaN();
    }
    std::vector<double> gammas(runs * k), scratch(kernels::lockstep_scratch_size(k));
    batch.gammas = gammas.data();

    // The serial oracle: each run alone in a batch of one, via the AoS twins.
    std::vector<double> want_gammas(runs * k);
    double want_x[kernels::kAccLanes], want_h[kernels::kAccLanes];
    std::vector<double> seeded(runs * k);
    for (std::size_t j = 0; j < runs; ++j) {
        kernels::GnBatch one;
        one.runs = 1;
        one.k = k;
        one.gamma_min = batch.gamma_min;
        one.gamma_max = batch.gamma_max;
        one.exponent[0] = batch.exponent[j];
        one.x[0] = batch.x[j];
        one.h[0] = batch.h[j];
        one.gamma_seed[0] = batch.gamma_seed[j];
        one.gammas = want_gammas.data() + j * k;
        kernels::seed_lockstep_ref(aos.data(), n, one, scratch.data());
        std::copy_n(one.gammas, k, seeded.data() + j * k);
        kernels::gn_lockstep_ref(aos.data(), n, one, scratch.data());
        want_x[j] = one.x[0];
        want_h[j] = one.h[0];
    }

    kernels::seed_lockstep<W>(p.data(), q.data(), rssi.data(), seg.data(), n, batch,
                              scratch.data());
    for (std::size_t i = 0; i < runs * k; ++i)
        EXPECT_TRUE(same_bits(gammas[i], seeded[i])) << "seed, run " << i / k;
    kernels::gn_lockstep<W>(p.data(), q.data(), rssi.data(), seg.data(), n, batch,
                            scratch.data());
    for (std::size_t j = 0; j < runs; ++j) {
        EXPECT_TRUE(same_bits(batch.x[j], want_x[j])) << "run " << j;
        EXPECT_TRUE(same_bits(batch.h[j], want_h[j])) << "run " << j;
        for (std::size_t s = 0; s < k; ++s)
            EXPECT_TRUE(same_bits(gammas[j * k + s], want_gammas[j * k + s]))
                << "run " << j << " gamma " << s;
    }
}

TEST(LaneContractTest, LockstepRunsMatchSerialRunsAcrossWidths) {
    std::vector<std::size_t> counts;
    for (std::size_t n = 1; n <= 17; ++n) counts.push_back(n);
    for (const std::size_t n : {38u, 64u, 257u}) counts.push_back(n);
    std::uint64_t seed = 900;
    for (const std::size_t k : {1u, 2u, 3u, 4u}) {
        for (const std::size_t n : counts) {
            const auto aos = lockstep_samples(n, k, /*noisy=*/n % 2 == 0, seed++);
            for (std::size_t runs = 1; runs <= kernels::kAccLanes; ++runs) {
                check_lockstep<1>(aos, k, runs, seed);
                check_lockstep<2>(aos, k, runs, seed);
                check_lockstep<4>(aos, k, runs, seed);
                check_lockstep<8>(aos, k, runs, seed);
                ++seed;
            }
        }
    }
}

// The lane solve: each lane's ok flag, and its solution bits when ok, are
// solve_linear_flat's on that lane's system — random systems plus crafted
// pivots (below 1e-14, tied, a zero multiplier with signed zeros) and
// non-finite entries.

struct LaneSystems {
    std::size_t dim;
    std::vector<double> a, b;  // the solve_lanes layout

    explicit LaneSystems(std::size_t d)
        : dim(d), a(d * d * kernels::kAccLanes), b(d * kernels::kAccLanes) {}
    double& at(std::size_t lane, std::size_t r, std::size_t c) {
        return a[(r * dim + c) * kernels::kAccLanes + lane];
    }
    double& rhs(std::size_t lane, std::size_t r) {
        return b[r * kernels::kAccLanes + lane];
    }
};

template <std::size_t W>
void check_lane_solve(LaneSystems sys) {
    const std::size_t dim = sys.dim;
    SCOPED_TRACE(::testing::Message() << "W=" << W << " dim=" << dim);
    bool want_ok[kernels::kAccLanes];
    std::vector<double> want_x(dim * kernels::kAccLanes);
    for (std::size_t lane = 0; lane < kernels::kAccLanes; ++lane) {
        std::vector<double> a(dim * dim), b(dim), x(dim);
        for (std::size_t r = 0; r < dim; ++r) {
            b[r] = sys.rhs(lane, r);
            for (std::size_t c = 0; c < dim; ++c) a[r * dim + c] = sys.at(lane, r, c);
        }
        want_ok[lane] = locble::solve_linear_flat(a.data(), b.data(), x.data(), dim);
        for (std::size_t r = 0; r < dim; ++r)
            want_x[r * kernels::kAccLanes + lane] = x[r];
    }
    std::vector<double> x(dim * kernels::kAccLanes);
    bool ok[kernels::kAccLanes];
    kernels::solve_lanes<W>(sys.a.data(), sys.b.data(), x.data(), dim, ok);
    for (std::size_t lane = 0; lane < kernels::kAccLanes; ++lane) {
        EXPECT_EQ(ok[lane], want_ok[lane]) << "lane " << lane;
        if (!ok[lane] || !want_ok[lane]) continue;
        for (std::size_t r = 0; r < dim; ++r)
            EXPECT_TRUE(same_bits(x[r * kernels::kAccLanes + lane],
                                  want_x[r * kernels::kAccLanes + lane]))
                << "lane " << lane << " row " << r;
    }
}

void check_lane_solve_all_widths(const LaneSystems& sys) {
    check_lane_solve<1>(sys);
    check_lane_solve<2>(sys);
    check_lane_solve<4>(sys);
    check_lane_solve<8>(sys);
}

TEST(LaneContractTest, LaneSolveMatchesSolveLinearFlat) {
    locble::Rng rng(1234);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t dim = 3; dim <= 6; ++dim) {
        for (int round = 0; round < 40; ++round) {
            LaneSystems sys(dim);
            for (std::size_t lane = 0; lane < kernels::kAccLanes; ++lane) {
                // Even lanes: damped normal equations, as Gauss-Newton
                // builds them; odd lanes: general random systems.
                for (std::size_t r = 0; r < dim; ++r) {
                    sys.rhs(lane, r) = rng.uniform(-5.0, 5.0);
                    for (std::size_t c = 0; c < dim; ++c)
                        sys.at(lane, r, c) = rng.uniform(-3.0, 3.0);
                }
                if (lane % 2 == 0) {
                    for (std::size_t r = 0; r < dim; ++r) {
                        for (std::size_t c = 0; c < r; ++c)
                            sys.at(lane, r, c) = sys.at(lane, c, r);
                        sys.at(lane, r, r) = std::abs(sys.at(lane, r, r)) * 4.0 + 1e-9;
                    }
                }
            }
            // Crafted lanes, rotated through the lane positions.
            const auto lane = [&](std::size_t i) {
                return (i + static_cast<std::size_t>(round)) % kernels::kAccLanes;
            };
            switch (round % 5) {
                case 0: {
                    // A pivot below 1e-14: a tiny first column, and an
                    // exactly singular system (two equal rows).
                    for (std::size_t r = 0; r < dim; ++r) sys.at(lane(0), r, 0) = 3e-15;
                    for (std::size_t c = 0; c < dim; ++c)
                        sys.at(lane(1), 1, c) = sys.at(lane(1), 0, c);
                    break;
                }
                case 1: {
                    // Tied pivots: equal magnitudes, opposite signs, in the
                    // first column and again below the diagonal later on.
                    sys.at(lane(0), 0, 0) = 2.0;
                    sys.at(lane(0), 1, 0) = -2.0;
                    sys.at(lane(0), dim - 1, 0) = 2.0;
                    sys.at(lane(1), 0, 0) = 0.5;
                    for (std::size_t r = 1; r < dim; ++r) sys.at(lane(1), r, 0) = -0.5;
                    break;
                }
                case 2: {
                    // Zero multipliers: +0.0 and -0.0 below the pivot, rows
                    // holding -0.0 entries, and an inf in the pivot row that
                    // a row update would turn into NaN.
                    sys.at(lane(0), 0, 0) = 4.0;
                    sys.at(lane(0), 1, 0) = 0.0;
                    sys.at(lane(0), 2, 0) = -0.0;
                    sys.at(lane(0), 1, 2) = -0.0;
                    sys.at(lane(0), 2, 1) = -0.0;
                    sys.at(lane(0), 0, 1) = -1.5;
                    sys.at(lane(1), 0, 0) = 5.0;
                    sys.at(lane(1), 0, 2) = inf;
                    for (std::size_t r = 1; r < dim; ++r) sys.at(lane(1), r, 0) = -0.0;
                    sys.rhs(lane(1), 0) = 1.0;
                    break;
                }
                case 3: {
                    // Non-finite entries: an inf and a NaN, off and on the
                    // diagonal, and in the right-hand side.
                    sys.at(lane(0), 1, 2) = inf;
                    sys.at(lane(1), 2, 1) = nan;
                    sys.at(lane(2), 0, 0) = -inf;
                    sys.at(lane(3), dim - 1, dim - 1) = nan;
                    sys.rhs(lane(4), 1) = inf;
                    break;
                }
                default: {
                    // Scales far apart, so pivoting reorders the rows.
                    for (std::size_t c = 0; c < dim; ++c) {
                        sys.at(lane(0), dim - 1, c) *= 1e8;
                        sys.at(lane(1), 0, c) *= 1e-10;
                    }
                    break;
                }
            }
            check_lane_solve_all_widths(sys);
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end identity: whole solves agree bitwise across kernel modes.

std::vector<FusedSample> noisy_l_shape(std::uint64_t seed) {
    locble::Rng rng(seed);
    std::vector<FusedSample> out;
    double t = 0.0;
    auto add = [&](double ox, double oy) {
        FusedSample s;
        s.t = t;
        t += 0.1;
        s.p = 5.0 - ox;
        s.q = 2.5 - oy;
        const double l2 = s.p * s.p + s.q * s.q;
        s.rssi = -59.0 - 5.0 * 2.1 * std::log10(std::max(l2, 0.01)) +
                 rng.gaussian(0.0, 1.5);
        out.push_back(s);
    };
    // 45 points: not a multiple of the 8-lane block.
    for (int i = 0; i < 23; ++i) add(4.0 * i / 22.0, 0.0);
    for (int i = 0; i < 22; ++i) add(4.0, 3.0 * i / 21.0);
    return out;
}

void expect_fits_identical(const LocationFit& a, const LocationFit& b) {
    EXPECT_EQ(a.location.x, b.location.x);
    EXPECT_EQ(a.location.y, b.location.y);
    EXPECT_EQ(a.exponent, b.exponent);
    EXPECT_EQ(a.gamma_dbm, b.gamma_dbm);
    EXPECT_EQ(a.residual_db, b.residual_db);
    EXPECT_EQ(a.confidence, b.confidence);
    EXPECT_EQ(a.ambiguous, b.ambiguous);
    ASSERT_EQ(a.segment_gammas.size(), b.segment_gammas.size());
    for (std::size_t i = 0; i < a.segment_gammas.size(); ++i)
        EXPECT_EQ(a.segment_gammas[i], b.segment_gammas[i]);
}

TEST(KernelModeTest, ColdSolveBitIdenticalAcrossModes) {
    for (auto search : {LocationSolver::SearchMode::exhaustive,
                        LocationSolver::SearchMode::coarse_to_fine}) {
        const auto samples = noisy_l_shape(41);
        LocationSolver::Config lanes_cfg;
        lanes_cfg.search_mode = search;
        lanes_cfg.kernel_mode = KernelMode::lanes;
        LocationSolver::Config ref_cfg = lanes_cfg;
        ref_cfg.kernel_mode = KernelMode::scalar_reference;

        const auto fit_lanes = LocationSolver(lanes_cfg).solve(samples);
        const auto fit_ref = LocationSolver(ref_cfg).solve(samples);
        ASSERT_TRUE(fit_lanes.has_value());
        ASSERT_TRUE(fit_ref.has_value());
        expect_fits_identical(*fit_lanes, *fit_ref);
    }
}

/// The L-walk cut into `segments` Gamma segments with nondecreasing ids, as
/// core::BatchLoop assigns them, each segment a few dB weaker (a blockage).
std::vector<FusedSample> noisy_segmented_walk(std::uint64_t seed, int segments) {
    auto out = noisy_l_shape(seed);
    const std::size_t n = out.size();
    for (std::size_t i = 0; i < n; ++i) {
        const int seg = static_cast<int>(i * static_cast<std::size_t>(segments) / n);
        out[i].segment = seg;
        out[i].rssi -= 4.0 * seg;
    }
    return out;
}

TEST(KernelModeTest, MultiSegmentBitIdenticalAcrossModes) {
    // k > 1 runs the multi-segment element kernels and their in-order fold
    // in lanes mode and the AoS loops in scalar_reference: cold solves and
    // every Session flush (segments appear between flushes) must agree.
    for (int segments : {2, 3, 4}) {
        for (auto search : {LocationSolver::SearchMode::exhaustive,
                            LocationSolver::SearchMode::coarse_to_fine}) {
            SCOPED_TRACE(::testing::Message()
                         << segments << " segments, search mode "
                         << static_cast<int>(search));
            const auto samples =
                noisy_segmented_walk(60 + static_cast<std::uint64_t>(segments),
                                     segments);
            LocationSolver::Config lanes_cfg;
            lanes_cfg.search_mode = search;
            lanes_cfg.kernel_mode = KernelMode::lanes;
            LocationSolver::Config ref_cfg = lanes_cfg;
            ref_cfg.kernel_mode = KernelMode::scalar_reference;
            const LocationSolver lanes(lanes_cfg), ref(ref_cfg);

            const auto cold_lanes = lanes.solve(samples);
            const auto cold_ref = ref.solve(samples);
            ASSERT_TRUE(cold_lanes.has_value());
            ASSERT_TRUE(cold_ref.has_value());
            ASSERT_EQ(cold_lanes->segment_gammas.size(),
                      static_cast<std::size_t>(segments));
            expect_fits_identical(*cold_lanes, *cold_ref);

            LocationSolver::Session s_lanes(lanes), s_ref(ref);
            const std::size_t cuts[] = {11, 27, samples.size()};
            std::size_t pos = 0;
            for (std::size_t cut : cuts) {
                for (; pos < cut; ++pos) {
                    s_lanes.add(samples[pos]);
                    s_ref.add(samples[pos]);
                }
                const auto warm_lanes = s_lanes.solve();
                const auto warm_ref = s_ref.solve();
                ASSERT_EQ(warm_lanes.has_value(), warm_ref.has_value()) << cut;
                if (warm_lanes) expect_fits_identical(*warm_lanes, *warm_ref);
            }
        }
    }
}

/// A walk whose linear seed often fails, so grid points fall back to the
/// eight bearings: short and noisy beside the target, either straight
/// (1-D, the ambiguous model) or barely bent, cut into `segments` Gamma
/// segments with nondecreasing ids.
std::vector<FusedSample> weak_walk(std::uint64_t seed, bool one_d, int segments) {
    locble::Rng rng(seed);
    std::vector<FusedSample> out;
    const int n = 40;
    for (int i = 0; i < n; ++i) {
        FusedSample s;
        s.t = 0.1 * i;
        const double ox = 3.0 * i / (n - 1.0);
        const double oy = one_d ? 0.0 : 0.4 * std::max(0.0, (i - 25) / 14.0);
        s.p = 2.0 - ox;
        s.q = 5.0 - oy;
        s.segment = i * segments / n;
        const double l2 = s.p * s.p + s.q * s.q;
        s.rssi = -59.0 - 4.0 * s.segment - 5.0 * 2.6 * std::log10(l2) +
                 rng.gaussian(0.0, 4.0);
        out.push_back(s);
    }
    return out;
}

void expect_diagnostics_identical(const SolveDiagnostics& a, const SolveDiagnostics& b) {
    EXPECT_EQ(a.exponent_candidates, b.exponent_candidates);
    EXPECT_EQ(a.candidate_failures, b.candidate_failures);
    EXPECT_EQ(a.multistart_runs, b.multistart_runs);
    EXPECT_EQ(a.warm_starts, b.warm_starts);
    EXPECT_EQ(a.converged, b.converged);
}

TEST(KernelModeTest, MultistartHeavySolvesBitIdenticalAcrossModes) {
    // Most grid points of these solves run the bearings, so the lockstep
    // batches are full and runs stop at different iterations: lanes mode
    // must still equal scalar_reference, fits and diagnostics, cold and
    // over Session flushes, in both search modes.
    int multistarts = 0;
    std::uint64_t seed = 80;
    for (const bool one_d : {true, false}) {
        for (int segments = 1; segments <= 4; ++segments) {
            for (auto search : {LocationSolver::SearchMode::exhaustive,
                                LocationSolver::SearchMode::coarse_to_fine}) {
                SCOPED_TRACE(::testing::Message()
                             << (one_d ? "1-D" : "bent") << ", " << segments
                             << " segments, search mode " << static_cast<int>(search));
                const auto samples = weak_walk(seed++, one_d, segments);
                LocationSolver::Config lanes_cfg;
                lanes_cfg.search_mode = search;
                lanes_cfg.kernel_mode = KernelMode::lanes;
                LocationSolver::Config ref_cfg = lanes_cfg;
                ref_cfg.kernel_mode = KernelMode::scalar_reference;
                const LocationSolver lanes(lanes_cfg), ref(ref_cfg);

                SolveDiagnostics d_lanes, d_ref;
                const auto cold_lanes = lanes.solve(samples, {}, &d_lanes);
                const auto cold_ref = ref.solve(samples, {}, &d_ref);
                expect_diagnostics_identical(d_lanes, d_ref);
                multistarts += d_lanes.multistart_runs;
                ASSERT_EQ(cold_lanes.has_value(), cold_ref.has_value());
                if (cold_lanes) expect_fits_identical(*cold_lanes, *cold_ref);

                LocationSolver::Session s_lanes(lanes), s_ref(ref);
                const std::size_t cuts[] = {9, 17, 26, samples.size()};
                std::size_t pos = 0;
                for (std::size_t cut : cuts) {
                    for (; pos < cut; ++pos) {
                        s_lanes.add(samples[pos]);
                        s_ref.add(samples[pos]);
                    }
                    const auto warm_lanes = s_lanes.solve({}, &d_lanes);
                    const auto warm_ref = s_ref.solve({}, &d_ref);
                    expect_diagnostics_identical(d_lanes, d_ref);
                    multistarts += d_lanes.multistart_runs;
                    ASSERT_EQ(warm_lanes.has_value(), warm_ref.has_value()) << cut;
                    if (warm_lanes) expect_fits_identical(*warm_lanes, *warm_ref);
                }
            }
        }
    }
    // The walks did force the fallback, many times over.
    EXPECT_GT(multistarts, 500);
}

TEST(KernelModeTest, SessionWarmBitIdenticalToColdInBothModes) {
    // Exhaustive-mode contract: a warm Session solve equals a cold solve
    // over the same accumulated samples — and both equal the other kernel
    // mode's result.
    const auto all = noisy_l_shape(47);
    std::optional<LocationFit> results[2];
    int idx = 0;
    for (auto mode : {KernelMode::lanes, KernelMode::scalar_reference}) {
        LocationSolver::Config cfg;
        cfg.search_mode = LocationSolver::SearchMode::exhaustive;
        cfg.kernel_mode = mode;
        const LocationSolver solver(cfg);

        LocationSolver::Session session(solver);
        std::optional<LocationFit> warm;
        const std::size_t cuts[] = {11, 27, all.size()};
        std::size_t pos = 0;
        for (std::size_t cut : cuts) {
            for (; pos < cut; ++pos) session.add(all[pos]);
            warm = session.solve();
        }
        const auto cold = solver.solve(all);
        ASSERT_TRUE(warm.has_value());
        ASSERT_TRUE(cold.has_value());
        expect_fits_identical(*warm, *cold);
        results[idx++] = warm;
    }
    expect_fits_identical(*results[0], *results[1]);
}

}  // namespace
}  // namespace locble::core
