#include "locble/core/location_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <numbers>

#include "locble/common/rng.hpp"
#include "locble/common/vec2.hpp"

namespace locble::core {
namespace {

using locble::Vec2;

/// Generate noiseless samples for a stationary target at `target` while the
/// observer walks an L-shape (leg1 along +x, leg2 along +y), under the
/// model RS = gamma - 10 n log10(l).
std::vector<FusedSample> l_shape_samples(const Vec2& target, double gamma, double n,
                                         double leg1 = 4.0, double leg2 = 3.0,
                                         int points_per_leg = 20,
                                         double noise_db = 0.0,
                                         std::uint64_t seed = 1) {
    locble::Rng rng(seed);
    std::vector<FusedSample> out;
    auto add = [&](const Vec2& obs, double t) {
        FusedSample s;
        s.t = t;
        s.p = -obs.x;  // stationary target: p = -a_i
        s.q = -obs.y;
        const double l = locble::Vec2::distance(target, obs);
        s.rssi = gamma - 10.0 * n * std::log10(std::max(l, 0.1)) +
                 (noise_db > 0.0 ? rng.gaussian(0.0, noise_db) : 0.0);
        out.push_back(s);
    };
    double t = 0.0;
    for (int i = 0; i < points_per_leg; ++i, t += 0.1)
        add({leg1 * i / (points_per_leg - 1.0), 0.0}, t);
    for (int i = 0; i < points_per_leg; ++i, t += 0.1)
        add({leg1, leg2 * i / (points_per_leg - 1.0)}, t);
    return out;
}

TEST(LocationSolverTest, ExactRecoveryOnCleanLShape) {
    const Vec2 target{5.0, 2.0};
    const auto samples = l_shape_samples(target, -59.0, 2.0);
    const auto fit = LocationSolver().solve(samples);
    ASSERT_TRUE(fit.has_value());
    EXPECT_FALSE(fit->ambiguous);
    EXPECT_NEAR(fit->location.x, 5.0, 0.1);
    EXPECT_NEAR(fit->location.y, 2.0, 0.1);
    EXPECT_NEAR(fit->exponent, 2.0, 0.1);
    EXPECT_NEAR(fit->gamma_dbm, -59.0, 1.0);
    EXPECT_LT(fit->residual_db, 0.2);
    EXPECT_GT(fit->confidence, 0.9);
}

TEST(LocationSolverTest, RecoversNegativeH) {
    const Vec2 target{4.0, -3.0};
    const auto samples = l_shape_samples(target, -59.0, 2.0);
    const auto fit = LocationSolver().solve(samples);
    ASSERT_TRUE(fit.has_value());
    EXPECT_NEAR(fit->location.y, -3.0, 0.2);
}

TEST(LocationSolverTest, RecoversVariousExponents) {
    for (double n : {1.8, 2.4, 3.0, 3.6}) {
        const Vec2 target{6.0, 3.0};
        const auto samples = l_shape_samples(target, -62.0, n);
        const auto fit = LocationSolver().solve(samples);
        ASSERT_TRUE(fit.has_value()) << "n=" << n;
        EXPECT_NEAR(fit->exponent, n, 0.15) << "n=" << n;
        EXPECT_NEAR(fit->location.x, 6.0, 0.3) << "n=" << n;
        EXPECT_NEAR(fit->location.y, 3.0, 0.3) << "n=" << n;
    }
}

TEST(LocationSolverTest, RobustToModerateNoise) {
    const Vec2 target{5.0, 3.0};
    double total_err = 0.0;
    int runs = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto samples =
            l_shape_samples(target, -59.0, 2.0, 4.0, 3.0, 25, 1.5, seed);
        const auto fit = LocationSolver().solve(samples);
        ASSERT_TRUE(fit.has_value());
        total_err += locble::Vec2::distance(fit->location, target);
        ++runs;
    }
    EXPECT_LT(total_err / runs, 1.5);
}

TEST(LocationSolverTest, StraightWalkIsAmbiguous) {
    const Vec2 target{5.0, 3.0};
    std::vector<FusedSample> samples;
    for (int i = 0; i < 40; ++i) {
        const Vec2 obs{0.15 * i, 0.0};
        FusedSample s;
        s.t = 0.1 * i;
        s.p = -obs.x;
        s.q = 0.0;
        s.rssi = -59.0 - 20.0 * std::log10(locble::Vec2::distance(target, obs));
        samples.push_back(s);
    }
    const auto fit = LocationSolver().solve(samples);
    ASSERT_TRUE(fit.has_value());
    EXPECT_TRUE(fit->ambiguous);
    // x and |h| recovered; sign of h undetermined by construction.
    EXPECT_NEAR(fit->location.x, 5.0, 0.5);
    EXPECT_NEAR(std::abs(fit->location.y), 3.0, 0.5);
    EXPECT_GE(fit->location.y, 0.0);  // convention: ambiguous fits report +h
}

TEST(LocationSolverTest, TooFewSamplesRejected) {
    const auto samples = l_shape_samples({4.0, 2.0}, -59.0, 2.0, 4.0, 3.0, 3);
    ASSERT_LT(samples.size(), LocationSolver::kMinSamples);
    EXPECT_FALSE(LocationSolver().solve(samples).has_value());
}

TEST(LocationSolverTest, MovingTargetRelativeDisplacements) {
    // Target moves with constant velocity; p/q carry b_i - a_i. The fit
    // recovers the target's *initial* position.
    const Vec2 target0{6.0, 2.0};
    const Vec2 target_vel{0.3, -0.2};
    std::vector<FusedSample> samples;
    double t = 0.0;
    for (int i = 0; i < 50; ++i, t += 0.1) {
        // Observer walks an L.
        const Vec2 obs = i < 25 ? Vec2{0.16 * i, 0.0} : Vec2{4.0, 0.12 * (i - 25)};
        const Vec2 tgt_disp = target_vel * t;
        const Vec2 tgt = target0 + tgt_disp;
        FusedSample s;
        s.t = t;
        s.p = tgt_disp.x - obs.x;
        s.q = tgt_disp.y - obs.y;
        s.rssi = -59.0 - 20.0 * std::log10(locble::Vec2::distance(tgt, obs));
        samples.push_back(s);
    }
    const auto fit = LocationSolver().solve(samples);
    ASSERT_TRUE(fit.has_value());
    EXPECT_NEAR(fit->location.x, target0.x, 0.4);
    EXPECT_NEAR(fit->location.y, target0.y, 0.4);
}

TEST(LocationSolverTest, ResolveLShapeDisambiguates) {
    // Two per-leg ambiguous fits; the true target is at (5, 2) in the
    // observer frame. Leg 2 starts at (4, 0) heading +y (90 deg).
    const Vec2 truth{5.0, 2.0};

    LocationFit leg1;  // leg 1 frame == observer frame
    leg1.location = {truth.x, truth.y};
    leg1.ambiguous = true;  // candidates (5, +-2)
    leg1.confidence = 0.8;
    leg1.exponent = 2.0;
    leg1.gamma_dbm = -59.0;

    // Leg 2 local frame: origin (4,0), +x along observer +y.
    // Truth in leg-2 frame: rotate (truth - origin) by -90 deg -> (2, -1).
    LocationFit leg2;
    leg2.location = {2.0, -1.0};
    leg2.ambiguous = true;  // candidates (2, +-1)
    leg2.confidence = 0.6;
    leg2.exponent = 2.2;
    leg2.gamma_dbm = -60.0;

    const auto resolved = LocationSolver::resolve_l_shape(
        leg1, leg2, {4.0, 0.0}, std::numbers::pi / 2.0);
    ASSERT_TRUE(resolved.has_value());
    EXPECT_FALSE(resolved->ambiguous);
    EXPECT_NEAR(resolved->location.x, truth.x, 1e-6);
    EXPECT_NEAR(resolved->location.y, truth.y, 1e-6);
    // Confidence-weighted parameter blend.
    EXPECT_GT(resolved->exponent, 2.0);
    EXPECT_LT(resolved->exponent, 2.2);
}

TEST(LocationSolverTest, ConfidenceDropsWithModelMismatch) {
    // Samples from two different environments stitched together: residuals
    // become biased, confidence falls (this is what EnvAware prevents).
    const Vec2 target{5.0, 3.0};
    auto a = l_shape_samples(target, -59.0, 2.0);
    auto b = l_shape_samples(target, -72.0, 3.4);
    // Second half from the NLOS model.
    std::vector<FusedSample> mixed(a.begin(),
                                   a.begin() + static_cast<std::ptrdiff_t>(a.size() / 2));
    mixed.insert(mixed.end(), b.begin() + static_cast<std::ptrdiff_t>(b.size() / 2),
                 b.end());

    const auto clean_fit = LocationSolver().solve(a);
    const auto mixed_fit = LocationSolver().solve(mixed);
    ASSERT_TRUE(clean_fit.has_value());
    ASSERT_TRUE(mixed_fit.has_value());
    // The Gauss-Newton refit zeroes the mean residual, so the Sec. 5
    // confidence (a function of the residual *mean*) saturates near 1 for
    // both fits; the RMS residual still exposes the mismatch.
    EXPECT_GE(clean_fit->confidence, mixed_fit->confidence - 1e-6);
    EXPECT_GT(mixed_fit->residual_db, clean_fit->residual_db);
}

TEST(ResidualStatsTest, PerfectModelZeroResidual) {
    const Vec2 target{4.0, 1.0};
    const auto samples = l_shape_samples(target, -59.0, 2.0);
    const auto stats = residual_stats(samples, target, 2.0, -59.0);
    EXPECT_NEAR(stats.mean_db, 0.0, 1e-9);
    EXPECT_NEAR(stats.rms_db, 0.0, 1e-9);
    EXPECT_NEAR(stats.confidence, 1.0, 1e-9);
}

TEST(ResidualStatsTest, BiasedModelLowConfidence) {
    const Vec2 target{4.0, 1.0};
    const auto samples = l_shape_samples(target, -59.0, 2.0);
    // Gamma off by 10 dB: residual mean is 10 dB, confidence collapses.
    const auto stats = residual_stats(samples, target, 2.0, -69.0);
    EXPECT_NEAR(stats.mean_db, 10.0, 1e-6);
    EXPECT_LT(stats.confidence, 0.01);
}

TEST(ResidualStatsTest, EmptyInput) {
    const auto stats = residual_stats({}, {0, 0}, 2.0, -59.0);
    EXPECT_DOUBLE_EQ(stats.confidence, 0.0);
}

}  // namespace
}  // namespace locble::core
