#include "locble/core/dtw.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "locble/common/rng.hpp"

namespace locble::core {
namespace {

std::vector<double> sine(std::size_t n, double freq, double phase = 0.0,
                         double amp = 1.0) {
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = amp * std::sin(2.0 * std::numbers::pi * freq *
                                    static_cast<double>(i) / 10.0 +
                                phase);
    return out;
}

TEST(DtwDistanceTest, IdenticalSequencesZeroCost) {
    const auto s = sine(30, 0.7);
    EXPECT_NEAR(dtw_distance(s, s), 0.0, 1e-12);
}

TEST(DtwDistanceTest, EmptyThrows) {
    const std::vector<double> empty;
    const std::vector<double> one{1.0};
    EXPECT_THROW(dtw_distance(empty, one), std::invalid_argument);
    EXPECT_THROW(dtw_distance(one, empty), std::invalid_argument);
}

TEST(DtwDistanceTest, ToleratesTimeShift) {
    // Euclidean distance of shifted sines is large; DTW realigns them.
    const auto a = sine(40, 0.8);
    const auto b = sine(40, 0.8, 0.6);
    double euclid = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) euclid += (a[i] - b[i]) * (a[i] - b[i]);
    EXPECT_LT(dtw_distance(a, b), euclid / 3.0);
}

TEST(DtwDistanceTest, SeparatesDifferentShapes) {
    const auto a = sine(40, 0.8);
    const auto b = sine(40, 2.4);  // 3x frequency
    const auto c = sine(40, 0.8, 0.3);
    EXPECT_GT(dtw_distance(a, b), 3.0 * dtw_distance(a, c));
}

TEST(DtwDistanceTest, WindowConstraintIncreasesCost) {
    const auto a = sine(40, 0.8);
    const auto b = sine(40, 0.8, 1.2);  // needs large warp
    EXPECT_GE(dtw_distance(a, b, 2), dtw_distance(a, b, 0) - 1e-12);
}

TEST(DtwDistanceTest, DifferentLengthsSupported) {
    const auto a = sine(30, 0.8);
    const auto b = sine(45, 0.8);
    EXPECT_GE(dtw_distance(a, b), 0.0);  // band auto-widens to |n-m|
}

TEST(DtwCostMatrixTest, CumulativeCostsConsistent) {
    const auto a = sine(10, 0.8);
    const auto b = sine(10, 0.9);
    const auto m = dtw_cost_matrix(a, b);
    ASSERT_EQ(m.size(), 10u);
    ASSERT_EQ(m[0].size(), 10u);
    // Every cell's cumulative cost is at least the cheapest predecessor's
    // (point costs are non-negative).
    for (std::size_t i = 1; i < 10; ++i) {
        for (std::size_t j = 1; j < 10; ++j) {
            const double pred = std::min({m[i - 1][j], m[i][j - 1], m[i - 1][j - 1]});
            EXPECT_GE(m[i][j] + 1e-12, pred);
        }
    }
    EXPECT_DOUBLE_EQ(m[9][9], dtw_distance(a, b));
}

TEST(WarpingEnvelopeTest, BoundsContainSequence) {
    const auto s = sine(25, 1.1);
    const auto env = warping_envelope(s, 3);
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_LE(env.lower[i], s[i]);
        EXPECT_GE(env.upper[i], s[i]);
    }
}

TEST(LbKeoghTest, LowerBoundsTrueDtw) {
    locble::Rng rng(1);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> a(20), b(20);
        for (std::size_t i = 0; i < 20; ++i) {
            a[i] = rng.gaussian(0.0, 1.0);
            b[i] = rng.gaussian(0.0, 1.0);
        }
        const std::size_t w = 3;
        EXPECT_LE(lb_keogh(a, b, w), dtw_distance(a, b, w) + 1e-9);
    }
}

TEST(LbKeoghTest, ZeroForContainedCandidate) {
    const auto target = sine(20, 0.8, 0.0, 2.0);
    const auto inside = sine(20, 0.8, 0.0, 0.5);  // within the envelope almost surely
    EXPECT_LT(lb_keogh(target, inside, 5), 1.0);
}

TEST(LbKeoghTest, LengthMismatchThrows) {
    const std::vector<double> a{1.0, 2.0};
    const std::vector<double> b{1.0};
    EXPECT_THROW(lb_keogh(a, b, 1), std::invalid_argument);
}

TEST(SegmentedDtwMatcherTest, MatchesSimilarTrends) {
    locble::Rng rng(2);
    std::vector<double> target, candidate;
    for (int i = 0; i < 60; ++i) {
        const double trend = std::sin(0.2 * i);
        target.push_back(trend + rng.gaussian(0.0, 0.1));
        candidate.push_back(trend + rng.gaussian(0.0, 0.1));
    }
    const auto r = SegmentedDtwMatcher().match(target, candidate);
    EXPECT_TRUE(r.matched);
    EXPECT_EQ(r.segments_total, 6u);
    EXPECT_GT(r.segments_matched, 3u);
}

TEST(SegmentedDtwMatcherTest, RejectsUnrelatedSequences) {
    locble::Rng rng(3);
    std::vector<double> target, candidate;
    for (int i = 0; i < 60; ++i) {
        target.push_back(std::sin(0.2 * i) + rng.gaussian(0.0, 0.1));
        candidate.push_back(3.0 * std::sin(0.9 * i + 1.5) + rng.gaussian(0.0, 0.4));
    }
    const auto r = SegmentedDtwMatcher().match(target, candidate);
    EXPECT_FALSE(r.matched);
}

TEST(SegmentedDtwMatcherTest, LbGateRejectsCheaply) {
    // Wildly offset candidate: every segment should die at the LB gate,
    // never reaching full DTW.
    std::vector<double> target(50, 0.0), candidate(50, 10.0);
    const auto r = SegmentedDtwMatcher().match(target, candidate);
    EXPECT_FALSE(r.matched);
    EXPECT_EQ(r.lb_rejections, r.segments_total);
}

TEST(SegmentedDtwMatcherTest, ShortInputNoSegments) {
    const std::vector<double> tiny{1.0, 2.0, 3.0};
    const auto r = SegmentedDtwMatcher().match(tiny, tiny);
    EXPECT_FALSE(r.matched);
    EXPECT_EQ(r.segments_total, 0u);
}

TEST(SegmentedDtwMatcherTest, MajorityRuleExactBoundary) {
    // 2 segments: exactly 1 match is NOT a majority (needs > half).
    SegmentedDtwMatcher::Config cfg;
    cfg.segment_length = 10;
    cfg.threshold = 0.5;
    std::vector<double> target(20, 0.0), candidate(20, 0.0);
    for (std::size_t i = 10; i < 20; ++i) candidate[i] = 5.0;  // 2nd segment differs
    const auto r = SegmentedDtwMatcher(cfg).match(target, candidate);
    EXPECT_EQ(r.segments_total, 2u);
    EXPECT_EQ(r.segments_matched, 1u);
    EXPECT_FALSE(r.matched);
}

}  // namespace
}  // namespace locble::core
