#include "locble/dsp/anf.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "locble/common/rng.hpp"
#include "locble/common/stats.hpp"

namespace locble::dsp {
namespace {

locble::TimeSeries noisy_level(double level, double noise, std::size_t n,
                               std::uint64_t seed) {
    locble::Rng rng(seed);
    locble::TimeSeries ts;
    for (std::size_t i = 0; i < n; ++i)
        ts.push_back({0.1 * static_cast<double>(i), level + rng.gaussian(0.0, noise)});
    return ts;
}

TEST(AnfTest, FirstOutputNearFirstSample) {
    Anf anf;
    EXPECT_NEAR(anf.process(-72.0), -72.0, 1e-9);
}

TEST(AnfTest, ReducesNoiseVariance) {
    Anf anf;
    const auto raw = noisy_level(-70.0, 4.0, 400, 11);
    const auto out = anf.process(raw);
    ASSERT_EQ(out.size(), raw.size());
    std::vector<double> raw_tail, out_tail;
    for (std::size_t i = 100; i < raw.size(); ++i) {
        raw_tail.push_back(raw[i].value);
        out_tail.push_back(out[i].value);
    }
    EXPECT_LT(locble::variance(out_tail), locble::variance(raw_tail) / 4.0);
}

TEST(AnfTest, PreservesTimestamps) {
    Anf anf;
    const auto raw = noisy_level(-70.0, 1.0, 50, 3);
    const auto out = anf.process(raw);
    for (std::size_t i = 0; i < raw.size(); ++i) EXPECT_DOUBLE_EQ(out[i].t, raw[i].t);
}

TEST(AnfTest, FollowsSlowTrend) {
    // RSS decaying as the user walks away: ANF must track the trend.
    Anf anf;
    locble::Rng rng(5);
    locble::TimeSeries raw;
    for (int i = 0; i < 300; ++i)
        raw.push_back({0.1 * i, -60.0 - 0.05 * i + rng.gaussian(0.0, 2.5)});
    const auto out = anf.process(raw);
    // Late in the trace, output should be near the true trend.
    for (std::size_t i = 150; i < out.size(); ++i)
        EXPECT_NEAR(out[i].value, -60.0 - 0.05 * static_cast<double>(i), 3.0);
}

TEST(AnfTest, RespondsToStepFasterThanButterworthAlone) {
    locble::TimeSeries raw;
    for (int i = 0; i < 200; ++i) raw.push_back({0.1 * i, i < 100 ? -85.0 : -65.0});

    Anf anf;
    const auto fused = anf.process(raw);
    const auto bf = butterworth_only(raw);

    auto reach_time = [&](const locble::TimeSeries& ts) {
        for (std::size_t i = 100; i < ts.size(); ++i)
            if (ts[i].value > -70.0) return static_cast<int>(i);
        return -1;
    };
    const int t_fused = reach_time(fused);
    const int t_bf = reach_time(bf);
    ASSERT_GT(t_fused, 0);
    ASSERT_GT(t_bf, 0);
    EXPECT_LT(t_fused, t_bf);  // AKF restores responsiveness (Fig. 4)
}

TEST(AnfTest, SmootherThanRawOnFadingLikeSignal) {
    // Sinusoidal fading + noise around a level.
    locble::Rng rng(8);
    locble::TimeSeries raw;
    for (int i = 0; i < 400; ++i) {
        const double fade = 3.0 * std::sin(2.0 * std::numbers::pi * 2.7 * i / 10.0);
        raw.push_back({0.1 * i, -75.0 + fade + rng.gaussian(0.0, 2.0)});
    }
    Anf anf;
    const auto out = anf.process(raw);
    std::vector<double> tail;
    for (std::size_t i = 100; i < out.size(); ++i) tail.push_back(out[i].value);
    EXPECT_NEAR(locble::mean(tail), -75.0, 1.0);
    EXPECT_LT(std::sqrt(locble::variance(tail)), 2.0);
}

TEST(AnfTest, ResetRestarts) {
    Anf anf;
    anf.process(-60.0);
    anf.reset();
    EXPECT_NEAR(anf.process(-90.0), -90.0, 1e-9);
}

TEST(AnfTest, LastBfOutputExposed) {
    Anf anf;
    anf.process(-70.0);
    EXPECT_NEAR(anf.last_bf_output(), -70.0, 1.0);
}

TEST(AnfTest, ButterworthOnlyMatchesConfigOrder) {
    // The ablation helper runs the ANF's own Butterworth design: its output
    // is the streaming filter's Butterworth stage, value for value.
    const auto raw = noisy_level(-70.0, 2.0, 100, 9);
    const auto out = butterworth_only(raw);
    ASSERT_EQ(out.size(), raw.size());
    Anf anf;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        anf.process(raw[i].value);
        EXPECT_EQ(out[i].value, anf.last_bf_output()) << i;
    }
}

}  // namespace
}  // namespace locble::dsp
