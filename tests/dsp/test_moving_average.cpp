#include "locble/dsp/moving_average.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace locble::dsp {
namespace {

TEST(CenteredMovingAverageTest, ConstantSignalUnchanged) {
    const std::vector<double> v(10, 3.0);
    const auto out = centered_moving_average(v, 2);
    ASSERT_EQ(out.size(), v.size());
    for (double x : out) EXPECT_DOUBLE_EQ(x, 3.0);
}

TEST(CenteredMovingAverageTest, PreservesPeakLocation) {
    // Triangular peak at index 10: smoothing must not move the maximum.
    std::vector<double> v(21, 0.0);
    for (int i = 0; i < 21; ++i)
        v[static_cast<std::size_t>(i)] = 10.0 - std::abs(i - 10);
    const auto out = centered_moving_average(v, 2);
    // Peak stays centered at index 10 after smoothing.
    std::size_t argmax = 0;
    for (std::size_t i = 1; i < out.size(); ++i)
        if (out[i] > out[argmax]) argmax = i;
    EXPECT_EQ(argmax, 10u);
}

TEST(CenteredMovingAverageTest, EdgesUseShrunkWindows) {
    const std::vector<double> v{1.0, 2.0, 3.0};
    const auto out = centered_moving_average(v, 5);
    // Every output is the mean of the full (clipped) vector here.
    for (double x : out) EXPECT_DOUBLE_EQ(x, 2.0);
}

TEST(CenteredMovingAverageTest, EmptyInput) {
    EXPECT_TRUE(centered_moving_average({}, 3).empty());
}

}  // namespace
}  // namespace locble::dsp
