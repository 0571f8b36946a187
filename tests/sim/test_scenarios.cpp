#include "locble/sim/scenarios.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace locble::sim {
namespace {

TEST(ScenariosTest, AllNineExist) {
    const auto all = all_scenarios();
    ASSERT_EQ(all.size(), 9u);
    for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(all[i].index, static_cast<int>(i) + 1);
}

TEST(ScenariosTest, OutOfRangeThrows) {
    EXPECT_THROW(scenario(0), std::out_of_range);
    EXPECT_THROW(scenario(10), std::out_of_range);
}

TEST(ScenariosTest, NamesMatchTable1) {
    EXPECT_EQ(scenario(1).name, "Meeting room");
    EXPECT_EQ(scenario(2).name, "Hallway");
    EXPECT_EQ(scenario(6).name, "Store");
    EXPECT_EQ(scenario(9).name, "Parking lot");
}

TEST(ScenariosTest, DimensionsMatchTable1) {
    EXPECT_DOUBLE_EQ(scenario(1).site.width_m, 5.0);
    EXPECT_DOUBLE_EQ(scenario(1).site.height_m, 5.0);
    EXPECT_DOUBLE_EQ(scenario(2).site.width_m, 8.0);
    EXPECT_DOUBLE_EQ(scenario(2).site.height_m, 3.0);
    EXPECT_DOUBLE_EQ(scenario(9).site.width_m, 16.0);
    EXPECT_DOUBLE_EQ(scenario(9).site.height_m, 15.0);
}

TEST(ScenariosTest, PaperAccuraciesRecorded) {
    EXPECT_DOUBLE_EQ(scenario(1).paper_accuracy_m, 0.8);
    EXPECT_DOUBLE_EQ(scenario(7).paper_accuracy_m, 2.3);
    EXPECT_DOUBLE_EQ(scenario(9).paper_accuracy_m, 1.2);
}

TEST(ScenariosTest, GeometryInsideBounds) {
    for (const auto& sc : all_scenarios()) {
        EXPECT_GE(sc.default_beacon.x, 0.0) << sc.name;
        EXPECT_LE(sc.default_beacon.x, sc.site.width_m) << sc.name;
        EXPECT_GE(sc.default_beacon.y, 0.0) << sc.name;
        EXPECT_LE(sc.default_beacon.y, sc.site.height_m) << sc.name;
        EXPECT_GE(sc.observer_start.x, 0.0) << sc.name;
        EXPECT_LE(sc.observer_start.x, sc.site.width_m) << sc.name;
    }
}

TEST(ScenariosTest, HardEnvironmentsHaveHeavyBlockage) {
    // Labs (#7) and Hall (#8) are the paper's NLOS clustering testbeds.
    auto has_heavy = [](const Scenario& sc) {
        for (const auto& w : sc.site.walls)
            if (w.blockage == channel::BlockageClass::heavy) return true;
        for (const auto& b : sc.site.blockers)
            if (b.blockage == channel::BlockageClass::heavy) return true;
        return false;
    };
    EXPECT_TRUE(has_heavy(scenario(7)));
    EXPECT_TRUE(has_heavy(scenario(8)));
    EXPECT_FALSE(has_heavy(scenario(1)));
    EXPECT_FALSE(has_heavy(scenario(9)));
}

TEST(ScenariosTest, OutdoorIsCleanest) {
    const auto outdoor = scenario(9);
    for (int i = 1; i <= 8; ++i) {
        EXPECT_LE(outdoor.site.clutter_factor, scenario(i).site.clutter_factor);
        EXPECT_LE(outdoor.site.interference_noise_db,
                  scenario(i).site.interference_noise_db);
    }
}

}  // namespace
}  // namespace locble::sim
