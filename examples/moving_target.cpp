// Moving-target mode (Sec. 5, Fig. 6(a)): locate a *walking* phone that has
// its beacon function turned on — e.g. finding a colleague in a parking
// lot. After the measurement the target transfers its RSS/motion capture to
// the observer (the paper uses UPnP); frames are aligned through the
// compass heading each device measured at its own start.

#include <cstdint>
#include <cstdio>

#include "locble/sim/harness.hpp"

using namespace locble;

int main() {
    const sim::Scenario lot = sim::scenario(9);

    // The colleague starts 8 m away and wanders while we measure.
    sim::BeaconPlacement colleague;
    colleague.id = 2;
    colleague.profile = ble::ios_device_profile();  // phone-integrated beacon
    const Vec2 start_pos{9.3, 7.6};
    colleague.motion = imu::make_l_shape(start_pos, 2.2, 2.5, 2.0, -1.3);

    std::printf("colleague starts at (%.1f, %.1f), walking while we measure\n",
                start_pos.x, start_pos.y);
    std::printf("observer walks the standard L from (%.1f, %.1f)\n\n",
                lot.observer_start.x, lot.observer_start.y);

    sim::MeasurementConfig cfg;
    int ok_runs = 0;
    double err_sum = 0.0;
    const int runs = 5;
    for (int r = 0; r < runs; ++r) {
        locble::Rng rng(static_cast<std::uint64_t>(600 + r * 17));
        const auto walk = sim::default_l_walk(lot);
        const sim::MeasurementOutcome out =
            sim::measure_moving(lot, colleague, walk, cfg, rng);
        if (!out.ok) {
            std::printf("run %d: no fix\n", r + 1);
            continue;
        }
        std::printf("run %d: estimated initial position (%.2f, %.2f), error "
                    "%.2f m\n",
                    r + 1, out.estimate_site.x, out.estimate_site.y, out.error_m);
        err_sum += out.error_m;
        ++ok_runs;
    }

    if (ok_runs) {
        std::printf("\nmean error over %d runs: %.2f m\n", ok_runs,
                    err_sum / ok_runs);
        std::printf("paper reference: Fig. 11(b) — < 2.5 m for more than half "
                    "of the moving-target runs\n");
    }
    return ok_runs > 0 ? 0 : 1;
}
