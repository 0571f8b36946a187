// Fig. 2 reproduction: RSS readings while walking away from one beacon on
// three phones. The paper's takeaway: per-phone RSSI offsets shift the
// curves but the distance trend is shared — which is why LocBLE works from
// the *changing trend* of RSS.

#include <cstdio>

#include "bench_util.hpp"
#include "locble/ble/scanner.hpp"
#include "locble/common/stats.hpp"
#include "locble/common/table.hpp"
#include "locble/sim/capture.hpp"

using namespace locble;

int main(int argc, char** argv) {
    const auto opt = bench::parse_options(argc, argv);
    bench::Runner runner("fig2_rss_vs_distance", opt, 42);

    bench::print_header(
        "Fig. 2 — RSS vs distance on three phones",
        "offsets differ per phone; the decay trend is identical (Sec. 2.5)");

    const sim::Scenario sc = sim::scenario(2);  // indoor hallway-like walk
    const double distances[] = {0.8, 1.5, 3.0, 4.6, 6.1};

    const ble::ReceiverProfile phones[] = {ble::iphone5s_receiver(),
                                           ble::nexus5x_receiver(),
                                           ble::nexus6_receiver()};

    TextTable table({"distance (m)", phones[0].name, phones[1].name, phones[2].name});

    // One beacon at the origin side; each phone walks the same straight path.
    sim::BeaconPlacement beacon;
    beacon.id = 1;
    beacon.position = {0.7, 1.5};

    // One "trial" per phone; every phone sees the *same* world, so each
    // trial reopens stream 0 of the sweep seed instead of its own stream.
    const std::uint64_t sweep = runner.sweep_seed(1);
    const auto mean_rss = runner.run(3, sweep, [&](int p, locble::Rng&) {
        sim::CaptureRunner::Config ccfg;
        ccfg.scanner.receiver = phones[p];
        const sim::CaptureRunner runner_(ccfg);
        const imu::Trajectory walk = imu::make_straight(
            {beacon.position.x + 0.3, beacon.position.y}, 0.0, 6.5);
        locble::Rng rng = locble::Rng::for_stream(sweep, 0);  // shared world
        const auto cap = runner_.run(sc.site, {beacon}, walk, rng);
        const auto& rss = cap.rss.at(1);
        std::vector<double> means;
        for (double d : distances) {
            // Time at which the walker passes distance d (speed 1.1 m/s after
            // the 0.5 s initial pause; starts 0.3 m out).
            const double t = 0.5 + (d - 0.3) / 1.1;
            const auto window = slice(rss, t - 0.4, t + 0.4);
            means.push_back(window.empty() ? 0.0 : mean(values_of(window)));
        }
        return means;
    });

    for (std::size_t i = 0; i < std::size(distances); ++i)
        table.add_row(fmt(distances[i], 1),
                      {mean_rss[0][i], mean_rss[1][i], mean_rss[2][i]}, 1);
    std::printf("%s\n", table.str().c_str());

    // The claim: offsets differ, trend (slope) is shared.
    std::vector<double> drops(3);
    for (std::size_t p = 0; p < 3; ++p)
        drops[p] = mean_rss[p].front() - mean_rss[p].back();
    std::printf("RSSI drop 0.8 m -> 6.1 m: %s / %s / %s dB (similar trend)\n",
                fmt(drops[0], 1).c_str(), fmt(drops[1], 1).c_str(),
                fmt(drops[2], 1).c_str());
    std::printf("phone offsets at 3 m: %s / %s / %s dBm (distinct levels)\n",
                fmt(mean_rss[0][2], 1).c_str(), fmt(mean_rss[1][2], 1).c_str(),
                fmt(mean_rss[2][2], 1).c_str());
    for (std::size_t p = 0; p < 3; ++p) {
        runner.report().add_scalar(std::string(phones[p].name) + "_drop_db", drops[p]);
        runner.report().add_scalar(std::string(phones[p].name) + "_rss_at_3m_dbm",
                                   mean_rss[p][2]);
    }
    return runner.finish();
}
