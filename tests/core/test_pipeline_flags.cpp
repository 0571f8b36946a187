// Pipeline segmentation behaviour: the restart/segmentation logic of
// Algorithm 1's batch loop behind the Fig. 5 ablations.

#include <gtest/gtest.h>

#include <cmath>

#include "locble/channel/fading.hpp"
#include "locble/common/rng.hpp"
#include "locble/core/pipeline.hpp"
#include "locble/dsp/anf.hpp"

namespace locble::core {
namespace {

using locble::Vec2;

motion::MotionEstimate ideal_l_motion() {
    motion::MotionEstimate m;
    for (int i = 0; i <= 40; ++i) m.path.push_back({0.1 * i, {0.1 * i, 0.0}});
    for (int i = 0; i <= 30; ++i) m.path.push_back({5.0 + 0.1 * i, {4.0, 0.1 * i}});
    return m;
}

/// RSS with an abrupt insertion-loss step at t = `step_t` — the signature
/// of walking out from behind a wall.
locble::TimeSeries stepped_rss(const Vec2& target, double loss_db, double step_t,
                               std::uint64_t seed) {
    const auto motion = ideal_l_motion();
    locble::Rng rng(seed);
    locble::TimeSeries ts;
    for (double t = 0.0; t <= 8.0; t += 0.1) {
        const Vec2 obs = motion.position_at(t);
        const double l = std::max(Vec2::distance(target, obs), 0.1);
        double v = -59.0 - 20.0 * std::log10(l) + rng.gaussian(0.0, 1.0);
        if (t < step_t) v -= loss_db;
        ts.push_back({t, v});
    }
    return ts;
}

const EnvAware& tiny_envaware() {
    static const EnvAware instance = [] {
        locble::Rng rng(55);
        EnvDatasetConfig cfg;
        cfg.traces_per_class = 20;
        EnvAware env;
        env.train(generate_env_dataset(cfg, rng));
        return env;
    }();
    return instance;
}

/// RSS of a walk that leaves a heavily blocked leg: 12 dB down with the
/// NLOS class's Rayleigh fading until t = 4 s (the L's corner), then line
/// of sight with 1 dB noise. EnvAware sees the regime change and the mean
/// RSS jumps, so Algorithm 1 opens a new Gamma segment.
locble::TimeSeries nlos_then_los_rss(const Vec2& target, std::uint64_t seed) {
    const auto motion = ideal_l_motion();
    const channel::PropagationParams nlos =
        channel::params_for(channel::PropagationClass::nlos);
    channel::FadingProcess fading(nlos.rician_k_db, nlos.coherence_distance_m,
                                  locble::Rng(seed + 1000));
    locble::Rng rng(seed);
    locble::TimeSeries ts;
    for (double t = 0.0; t <= 8.0; t += 0.1) {
        const Vec2 obs = motion.position_at(t);
        const double l = std::max(Vec2::distance(target, obs), 0.1);
        double v = -59.0 - 20.0 * std::log10(l);
        v += t < 4.0 ? -12.0 + fading.step(0.1) : rng.gaussian(0.0, 1.0);
        ts.push_back({t, v});
    }
    return ts;
}

TEST(PipelineFlagsTest, RestartOpensGammaSegments) {
    LocBle::Config cfg;
    cfg.gamma_prior_dbm = -59.0;
    const LocBle pipeline(cfg, tiny_envaware());
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const auto rss = nlos_then_los_rss({5.0, 2.0}, seed);
        const auto result = pipeline.locate(rss, ideal_l_motion());
        ASSERT_TRUE(result.fit.has_value()) << "seed " << seed;
        // The change is detected, and it materializes as an extra Gamma
        // segment.
        EXPECT_GT(result.regression_restarts, 0) << "seed " << seed;
        EXPECT_GE(result.fit->segment_gammas.size(), 2u) << "seed " << seed;
    }
}

TEST(PipelineFlagsTest, SmallLevelWobbleDoesNotSegment) {
    // A 1 dB step is below the 4 dB segmentation gate even if the
    // classifier wobbles.
    LocBle::Config cfg;
    cfg.gamma_prior_dbm = -59.0;
    const LocBle pipeline(cfg, tiny_envaware());
    const auto rss = stepped_rss({5.0, 2.0}, 1.0, 4.0, 2);
    const auto result = pipeline.locate(rss, ideal_l_motion());
    ASSERT_TRUE(result.fit.has_value());
    EXPECT_EQ(result.regression_restarts, 0);
}

/// Algorithm 1's regression samples for `rss` over the L walk: fused and
/// batched as LocBle::locate does, with the segment ids the batch loop gave
/// them.
std::vector<FusedSample> batch_loop_samples(const locble::TimeSeries& rss) {
    LocBle::Config cfg;
    cfg.gamma_prior_dbm = -59.0;
    const auto motion = ideal_l_motion();
    const auto denoised = dsp::Anf().process_offline(rss);
    BatchLoop loop(cfg, &tiny_envaware());
    std::size_t flushed = 0;
    for (std::size_t i = 0; i < rss.size(); ++i) {
        const Vec2 obs = motion.position_at(rss[i].t);
        FusedSample s;
        s.t = rss[i].t;
        s.p = -obs.x;
        s.q = -obs.y;
        s.rssi = denoised[i].value;
        flushed += loop.add(rss[i].value, s).samples;
    }
    flushed += loop.flush().samples;
    EXPECT_EQ(flushed, rss.size());
    return loop.samples();
}

TEST(PipelineFlagsTest, SegmentedFitBeatsUnsegmentedOnHardTransition) {
    // On a 12 dB insertion-loss transition, fitting one Gamma per segment
    // the batch loop opened should at least not hurt vs a single-Gamma fit
    // of the same samples.
    const Vec2 target{5.0, 2.0};
    SolveHints hints;  // the Gamma prior band, widened for a blocked window
    hints.gamma_band_dbm = {-59.0 - 5.0 - 14.0, -59.0 + 3.0};
    const LocationSolver solver;
    double seg_err = 0.0, flat_err = 0.0;
    int n = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto seg = batch_loop_samples(stepped_rss(target, 12.0, 4.0, seed));
        auto flat = seg;
        for (auto& s : flat) s.segment = 0;
        const auto rs = solver.solve(seg, hints);
        const auto rf = solver.solve(flat, hints);
        if (!rs || !rf) continue;
        seg_err += Vec2::distance(rs->location, target);
        flat_err += Vec2::distance(rf->location, target);
        ++n;
    }
    ASSERT_GE(n, 8);
    EXPECT_LE(seg_err, flat_err + 0.5 * n);  // allow per-run 0.5 m slack
}

}  // namespace
}  // namespace locble::core
