#include "locble/serve/tracking_session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "locble/common/rng.hpp"
#include "locble/core/envaware.hpp"
#include "locble/dsp/anf.hpp"

namespace locble::serve {
namespace {

/// Streaming config with the randomized stages off: exact synthetic RSS in,
/// deterministic fit out.
TrackingSession::Config clean_config() {
    TrackingSession::Config cfg;
    cfg.pipeline.use_anf = false;
    cfg.pipeline.use_envaware = false;
    cfg.pipeline.gamma_prior_dbm = -59.0;
    return cfg;
}

/// Feed a synthetic stationary-beacon walk: observer moves along +x at
/// 1 m/s for `seconds`, beacon at `target` (observer frame), log-distance
/// RSS with optional Gaussian noise. Flushes are counted in `stats`.
void feed_walk(TrackingSession& s, const locble::Vec2& target, double seconds,
               double noise_db, std::uint64_t seed, IngestStats& stats) {
    locble::Rng rng(seed);
    for (double t = 0.0; t <= seconds; t += 0.1) {
        const locble::Vec2 obs{t * 1.0, 0.0};
        const double dist =
            std::max(locble::Vec2::distance(target, obs), 0.1);
        const double rssi = -59.0 - 10.0 * 2.0 * std::log10(dist) +
                            (noise_db > 0 ? rng.gaussian(0.0, noise_db) : 0.0);
        // FusedSample convention (core/pipeline.cpp): (p, q) is the
        // *negated* observer position; the solver's fit comes out in the
        // observer frame.
        s.on_adv(t, rssi, -obs.x, -obs.y, stats);
    }
}

TEST(TrackingSessionTest, RecoversStationaryBeaconFromStream) {
    IngestStats stats;
    TrackingSession s(clean_config(), dsp::Anf(), nullptr);
    feed_walk(s, {5.0, 2.0}, 8.0, 0.0, 1, stats);
    s.finish_epoch(9.0, stats);
    ASSERT_TRUE(s.has_fit());
    EXPECT_NEAR(s.fit().location.x, 5.0, 0.5);
    EXPECT_NEAR(std::abs(s.fit().location.y), 2.0, 0.7);
    EXPECT_GT(s.samples_used(), 0u);
    EXPECT_EQ(s.samples_seen(), 81u);
}

TEST(TrackingSessionTest, EpochSplitIsInvisible) {
    // Deferred warm-started solves: splitting the same stream across many
    // epochs must land on the exact same fit as one big epoch (the solver
    // session contract: exhaustive warm solve == cold solve).
    IngestStats stats;
    TrackingSession one(clean_config(), dsp::Anf(), nullptr);
    feed_walk(one, {4.0, 1.5}, 8.0, 1.0, 7, stats);
    one.finish_epoch(9.0, stats);

    TrackingSession split(clean_config(), dsp::Anf(), nullptr);
    locble::Rng rng(7);
    for (double t = 0.0; t <= 8.0; t += 0.1) {
        const locble::Vec2 obs{t, 0.0};
        const double dist = std::max(locble::Vec2::distance({4.0, 1.5}, obs), 0.1);
        const double rssi =
            -59.0 - 20.0 * std::log10(dist) + rng.gaussian(0.0, 1.0);
        split.on_adv(t, rssi, -obs.x, -obs.y, stats);
        // An epoch boundary after every single event — worst case.
        split.finish_epoch(t, stats);
    }
    split.finish_epoch(9.0, stats);

    ASSERT_TRUE(one.has_fit());
    ASSERT_TRUE(split.has_fit());
    EXPECT_EQ(one.fit().location.x, split.fit().location.x);
    EXPECT_EQ(one.fit().location.y, split.fit().location.y);
    EXPECT_EQ(one.fit().exponent, split.fit().exponent);
    EXPECT_EQ(one.fit().gamma_dbm, split.fit().gamma_dbm);
    EXPECT_EQ(one.samples_used(), split.samples_used());
}

TEST(TrackingSessionTest, PoseLagTracksAnfGroupDelay) {
    auto cfg = clean_config();
    EXPECT_EQ(TrackingSession(cfg, dsp::Anf(), nullptr).pose_lag_s(),
              0.0);
    cfg.pipeline.use_anf = true;
    const TrackingSession with_anf(cfg, dsp::Anf(), nullptr);
    EXPECT_GT(with_anf.pose_lag_s(), 0.0);
}

TEST(TrackingSessionTest, MaxSessionSamplesBoundsAndResets) {
    auto cfg = clean_config();
    cfg.max_session_samples = 30;
    IngestStats stats;
    TrackingSession s(cfg, dsp::Anf(), nullptr);
    feed_walk(s, {5.0, 2.0}, 8.0, 0.0, 1, stats);  // 81 samples
    s.finish_epoch(9.0, stats);
    EXPECT_GE(s.resets(), 1);
    EXPECT_LE(s.samples_used(), 30u);
    EXPECT_EQ(stats.sessions_reset, static_cast<std::uint64_t>(s.resets()));
    EXPECT_TRUE(s.has_fit());  // still produces an estimate after resets
}

TEST(TrackingSessionTest, EnvAwareRequiredWhenEnabled) {
    auto cfg = clean_config();
    cfg.pipeline.use_envaware = true;
    EXPECT_THROW(TrackingSession(cfg, dsp::Anf(), nullptr),
                 std::invalid_argument);
    const core::EnvAware untrained;
    EXPECT_THROW(TrackingSession(cfg, dsp::Anf(), &untrained),
                 std::invalid_argument);
}

}  // namespace
}  // namespace locble::serve
