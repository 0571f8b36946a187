#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "locble/core/envaware.hpp"
#include "locble/serve/event.hpp"
#include "locble/serve/service.hpp"

namespace locble::serve {
namespace {

TrackingService::Config base_config() {
    TrackingService::Config cfg;
    cfg.shards = 2;
    cfg.threads = 1;
    cfg.shard.session.pipeline.use_envaware = false;
    cfg.shard.session.pipeline.gamma_prior_dbm = -59.0;
    cfg.shard.queue_capacity = 4096;
    cfg.shard.idle_timeout_s = 20.0;
    return cfg;
}

/// One client walking +x at 1 m/s past a beacon at (5, 2), starting at t0.
void submit_walk(TrackingService& svc, ClientId client, double t0,
                 double seconds) {
    for (double t = 0.0; t <= seconds; t += 0.1) {
        svc.submit(pose_event(client, t0 + t, {t, 0.0}));
        const double dist =
            std::max(std::hypot(5.0 - t, 2.0), 0.1);
        svc.submit(adv_event(client, t0 + t, 42,
                             -59.0 - 20.0 * std::log10(dist)));
    }
}

TEST(ServeLifecycleTest, IdleClientsAreEvictedByEventTime) {
    TrackingService svc(base_config());
    submit_walk(svc, 100, 0.0, 8.0);
    svc.run_epoch();
    ASSERT_EQ(svc.snapshot().estimates.size(), 1u);

    // A second client keeps the service's event-time clock moving; the
    // first client's silence ages it past the idle timeout.
    submit_walk(svc, 200, 40.0, 8.0);
    svc.run_epoch();

    const auto snap = svc.snapshot();
    ASSERT_EQ(snap.estimates.size(), 1u);
    EXPECT_EQ(snap.estimates[0].client, 200u);
    EXPECT_EQ(snap.stats.clients_evicted, 1u);
    EXPECT_EQ(snap.stats.sessions_evicted, 1u);
    EXPECT_EQ(snap.stats.clients_created, 2u);
}

TEST(ServeLifecycleTest, FarFutureEventEndsItsEpoch) {
    // One client's adv at t = 1e12 moves the horizon there; closing the
    // clean walk's open batch at that horizon must take a bounded number of
    // steps, not one per 2 s window (~5e11), and flush and solve exactly as
    // a near horizon past the walk does.
    TrackingService far(base_config()), near(base_config());
    for (auto [svc, t] : {std::pair{&far, 1e12}, std::pair{&near, 20.0}}) {
        submit_walk(*svc, 100, 0.0, 8.0);
        svc->submit(adv_event(200, t, 42, -60.0));
        svc->run_epoch();
    }
    const auto snap = far.snapshot();
    const auto ref = near.snapshot();
    EXPECT_EQ(snap.stats.epochs, 1u);
    EXPECT_EQ(snap.horizon, 1e12);
    EXPECT_EQ(snap.stats.batches_flushed, ref.stats.batches_flushed);
    EXPECT_EQ(snap.stats.solves, ref.stats.solves);
    EXPECT_GT(snap.stats.solves, 0u);
    // The walk's client fell idle at the far horizon.
    EXPECT_EQ(snap.stats.clients_evicted, 1u);
    EXPECT_EQ(ref.stats.clients_evicted, 0u);
}

TEST(ServeLifecycleTest, EvictedClientIsRecreatedOnReturn) {
    TrackingService svc(base_config());
    submit_walk(svc, 100, 0.0, 8.0);
    svc.run_epoch();
    submit_walk(svc, 200, 40.0, 8.0);
    svc.run_epoch();  // evicts client 100

    // Client 100 comes back: a brand-new state, counted as a new creation.
    submit_walk(svc, 100, 50.0, 8.0);
    svc.run_epoch();

    const auto snap = svc.snapshot();
    EXPECT_EQ(snap.estimates.size(), 2u);
    EXPECT_EQ(snap.stats.clients_created, 3u);
    EXPECT_EQ(snap.stats.clients_evicted, 1u);
    const auto it = std::find_if(
        snap.estimates.begin(), snap.estimates.end(),
        [](const BeaconEstimate& e) { return e.client == 100; });
    ASSERT_NE(it, snap.estimates.end());
    // Only the post-return samples: the evicted history really is gone.
    EXPECT_LE(it->samples_seen, 81u);
    EXPECT_TRUE(it->has_fit);
}

TEST(ServeLifecycleTest, SessionsPersistAcrossEpochsUntilIdle) {
    TrackingService svc(base_config());
    // Same client, three epochs of one walk: one session accumulates.
    for (int epoch = 0; epoch < 3; ++epoch) {
        for (double t = 0.0; t < 2.5; t += 0.1) {
            const double at = epoch * 2.5 + t;
            svc.submit(pose_event(100, at, {at, 0.0}));
            const double dist = std::max(std::hypot(5.0 - at, 2.0), 0.1);
            svc.submit(
                adv_event(100, at, 42, -59.0 - 20.0 * std::log10(dist)));
        }
        svc.run_epoch();
    }
    const auto snap = svc.snapshot();
    ASSERT_EQ(snap.estimates.size(), 1u);
    EXPECT_EQ(snap.stats.sessions_created, 1u);  // reused, not recreated
    EXPECT_EQ(snap.estimates[0].samples_seen, 75u);
    EXPECT_TRUE(snap.estimates[0].has_fit);
}

TEST(ServeLifecycleTest, EnvChangeOpensANewSegment) {
    // A trained EnvAware plus a staged LOS -> NLOS level collapse: the
    // confirmed change opens a new Gamma segment (Algo. 1), and the
    // regression keeps its history — nothing is reset.
    locble::Rng train_rng(20);
    core::EnvDatasetConfig dcfg;
    dcfg.traces_per_class = 15;
    core::EnvAware env;
    env.train(core::generate_env_dataset(dcfg, train_rng));

    auto cfg = base_config();
    cfg.shards = 1;
    cfg.shard.session.pipeline.use_envaware = true;
    TrackingService svc(cfg, env);

    locble::Rng rng(3);
    double t = 0.0;
    // 8 s of quiet LOS-like signal, then 8 s fallen off a cliff with
    // NLOS-like heavy fluctuation.
    for (int phase = 0; phase < 2; ++phase) {
        const double base = phase == 0 ? -55.0 : -78.0;
        const double sigma = phase == 0 ? 0.6 : 6.0;
        for (int i = 0; i < 80; ++i, t += 0.1) {
            svc.submit(pose_event(1, t, {t, 0.0}));
            svc.submit(adv_event(1, t, 42, base + rng.gaussian(0.0, sigma)));
        }
    }
    svc.run_epoch();

    const auto snap = svc.snapshot();
    ASSERT_EQ(snap.estimates.size(), 1u);
    const auto& e = snap.estimates[0];
    EXPECT_EQ(e.resets, 0);
    EXPECT_GE(e.regression_restarts, 1);
}

TEST(ServeLifecycleTest, SampleCapResetIsCounted) {
    // max_session_samples is the one reset left: a batch that would grow
    // the regression past the cap starts a fresh one, and the shard stats
    // count every reset the session reports.
    auto cfg = base_config();
    cfg.shards = 1;
    cfg.shard.session.max_session_samples = 30;
    TrackingService svc(cfg);
    submit_walk(svc, 1, 0.0, 8.0);  // 81 advertisements, ~20 per batch
    svc.run_epoch();

    const auto snap = svc.snapshot();
    ASSERT_EQ(snap.estimates.size(), 1u);
    const auto& e = snap.estimates[0];
    EXPECT_GE(e.resets, 1);
    EXPECT_EQ(snap.stats.sessions_reset, static_cast<std::uint64_t>(e.resets));
    // The reset forgot the older batches.
    EXPECT_LE(e.samples_used, 30u);
}

TEST(ServeLifecycleTest, NanPairingTimeStaysOnAOnePointPoseTrack) {
    // Two ways a NaN pairing time could reach a one-point pose track: a
    // client whose first pose is at t = NaN, and one valid pose followed by
    // an advertisement at t = NaN. submit() refuses both NaN events, so
    // neither reaches a track (pose_at keeps its NaN-safe endpoints).
    const double nan = std::numeric_limits<double>::quiet_NaN();
    TrackingService svc(base_config());
    svc.submit(pose_event(2, 0.0, {0.0, 0.0}));
    svc.submit(pose_event(1, nan, {0.0, 0.0}));
    svc.submit(adv_event(1, 0.5, 42, -60.0));
    svc.submit(adv_event(2, nan, 42, -60.0));
    svc.run_epoch();

    const auto snap = svc.snapshot();
    EXPECT_EQ(snap.stats.rejected, 2u);
    ASSERT_EQ(snap.estimates.size(), 1u);  // client 2 has no advertisement
    EXPECT_EQ(snap.estimates[0].client, 1u);
    EXPECT_EQ(snap.estimates[0].samples_seen, 0u);  // no pose to pair with
}

}  // namespace
}  // namespace locble::serve
