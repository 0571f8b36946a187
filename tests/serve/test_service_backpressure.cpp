#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "locble/obs/metrics.hpp"
#include "locble/obs/obs.hpp"
#include "locble/serve/event.hpp"
#include "locble/serve/service.hpp"

namespace locble::serve {
namespace {

TrackingService::Config tiny_config(std::size_t capacity, OverflowPolicy policy) {
    TrackingService::Config cfg;
    cfg.shards = 1;
    cfg.threads = 1;
    cfg.shard.session.pipeline.use_envaware = false;
    cfg.shard.session.pipeline.gamma_prior_dbm = -59.0;
    cfg.shard.queue_capacity = capacity;
    cfg.shard.overflow = policy;
    return cfg;
}

#if LOCBLE_OBS
std::uint64_t obs_counter(const char* name) {
    for (const auto& m : obs::Registry::global().snapshot())
        if (m.name == name) return m.count;
    return 0;
}
#endif

TEST(ServeBackpressureTest, DropOldestCountsEveryEviction) {
#if LOCBLE_OBS
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    reg.set_enabled(true);
#endif
    TrackingService svc(tiny_config(4, OverflowPolicy::drop_oldest));
    svc.submit(pose_event(1, 0.0, {0.0, 0.0}));
    for (int i = 0; i < 9; ++i)
        svc.submit(adv_event(1, 0.1 * (i + 1), 7, -60.0));

    const IngestStats s = svc.stats();
    // 10 submitted into capacity 4: every one admitted, 6 old ones evicted.
    EXPECT_EQ(s.submitted, 10u);
    EXPECT_EQ(s.accepted, 10u);
    EXPECT_EQ(s.dropped, 6u);
    EXPECT_EQ(s.rejected, 0u);

    // Graceful degradation: the 4 surviving events still process cleanly.
    svc.run_epoch();
#if LOCBLE_OBS
    // The obs counters are the same truth, published at the epoch swap:
    // injected overflow matches exactly.
    EXPECT_EQ(obs_counter("serve.ingest.dropped"), 6u);
    EXPECT_EQ(obs_counter("serve.ingest.accepted"), 10u);
    reg.set_enabled(false);
#endif
    const auto snap = svc.snapshot();
    ASSERT_EQ(snap.estimates.size(), 1u);
    EXPECT_EQ(snap.estimates[0].client, 1u);
    EXPECT_EQ(snap.estimates[0].beacon, 7u);
    // The pose event was among the dropped ones (it was oldest), so the
    // advs had nothing to pair with — seen stays 0 but nothing crashed.
    EXPECT_EQ(snap.stats.dropped, 6u);
}

TEST(ServeBackpressureTest, RejectRefusesExactOverflow) {
    TrackingService svc(tiny_config(4, OverflowPolicy::reject));
    for (int i = 0; i < 10; ++i)
        svc.submit(adv_event(1, 0.1 * i, 7, -60.0));

    const IngestStats s = svc.stats();
    EXPECT_EQ(s.submitted, 10u);
    EXPECT_EQ(s.accepted, 4u);  // first 4 keep their seats
    EXPECT_EQ(s.rejected, 6u);
    EXPECT_EQ(s.dropped, 0u);
    // Rejected events do not advance the event-time horizon.
    EXPECT_DOUBLE_EQ(svc.horizon(), 0.3);
}

TEST(ServeBackpressureTest, QueueDrainsEachEpochSoCapacityIsPerEpoch) {
    TrackingService svc(tiny_config(4, OverflowPolicy::reject));
    for (int epoch = 0; epoch < 3; ++epoch) {
        for (int i = 0; i < 4; ++i)
            svc.submit(
                adv_event(1, epoch * 1.0 + 0.1 * i, 7, -60.0));
        svc.run_epoch();
    }
    const IngestStats s = svc.stats();
    // 4 per epoch never overflows a capacity-4 queue that drains between.
    EXPECT_EQ(s.accepted, 12u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.epochs, 3u);
}

TEST(ServeBackpressureTest, PerClientBoundIsolatesNoisyNeighbor) {
    // Client 1 floods; client 2 trickles. Only the flooder overflows.
    auto cfg = tiny_config(8, OverflowPolicy::reject);
    TrackingService svc(cfg);
    for (int i = 0; i < 32; ++i)
        svc.submit(adv_event(1, 0.01 * i, 7, -60.0));
    for (int i = 0; i < 4; ++i)
        svc.submit(adv_event(2, 0.1 * i, 7, -62.0));

    const IngestStats s = svc.stats();
    EXPECT_EQ(s.rejected, 24u);     // all from client 1
    EXPECT_EQ(s.accepted, 8u + 4u);  // client 2 lost nothing
}

TEST(ServeBackpressureTest, LateEventsCountedButAccepted) {
    TrackingService svc(tiny_config(16, OverflowPolicy::drop_oldest));
    svc.submit(adv_event(1, 1.0, 7, -60.0));
    svc.submit(adv_event(1, 0.5, 7, -61.0));  // goes backwards
    svc.submit(adv_event(1, 2.0, 7, -62.0));
    const IngestStats s = svc.stats();
    EXPECT_EQ(s.accepted, 3u);
    EXPECT_EQ(s.late, 1u);
    EXPECT_EQ(svc.horizon(), 2.0);
}

}  // namespace
}  // namespace locble::serve
