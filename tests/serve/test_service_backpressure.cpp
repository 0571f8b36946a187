#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "locble/obs/metrics.hpp"
#include "locble/obs/obs.hpp"
#include "locble/serve/event.hpp"
#include "locble/serve/service.hpp"
#include "locble/sim/multi_client.hpp"

namespace locble::serve {
namespace {

TrackingService::Config tiny_config(std::size_t capacity) {
    TrackingService::Config cfg;
    cfg.shards = 1;
    cfg.threads = 1;
    cfg.shard.session.pipeline.use_envaware = false;
    cfg.shard.session.pipeline.gamma_prior_dbm = -59.0;
    cfg.shard.queue_capacity = capacity;
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
    TrackingService svc(tiny_config(4));
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

TEST(ServeBackpressureTest, QueueDrainsEachEpochSoCapacityIsPerEpoch) {
    TrackingService svc(tiny_config(4));
    for (int epoch = 0; epoch < 3; ++epoch) {
        for (int i = 0; i < 4; ++i)
            svc.submit(
                adv_event(1, epoch * 1.0 + 0.1 * i, 7, -60.0));
        svc.run_epoch();
    }
    const IngestStats s = svc.stats();
    // 4 per epoch never overflows a capacity-4 queue that drains between.
    EXPECT_EQ(s.accepted, 12u);
    EXPECT_EQ(s.dropped, 0u);
    EXPECT_EQ(s.epochs, 3u);
}

TEST(ServeBackpressureTest, PerClientBoundIsolatesNoisyNeighbor) {
    // Client 1 floods; client 2 trickles. Only the flooder overflows.
    auto cfg = tiny_config(8);
    TrackingService svc(cfg);
    for (int i = 0; i < 32; ++i)
        svc.submit(adv_event(1, 0.01 * i, 7, -60.0));
    svc.submit(pose_event(2, 0.0, {0.0, 0.0}));
    for (int i = 1; i < 4; ++i)
        svc.submit(adv_event(2, 0.1 * i, 7, -62.0));

    const IngestStats s = svc.stats();
    EXPECT_EQ(s.dropped, 24u);        // all from client 1
    EXPECT_EQ(s.accepted, 32u + 4u);
    svc.run_epoch();
    const auto snap = svc.snapshot();
    ASSERT_EQ(snap.estimates.size(), 2u);
    EXPECT_EQ(snap.estimates[1].client, 2u);
    EXPECT_EQ(snap.estimates[1].samples_seen, 3u);  // client 2 lost nothing
}

TEST(ServeBackpressureTest, LateEventsCountedButAccepted) {
    TrackingService svc(tiny_config(16));
    svc.submit(adv_event(1, 1.0, 7, -60.0));
    svc.submit(adv_event(1, 0.5, 7, -61.0));  // goes backwards
    svc.submit(adv_event(1, 2.0, 7, -62.0));
    const IngestStats s = svc.stats();
    EXPECT_EQ(s.accepted, 3u);
    EXPECT_EQ(s.late, 1u);
    EXPECT_EQ(svc.horizon(), 2.0);
}

/// One client walking past one beacon (workload seed 7), cut into 1 s
/// epochs by event time. `hostile`, when given, makes one extra event from
/// the 30th advertisement, submitted right after it in the same epoch.
std::vector<std::vector<Event>> one_walk_epochs(
    const std::function<Event(Event)>& hostile = nullptr) {
    sim::MultiClientConfig wcfg;
    wcfg.clients = 1;
    wcfg.beacons = 1;
    const auto wl = sim::make_multi_client_workload(wcfg, 7);
    std::vector<std::vector<Event>> epochs(1);
    double edge = 1.0;
    int advs = 0;
    for (const Event& e : wl.events) {
        while (e.t > edge) {
            epochs.emplace_back();
            edge += 1.0;
        }
        epochs.back().push_back(e);
        if (hostile && e.kind == EventKind::adv && ++advs == 30)
            epochs.back().push_back(hostile(e));
    }
    return epochs;
}

struct WalkRun {
    std::string snapshots;  ///< every epoch's canonical text but its stats line
    IngestStats stats;
};

WalkRun run_walk(const std::vector<std::vector<Event>>& epochs, unsigned shards) {
    auto cfg = tiny_config(4096);
    cfg.shards = shards;
    TrackingService svc(cfg);
    WalkRun run;
    for (const auto& epoch : epochs) {
        svc.submit(epoch);
        svc.run_epoch();
        const std::string text = canonical_text(svc.snapshot());
        const std::size_t stats = text.find("\nstats ");
        const std::size_t rows = text.find('\n', stats + 1);
        run.snapshots += text.substr(0, stats) + text.substr(rows);
    }
    run.stats = svc.stats();
    return run;
}

TEST(ServeBackpressureTest, NonFiniteEventsAreRejectedBeforeAdmission) {
    // One hostile event beside the walk's 30th advertisement: a NaN RSSI, a
    // pose at a NaN position, a NaN or an infinite timestamp. Refused at
    // submit, it leaves every snapshot row as the clean stream has it.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::function<Event(Event)> hostile[] = {
        [&](Event e) {
            e.rssi_dbm = nan;
            return e;
        },
        [&](Event e) { return pose_event(e.client, e.t, {nan, nan}); },
        [&](Event e) {
            e.t = nan;
            return e;
        },
        [&](Event e) {
            e.t = inf;
            return e;
        },
    };
    for (const unsigned shards : {1u, 2u}) {
        const WalkRun ref = run_walk(one_walk_epochs(), shards);
        ASSERT_NE(ref.snapshots.find(" fit=1 "), std::string::npos);
        for (const auto& make : hostile) {
            const WalkRun run = run_walk(one_walk_epochs(make), shards);
            EXPECT_EQ(run.snapshots, ref.snapshots);
            EXPECT_EQ(run.stats.rejected, 1u);
            EXPECT_EQ(run.stats.submitted, ref.stats.submitted + 1);
            EXPECT_EQ(run.stats.submitted, run.stats.accepted + run.stats.rejected);
            EXPECT_EQ(run.stats.accepted, ref.stats.accepted);
        }
    }
}

}  // namespace
}  // namespace locble::serve
