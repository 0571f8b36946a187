// Epoch flight recorder + health/status surface (ISSUE 7 tentpole tests):
// ring semantics, exact per-epoch IngestStats deltas, event-time staleness
// with hand-checkable timestamps, snapshot-row backfill, the versioned
// JSON dumps, the ok/degraded/overloaded classification, and byte-identity
// of the status "deterministic" object across shard counts.

#include "locble/serve/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "locble/serve/event.hpp"
#include "locble/serve/service.hpp"

namespace locble::serve {
namespace {

TrackingService::Config recorder_config(unsigned shards,
                                        std::size_t recorder_epochs) {
    TrackingService::Config cfg;
    cfg.shards = shards;
    cfg.threads = 1;
    cfg.shard.session.pipeline.use_envaware = false;
    cfg.shard.session.pipeline.gamma_prior_dbm = -59.0;
    cfg.shard.idle_timeout_s = 1e9;  // staleness tests keep sessions resident
    cfg.flight_recorder_epochs = recorder_epochs;
    return cfg;
}

/// `client` walking +x at 1 m/s past beacon 7 at (5, 2): a pose and an
/// advertisement at t = k / 10 for every k in [first, last]. Its first 2 s
/// batch, once closed, gives the session a fit.
void submit_walk(TrackingService& svc, ClientId client, int first, int last) {
    for (int k = first; k <= last; ++k) {
        const double t = k / 10.0;
        svc.submit(pose_event(client, t, {t, 0.0}));
        const double dist = std::max(std::hypot(5.0 - t, 2.0), 0.1);
        svc.submit(adv_event(client, t, 7, -59.0 - 20.0 * std::log10(dist)));
    }
}

std::string deterministic_part(const std::string& status_json_text) {
    const std::size_t nd = status_json_text.find("\"nd\":");
    return status_json_text.substr(
        0, nd == std::string::npos ? status_json_text.size() : nd);
}

TEST(FlightRecorderTest, DisabledRecorderStaysEmptyAndStatusIsInert) {
    TrackingService svc(recorder_config(1, 0));
    EXPECT_FALSE(svc.flight_recorder().enabled());
    svc.submit(adv_event(1, 1.0, 7, -60.0));
    svc.run_epoch();
    svc.run_epoch();
    EXPECT_EQ(svc.flight_recorder().size(), 0u);
    EXPECT_EQ(svc.flight_recorder().epochs_recorded(), 0u);
    // status() with no history: zeroed, healthy, no crash.
    const ServiceStatus st = svc.status();
    EXPECT_EQ(st.window_epochs, 0u);
    EXPECT_EQ(st.health, ServiceHealth::ok);
}

TEST(FlightRecorderTest, RingKeepsTheNewestCapacityEpochs) {
    TrackingService svc(recorder_config(1, 4));
    for (int e = 1; e <= 7; ++e) {
        svc.submit(adv_event(1, 1.0 * e, 7, -60.0));
        svc.run_epoch();
    }
    const FlightRecorder& rec = svc.flight_recorder();
    EXPECT_EQ(rec.capacity(), 4u);
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.epochs_recorded(), 7u);
    const auto records = rec.records();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records.front().epoch, 4u);  // oldest survivor
    EXPECT_EQ(records.back().epoch, 7u);
    ASSERT_NE(rec.latest(), nullptr);
    EXPECT_EQ(rec.latest()->epoch, 7u);
}

TEST(FlightRecorderTest, DeltasAreExactPerEpochIncrements) {
    TrackingService svc(recorder_config(1, 8));
    svc.submit(pose_event(1, 0.5, {1.0, 1.0}));
    svc.submit(adv_event(1, 1.0, 7, -60.0));
    svc.run_epoch();
    svc.submit(adv_event(1, 2.0, 7, -61.0));
    svc.submit(adv_event(1, 2.5, 8, -62.0));
    svc.run_epoch();
    svc.run_epoch();  // empty epoch: all-zero delta

    const auto records = svc.flight_recorder().records();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].delta.submitted, 2u);
    EXPECT_EQ(records[0].delta.accepted, 2u);
    EXPECT_EQ(records[0].delta.clients_created, 1u);
    EXPECT_EQ(records[0].delta.sessions_created, 1u);
    EXPECT_EQ(records[1].delta.submitted, 2u);
    EXPECT_EQ(records[1].delta.sessions_created, 1u);  // beacon 8 is new
    EXPECT_EQ(records[1].delta.clients_created, 0u);
    EXPECT_EQ(records[2].delta.submitted, 0u);
    EXPECT_EQ(records[2].delta.accepted, 0u);
    // Deltas re-sum to the service totals.
    std::uint64_t total = 0;
    for (const auto& r : records) total += r.delta.submitted;
    EXPECT_EQ(total, svc.stats().submitted);
}

TEST(FlightRecorderTest, StalenessIsHorizonMinusLastEventTime) {
    TrackingService svc(recorder_config(1, 8));
    // Epoch 1: both sessions current at the horizon. (Each adv needs a
    // pose on its client to fuse into the session — an unpaired adv never
    // advances the session's last_event_t.)
    svc.submit(pose_event(1, 1.0, {1.0, 1.0}));
    svc.submit(adv_event(1, 1.0, 7, -60.0));
    svc.submit(pose_event(2, 1.0, {2.0, 1.0}));
    svc.submit(adv_event(2, 1.0, 7, -61.0));
    svc.run_epoch();
    {
        const EpochRecord* r = svc.flight_recorder().latest();
        ASSERT_NE(r, nullptr);
        EXPECT_DOUBLE_EQ(r->horizon, 1.0);
        EXPECT_EQ(r->sessions_live, 2u);
        EXPECT_EQ(r->staleness_s.count(), 2u);
        EXPECT_DOUBLE_EQ(r->staleness_s.max(), 0.0);
    }
    // Epoch 2: client 2 advances the horizon to 9, client 1 stays at 1 —
    // its snapshot row is now exactly 8 s stale.
    svc.submit(pose_event(2, 9.0, {2.0, 2.0}));
    svc.submit(adv_event(2, 9.0, 7, -60.0));
    svc.run_epoch();
    {
        const EpochRecord* r = svc.flight_recorder().latest();
        ASSERT_NE(r, nullptr);
        EXPECT_DOUBLE_EQ(r->horizon, 9.0);
        EXPECT_EQ(r->staleness_s.count(), 2u);
        EXPECT_DOUBLE_EQ(r->staleness_s.max(), 8.0);
        // Sketch resolution is 0.5 s (upper 120, resolution 240): 8 s sits
        // on a bucket edge, so the p-quantiles land exactly.
        EXPECT_DOUBLE_EQ(r->staleness_s.quantile(1.0), 8.0);
        EXPECT_DOUBLE_EQ(r->staleness_s.quantile(0.5), 0.5);
    }
}

TEST(FlightRecorderTest, SnapshotRowsAreBackfilled) {
    TrackingService svc(recorder_config(2, 8));
    svc.submit(adv_event(1, 1.0, 7, -60.0));
    svc.submit(adv_event(2, 1.0, 9, -61.0));
    svc.run_epoch();
    EXPECT_EQ(svc.flight_recorder().latest()->snapshot_rows, 0u);
    const auto snap = svc.snapshot();
    EXPECT_EQ(svc.flight_recorder().latest()->snapshot_rows,
              static_cast<std::uint64_t>(snap.estimates.size()));
    EXPECT_GT(snap.estimates.size(), 0u);
}

TEST(FlightRecorderTest, RecorderJsonIsVersionedAndStructured) {
    TrackingService svc(recorder_config(2, 4));
    svc.submit(adv_event(1, 1.0, 7, -60.0));
    svc.run_epoch();
    const std::string json = svc.flight_recorder().to_json();
    EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"capacity\":4"), std::string::npos);
    EXPECT_NE(json.find("\"epochs_recorded\":1"), std::string::npos);
    EXPECT_NE(json.find("\"records\":["), std::string::npos);
    EXPECT_NE(json.find("\"staleness_s\":{"), std::string::npos);
    // Every record carries the epoch's whole IngestStats delta.
    for (const char* field :
         {"submitted", "accepted", "dropped", "rejected", "late", "epochs",
          "clients_created", "clients_evicted", "sessions_created",
          "sessions_evicted", "sessions_reset", "batches_flushed", "solves"})
        EXPECT_NE(json.find("\"" + std::string(field) + "\":"), std::string::npos)
            << field;
    // ND data is quarantined under its own key, one per record.
    EXPECT_NE(json.find("\"nd\":{\"wall_epoch_us\":"), std::string::npos);
    EXPECT_NE(json.find("\"shards\":["), std::string::npos);
}

TEST(ServiceStatusTest, HealthyFleetReportsOk) {
    TrackingService svc(recorder_config(1, 16));
    for (int e = 1; e <= 3; ++e) {
        submit_walk(svc, 1, 30 * e - 29, 30 * e);
        submit_walk(svc, 2, 30 * e - 29, 30 * e);
        svc.run_epoch();
    }
    const ServiceStatus st = svc.status();
    EXPECT_EQ(st.health, ServiceHealth::ok);
    EXPECT_EQ(st.window_epochs, 3u);
    EXPECT_EQ(st.sessions_live, 2u);
    EXPECT_EQ(st.sessions_no_fit, 0u);
    EXPECT_DOUBLE_EQ(st.drop_rate, 0.0);
    EXPECT_DOUBLE_EQ(st.eviction_rate, 0.0);
    EXPECT_LT(st.staleness_p99_s, 1.0);
    EXPECT_EQ(std::string(health_name(st.health)), "ok");
}

TEST(ServiceStatusTest, StaleSessionsDegradeThenOverload) {
    // One session falls behind the horizon: 40 s stale -> degraded
    // (kDegradedStalenessP99S, 30 s), then 100 s stale -> overloaded
    // (kOverloadedStalenessP99S, 90 s).
    TrackingService svc(recorder_config(1, 16));
    submit_walk(svc, 1, 1, 30);
    submit_walk(svc, 2, 1, 30);
    svc.run_epoch();
    EXPECT_EQ(svc.status().health, ServiceHealth::ok);

    submit_walk(svc, 2, 430, 430);
    svc.run_epoch();
    EXPECT_EQ(svc.status().health, ServiceHealth::degraded);
    EXPECT_DOUBLE_EQ(svc.status().staleness_p99_s, 40.0);

    submit_walk(svc, 2, 1030, 1030);
    svc.run_epoch();
    EXPECT_EQ(svc.status().health, ServiceHealth::overloaded);
}

TEST(ServiceStatusTest, HeavyDropsClassifyAsOverloaded) {
    auto cfg = recorder_config(1, 16);
    cfg.shard.queue_capacity = 4;
    TrackingService svc(cfg);
    for (int i = 0; i < 100; ++i)
        svc.submit(adv_event(1, 0.1 * (i + 1), 7, -60.0));
    svc.run_epoch();
    const ServiceStatus st = svc.status();
    EXPECT_EQ(st.window_submitted, 100u);
    EXPECT_EQ(st.window_dropped, 96u);
    EXPECT_DOUBLE_EQ(st.drop_rate, 0.96);
    EXPECT_EQ(st.health, ServiceHealth::overloaded);
}

TEST(ServiceStatusTest, StatusJsonDeterministicAcrossShardCounts) {
    const auto run = [](unsigned shards) {
        TrackingService svc(recorder_config(shards, 16));
        for (int e = 1; e <= 4; ++e) {
            for (int c = 1; c <= 9; ++c) {
                svc.submit(pose_event(static_cast<ClientId>(c),
                                      1.0 * e - 0.5, {0.5 * c, 1.0}));
                svc.submit(adv_event(static_cast<ClientId>(c), 1.0 * e,
                                     static_cast<BeaconId>(c % 3 + 1), -60.0 - c));
            }
            svc.run_epoch();
        }
        return status_json(svc.status());
    };
    const std::string s1 = run(1);
    const std::string s8 = run(8);
    EXPECT_NE(s1.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(s1.find("\"deterministic\":{"), std::string::npos);
    EXPECT_NE(s1.find("\"nd\":{"), std::string::npos);
    // The deterministic object (and everything before "nd") is
    // byte-identical whatever the shard count.
    EXPECT_EQ(deterministic_part(s1), deterministic_part(s8));
    EXPECT_NE(deterministic_part(s1).find("\"health\":"), std::string::npos);
}

TEST(ServiceStatusTest, StatusWindowIsBoundedByConfigAndHistory) {
    // The window is kStatusWindowEpochs, or what the recorder holds.
    const int epochs = static_cast<int>(kStatusWindowEpochs) + 4;
    for (const std::size_t capacity : {std::size_t{32}, std::size_t{4}}) {
        TrackingService svc(recorder_config(1, capacity));
        for (int e = 1; e <= epochs; ++e) {
            svc.submit(adv_event(1, 1.0 * e, 7, -60.0));
            svc.run_epoch();
        }
        const std::size_t window = std::min(kStatusWindowEpochs, capacity);
        const ServiceStatus st = svc.status();
        EXPECT_EQ(st.epoch, static_cast<std::uint64_t>(epochs));
        EXPECT_EQ(st.window_epochs, window);
        EXPECT_EQ(st.window_submitted, window);  // one event per epoch in-window
    }
}

}  // namespace
}  // namespace locble::serve
