// Properties of the pipelined epoch loop: overlapped ingest is invisible
// (byte-identical snapshot streams vs. the phase-separated schedule),
// incremental snapshots reconstruct the full view, and the rendezvous
// shard assignment is suffix-stable and balanced. docs/SERVING.md states
// each contract; these tests are the enforcement.
#include "locble/serve/service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "locble/serve/event.hpp"
#include "locble/sim/multi_client.hpp"

namespace locble::serve {
namespace {

TrackingService::Config service_config(unsigned shards, unsigned threads) {
    TrackingService::Config cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.shard.session.pipeline.use_envaware = false;
    cfg.shard.session.pipeline.gamma_prior_dbm = -59.0;
    cfg.shard.session.pipeline.solver.search_mode =
        core::LocationSolver::SearchMode::coarse_to_fine;
    cfg.shard.queue_capacity = 4096;
    return cfg;
}

/// Slice the workload into per-epoch submission batches at `epoch_s` edges
/// (the slicing the determinism suite's phased driver uses). Batches may be
/// empty — an epoch still runs on an empty interval.
std::vector<std::vector<Event>> chunk_by_epoch(
    const sim::MultiClientWorkload& wl, double epoch_s) {
    std::vector<std::vector<Event>> batches;
    std::size_t i = 0;
    for (double edge = epoch_s; i < wl.events.size(); edge += epoch_s) {
        std::vector<Event> b;
        while (i < wl.events.size() && wl.events[i].t <= edge)
            b.push_back(wl.events[i++]);
        batches.push_back(std::move(b));
    }
    return batches;
}

/// Phase-separated reference schedule: submit batch k, run epoch k to the
/// barrier, snapshot — ingest never overlaps execution.
std::string run_phased(const TrackingService::Config& cfg,
                       const std::vector<std::vector<Event>>& batches) {
    TrackingService svc(cfg);
    std::string stream;
    for (const auto& batch : batches) {
        svc.submit(batch);
        svc.run_epoch();
        stream += canonical_text(svc.snapshot());
    }
    svc.run_epoch();  // final epoch past the idle timeout: eviction too
    stream += canonical_text(svc.snapshot());
    return stream;
}

/// Pipelined schedule: batch k+1 is submitted *while epoch k is in flight*.
/// The phased-equivalence contract says this must be invisible.
std::string run_overlapped(const TrackingService::Config& cfg,
                           const std::vector<std::vector<Event>>& batches) {
    TrackingService svc(cfg);
    std::string stream;
    if (!batches.empty()) svc.submit(batches.front());
    for (std::size_t k = 0; k < batches.size(); ++k) {
        svc.begin_epoch();
        if (k + 1 < batches.size()) {
            // With more than one worker thread the epoch really is running
            // right now; with one it already completed inline — either way
            // these events land in the next epoch's buffers.
            if (svc.threads() > 1) {
                EXPECT_TRUE(svc.epoch_in_flight());
            }
            svc.submit(batches[k + 1]);
        }
        svc.end_epoch();
        stream += canonical_text(svc.snapshot());
    }
    svc.run_epoch();
    stream += canonical_text(svc.snapshot());
    return stream;
}

/// The tentpole acceptance property: overlapping ingest with epoch
/// execution produces the byte-identical snapshot stream of the phased
/// schedule, across shard/thread combinations.
TEST(ServePipelineTest, OverlappedIngestMatchesPhasedByteForByte) {
    sim::MultiClientConfig wcfg;
    wcfg.clients = 24;
    wcfg.beacons = 4;
    const auto wl = sim::make_multi_client_workload(wcfg, 17);
    const auto batches = chunk_by_epoch(wl, 4.0);
    ASSERT_GT(batches.size(), 3u);

    const std::string phased = run_phased(service_config(1, 1), batches);
    ASSERT_FALSE(phased.empty());
    EXPECT_EQ(phased, run_overlapped(service_config(1, 1), batches));
    EXPECT_EQ(phased, run_overlapped(service_config(4, 2), batches));
    EXPECT_EQ(phased, run_overlapped(service_config(8, 8), batches));
}

/// Backpressure accounting survives the overlap too: a saturated service
/// drops the exact same events whether ingest was overlapped or phased.
TEST(ServePipelineTest, OverflowUnderOverlapIsInvisible) {
    sim::MultiClientConfig wcfg;
    wcfg.clients = 16;
    wcfg.beacons = 4;
    const auto wl = sim::make_multi_client_workload(wcfg, 9);
    const auto batches = chunk_by_epoch(wl, 8.0);

    auto cfg = service_config(1, 1);
    cfg.shard.queue_capacity = 48;  // force overflow
    const std::string phased = run_phased(cfg, batches);
    auto ovl = service_config(4, 4);
    ovl.shard.queue_capacity = 48;
    EXPECT_EQ(phased, run_overlapped(ovl, batches));
}

/// Incremental snapshots reconstruct the full view: applying each epoch's
/// delta rows over a running map must reproduce the full snapshot exactly
/// (no evictions in this workload — evicted sessions are the documented
/// staleness caveat, exercised separately below).
TEST(ServePipelineTest, IncrementalSnapshotsReconstructTheFullView) {
    sim::MultiClientConfig wcfg;
    wcfg.clients = 16;
    wcfg.beacons = 4;
    const auto wl = sim::make_multi_client_workload(wcfg, 7);
    const auto batches = chunk_by_epoch(wl, 4.0);

    auto cfg = service_config(3, 2);
    cfg.shard.idle_timeout_s = 1e9;  // no evictions: reconstruction is exact
    TrackingService full_svc(cfg);
    TrackingService inc_svc(cfg);

    std::map<std::pair<ClientId, BeaconId>, BeaconEstimate> view;
    std::size_t delta_rows = 0;
    for (const auto& batch : batches) {
        full_svc.submit(batch);
        inc_svc.submit(batch);
        full_svc.run_epoch();
        inc_svc.run_epoch();

        ServiceSnapshot full = full_svc.snapshot(SnapshotMode::full);
        const ServiceSnapshot delta = inc_svc.snapshot(SnapshotMode::incremental);
        EXPECT_TRUE(delta.incremental);
        EXPECT_FALSE(full.incremental);
        EXPECT_EQ(delta.sessions_live, full.sessions_live);
        EXPECT_LE(delta.estimates.size(), full.estimates.size());
        delta_rows += delta.estimates.size();

        for (const BeaconEstimate& e : delta.estimates)
            view[{e.client, e.beacon}] = e;

        // Rebuild a full snapshot from the accumulated deltas and compare
        // canonically (borrowing full's header so only the rows differ).
        ServiceSnapshot rebuilt = full;
        rebuilt.estimates.clear();
        for (const auto& [key, e] : view) rebuilt.estimates.push_back(e);
        EXPECT_EQ(canonical_text(full), canonical_text(rebuilt));
    }
    // The whole point: the deltas carried fewer rows than re-reading the
    // fleet every epoch would have.
    EXPECT_GT(delta_rows, 0u);

    // A quiet epoch dirties nothing, so the next delta is empty …
    inc_svc.run_epoch();
    EXPECT_TRUE(inc_svc.snapshot(SnapshotMode::incremental).estimates.empty());
    // … and a full snapshot resets the baseline: the delta right after it
    // is empty too.
    full_svc.run_epoch();
    full_svc.snapshot(SnapshotMode::full);
    EXPECT_TRUE(full_svc.snapshot(SnapshotMode::incremental).estimates.empty());
}

/// The documented staleness caveat: an evicted session simply stops
/// appearing in deltas (no tombstones) — consumers detect disappearance
/// via sessions_live or a periodic full snapshot.
TEST(ServePipelineTest, EvictionEmitsNoTombstoneRows) {
    auto cfg = service_config(2, 1);
    cfg.shard.idle_timeout_s = 5.0;
    TrackingService svc(cfg);

    std::vector<Event> events;
    events.push_back(pose_event(100, 0.0, {0.0, 0.0}));
    events.push_back(adv_event(100, 0.5, 7, -60.0));
    events.push_back(adv_event(100, 1.0, 7, -61.0));
    svc.submit(events);
    svc.run_epoch();
    EXPECT_EQ(svc.snapshot(SnapshotMode::incremental).estimates.size(), 1u);
    EXPECT_EQ(svc.stats().sessions_evicted, 0u);

    // Another client far in the future pushes the horizon past the idle
    // timeout; client 100 is evicted at the next swap.
    svc.submit(pose_event(200, 30.0, {1.0, 1.0}));
    svc.run_epoch();
    const ServiceSnapshot delta = svc.snapshot(SnapshotMode::incremental);
    EXPECT_EQ(svc.stats().clients_evicted, 1u);
    for (const BeaconEstimate& e : delta.estimates)
        EXPECT_NE(e.client, 100u);  // no tombstone row for the evicted client
    EXPECT_EQ(delta.sessions_live, 0u);  // client 200 has poses, no sessions
}

/// Rendezvous hashing's defining property: growing the fleet from n to
/// n+1 shards only ever moves a client *to the new shard* — every client
/// that stays is untouched. Together with the balance check it pins the
/// map itself, which every recorded per-shard load follows from.
TEST(ServePipelineTest, RendezvousAssignmentIsSuffixStable) {
    for (std::uint32_t n = 1; n <= 16; ++n) {
        for (std::uint64_t c = 0; c < 512; ++c) {
            const ClientId client = c * 0x9e3779b97f4a7c15ull + c;
            const std::uint32_t before = shard_of(client, n);
            const std::uint32_t after = shard_of(client, n + 1);
            ASSERT_LT(before, n);
            ASSERT_LT(after, n + 1);
            EXPECT_TRUE(after == before || after == n)
                << "client " << client << " moved " << before << " -> "
                << after << " when growing " << n << " -> " << n + 1;
        }
    }
    // Balance sanity: every shard of 8 owns a decent share of 4096 clients.
    std::vector<std::size_t> counts(8, 0);
    for (std::uint64_t c = 0; c < 4096; ++c) ++counts[shard_of(c, 8)];
    for (const std::size_t n : counts) {
        EXPECT_GT(n, 4096u / 16);  // no shard below half the fair share
        EXPECT_LT(n, 4096u / 4);   // none above twice the fair share
    }
}

/// Driver-side misuse is rejected loudly: everything that reads or
/// restructures worker-side state throws while an epoch is in flight.
TEST(ServePipelineTest, InFlightEpochGuardsDriverSideReads) {
    TrackingService svc(service_config(4, 4));
    svc.submit(pose_event(1, 0.0, {0.0, 0.0}));
    svc.submit(adv_event(1, 0.5, 2, -60.0));
    svc.begin_epoch();
    ASSERT_TRUE(svc.epoch_in_flight());
    EXPECT_THROW(svc.snapshot(), std::logic_error);
    EXPECT_THROW(svc.stats(), std::logic_error);
    EXPECT_THROW(svc.begin_epoch(), std::logic_error);
    svc.submit(adv_event(1, 0.6, 2, -61.0));  // ingest stays legal
    svc.end_epoch();
    EXPECT_FALSE(svc.epoch_in_flight());
    svc.end_epoch();  // idempotent
    EXPECT_EQ(svc.snapshot().epoch, 1u);
    EXPECT_EQ(svc.stats().accepted, 3u);
}

}  // namespace
}  // namespace locble::serve
