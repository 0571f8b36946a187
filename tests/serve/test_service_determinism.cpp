#include "locble/serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "locble/obs/metrics.hpp"
#include "locble/obs/obs.hpp"
#include "locble/serve/event.hpp"
#include "locble/sim/multi_client.hpp"
#include "locble/wire/log.hpp"

namespace locble::serve {
namespace {

TrackingService::Config service_config(unsigned shards, unsigned threads) {
    TrackingService::Config cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.shard.session.pipeline.use_envaware = false;
    cfg.shard.session.pipeline.gamma_prior_dbm = -59.0;
    // The production fast path. Sessions see identical event sequences in
    // every sharding, so even its warm-start state evolves identically —
    // the invariance under test holds bit-for-bit in either search mode,
    // and this one keeps the 64-client sweep fast.
    cfg.shard.session.pipeline.solver.search_mode =
        core::LocationSolver::SearchMode::coarse_to_fine;
    cfg.shard.queue_capacity = 4096;
    return cfg;
}

/// Canonical text of the deterministic obs metrics (the _ND metrics are
/// scheduling-dependent by declaration and excluded from the contract).
std::string obs_canonical_text() {
    std::string out;
    for (const auto& m : obs::Registry::global().snapshot()) {
        if (!m.deterministic) continue;
        out += m.name + " count=" + std::to_string(m.count);
        for (const std::uint64_t b : m.buckets)
            out += " " + std::to_string(b);
        out += "\n";
    }
    return out;
}

/// Drive one full service run over the workload, snapshotting after every
/// epoch; returns the concatenated canonical snapshot stream.
std::string run_service(const sim::MultiClientWorkload& wl, unsigned shards,
                        unsigned threads, double epoch_s) {
    TrackingService svc(service_config(shards, threads));
    std::string stream;
    std::size_t i = 0;
    for (double edge = epoch_s; i < wl.events.size(); edge += epoch_s) {
        while (i < wl.events.size() && wl.events[i].t <= edge)
            svc.submit(wl.events[i++]);
        svc.run_epoch();
        stream += canonical_text(svc.snapshot());
    }
    // One final epoch past the idle timeout exercises eviction too.
    svc.run_epoch();
    stream += canonical_text(svc.snapshot());
    return stream;
}

/// The tentpole's acceptance property: 1 shard on 1 thread and 8 shards on
/// 8 threads must produce byte-identical snapshot streams and identical
/// deterministic obs metrics, across seeds, with clients interleaved.
TEST(ServeDeterminismTest, ShardAndThreadCountAreInvisible) {
    sim::MultiClientConfig wcfg;
    wcfg.clients = 64;
    wcfg.beacons = 8;
    obs::Registry& reg = obs::Registry::global();

    for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
        const auto wl = sim::make_multi_client_workload(wcfg, seed);
        ASSERT_GT(wl.events.size(), 1000u);

        reg.reset();
        reg.set_enabled(true);
        const std::string serial = run_service(wl, 1, 1, 4.0);
        const std::string serial_obs = obs_canonical_text();

        reg.reset();
        const std::string sharded = run_service(wl, 8, 8, 4.0);
        const std::string sharded_obs = obs_canonical_text();
        reg.set_enabled(false);

        ASSERT_FALSE(serial.empty());
        // Byte-identical snapshot streams: every estimate, every stat,
        // every epoch.
        EXPECT_EQ(serial, sharded) << "seed " << seed;
        // Order-invariant obs merge: deterministic counters/histograms
        // match exactly too.
        EXPECT_EQ(serial_obs, sharded_obs) << "seed " << seed;
    }
}

/// Intermediate shard counts sit on the same canonical stream (spot-check
/// with one seed — the property is shard-count-invariance, not just the
/// two extremes).
TEST(ServeDeterminismTest, IntermediateShardCountsAgree) {
    sim::MultiClientConfig wcfg;
    wcfg.clients = 24;
    wcfg.beacons = 4;
    const auto wl = sim::make_multi_client_workload(wcfg, 5);
    const std::string base = run_service(wl, 1, 1, 4.0);
    EXPECT_EQ(base, run_service(wl, 2, 1, 4.0));
    EXPECT_EQ(base, run_service(wl, 3, 2, 4.0));
    EXPECT_EQ(base, run_service(wl, 5, 4, 4.0));
}

/// Overflow decisions are per-client, so even a saturated service drops
/// the exact same events whatever the shard count.
TEST(ServeDeterminismTest, BackpressureIsShardCountInvariant) {
    sim::MultiClientConfig wcfg;
    wcfg.clients = 16;
    wcfg.beacons = 4;
    const auto wl = sim::make_multi_client_workload(wcfg, 9);

    std::string streams[2];
    std::uint64_t dropped[2] = {0, 0};
    int k = 0;
    for (const unsigned shards : {1u, 8u}) {
        auto cfg = service_config(shards, shards == 1 ? 1u : 4u);
        cfg.shard.queue_capacity = 48;  // force overflow
        TrackingService svc(cfg);
        std::size_t i = 0;
        for (double edge = 8.0; i < wl.events.size(); edge += 8.0) {
            while (i < wl.events.size() && wl.events[i].t <= edge)
                svc.submit(wl.events[i++]);
            svc.run_epoch();
            streams[k] += canonical_text(svc.snapshot());
        }
        dropped[k] = svc.stats().dropped;
        ++k;
    }
    EXPECT_GT(dropped[0], 0u);  // the workload really saturated
    EXPECT_EQ(dropped[0], dropped[1]);
    EXPECT_EQ(streams[0], streams[1]);
}

/// Workers claim clients and sessions, not shards, so a thread count past
/// the shard count is legal and as invisible as any other.
TEST(ServeDeterminismTest, ThreadsPastTheShardCountAreInvisible) {
    sim::MultiClientConfig wcfg;
    wcfg.clients = 64;
    wcfg.beacons = 8;
    const auto wl = sim::make_multi_client_workload(wcfg, 11);
    obs::Registry& reg = obs::Registry::global();

    reg.reset();
    reg.set_enabled(true);
    const std::string serial = run_service(wl, 1, 1, 4.0);
    const std::string serial_obs = obs_canonical_text();
    for (const auto& [shards, threads] : {std::pair{1u, 4u}, std::pair{4u, 8u}}) {
        EXPECT_EQ(TrackingService(service_config(shards, threads)).threads(), threads);
        reg.reset();
        EXPECT_EQ(serial, run_service(wl, shards, threads, 4.0))
            << shards << " shards, " << threads << " threads";
        EXPECT_EQ(serial_obs, obs_canonical_text())
            << shards << " shards, " << threads << " threads";
    }
    reg.set_enabled(false);
}

/// A fleet of small clients with one hot client among them: 24 clients on 4
/// beacons each, and one client on 32 beacons that arrives 10 s in. Clients
/// arrive over the run (staggered starts) and a 6 s idle timeout evicts the
/// early ones while later ones are still arriving.
std::vector<Event> hot_client_stream() {
    sim::MultiClientConfig fleet;
    fleet.clients = 24;
    fleet.beacons = 4;
    sim::MultiClientConfig hot;
    hot.clients = 1;
    hot.beacons = 32;
    std::vector<Event> events = sim::make_multi_client_workload(fleet, 17).events;
    const auto h = sim::make_multi_client_workload(hot, 18);
    const ClientId hot_id =
        std::ranges::max(events, {}, &Event::client).client + 1;
    for (Event e : h.events) {
        e.client = hot_id;
        e.t += 10.0;
        events.push_back(e);
    }
    std::ranges::stable_sort(events, {}, &Event::t);
    return events;
}

/// Everything a run shows that must not depend on its schedule: after every
/// epoch the incremental snapshot and the deterministic status; at the end
/// the deterministic obs metrics and the checkpoint's `meta` and `client`
/// sections (the `recorder` section carries per-shard rows and wall time).
struct ScheduleOutcome {
    std::string stream;
    std::string obs;
    std::string checkpoint;
    IngestStats mid_run;  ///< stats halfway through the epochs
};

ScheduleOutcome run_schedule(const std::vector<Event>& events, unsigned shards,
                             unsigned threads, bool overlapped) {
    auto cfg = service_config(shards, threads);
    cfg.shard.idle_timeout_s = 6.0;
    std::vector<std::vector<Event>> batches;
    std::size_t i = 0;
    for (double edge = 2.0; i < events.size(); edge += 2.0) {
        batches.emplace_back();
        while (i < events.size() && events[i].t <= edge) batches.back().push_back(events[i++]);
    }
    batches.emplace_back();  // a final epoch past the idle timeout of everyone

    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    reg.set_enabled(true);
    ScheduleOutcome out;
    TrackingService svc(cfg);
    const auto observe = [&] {
        const std::string status = status_json(svc.status());
        out.stream += canonical_text(svc.snapshot(SnapshotMode::incremental)) +
                      status.substr(0, status.find("\"nd\":")) + "\n";
    };
    if (overlapped) svc.submit(batches.front());
    for (std::size_t k = 0; k < batches.size(); ++k) {
        if (overlapped) {
            svc.begin_epoch();
            if (k + 1 < batches.size()) svc.submit(batches[k + 1]);
            svc.end_epoch();
        } else {
            svc.submit(batches[k]);
            svc.run_epoch();
        }
        observe();
        if (k == batches.size() / 2) out.mid_run = svc.stats();
    }
    out.obs = obs_canonical_text();
    reg.set_enabled(false);

    const std::string ckpt = svc.checkpoint();
    wire::LogReader log(ckpt);
    wire::LogRecord frame;
    while (log.next(frame) == wire::WireStatus::ok)
        if (frame.section_name != "recorder")
            out.checkpoint += std::string(frame.section_name) + ":" + std::string(frame.section_body);
    return out;
}

TEST(ServeDeterminismTest, HotClientStreamIsInvariantToShardsThreadsAndOverlap) {
    const std::vector<Event> events = hot_client_stream();
    const ScheduleOutcome base = run_schedule(events, 1, 1, false);
    // The stream really exercises the lifecycle mid-run: clients are
    // evicted while later ones are still to arrive.
    EXPECT_GT(base.mid_run.clients_evicted, 0u);
    EXPECT_LT(base.mid_run.clients_created, 25u);
    ASSERT_FALSE(base.stream.empty());
    EXPECT_NE(base.checkpoint.find("client:"), std::string::npos);

    for (const unsigned shards : {1u, 4u, 8u}) {
        for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
            for (const bool overlapped : {false, true}) {
                const ScheduleOutcome run = run_schedule(events, shards, threads, overlapped);
                const std::string where = std::to_string(shards) + " shards, " +
                                          std::to_string(threads) + " threads, " +
                                          (overlapped ? "overlapped" : "phased");
                EXPECT_EQ(base.stream, run.stream) << where;
                EXPECT_EQ(base.obs, run.obs) << where;
                EXPECT_EQ(base.checkpoint, run.checkpoint) << where;
            }
        }
    }
}

}  // namespace
}  // namespace locble::serve
