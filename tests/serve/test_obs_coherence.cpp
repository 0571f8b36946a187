// IngestStats <-> obs coherence property (ISSUE 7 satellite): the merged
// IngestStats totals and the serve.* registry counters are two views of
// the same accounting, and they must agree EXACTLY — for any shard count,
// with evictions running, and with forced queue overflow. IngestStats is
// the API of record (works in LOCBLE_OBS=OFF builds); the obs counters are
// the exported copy. A drift between them means a path bumped one ledger
// and not the other.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "locble/common/rng.hpp"
#include "locble/obs/metrics.hpp"
#include "locble/obs/obs.hpp"
#include "locble/serve/event.hpp"
#include "locble/serve/service.hpp"

namespace locble::serve {
namespace {

/// A messy fleet: staggered clients, out-of-order timestamps (late events),
/// bursts against a bounded queue, and gaps long enough to trip idle
/// eviction. Pure function of `seed`.
std::vector<Event> make_workload(std::uint64_t seed) {
    locble::Rng rng(seed);
    std::vector<Event> events;
    for (int c = 1; c <= 12; ++c) {
        const auto client = static_cast<ClientId>(c);
        double t = 0.1 * c;
        // Half the fleet stops early, then the timeline keeps advancing
        // via the other half — idle eviction fires on the quiet cohort.
        const double stop = (c % 2 == 0) ? 6.0 : 60.0;
        while (t < stop) {
            t += rng.uniform(0.02, 0.4);
            if (rng.uniform(0.0, 1.0) < 0.25) {
                events.push_back(pose_event(client, t, {rng.uniform(0.0, 8.0),
                                                        rng.uniform(0.0, 8.0)}));
            } else {
                const auto beacon =
                    static_cast<std::uint64_t>(rng.uniform_int(1, 3));
                events.push_back(
                    adv_event(client, t, beacon, rng.uniform(-75.0, -55.0)));
            }
            // Occasional regression within the client stream: counted late.
            if (rng.uniform(0.0, 1.0) < 0.05)
                events.push_back(
                    adv_event(client, t - 1.0, 1, rng.uniform(-75.0, -55.0)));
        }
    }
    return events;
}

TrackingService::Config coherence_config(unsigned shards, std::size_t capacity) {
    TrackingService::Config cfg;
    cfg.shards = shards;
    cfg.threads = 1;
    cfg.shard.session.pipeline.use_envaware = false;
    cfg.shard.session.pipeline.gamma_prior_dbm = -59.0;
    cfg.shard.queue_capacity = capacity;
    cfg.shard.idle_timeout_s = 10.0;  // the quiet cohort gets evicted
    return cfg;
}

/// Run the workload in 2 s epoch slices; returns the merged totals.
IngestStats run_workload(const std::vector<Event>& events,
                         const TrackingService::Config& cfg) {
    TrackingService svc(cfg);
    std::size_t i = 0;
    for (double edge = 2.0; i < events.size(); edge += 2.0) {
        while (i < events.size() && events[i].t <= edge) svc.submit(events[i++]);
        svc.run_epoch();
    }
    svc.run_epoch();  // one trailing empty epoch (eviction sweep)
    (void)svc.snapshot();
    return svc.stats();
}

#if LOCBLE_OBS
std::map<std::string, std::uint64_t> obs_counters() {
    std::map<std::string, std::uint64_t> out;
    for (const auto& m : obs::Registry::global().snapshot())
        if (m.kind == obs::MetricKind::counter) out[m.name] = m.count;
    return out;
}

/// Every IngestStats field with an obs twin, as (counter name, total).
std::vector<std::pair<std::string, std::uint64_t>> expected_pairs(
    const IngestStats& s) {
    return {
        {"serve.epochs", s.epochs},
        {"serve.ingest.accepted", s.accepted},
        {"serve.ingest.dropped", s.dropped},
        {"serve.ingest.rejected", s.rejected},
        {"serve.ingest.late", s.late},
        {"serve.clients.created", s.clients_created},
        {"serve.clients.evicted", s.clients_evicted},
        {"serve.sessions.created", s.sessions_created},
        {"serve.sessions.evicted", s.sessions_evicted},
        {"serve.sessions.reset", s.sessions_reset},
        {"serve.batches", s.batches_flushed},
        {"serve.solves", s.solves},
        {"serve.cluster.runs", s.cluster_runs},
    };
}
#endif

void check_coherence(unsigned shards, std::size_t capacity,
                     OverflowPolicy policy) {
    const auto events = make_workload(991);
    auto cfg = coherence_config(shards, capacity);
    cfg.shard.overflow = policy;

#if LOCBLE_OBS
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    reg.set_enabled(true);
#endif
    const IngestStats s = run_workload(events, cfg);
#if LOCBLE_OBS
    reg.set_enabled(false);
    const auto counters = obs_counters();
#endif

    // The ledger's internal identity holds regardless of build flavor.
    // Every submitted event is either admitted or rejected at the door;
    // `late` overlaps accepted (late events are still admitted) and
    // `dropped` counts drop_oldest evictions of already-accepted events.
    EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(events.size()));
    EXPECT_EQ(s.submitted, s.accepted + s.rejected);
    EXPECT_LE(s.dropped, s.accepted);
    EXPECT_LE(s.late, s.submitted);

#if LOCBLE_OBS
    for (const auto& [name, total] : expected_pairs(s)) {
        const auto it = counters.find(name);
        if (it == counters.end()) {
            // A never-bumped counter is simply unregistered; its total
            // must then be zero.
            EXPECT_EQ(total, 0u) << name << " missing with nonzero total";
        } else {
            EXPECT_EQ(it->second, total) << name << " disagrees at " << shards
                                         << " shards";
        }
    }
#endif

    // The workload exercised what it claims to exercise.
    EXPECT_GT(s.solves, 0u);
    EXPECT_GT(s.late, 0u);
    EXPECT_GT(s.sessions_evicted, 0u);
    if (capacity <= 8) {
        EXPECT_GT(s.dropped + s.rejected, 0u);
    }
}

TEST(ServeObsCoherenceTest, CountersMatchStatsAtEveryShardCount) {
    for (const unsigned shards : {1u, 2u, 8u})
        check_coherence(shards, 1 << 12, OverflowPolicy::drop_oldest);
}

TEST(ServeObsCoherenceTest, CountersMatchStatsUnderForcedOverflow) {
    check_coherence(1, 8, OverflowPolicy::drop_oldest);
    check_coherence(4, 8, OverflowPolicy::reject);
}

TEST(ServeObsCoherenceTest, MergedTotalsAreShardCountInvariant) {
    const auto events = make_workload(991);
    std::vector<IngestStats> runs;
    for (const unsigned shards : {1u, 2u, 8u})
        runs.push_back(
            run_workload(events, coherence_config(shards, 1 << 12)));
    // Every IngestStats total is shard-count invariant (stats.hpp), so the
    // whole struct is compared.
    for (std::size_t i = 1; i < runs.size(); ++i) EXPECT_EQ(runs[i], runs[0]);
}

}  // namespace
}  // namespace locble::serve
