// IngestStats <-> obs coherence property (ISSUE 7 satellite): the merged
// IngestStats totals and the serve.* registry counters are two views of
// the same accounting, and they must agree EXACTLY — for any shard count,
// with evictions running, and with forced queue overflow. IngestStats is
// the API of record (works in LOCBLE_OBS=OFF builds); the obs counters are
// the exported copy. A drift between them means a path bumped one ledger
// and not the other.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "locble/common/rng.hpp"
#include "locble/core/envaware.hpp"
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

/// `events` with a non-finite copy after every 25th event: the copy of an
/// advertisement carries a NaN RSSI, that of a pose a NaN position.
std::vector<Event> with_non_finite(const std::vector<Event>& events) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<Event> out;
    for (std::size_t i = 0; i < events.size(); ++i) {
        out.push_back(events[i]);
        if (i % 25 != 24) continue;
        Event bad = events[i];
        if (bad.kind == EventKind::adv)
            bad.rssi_dbm = nan;
        else
            bad.position = {nan, nan};
        out.push_back(bad);
    }
    return out;
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
    };
}
#endif

void check_coherence(unsigned shards, std::size_t capacity, bool non_finite) {
    const auto clean = make_workload(991);
    const auto events = non_finite ? with_non_finite(clean) : clean;
    const auto cfg = coherence_config(shards, capacity);

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
    // `dropped` counts evictions of already-accepted events.
    EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(events.size()));
    EXPECT_EQ(s.submitted, s.accepted + s.rejected);
    EXPECT_EQ(s.rejected, static_cast<std::uint64_t>(events.size() - clean.size()));
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
        EXPECT_GT(s.dropped, 0u);
    }
    if (non_finite) {
        EXPECT_GT(s.rejected, 0u);
    }
}

TEST(ServeObsCoherenceTest, CountersMatchStatsAtEveryShardCount) {
    for (const unsigned shards : {1u, 2u, 8u}) check_coherence(shards, 1 << 12, false);
}

TEST(ServeObsCoherenceTest, CountersMatchStatsUnderForcedOverflow) {
    check_coherence(1, 8, false);
    check_coherence(4, 8, true);
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

// --- Schedules beyond the phased loop: the ledger counters advance at the
// epoch swap (driver-side counts) and the barrier (worker-side counts), so
// each case ends at a barrier and compares there.

#if LOCBLE_OBS
void expect_counters_equal(const std::map<std::string, std::uint64_t>& counters,
                           const IngestStats& s, const std::string& what) {
    for (const auto& [name, total] : expected_pairs(s)) {
        const auto it = counters.find(name);
        EXPECT_EQ(it == counters.end() ? 0u : it->second, total) << name << ", " << what;
    }
}
#endif

/// Submit the events of the 2 s slice ending at `edge` (the run_workload
/// slicing); returns the next edge.
double submit_slice(TrackingService& svc, const std::vector<Event>& events,
                    std::size_t& i, double edge) {
    while (i < events.size() && events[i].t <= edge) svc.submit(events[i++]);
    return edge + 2.0;
}

TEST(ServeObsCoherenceTest, CountersMatchStatsUnderOverlappedIngest) {
    const auto events = make_workload(991);
    auto cfg = coherence_config(4, 1 << 12);
    cfg.threads = 2;
#if LOCBLE_OBS
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    reg.set_enabled(true);
#endif
    TrackingService svc(cfg);
    std::size_t i = 0;
    for (double edge = 2.0; i < events.size();) {
        svc.begin_epoch();  // each slice lands while an epoch is in flight
        edge = submit_slice(svc, events, i, edge);
        svc.end_epoch();
    }
    svc.run_epoch();
    const IngestStats s = svc.stats();
    EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(events.size()));
    EXPECT_EQ(svc.snapshot().stats, s);
    EXPECT_GT(s.solves, 0u);
    EXPECT_GT(s.sessions_evicted, 0u);
#if LOCBLE_OBS
    reg.set_enabled(false);
    expect_counters_equal(obs_counters(), s, "overlapped ingest");
#endif
}

TEST(ServeObsCoherenceTest, CountersSplitAcrossACheckpointHandoff) {
    const auto events = make_workload(991);
#if LOCBLE_OBS
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    reg.set_enabled(true);
#endif
    std::size_t i = 0;
    double edge = 2.0;
    std::string ckpt;
    {
        TrackingService primary(coherence_config(2, 1 << 12));
        for (int epoch = 0; epoch < 10; ++epoch) {
            edge = submit_slice(primary, events, i, edge);
            primary.run_epoch();
        }
        edge = submit_slice(primary, events, i, edge);  // queued past the swap
        ckpt = primary.checkpoint();
    }
#if LOCBLE_OBS
    std::map<std::string, std::uint64_t> counters = obs_counters();
    reg.reset();
#endif
    TrackingService standby(coherence_config(4, 1 << 12));
    standby.restore_checkpoint(ckpt);
    standby.run_epoch();
    while (i < events.size()) {
        edge = submit_slice(standby, events, i, edge);
        standby.run_epoch();
    }
    standby.run_epoch();
    const IngestStats s = standby.stats();
#if LOCBLE_OBS
    reg.set_enabled(false);
    // The primary's counters up to the checkpoint plus the standby's own
    // account for every count exactly once.
    for (const auto& [name, n] : obs_counters()) counters[name] += n;
    expect_counters_equal(counters, s, "primary + standby");
#endif
    EXPECT_EQ(s, run_workload(events, coherence_config(2, 1 << 12)));
}

/// A worker exception loses no count: the work the failed epoch did before
/// the throw (here an idle eviction) is in the ledger and the counters.
/// The EnvAware model is untrained, so building the first session throws.
TEST(ServeObsCoherenceTest, WorkerExceptionLosesNoCount) {
    // (shards, threads): inline epochs at one thread, a worker pool above,
    // and workers past the shard count.
    for (const auto& [shards, threads] :
         {std::pair{1u, 1u}, std::pair{2u, 2u}, std::pair{4u, 2u}, std::pair{1u, 4u}}) {
        auto cfg = coherence_config(shards, 1 << 12);
        cfg.threads = threads;
        cfg.shard.session.pipeline.use_envaware = true;
#if LOCBLE_OBS
        obs::Registry& reg = obs::Registry::global();
        reg.reset();
        reg.set_enabled(true);
#endif
        TrackingService svc(cfg, core::EnvAware{});
        svc.submit(pose_event(1, 0.0, {0.0, 0.0}));
        svc.run_epoch();
        // Past the idle timeout: client 1 is evicted in the epoch where
        // client 2's first advertisement throws.
        svc.submit(adv_event(2, 20.0, 7, -60.0));
        EXPECT_THROW(svc.run_epoch(), std::invalid_argument);
        const IngestStats s = svc.stats();
        EXPECT_EQ(s.clients_evicted, 1u) << shards << " shards";
        EXPECT_EQ(s.accepted, 2u);
        EXPECT_EQ(s.epochs, 2u);
#if LOCBLE_OBS
        reg.set_enabled(false);
        expect_counters_equal(obs_counters(), s, std::to_string(shards) + " shards");
#endif
    }
}

}  // namespace
}  // namespace locble::serve
