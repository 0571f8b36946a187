// Record/replay and checkpoint/restore identity (docs/WIRE.md): a recorded
// event log replayed through a fresh service — at any shard/thread count —
// reproduces the live run's canonical snapshot stream and the deterministic
// half of status_json() byte for byte; a checkpoint taken mid-log and
// restored into a fresh service continues bit-identically to the
// uninterrupted run.

#include "locble/serve/replay.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "locble/serve/event.hpp"
#include "locble/serve/service.hpp"
#include "locble/sim/harness.hpp"
#include "locble/sim/multi_client.hpp"
#include "locble/sim/workload_log.hpp"
#include "locble/wire/codec.hpp"

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

sim::MultiClientConfig workload_config(int clients, int beacons) {
    sim::MultiClientConfig wcfg;
    wcfg.clients = clients;
    wcfg.beacons = beacons;
    return wcfg;
}

/// The deterministic half of status_json(): everything before the "nd"
/// wall-clock object. The split point is part of the documented schema
/// ({"schema_version":1,"deterministic":{...},"nd":{...}}).
std::string deterministic_status(const TrackingService& svc) {
    const std::string full = status_json(svc.status());
    const std::size_t nd = full.find("\"nd\":");
    EXPECT_NE(nd, std::string::npos) << full;
    return full.substr(0, nd);
}

/// Per-epoch observation: canonical snapshot + deterministic status. Taking
/// the incremental snapshot exercises the dirty-tracking machinery, which a
/// checkpoint must carry across too.
std::string observe(TrackingService& svc) {
    return canonical_text(svc.snapshot(SnapshotMode::incremental)) +
           deterministic_status(svc) + "\n";
}

/// Drive a live run over the workload at a fixed epoch cadence with a
/// LogRecorder attached; returns the recorded log and the per-epoch
/// observation stream.
struct LiveRun {
    std::string log;
    std::string stream;
    std::uint64_t epochs{0};
};

LiveRun record_live(const sim::MultiClientWorkload& wl, unsigned shards,
                    unsigned threads, double epoch_s) {
    TrackingService svc(service_config(shards, threads));
    LogRecorder rec;
    svc.set_ingest_tap(&rec);
    LiveRun out;
    std::size_t i = 0;
    for (double edge = epoch_s; i < wl.events.size(); edge += epoch_s) {
        while (i < wl.events.size() && wl.events[i].t <= edge)
            svc.submit(wl.events[i++]);
        svc.run_epoch();
        out.stream += observe(svc);
        ++out.epochs;
    }
    svc.set_ingest_tap(nullptr);
    EXPECT_EQ(rec.epochs_recorded(), out.epochs);
    EXPECT_EQ(rec.events_recorded(), wl.events.size());
    out.log = rec.finish();
    return out;
}

/// Replay a log into a fresh service, observing after every epoch.
std::string replay_stream(std::string_view log, unsigned shards,
                          unsigned threads, ReplayStats* stats = nullptr) {
    TrackingService svc(service_config(shards, threads));
    ReplayDriver driver(svc, log);
    std::string stream;
    while (driver.step_epoch()) stream += observe(svc);
    if (stats != nullptr) *stats = driver.stats();
    return stream;
}

TEST(WireEventConversionTest, RoundTripsBitExactly) {
    const Event cases[] = {adv_event(7, 12.25, 3, -63.875),
                           adv_event(0, 0.0, 0, 0.0),
                           pose_event(9, 4.5, {-1.25, 3.75})};
    for (const Event& e : cases) {
        const Event back = from_wire(to_wire(e));
        EXPECT_EQ(back.client, e.client);
        EXPECT_EQ(back.t, e.t);
        EXPECT_EQ(back.kind, e.kind);
        EXPECT_EQ(back.beacon, e.beacon);
        EXPECT_EQ(back.rssi_dbm, e.rssi_dbm);
        EXPECT_EQ(back.position.x, e.position.x);
        EXPECT_EQ(back.position.y, e.position.y);
    }
}

/// The tentpole acceptance property: replaying a recorded live run
/// reproduces the live observation stream byte for byte, at shard/thread
/// counts different from the recording service's.
TEST(WireReplayTest, ReplayedRunIsByteIdenticalAtAnyShardCount) {
    const auto wl = sim::make_multi_client_workload(workload_config(32, 6), 17);
    ASSERT_GT(wl.events.size(), 500u);

    const LiveRun live = record_live(wl, 2, 2, 4.0);
    ASSERT_FALSE(live.stream.empty());

    for (const unsigned shards : {1u, 8u}) {
        ReplayStats stats;
        const std::string replayed =
            replay_stream(live.log, shards, shards, &stats);
        EXPECT_EQ(replayed, live.stream) << "shards " << shards;
        EXPECT_EQ(stats.events, wl.events.size());
        EXPECT_EQ(stats.epochs, live.epochs);
    }
}

/// Same property for synthesized logs: make_workload_log stands in for a
/// live recording, so every consumer (tests, bench, CI job) replays the
/// exact same byte stream.
TEST(WireReplayTest, SynthesizedWorkloadLogReplaysDeterministically) {
    sim::WorkloadLogConfig cfg;
    cfg.workload = workload_config(24, 4);
    cfg.epoch_s = 4.0;
    cfg.seed = 5;
    const sim::WorkloadLog log = sim::make_workload_log(cfg);
    ASSERT_GT(log.events, 0u);
    ASSERT_GT(log.epochs, 0u);

    // Generation is deterministic: same config, same bytes.
    EXPECT_EQ(sim::make_workload_log(cfg).bytes, log.bytes);

    ReplayStats stats1, stats8;
    const std::string one = replay_stream(log.bytes, 1, 1, &stats1);
    const std::string eight = replay_stream(log.bytes, 8, 4, &stats8);
    EXPECT_EQ(one, eight);
    EXPECT_EQ(stats1.events, log.events);
    EXPECT_EQ(stats1.epochs, log.epochs);
    EXPECT_EQ(stats8.events, log.events);
    EXPECT_EQ(stats8.epochs, log.epochs);
}

TEST(WireReplayTest, DriverRejectsNonEventLogStreams) {
    TrackingService svc(service_config(1, 1));
    EXPECT_THROW(ReplayDriver(svc, "not a log"), wire::WireError);

    // A checkpoint stream is a valid wire file but not an event log.
    TrackingService donor(service_config(1, 1));
    const std::string ckpt = donor.checkpoint();
    try {
        ReplayDriver driver(svc, ckpt);
        FAIL() << "checkpoint stream accepted as event log";
    } catch (const wire::WireError& e) {
        EXPECT_EQ(e.code(), wire::WireStatus::malformed);
    }
}

TEST(WireReplayTest, DriverSurfacesMidStreamCorruption) {
    sim::WorkloadLogConfig cfg;
    cfg.workload = workload_config(8, 3);
    const sim::WorkloadLog log = sim::make_workload_log(cfg);
    std::string bad = log.bytes;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x20);
    TrackingService svc(service_config(2, 1));
    ReplayDriver driver(svc, bad);
    EXPECT_THROW(driver.run(), wire::WireError);
}

/// Checkpoint/restore identity, parameterized over pipeline variants: run
/// the first half of a log, checkpoint, restore into a fresh service with a
/// different shard/thread count, replay the rest — the combined observation
/// stream, final snapshot, stats and deterministic status must equal the
/// uninterrupted run's.
void check_checkpoint_identity(
    const std::function<void(TrackingService::Config&)>& mutate_cfg,
    std::uint64_t seed) {
    sim::WorkloadLogConfig lcfg;
    lcfg.workload = workload_config(24, 4);
    lcfg.epoch_s = 4.0;
    lcfg.seed = seed;
    const sim::WorkloadLog log = sim::make_workload_log(lcfg);
    ASSERT_GT(log.epochs, 4u);

    auto make_cfg = [&](unsigned shards, unsigned threads) {
        TrackingService::Config cfg = service_config(shards, threads);
        mutate_cfg(cfg);
        return cfg;
    };

    // Uninterrupted reference at 3 shards.
    TrackingService ref(make_cfg(3, 2));
    ReplayDriver ref_driver(ref, log.bytes);
    std::string ref_stream;
    while (ref_driver.step_epoch()) ref_stream += observe(ref);

    // Interrupted: 2 shards up to the midpoint...
    const std::uint64_t half = log.epochs / 2;
    TrackingService first(make_cfg(2, 1));
    ReplayDriver first_driver(first, log.bytes);
    std::string stream;
    for (std::uint64_t i = 0; i < half; ++i) {
        ASSERT_TRUE(first_driver.step_epoch());
        stream += observe(first);
    }
    const std::string ckpt = first.checkpoint();

    // ...then restore into a fresh 5-shard service and finish the log.
    TrackingService resumed(make_cfg(5, 4));
    resumed.restore_checkpoint(ckpt);
    // Restoring twice must be rejected: the service is no longer fresh.
    EXPECT_THROW(resumed.restore_checkpoint(ckpt), std::logic_error);

    ReplayDriver rest(resumed, log.bytes);
    ASSERT_EQ(rest.skip_epochs(half), half);
    while (rest.step_epoch()) stream += observe(resumed);

    // The combined (interrupted) observation stream equals the
    // uninterrupted one: every incremental snapshot, every stat, every
    // deterministic status field — byte for byte.
    EXPECT_EQ(stream, ref_stream);
    // And the final full snapshots agree too (incremental observations
    // above leave different dirty baselines untested otherwise).
    EXPECT_EQ(canonical_text(resumed.snapshot(SnapshotMode::full)),
              canonical_text(ref.snapshot(SnapshotMode::full)));
    EXPECT_EQ(deterministic_status(resumed), deterministic_status(ref));
}

TEST(WireCheckpointTest, MidLogRestoreContinuesBitIdentically) {
    check_checkpoint_identity([](TrackingService::Config&) {}, 7);
}

TEST(WireCheckpointTest, MidLogRestoreWithExhaustiveSearch) {
    check_checkpoint_identity(
        [](TrackingService::Config& cfg) {
            cfg.shard.session.pipeline.solver.search_mode =
                core::LocationSolver::SearchMode::exhaustive;
        },
        13);
}

/// The config digest leaves the solver kernel mode out, because both modes
/// fit bit-identically: a checkpoint a scalar_reference service takes
/// restores into a lanes service, which continues exactly as an
/// uninterrupted lanes run. Long L-walks in scenario 9 with EnvAware on
/// make multi-segment sessions and coarse_to_fine warm grids travel.
TEST(WireCheckpointTest, RestoreAcrossKernelModes) {
    using KernelMode = core::LocationSolver::Config::KernelMode;
    sim::WorkloadLogConfig lcfg;
    lcfg.workload = workload_config(6, 3);
    lcfg.workload.scenario_index = 9;
    lcfg.workload.measurement.lshape = {12.0, 10.0, 1.5707963267948966};
    lcfg.epoch_s = 2.0;
    lcfg.seed = 3;
    const sim::WorkloadLog log = sim::make_workload_log(lcfg);
    ASSERT_GT(log.epochs, 4u);
    const core::EnvAware& env = sim::shared_envaware();
    const auto make_cfg = [](unsigned shards, KernelMode mode) {
        TrackingService::Config cfg = service_config(shards, 1);
        cfg.shard.session.pipeline.use_envaware = true;
        cfg.shard.session.pipeline.solver.kernel_mode = mode;
        return cfg;
    };

    TrackingService ref(make_cfg(2, KernelMode::lanes), env);
    ReplayDriver ref_driver(ref, log.bytes);
    std::string ref_stream;
    while (ref_driver.step_epoch()) ref_stream += observe(ref);

    const std::uint64_t half = log.epochs / 2;
    TrackingService first(make_cfg(1, KernelMode::scalar_reference), env);
    ReplayDriver first_driver(first, log.bytes);
    std::string stream;
    for (std::uint64_t i = 0; i < half; ++i) {
        ASSERT_TRUE(first_driver.step_epoch());
        stream += observe(first);
    }
    // Some session has already opened a second Gamma segment.
    EXPECT_NE(stream.find(" restarts=1 "), std::string::npos);
    const std::string ckpt = first.checkpoint();

    TrackingService resumed(make_cfg(3, KernelMode::lanes), env);
    resumed.restore_checkpoint(ckpt);
    EXPECT_EQ(resumed.checkpoint(), ckpt);

    ReplayDriver rest(resumed, log.bytes);
    ASSERT_EQ(rest.skip_epochs(half), half);
    while (rest.step_epoch()) stream += observe(resumed);

    EXPECT_EQ(stream, ref_stream);
    EXPECT_EQ(canonical_text(resumed.snapshot(SnapshotMode::full)),
              canonical_text(ref.snapshot(SnapshotMode::full)));
    EXPECT_EQ(deterministic_status(resumed), deterministic_status(ref));
}

/// Restore immediately reproduces the checkpointed service's observable
/// surface — snapshot, stats, deterministic status — with no further
/// events, at a different shard count.
TEST(WireCheckpointTest, RestoreReproducesObservableState) {
    sim::WorkloadLogConfig lcfg;
    lcfg.workload = workload_config(16, 4);
    const sim::WorkloadLog log = sim::make_workload_log(lcfg);

    TrackingService donor(service_config(2, 2));
    ReplayDriver driver(donor, log.bytes);
    driver.run();
    const std::string ckpt = donor.checkpoint();

    TrackingService twin(service_config(7, 3));
    twin.restore_checkpoint(ckpt);

    // The checkpoint bytes are shard-count independent and restore is
    // lossless: the twin immediately re-checkpoints to the exact same
    // stream. (Checked before any snapshot: snapshot() back-fills row
    // counts into the flight recorder, mutating what a later checkpoint
    // would serialize — identically on both services, but not equal to the
    // pre-snapshot bytes.)
    EXPECT_EQ(twin.checkpoint(), ckpt);

    EXPECT_EQ(canonical_text(twin.snapshot(SnapshotMode::full)),
              canonical_text(donor.snapshot(SnapshotMode::full)));
    EXPECT_EQ(deterministic_status(twin), deterministic_status(donor));
    EXPECT_EQ(twin.stats(), donor.stats());
}

/// Restore is how a service changes its shard count, so it must carry
/// events still queued past the last swap without touching the barrier
/// view: before the next epoch the restored service reports the donor's
/// live stats and its last-barrier snapshot, and one epoch later both have
/// processed the queued event identically.
TEST(WireCheckpointTest, RestoreWithEventsQueuedKeepsTheBarrierStats) {
    TrackingService donor(service_config(2, 1));
    donor.submit(pose_event(1, 0.0, {0.0, 0.0}));
    donor.run_epoch();
    donor.submit(adv_event(1, 0.5, 2, -60.0));

    TrackingService resharded(service_config(5, 2));
    resharded.restore_checkpoint(donor.checkpoint());
    EXPECT_EQ(resharded.stats(), donor.stats());
    EXPECT_EQ(canonical_text(resharded.snapshot()), canonical_text(donor.snapshot()));

    donor.run_epoch();
    resharded.run_epoch();
    EXPECT_EQ(resharded.stats(), donor.stats());
    EXPECT_EQ(canonical_text(resharded.snapshot()), canonical_text(donor.snapshot()));
    EXPECT_EQ(deterministic_status(resharded), deterministic_status(donor));
}

TEST(WireCheckpointTest, RestoreRequiresAFreshService) {
    TrackingService donor(service_config(1, 1));
    donor.submit(adv_event(1, 0.5, 1, -60.0));
    donor.run_epoch();
    const std::string ckpt = donor.checkpoint();

    // An event was submitted: not fresh.
    TrackingService dirty_submit(service_config(1, 1));
    dirty_submit.submit(adv_event(2, 0.25, 1, -61.0));
    EXPECT_THROW(dirty_submit.restore_checkpoint(ckpt), std::logic_error);

    // An epoch ran (even with no events): not fresh.
    TrackingService dirty_epoch(service_config(1, 1));
    dirty_epoch.run_epoch();
    EXPECT_THROW(dirty_epoch.restore_checkpoint(ckpt), std::logic_error);
}

/// A restore that throws leaves the service as constructed: it checkpoints
/// like a fresh one, then takes the intact checkpoint and continues exactly
/// like a fresh service that took it.
TEST(WireCheckpointTest, FailedRestoreLeavesTheServiceFresh) {
    sim::WorkloadLogConfig lcfg;
    lcfg.workload = workload_config(6, 3);
    lcfg.epoch_s = 1.5;
    lcfg.seed = 5;
    const sim::WorkloadLog log = sim::make_workload_log(lcfg);
    const std::uint64_t half = log.epochs / 2;
    ASSERT_GT(half, 2u);
    TrackingService donor(service_config(2, 1));
    ReplayDriver head(donor, log.bytes);
    for (std::uint64_t i = 0; i < half; ++i) ASSERT_TRUE(head.step_epoch());
    const std::string ckpt = donor.checkpoint();

    // Torn inside the last client section (the `end` frame is 9 bytes), so
    // the recorder and the other clients are restored before the throw.
    const std::string_view torn = std::string_view(ckpt).substr(0, ckpt.size() - 16);
    TrackingService retried(service_config(3, 2));
    try {
        retried.restore_checkpoint(torn);
        FAIL() << "torn checkpoint restored";
    } catch (const wire::WireError& e) {
        EXPECT_EQ(e.code(), wire::WireStatus::truncated) << e.what();
    }
    EXPECT_EQ(retried.checkpoint(), TrackingService(service_config(3, 2)).checkpoint());

    retried.restore_checkpoint(ckpt);
    TrackingService fresh(service_config(3, 2));
    fresh.restore_checkpoint(ckpt);
    EXPECT_EQ(canonical_text(retried.snapshot(SnapshotMode::full)),
              canonical_text(fresh.snapshot(SnapshotMode::full)));
    EXPECT_EQ(deterministic_status(retried), deterministic_status(fresh));

    ReplayDriver retried_rest(retried, log.bytes), fresh_rest(fresh, log.bytes);
    ASSERT_EQ(retried_rest.skip_epochs(half), half);
    ASSERT_EQ(fresh_rest.skip_epochs(half), half);
    std::string retried_stream, fresh_stream;
    while (retried_rest.step_epoch()) retried_stream += observe(retried);
    while (fresh_rest.step_epoch()) fresh_stream += observe(fresh);
    EXPECT_FALSE(fresh_stream.empty());
    EXPECT_EQ(retried_stream, fresh_stream);
}

TEST(WireCheckpointTest, ConfigMismatchIsRejectedWithItsTypedCode) {
    TrackingService donor(service_config(2, 1));
    donor.submit(adv_event(1, 0.5, 1, -60.0));
    donor.run_epoch();
    const std::string ckpt = donor.checkpoint();

    auto cfg = service_config(4, 2);  // shard/thread counts may differ freely
    cfg.shard.session.pipeline.gamma_prior_below_db += 1.0;  // results may not
    TrackingService other(cfg);
    try {
        other.restore_checkpoint(ckpt);
        FAIL() << "config mismatch accepted";
    } catch (const wire::WireError& e) {
        EXPECT_EQ(e.code(), wire::WireStatus::config_mismatch);
    }
}

/// Corrupt checkpoint bytes must surface as typed wire errors — sampled
/// byte flips and prefix truncations, never a crash (the sanitizer preset
/// runs this too) and never a silent half-restore.
TEST(WireCheckpointTest, CorruptCheckpointsAreRejected) {
    sim::WorkloadLogConfig lcfg;
    lcfg.workload = workload_config(8, 3);
    const sim::WorkloadLog log = sim::make_workload_log(lcfg);
    TrackingService donor(service_config(2, 1));
    ReplayDriver(donor, log.bytes).run();
    const std::string ckpt = donor.checkpoint();
    ASSERT_GT(ckpt.size(), 200u);

    // An event log is a well-formed wire stream but not a checkpoint.
    {
        TrackingService fresh(service_config(1, 1));
        try {
            fresh.restore_checkpoint(log.bytes);
            FAIL() << "event log accepted as checkpoint";
        } catch (const wire::WireError& e) {
            EXPECT_EQ(e.code(), wire::WireStatus::malformed);
        }
    }
    for (std::size_t i = 0; i < ckpt.size(); i += 53) {
        std::string bad = ckpt;
        bad[i] = static_cast<char>(bad[i] ^ 0x24);
        TrackingService fresh(service_config(1, 1));
        EXPECT_THROW(fresh.restore_checkpoint(bad), wire::WireError)
            << "flipped byte " << i;
    }
    for (std::size_t n = 0; n < ckpt.size(); n += 97) {
        TrackingService fresh(service_config(1, 1));
        EXPECT_THROW(
            fresh.restore_checkpoint(std::string_view(ckpt).substr(0, n)),
            wire::WireError)
            << "prefix " << n;
    }
}

}  // namespace
}  // namespace locble::serve
