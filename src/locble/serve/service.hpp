#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <chrono>

#include "locble/core/envaware.hpp"
#include "locble/runtime/thread_pool.hpp"
#include "locble/serve/event.hpp"
#include "locble/serve/flight_recorder.hpp"
#include "locble/serve/shard.hpp"
#include "locble/serve/stats.hpp"

namespace locble::serve {

/// One (client, beacon) row of a service snapshot.
struct BeaconEstimate {
    ClientId client{0};
    BeaconId beacon{0};
    bool has_fit{false};
    core::LocationFit fit{};
    std::size_t samples_used{0};
    std::size_t samples_seen{0};
    int regression_restarts{0};
    int resets{0};
    double last_event_t{0.0};
};

/// Which sessions a snapshot covers.
enum class SnapshotMode : std::uint8_t {
    /// Every live session — the `full=true` escape hatch; also resets the
    /// incremental baseline.
    full,
    /// Only sessions whose row changed since the last snapshot (of either
    /// mode). Cost scales with the dirty set, not the fleet: a large idle
    /// cohort contributes nothing. Evicted sessions simply stop appearing —
    /// there are no tombstone rows (docs/SERVING.md, staleness caveats).
    incremental,
};

/// View of the service as of the last epoch barrier: tracked sessions'
/// latest estimates, sorted globally by (client, beacon) so the order
/// carries no trace of the sharding. `incremental` snapshots carry only the
/// rows dirtied since the last snapshot; `sessions_live` always counts the
/// whole live fleet so consumers can tell coverage from fleet size.
struct ServiceSnapshot {
    std::uint64_t epoch{0};
    double horizon{0.0};
    bool incremental{false};
    std::size_t sessions_live{0};
    IngestStats stats{};
    std::vector<BeaconEstimate> estimates;
};

/// Canonical text form of a snapshot: fixed field order, one row per
/// estimate, doubles printed with %.17g (round-trip exact). Two runs of the
/// same event stream must produce byte-identical canonical text whatever
/// their shard/thread counts — the determinism suite diffs these strings.
std::string canonical_text(const ServiceSnapshot& snap);

/// Overload classification of the status surface.
enum class ServiceHealth : std::uint8_t { ok, degraded, overloaded };

/// Lowercase name ("ok" / "degraded" / "overloaded") for reports.
const char* health_name(ServiceHealth h);

/// Epochs the status() rates and staleness quantiles roll over (capped by
/// what the flight recorder holds).
inline constexpr std::size_t kStatusWindowEpochs = 16;

/// Thresholds the ok/degraded/overloaded classification runs on, checked
/// worst-first (any overloaded trigger wins over any degraded one); every
/// rate is computed over the status rolling window (docs/SERVING.md).
///
/// (dropped + rejected) / submitted: above 1% is degraded, above 10% the
/// service is shedding so much load it counts as overloaded.
inline constexpr double kDegradedDropRate = 0.01;
inline constexpr double kOverloadedDropRate = 0.10;
/// Event-time staleness p99 across live sessions, in seconds: above half
/// the default idle timeout is degraded, above 1.5x it the fleet is mostly
/// waiting to be evicted — overloaded.
inline constexpr double kDegradedStalenessP99S = 30.0;
inline constexpr double kOverloadedStalenessP99S = 90.0;
/// Live sessions without a location fit / live sessions. High at warm-up by
/// nature, so only an extreme value (90%) degrades — a service that cannot
/// converge is unhealthy even with empty queues.
inline constexpr double kDegradedNoFixRate = 0.90;

/// Rolling-window health report assembled from the flight recorder. Every
/// field except the `epoch_wall_*` wall-clock percentiles derives from
/// event-time u64/sketch data, so the deterministic half of status_json()
/// is byte-identical for any shard/thread count.
struct ServiceStatus {
    std::uint64_t epoch{0};
    double horizon{0.0};
    /// Flight-recorder records the window actually covered (<=
    /// kStatusWindowEpochs; fewer right after start/clear).
    std::uint64_t window_epochs{0};
    std::uint64_t sessions_live{0};
    std::uint64_t sessions_no_fit{0};
    /// Window totals the rates derive from (exact u64 sums of per-epoch
    /// deltas).
    std::uint64_t window_submitted{0};
    std::uint64_t window_dropped{0};
    std::uint64_t window_rejected{0};
    std::uint64_t window_clients_evicted{0};
    double drop_rate{0.0};      ///< (dropped + rejected) / submitted; 0 when idle
    double no_fix_rate{0.0};    ///< sessions_no_fit / sessions_live; 0 when empty
    double eviction_rate{0.0};  ///< clients evicted per epoch over the window
    double staleness_p50_s{0.0};
    double staleness_p95_s{0.0};
    double staleness_p99_s{0.0};
    double staleness_max_s{0.0};
    ServiceHealth health{ServiceHealth::ok};
    // --- wall clock (ND): reported, never part of determinism checks ---
    double epoch_wall_p50_us{0.0};
    double epoch_wall_p99_us{0.0};
    double epoch_wall_max_us{0.0};
};

/// Versioned JSON form of a status report, shaped for determinism tooling:
/// {"schema_version":1,"deterministic":{...},"nd":{...}} — the
/// "deterministic" object must be byte-identical across shard/thread
/// counts (CI diffs it at 1 vs 8 shards); "nd" holds the wall-clock epoch
/// percentiles. Doubles print %.17g (round-trip exact).
std::string status_json(const ServiceStatus& status);

/// Sharded multi-client tracking service with a pipelined epoch loop.
///
/// Clients are sharded by a rendezvous hash of the client id (shard_of);
/// a shard owns its clients' ingest queues and state. An epoch runs as three
/// stages over epoch-wide, ordered work lists whose items workers claim
/// through one atomic cursor: drain each client's delivery, then close and
/// solve each session, then settle each client (dirty listing, pose
/// pruning). A session is a pure function of its own events, so the
/// hot path takes no locks and the work order is never observable. The
/// driver thread runs either the classic phased loop
///
///   submit(events...);   // ingest: route into double-buffered queues
///   run_epoch();         // swap, run the three stages, barrier at the end
///   snapshot();          // merged view as of the barrier
///
/// or the pipelined loop that overlaps ingest with epoch execution:
///
///   begin_epoch();       // swap, drain, launch the solves, return
///   submit(events...);   // lands in the fresh ingest buffers, overlapped
///   end_epoch();         // barrier: settle the clients, fold the counts
///
/// Overlap changes nothing observable: submissions made while an epoch is
/// in flight are processed by the *next* epoch, exactly as if they had been
/// submitted after end_epoch() — the overlapped and phase-separated
/// schedules produce byte-identical snapshot streams (property-tested in
/// tests/serve/test_service_pipeline.cpp). Under that contract the service
/// stays deterministic end to end: estimates, stats, canonical snapshots
/// and deterministic obs metrics are bit-identical for any (shards,
/// threads) combination (docs/SERVING.md spells out why). The shard count
/// is fixed for a service's life; to change it, restore a checkpoint into
/// a service built with the new count.
///
/// All driver-side entry points (submit, begin/end/run_epoch, snapshot,
/// stats, status, checkpoint, restore_checkpoint, set_ingest_tap) must be
/// called from one thread; only the epoch's work items run concurrently.
class TrackingService {
public:
    struct Config {
        /// Number of shards (0 is taken as 1). More shards means finer
        /// parallelism; results never change.
        unsigned shards{1};
        /// Worker threads running the epoch's work items: 0 means one per
        /// shard. Not capped by the shard count: workers claim clients and
        /// sessions, not shards. 1 runs epochs inline on the calling thread
        /// with no pool at all (begin_epoch then completes the epoch
        /// synchronously).
        unsigned threads{1};
        Shard::Config shard{};
        /// Flight-recorder capacity in epochs; 0 disables recording *and*
        /// the per-shard telemetry walk. The recorder is service API of
        /// record, like IngestStats: it works under LOCBLE_OBS=OFF.
        std::size_t flight_recorder_epochs{64};

        /// The config digest a checkpoint carries (serve/checkpoint.cpp) is
        /// this list, written and hashed. The recorder capacity and the
        /// status constants, in the slots of the knobs they replaced, shape
        /// status_json(), which the restore identity contract covers.
        template <class Self, class Visitor>
        static void fields(Self& s, Visitor& v) {
            // shards and threads are left out: results are invariant to them
            // by the serve determinism contract.
            auto& [shards, threads, shard, flight_recorder_epochs] = s;
            v(shard, flight_recorder_epochs, kStatusWindowEpochs, kDegradedDropRate,
              kOverloadedDropRate, kDegradedStalenessP99S, kOverloadedStalenessP99S,
              kDegradedNoFixRate);
        }
    };

    /// Observer of the ingest stream, the record hook behind the wire
    /// subsystem's log recorder (serve/replay.hpp). A tap sees every
    /// *submitted* event — before admission control, so replaying the tap's
    /// log re-enacts drops and rejections identically — plus every epoch
    /// boundary, both on the driver thread in program order.
    class IngestTap {
    public:
        virtual ~IngestTap() = default;
        /// One submitted event, pre-admission, in submission order.
        virtual void on_event(const Event& e) = 0;
        /// begin_epoch() ran: `epoch` is the index now in flight. Events
        /// observed before this mark belong to this epoch; events after it
        /// belong to the next.
        virtual void on_epoch(std::uint64_t epoch) = 0;
    };

    /// Attach (or with nullptr detach) the ingest tap. Driver thread, not
    /// while an epoch is in flight; the tap must outlive its attachment.
    void set_ingest_tap(IngestTap* tap) { tap_ = tap; }

    /// `envaware` must be a trained model when the session config enables
    /// EnvAware; the service keeps the copy alive for all shards.
    explicit TrackingService(const Config& cfg,
                             std::optional<core::EnvAware> envaware = std::nullopt);
    ~TrackingService();

    TrackingService(const TrackingService&) = delete;
    TrackingService& operator=(const TrackingService&) = delete;

    /// Route one event to its client's shard ingest buffer. Driver thread;
    /// legal while an epoch is in flight (the event lands in the buffer the
    /// *next* epoch will drain). An event whose `t`, advertised RSSI or pose
    /// position is not finite is refused and counted in `rejected`: it
    /// creates no client, enters no queue and leaves the horizon alone.
    void submit(const Event& e);
    /// Route a batch in order.
    void submit(const std::vector<Event>& events);

    /// Swap every shard's ingest buffers and decide evictions, drain the
    /// deliveries into their clients' sessions, and launch the session
    /// solves; returns the epoch index now in flight. With a single worker
    /// thread the epoch completes inline before returning (end_epoch is then
    /// a no-op) and a work item's exception surfaces here. Throws
    /// std::logic_error if an epoch is already in flight.
    std::uint64_t begin_epoch();

    /// Barrier: wait for the solves begin_epoch() launched, apply the
    /// evictions decided at the swap, settle every visited client and fold
    /// the workers' counts. Rethrows a work item's exception once the
    /// service is quiescent and every count is folded. No-op when no epoch
    /// is in flight.
    void end_epoch();

    /// begin_epoch() + end_epoch(): the phase-separated driver loop.
    std::uint64_t run_epoch();

    bool epoch_in_flight() const { return in_flight_; }

    /// Merged, globally (client, beacon)-sorted view as of the last epoch
    /// barrier. Both modes reset the dirty baseline: the next incremental
    /// snapshot reports changes since this call. Throws std::logic_error
    /// while an epoch is in flight.
    ServiceSnapshot snapshot(SnapshotMode mode = SnapshotMode::full);

    /// Live ingest/lifecycle accounting (includes events submitted since
    /// the last swap). Throws std::logic_error while an epoch is in flight.
    IngestStats stats() const;

    /// The epoch flight recorder (empty and disabled when
    /// Config::flight_recorder_epochs == 0). Driver thread, quiescent point
    /// — same discipline as snapshot().
    const FlightRecorder& flight_recorder() const { return recorder_; }

    /// Rolling-window health report over the last kStatusWindowEpochs
    /// recorded epochs (all-zero, health ok, when the recorder is disabled
    /// or nothing has been recorded). Throws std::logic_error while an
    /// epoch is in flight.
    ServiceStatus status() const;

    /// Newest accepted event timestamp service-wide: the event-time clock
    /// that batch closing and idle eviction run on.
    double horizon() const { return horizon_; }

    unsigned shards() const { return static_cast<unsigned>(shards_.size()); }
    unsigned threads() const { return threads_; }

    /// Serialize the warm service state — every client's queues, sessions
    /// and dirty marks, the stats, the flight-recorder ring — into a
    /// wire-format checkpoint stream (docs/WIRE.md). Driver thread at a
    /// quiescent point, like snapshot(). The `meta` and `client` sections
    /// are independent of the shard/thread count that produced them; the
    /// flight-recorder section is not (one row per shard, wall-clock
    /// durations), so the whole stream is only with the recorder disabled.
    /// Throws wire::WireError (malformed) when one client's section would
    /// exceed wire::kMaxFramePayload, which no reader accepts.
    std::string checkpoint() const;

    /// Restore a checkpoint into this service, which must be freshly
    /// constructed (no events submitted, no epochs run) with an equivalent
    /// config — the checkpoint carries a digest of every result-affecting
    /// config field and restore fails with wire::WireError
    /// (config_mismatch) when they differ. Shard/thread counts may differ
    /// freely. After restore the service continues bit-identically to the
    /// uninterrupted run: snapshot streams, stats and the deterministic
    /// half of status_json() are byte-equal (property-tested in
    /// tests/serve/test_replay.cpp). Throws wire::WireError on corrupt
    /// bytes and std::logic_error when the service is not fresh. A restore
    /// that throws wire::WireError (or any error past the freshness check)
    /// leaves the service freshly constructed, so it can take another
    /// checkpoint.
    void restore_checkpoint(std::string_view bytes);

private:
    friend struct CheckpointCodec;
    /// Run one epoch stage: `item(worker, i)` for every i in [0, count),
    /// claimed in index order through one atomic cursor by up to threads_
    /// pool workers, or in order on the calling thread without a pool. Each
    /// worker's claims are one serve.shard.epoch span. A throwing item
    /// stops further claims; its exception lands in failure_ (at join() when
    /// pooled). Pooled stages run until join().
    void launch(std::size_t count, std::function<void(std::size_t, std::size_t)> item);
    /// Wait for the launched stage's workers; the first exception goes to
    /// failure_.
    void join();
    /// Assemble and push this epoch's flight record.
    void finalize_epoch_record();

    Config cfg_;
    std::optional<core::EnvAware> envaware_;
    IngestTap* tap_{nullptr};
    std::vector<std::unique_ptr<Shard>> shards_;
    std::optional<runtime::ThreadPool> pool_;
    unsigned threads_{1};
    /// The ledger, the one home of every count: the driver-side counts as
    /// they happen (`epochs` is the index of the newest epoch), the
    /// worker-side counts as of the last barrier. stats() reports it.
    IngestStats stats_;
    /// What snapshots report: the ledger as copied at the last swap, plus
    /// the worker-side counts of the epoch that swap launched.
    IngestStats barrier_stats_;
    double horizon_{0.0};
    bool has_horizon_{false};
    /// Horizon captured at the last begin_epoch(): what snapshots report.
    double epoch_horizon_{0.0};
    bool in_flight_{false};
    /// The epoch's work lists: clients in id order (stages 1 and 3), then
    /// their sessions in (client, beacon) order (stage 2).
    std::vector<Shard::ClientWork> client_work_;
    std::vector<Shard::SessionWork> session_work_;
    /// The running stage: its claim cursor and its workers' futures.
    std::atomic<std::size_t> cursor_{0};
    std::vector<std::future<void>> inflight_;
    /// The first exception a work item threw this epoch.
    std::exception_ptr failure_;
    FlightRecorder recorder_;
    /// Barrier stats when the previous record was finalized — the baseline
    /// per-epoch deltas subtract from.
    IngestStats last_record_stats_;
    std::chrono::steady_clock::time_point epoch_t0_;  ///< ND wall timing only
};

}  // namespace locble::serve
