#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "locble/core/clustering.hpp"
#include "locble/dsp/anf.hpp"
#include "locble/motion/dead_reckoning.hpp"
#include "locble/obs/quantile.hpp"
#include "locble/serve/event.hpp"
#include "locble/serve/flight_recorder.hpp"
#include "locble/serve/stats.hpp"
#include "locble/serve/tracking_session.hpp"

namespace locble::serve {

/// One shard of the tracking service: exclusive owner of every client whose
/// id hashes to it — their double-buffered ingest queues, pose tracks and
/// per-beacon tracking sessions.
///
/// Threading contract (docs/SERVING.md): state is split into two disjoint
/// halves so ingest can overlap epoch execution.
///
///  - *Ingest side* (`ingest_`) is touched only by the driver thread, at any
///    time — including while an epoch is in flight. Its counts go to the
///    ledger enqueue() is handed, the service's own.
///  - *Worker side* (`clients_`, `epoch_stats_`, `dirty_`) is touched only
///    by the one worker thread running `process_epoch()`, and read at
///    quiescent points (between epochs) for snapshots and the barrier fold.
///  - The handoff (`inbox_`, `epoch_horizon_`) is written by `begin_epoch()`
///    on the driver thread while no epoch is in flight, then consumed by
///    the worker; the epoch barrier orders the two, so nothing is ever
///    touched concurrently and the hot path takes no locks.
class Shard {
public:
    /// Forget pose samples older than this behind the horizon (enough
    /// history must remain to pair delayed advertisements). Pruning is lazy:
    /// it runs when the client is next processed, so an idle client's path
    /// is frozen, not leaked.
    static constexpr double kPoseHistoryS = 30.0;
    /// Staleness sketch domain (0, kStalenessMaxS] split into
    /// kStalenessResolution uniform buckets: 0.5 s resolution out to two
    /// default idle-eviction timeouts. Sessions staler than the bound
    /// saturate the reported quantiles at it.
    static constexpr double kStalenessMaxS = 120.0;
    static constexpr std::uint32_t kStalenessResolution = 240;

    struct Config {
        TrackingSession::Config session{};
        /// Bounded ingest buffer capacity in events, *per client*, per
        /// epoch interval (the buffer swaps empty at every epoch start). A
        /// full buffer evicts its oldest event to admit the new one
        /// (freshest data wins; counted in `dropped`). A per-client bound
        /// (rather than per-shard) keeps the overflow decision a pure
        /// function of that client's own stream, so drops are identical
        /// whatever the shard count — and one chatty client can never evict
        /// its neighbors' events.
        std::size_t queue_capacity{512};
        /// Evict a client (and its sessions) once its newest event is this
        /// far behind the service horizon, in event-time seconds.
        double idle_timeout_s{60.0};
        /// Run the Sec. 6 clustering calibration across a client's fitted
        /// beacons at the end of each epoch (only for clients whose fits
        /// changed).
        bool enable_clustering{false};
        core::ClusteringCalibrator::Config clustering{};

        /// Field list in config-digest byte order (serve/checkpoint.cpp),
        /// where `session` comes last. Removed knobs keep their slots, each
        /// holding its constant in the knob's wire type: the overflow policy
        /// was a u8 enum whose drop-oldest value, the one policy left, was 0.
        template <class Self, class Visitor>
        static void fields(Self& s, Visitor& v) {
            constexpr auto drop_oldest = std::byte{0};
            auto& [session, queue_capacity, idle_timeout_s, enable_clustering,
                   clustering] = s;
            v(queue_capacity, drop_oldest, idle_timeout_s, kPoseHistoryS, enable_clustering,
              clustering, kStalenessMaxS, kStalenessResolution, session);
        }
    };

    /// `envaware` may be null when the session config does not use it; it
    /// must outlive the shard. `telemetry` collects the per-epoch flight
    /// recorder telemetry (EpochTelemetry); when false, process_epoch()
    /// reads no clock and walks no sessions beyond its normal work.
    Shard(const Config& cfg, const core::EnvAware* envaware, bool telemetry)
        : cfg_(cfg), envaware_(envaware), telemetry_(telemetry),
          calibrator_(cfg.clustering) {}

    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    /// Admit one event into its client's bounded ingest buffer (creating
    /// the client on first contact), counting the admission in `stats`.
    /// Driver thread; may overlap a running epoch — it only ever touches
    /// ingest-side state.
    void enqueue(const Event& e, IngestStats& stats);

    /// The epoch swap (driver thread, no epoch in flight): move every
    /// client's accumulated buffer into the epoch inbox and decide idle
    /// evictions against `horizon` (the decision is a pure function of the
    /// ingest-side timestamps, so it lands identically whatever the shard
    /// count).
    void begin_epoch(double horizon);

    /// Drain the inbox, drive the tracking sessions, close batches up to
    /// the swap horizon, solve, cluster, and apply the evictions decided at
    /// the swap. Exactly one worker thread per epoch.
    void process_epoch();

    /// Hand over the worker-side counts process_epoch() made (including
    /// those of an epoch a worker exception cut short) and zero them for
    /// the next epoch. Quiescent point required: the service folds them
    /// into its ledger at the barrier.
    IngestStats take_epoch_stats() { return std::exchange(epoch_stats_, IngestStats{}); }

    struct ClientState {
        std::vector<motion::TimedPosition> path;  ///< pose track, time-ordered
        std::size_t path_cursor{0};               ///< monotone interpolation hint
        std::map<BeaconId, TrackingSession> sessions;
        /// Some session still holds un-flushed batch samples: keep visiting
        /// this client at epoch end even when no new events arrive.
        bool open_batches{false};

        /// Field list in checkpoint byte order (serve/checkpoint.cpp), where
        /// `open_batches` precedes `sessions`.
        template <class Self, class Visitor>
        static void fields(Self& s, Visitor& v) {
            auto& [path, path_cursor, sessions, open_batches] = s;
            v(path, path_cursor, open_batches, sessions);
        }
    };

    /// Owned clients in id order (quiescent point required; the snapshot
    /// assembly reads estimates through this).
    const std::map<ClientId, ClientState>& clients() const { return clients_; }
    /// Mutable access for the snapshot assembly (it clears per-session
    /// dirty flags). Quiescent point required.
    std::map<ClientId, ClientState>& clients_mut() { return clients_; }

    /// Sessions dirtied since the last snapshot, in the order the worker
    /// discovered them (deduplicated via TrackingSession::dirty_listed).
    /// The service consumes — and clears — this at snapshot assembly.
    std::vector<std::pair<ClientId, BeaconId>>& dirty_sessions() {
        return dirty_;
    }

    /// Live session count across this shard's clients (maintained by the
    /// worker; quiescent point required).
    std::size_t live_sessions() const { return live_sessions_; }

    /// Per-epoch telemetry for the service flight recorder, rebuilt by each
    /// process_epoch() when the shard was built with telemetry on.
    /// Worker-side state: read at quiescent points only (the service reads
    /// it at the barrier).
    struct EpochTelemetry {
        /// The shard's row of the epoch's flight record.
        ShardEpochRecord record;
        /// Staleness (horizon - last event fed to the session, seconds) of
        /// every live session at epoch end — the deterministic,
        /// event-time-only definition. The sketch's max() is the exact
        /// per-shard maximum (merge by max, order-invariant).
        obs::QuantileSketch staleness_s;
    };
    const EpochTelemetry& telemetry() const { return telem_; }

    /// Events handed to the worker by the last begin_epoch() swap. Driver
    /// thread; valid from the swap until the next one (the service reads it
    /// right after swapping to emit the queue-depth trace counter).
    std::size_t inbox_events() const { return inbox_events_; }

private:
    /// Checkpoint/restore (serve/checkpoint.cpp) serializes the full client
    /// state — ingest queues included — so it reaches past the public
    /// quiescent-point surface.
    friend struct CheckpointCodec;

    /// Ingest half of one client: the accumulating event buffer plus the
    /// event-time bookkeeping that backpressure, late detection and idle
    /// eviction run on.
    struct IngestQueue {
        std::deque<Event> buf;
        double last_event_t{0.0};  ///< newest accepted event timestamp
        bool has_event_t{false};

        /// Field list in checkpoint byte order (serve/checkpoint.cpp).
        template <class Self, class Visitor>
        static void fields(Self& s, Visitor& v) {
            auto& [buf, last_event_t, has_event_t] = s;
            v(buf, last_event_t, has_event_t);
        }
    };

    /// One swapped-out buffer handed to the worker at the epoch barrier.
    struct Delivery {
        ClientId client{0};
        std::deque<Event> events;
        bool evict{false};  ///< idle-evict after processing (decided at swap)
    };

    /// Find or create `beacon`'s session in `sessions`: the one
    /// construction path of this shard's sessions, for ingest and
    /// checkpoint restore alike.
    std::pair<std::map<BeaconId, TrackingSession>::iterator, bool> emplace_session(
        std::map<BeaconId, TrackingSession>& sessions, BeaconId beacon) {
        return sessions.try_emplace(beacon, cfg_.session, anf_, envaware_);
    }

    void process_client(ClientId id, ClientState& c, std::deque<Event>* events,
                        double horizon);
    void run_clustering(ClientState& c);
    locble::Vec2 pose_at(ClientState& c, double t) const;

    Config cfg_;
    const core::EnvAware* envaware_;
    const bool telemetry_;
    /// The sessions' ANF, built once: its design is fixed, and every new
    /// session starts from a copy.
    dsp::Anf anf_;
    core::ClusteringCalibrator calibrator_;

    // --- ingest side (driver thread, any time) ---
    // Unordered on purpose: the hot enqueue path is a keyed lookup
    // (try_emplace), which never observes iteration order. The one
    // order-sensitive consumer is the epoch swap, and begin_epoch()
    // re-sorts the drained inbox by client id before the worker sees it —
    // the collect-then-sort idiom the flow-sensitive `unordered` lint rule
    // codifies (docs/CORRECTNESS.md).
    std::unordered_map<ClientId, IngestQueue> ingest_;

    // --- barrier handoff (written at begin_epoch, read by the worker) ---
    std::vector<Delivery> inbox_;
    double epoch_horizon_{0.0};
    std::size_t inbox_events_{0};

    // --- worker side (one worker thread per epoch) ---
    std::map<ClientId, ClientState> clients_;
    /// This epoch's worker-side counts, until take_epoch_stats().
    IngestStats epoch_stats_;
    std::vector<std::pair<ClientId, BeaconId>> dirty_;
    std::size_t live_sessions_{0};
    EpochTelemetry telem_;
};

}  // namespace locble::serve
