#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

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
/// Threading contract (docs/SERVING.md): state is split into disjoint parts
/// so ingest can overlap epoch execution and any number of workers can share
/// one shard's epoch.
///
///  - *Ingest side* (`ingest_`) is touched only by the driver thread, at any
///    time — including while an epoch is in flight. Its counts go to the
///    ledger enqueue() is handed, the service's own.
///  - *Client map* (`clients_`, `evicted_`) changes shape only on the driver
///    thread, between stages: plan_epoch() creates the epoch's new clients,
///    evict() takes out the evicted ones.
///  - *Work items* run on the service's workers, which claim them from the
///    epoch-wide work lists: drain() and settle() touch one client,
///    solve() one session, record_telemetry() only reads sessions (fields
///    no concurrent settle() writes) and writes the telemetry. A worker
///    counts into its own Tally, never another's.
///  - The handoff (`inbox_`, `epoch_horizon_`) is written by `begin_epoch()`
///    on the driver thread while no epoch is in flight, then read by the
///    work items; the service's stage barriers order everything else, so
///    nothing is touched concurrently and the hot path takes no locks.
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

        /// Field list in config-digest byte order (serve/checkpoint.cpp),
        /// where `session` comes last.
        template <class Self, class Visitor>
        static void fields(Self& s, Visitor& v) {
            auto& [session, queue_capacity, idle_timeout_s] = s;
            v(queue_capacity, idle_timeout_s, kPoseHistoryS, kStalenessMaxS,
              kStalenessResolution, session);
        }
    };

    /// `envaware` may be null when the session config does not use it; it
    /// must outlive the shard. `telemetry` collects the per-epoch flight
    /// recorder telemetry (EpochTelemetry); when false, the epoch reads no
    /// clock and walks no sessions beyond its normal work. `workers` is the
    /// number of workers that may run this shard's work items (one Tally
    /// each).
    Shard(const Config& cfg, const core::EnvAware* envaware, bool telemetry,
          std::size_t workers)
        : cfg_(cfg), envaware_(envaware), telemetry_(telemetry), tallies_(workers) {}

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

    struct ClientState;

    /// One client's share of an epoch: its delivered buffer (null when an
    /// open batch alone brings the client back), its resident state, and
    /// whether the swap evicted it.
    struct ClientWork {
        Shard* shard{nullptr};
        ClientId id{0};
        ClientState* state{nullptr};
        std::deque<Event>* events{nullptr};
        bool evict{false};
    };

    /// One session's share of an epoch: the batch close and solve.
    struct SessionWork {
        Shard* shard{nullptr};
        TrackingSession* session{nullptr};
    };

    /// After the swap (driver thread): create the clients the inbox
    /// introduces and append, in client-id order, one work item per client
    /// the epoch visits — each delivery, and each resident client that
    /// still holds an open batch. A fully idle client gets no work item.
    void plan_epoch(std::vector<ClientWork>& work);

    /// Stage 1 (a worker): drain the client's delivery into its sessions,
    /// creating the sessions new beacons need.
    void drain(const ClientWork& w, std::size_t worker);
    /// Stage 2 (a worker): close the session's batches up to the swap
    /// horizon and run its warm-started solve.
    void solve(TrackingSession& session, std::size_t worker);
    /// Stage 3 (a worker): the client's dirty listing, open-batch flag and
    /// pose pruning; an evicted client's state is freed instead of pruned.
    void settle(const ClientWork& w, std::size_t worker);
    /// Stage 3 (a worker, when built with telemetry): staleness and no-fit
    /// counts over every session that outlives the epoch.
    void record_telemetry(std::size_t worker);

    /// After stage 2 (driver thread): take the clients evicted at the swap
    /// out of the client map and count them. Their state stays alive for
    /// stage 3 to settle (and free) until end_epoch().
    void evict();

    /// The epoch barrier (driver thread, every worker stopped): fold the
    /// workers' tallies and the evictions, release the evicted clients, and
    /// return the epoch's worker-side counts — including those of an epoch
    /// a worker exception cut short. The service folds them into its ledger.
    IngestStats end_epoch();

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

    /// Sessions dirtied since the last snapshot, in the order the workers'
    /// tallies were folded (deduplicated via TrackingSession::dirty_listed).
    /// The service consumes — and clears — this at snapshot assembly, which
    /// sorts its rows, so the order is never observed.
    std::vector<std::pair<ClientId, BeaconId>>& dirty_sessions() {
        return dirty_;
    }

    /// Live session count across this shard's clients (updated at each
    /// epoch barrier; quiescent point required).
    std::size_t live_sessions() const { return live_sessions_; }

    /// Per-epoch telemetry for the service flight recorder, rebuilt by each
    /// epoch when the shard was built with telemetry on. Read at quiescent
    /// points only (the service reads it at the barrier).
    struct EpochTelemetry {
        /// The shard's row of the epoch's flight record. Its counts are the
        /// shard's own; `wall_us` sums the wall time of the shard's work
        /// items, whichever workers ran them.
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

    /// One swapped-out buffer handed to the epoch at the swap.
    struct Delivery {
        ClientId client{0};
        std::deque<Event> events;
        bool evict{false};  ///< idle-evict after processing (decided at swap)
    };

    /// One worker's counts for this shard's work items in an epoch, folded
    /// at the barrier by u64 sum. Cache-line aligned: workers write their
    /// own tallies side by side.
    struct alignas(64) Tally {
        IngestStats stats;
        std::vector<std::pair<ClientId, BeaconId>> dirty;
        double wall_us{0.0};  ///< wall time of the worker's items (ND)
    };

    /// Find or create `beacon`'s session in `sessions`: the one
    /// construction path of this shard's sessions, for ingest and
    /// checkpoint restore alike.
    std::pair<std::map<BeaconId, TrackingSession>::iterator, bool> emplace_session(
        std::map<BeaconId, TrackingSession>& sessions, BeaconId beacon) {
        return sessions.try_emplace(beacon, cfg_.session, anf_, envaware_);
    }

    locble::Vec2 pose_at(ClientState& c, double t) const;

    Config cfg_;
    const core::EnvAware* envaware_;
    const bool telemetry_;
    /// The sessions' ANF, built once: its design is fixed, and every new
    /// session starts from a copy.
    dsp::Anf anf_;

    // --- ingest side (driver thread, any time) ---
    // Unordered on purpose: the hot enqueue path is a keyed lookup
    // (try_emplace), which never observes iteration order. The one
    // order-sensitive consumer is the epoch swap, and begin_epoch()
    // re-sorts the drained inbox by client id before the epoch sees it —
    // the collect-then-sort idiom the flow-sensitive `unordered` lint rule
    // codifies (docs/CORRECTNESS.md).
    std::unordered_map<ClientId, IngestQueue> ingest_;

    // --- barrier handoff (written at begin_epoch, read by the work items) ---
    std::vector<Delivery> inbox_;
    double epoch_horizon_{0.0};
    std::size_t inbox_events_{0};

    // --- epoch side (shape: driver between stages; items: workers) ---
    std::map<ClientId, ClientState> clients_;
    /// Clients evict() took out this epoch, alive until end_epoch(), and
    /// their counts.
    std::vector<std::map<ClientId, ClientState>::node_type> evicted_;
    IngestStats evictions_;
    std::vector<Tally> tallies_;  ///< one per worker
    std::vector<std::pair<ClientId, BeaconId>> dirty_;
    std::size_t live_sessions_{0};
    EpochTelemetry telem_;
};

}  // namespace locble::serve
