#include "locble/serve/shard.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "locble/obs/obs.hpp"

namespace locble::serve {

void Shard::enqueue(const Event& e, IngestStats& stats) {
    auto [it, created] = ingest_.try_emplace(e.client);
    IngestQueue& q = it->second;
    if (created) ++stats.clients_created;
    if (q.has_event_t && e.t < q.last_event_t) ++stats.late;
    if (q.buf.size() >= cfg_.queue_capacity) {
        // Backpressure: the oldest event makes room. The bound is per
        // client, so this decision depends only on the client's own stream
        // — identical whatever the shard count (docs/SERVING.md).
        q.buf.pop_front();
        ++stats.dropped;
    }
    q.buf.push_back(e);
    ++stats.accepted;
    q.last_event_t = q.has_event_t ? std::max(q.last_event_t, e.t) : e.t;
    q.has_event_t = true;
    LOCBLE_GAUGE_MAX_ND("serve.queue.high_water", q.buf.size());
}

void Shard::begin_epoch(double horizon) {
    epoch_horizon_ = horizon;
    inbox_.clear();
    for (auto it = ingest_.begin(); it != ingest_.end();) {
        IngestQueue& q = it->second;
        // Idle eviction, driven by event time against the service horizon —
        // never the wall clock (a stalled client is exactly as evicted in a
        // replay as it was live). last_event_t already covers every event
        // accepted up to this swap, so the decision is the same one the
        // phase-separated service would make after draining.
        const bool evict = q.has_event_t &&
                           horizon - q.last_event_t > cfg_.idle_timeout_s;
        if (!q.buf.empty() || evict) {
            Delivery d;
            d.client = it->first;
            d.events = std::move(q.buf);
            d.evict = evict;
            inbox_.push_back(std::move(d));
            q.buf.clear();  // moved-from: make it definitively empty
        }
        if (evict)
            it = ingest_.erase(it);
        else
            ++it;
    }
    // The ingest map is unordered (the hot path only ever does keyed
    // lookups), so the drain above lands in hash-table order. Sort before
    // the epoch sees it: the merge-walk in plan_epoch() requires the inbox
    // in client-id order, and the epoch must be bit-identical whatever the
    // hash seed or insertion history.
    std::sort(inbox_.begin(), inbox_.end(),
              [](const Delivery& a, const Delivery& b) {
                  return a.client < b.client;
              });
    inbox_events_ = 0;
    for (const Delivery& d : inbox_) inbox_events_ += d.events.size();
}

namespace {

/// Adds a work item's wall time to its worker's tally on scope exit (a
/// throwing item included); reads no clock when telemetry is off. The clock
/// is the steady clock, measured only: nothing event-time depends on it.
class ItemTimer {
public:
    ItemTimer(bool on, double& acc) : acc_(on ? &acc : nullptr) {
        if (acc_ != nullptr) t0_ = std::chrono::steady_clock::now();
    }
    ~ItemTimer() {
        if (acc_ != nullptr)
            *acc_ += std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0_)
                         .count();
    }
    ItemTimer(const ItemTimer&) = delete;
    ItemTimer& operator=(const ItemTimer&) = delete;

private:
    double* acc_;
    std::chrono::steady_clock::time_point t0_;
};

}  // namespace

void Shard::plan_epoch(std::vector<ClientWork>& work) {
    // Telemetry is flight-recorder state, not obs: it stays on under
    // LOCBLE_OBS=OFF (the recorder, like IngestStats, is service API of
    // record) and off — clock reads included — when the recorder is
    // disabled.
    if (telemetry_) {
        telem_ = EpochTelemetry{};
        telem_.staleness_s = obs::QuantileSketch(kStalenessMaxS, kStalenessResolution);
    }

    // Merge-walk the inbox (sorted by client id at the begin_epoch swap)
    // against the resident clients. A resident client with no delivery is
    // visited only while it still holds an open batch; fully idle clients
    // cost one step of the walk.
    std::size_t d = 0;
    auto it = clients_.begin();
    while (d < inbox_.size() || it != clients_.end()) {
        const bool has_delivery =
            d < inbox_.size() &&
            (it == clients_.end() || inbox_[d].client <= it->first);
        if (!has_delivery) {
            if (it->second.open_batches) {
                work.push_back({this, it->first, &it->second, nullptr});
                if (telemetry_) ++telem_.record.clients_visited;
            }
            ++it;
            continue;
        }
        Delivery& del = inbox_[d++];
        const bool resident = it != clients_.end() && it->first == del.client;
        // Client creation changes the map's shape, so it happens here, on
        // the driver, before any worker runs.
        auto s = resident ? it++ : clients_.try_emplace(del.client).first;
        work.push_back({this, del.client, &s->second, &del.events, del.evict});
        if (telemetry_) {
            ++telem_.record.clients_visited;
            telem_.record.events_drained += del.events.size();
        }
    }
}

void Shard::drain(const ClientWork& w, std::size_t worker) {
    Tally& t = tallies_[worker];
    const ItemTimer timer(telemetry_, t.wall_us);
    if (w.events == nullptr) return;
    ClientState& c = *w.state;
    const double horizon = epoch_horizon_;
    // Drain the delivered buffer in arrival order. Poses extend the path;
    // advertisements are fused with the interpolated pose at the
    // group-delay-compensated pairing time and fed to the beacon's session.
    std::deque<Event>& events = *w.events;
    while (!events.empty()) {
        const Event e = events.front();
        events.pop_front();
        // Queue residency: how far behind the epoch horizon the event is
        // when drained — event time only, so the merged quantiles are
        // shard-count-invariant.
        LOCBLE_QUANTILE("serve.queue.residency_s", horizon - e.t, 30.0, 300u);
        if (e.kind == EventKind::pose) {
            // Keep the path time-ordered; a late pose (counted at ingest)
            // would corrupt interpolation, so it is ignored.
            if (c.path.empty() || e.t >= c.path.back().t)
                c.path.push_back({e.t, e.position});
            continue;
        }
        auto [sit, created] = emplace_session(c.sessions, e.beacon);
        if (created) ++t.stats.sessions_created;
        TrackingSession& s = sit->second;
        if (c.path.empty()) continue;  // no pose yet: nothing to fuse
        const locble::Vec2 obs = pose_at(c, e.t - s.pose_lag_s());
        // Beacon position is the unknown; the regression consumes the
        // *relative* displacement target - observer with the target at the
        // frame origin — the same convention as the offline pipeline.
        s.on_adv(e.t, e.rssi_dbm, -obs.x, -obs.y, t.stats);
    }
}

void Shard::solve(TrackingSession& session, std::size_t worker) {
    Tally& t = tallies_[worker];
    const ItemTimer timer(telemetry_, t.wall_us);
    // Close batches up to the horizon and run the deferred warm-started
    // solve. A session is a pure function of its own events, so which
    // worker solves it, and when, is never observable.
    session.finish_epoch(epoch_horizon_, t.stats);
}

void Shard::settle(const ClientWork& w, std::size_t worker) {
    Tally& t = tallies_[worker];
    const ItemTimer timer(telemetry_, t.wall_us);
    ClientState& c = *w.state;
    // Whether any batch window is still open, so the next epoch revisits.
    c.open_batches = std::any_of(c.sessions.begin(), c.sessions.end(),
                                 [](const auto& kv) { return kv.second.has_open_batch(); });

    // Record sessions whose snapshot row changed for the incremental
    // snapshot path (docs/SERVING.md); dirty_listed dedupes across epochs.
    for (auto& [beacon, s] : c.sessions) {
        if (s.snapshot_dirty() && !s.dirty_listed()) {
            s.mark_dirty_listed();
            t.dirty.emplace_back(w.id, beacon);
        }
    }

    // An evicted client is done: free its sessions here, on a worker, not
    // at the barrier on the driver (evict() already counted them).
    if (w.evict) {
        c = ClientState{};
        return;
    }

    // Prune pose history that can no longer pair with any admissible
    // advertisement; keep the last two points so interpolation never loses
    // its bracket. Lazy: runs only when the client is visited.
    const double keep_after = epoch_horizon_ - kPoseHistoryS;
    std::size_t drop = 0;
    while (drop + 2 < c.path.size() && c.path[drop + 1].t < keep_after) ++drop;
    if (drop > 0) {
        c.path.erase(c.path.begin(),
                     c.path.begin() + static_cast<std::ptrdiff_t>(drop));
        c.path_cursor = c.path_cursor > drop ? c.path_cursor - drop : 0;
    }
}

void Shard::record_telemetry(std::size_t worker) {
    const ItemTimer timer(telemetry_, tallies_[worker].wall_us);
    // Staleness of every session that outlives the epoch (evict() already
    // took the evicted clients out): horizon minus the last event folded
    // into the session — pure event time, so the merged sketch (bucket-sum
    // across shards) is byte-identical for any shard count. The obs
    // quantile mirrors it with the same bounds so --metrics reports see the
    // same tail. The walk reads each session's last event time and fit
    // flag, which settle() never writes, and the map shapes, which only
    // the driver changes between stages.
    for (const auto& [id, c] : clients_) {
        for (const auto& [beacon, sess] : c.sessions) {
            const double stale = std::max(0.0, epoch_horizon_ - sess.last_event_t());
            telem_.staleness_s.record(stale);
            if (!sess.has_fit()) ++telem_.record.sessions_no_fit;
            LOCBLE_QUANTILE("serve.staleness_s", stale, kStalenessMaxS,
                            kStalenessResolution);
        }
    }
}

void Shard::evict() {
    for (const Delivery& d : inbox_) {
        if (!d.evict) continue;
        auto node = clients_.extract(d.client);
        ++evictions_.clients_evicted;
        evictions_.sessions_evicted += node.mapped().sessions.size();
        evicted_.push_back(std::move(node));
    }
}

IngestStats Shard::end_epoch() {
    IngestStats worked = std::exchange(evictions_, IngestStats{});
    for (Tally& t : tallies_) {
        worked += t.stats;
        dirty_.insert(dirty_.end(), t.dirty.begin(), t.dirty.end());
        if (telemetry_) telem_.record.wall_us += t.wall_us;
        t.stats = IngestStats{};
        t.dirty.clear();
        t.wall_us = 0.0;
    }
    evicted_.clear();
    live_sessions_ = live_sessions_ + worked.sessions_created - worked.sessions_evicted;
    if (telemetry_) telem_.record.sessions_live = live_sessions_;
    return worked;
}

locble::Vec2 Shard::pose_at(ClientState& c, double t) const {
    const auto& path = c.path;
    // NaN-safe endpoints: a NaN pairing time (or a one-point track whose
    // only pose is at NaN) takes an end pose, so the bracket search below
    // only runs strictly inside a track of at least two points.
    if (!(t > path.front().t)) return path.front().position;
    if (!(t < path.back().t)) return path.back().position;
    // Cursor-hinted bracket search: pairing times are near-monotone within
    // a drain, so this is O(1) amortized instead of a per-event scan. The
    // cursor only ever changes results' cost, never their value.
    std::size_t i = std::min(c.path_cursor, path.size() - 2);
    while (i > 0 && path[i].t > t) --i;
    while (i + 2 < path.size() && path[i + 1].t < t) ++i;
    c.path_cursor = i;
    const auto& a = path[i];
    const auto& b = path[i + 1];
    const double f = b.t > a.t ? (t - a.t) / (b.t - a.t) : 1.0;
    return {a.position.x + (b.position.x - a.position.x) * f,
            a.position.y + (b.position.y - a.position.y) * f};
}

}  // namespace locble::serve
