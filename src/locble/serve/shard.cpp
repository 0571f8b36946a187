#include "locble/serve/shard.hpp"

#include <algorithm>
#include <chrono>

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
    // the worker sees it: the merge-walk in process_epoch() requires the
    // inbox in client-id order, and the epoch must be bit-identical
    // whatever the hash seed or insertion history.
    std::sort(inbox_.begin(), inbox_.end(),
              [](const Delivery& a, const Delivery& b) {
                  return a.client < b.client;
              });
    inbox_events_ = 0;
    for (const Delivery& d : inbox_) inbox_events_ += d.events.size();
}

void Shard::process_epoch() {
    LOCBLE_SPAN("serve.shard.epoch");
    const double horizon = epoch_horizon_;

    // Telemetry is flight-recorder state, not obs: it stays on under
    // LOCBLE_OBS=OFF (the recorder, like IngestStats, is service API of
    // record) and off — clock reads included — when the recorder is
    // disabled. The wall clock here is the steady clock, measured only;
    // nothing event-time ever depends on it.
    std::chrono::steady_clock::time_point t0;
    if (telemetry_) {
        telem_ = EpochTelemetry{};
        telem_.staleness_s = obs::QuantileSketch(kStalenessMaxS, kStalenessResolution);
        t0 = std::chrono::steady_clock::now();
    }

    // Merge-walk the inbox (sorted by client id at the begin_epoch swap)
    // against the resident clients. A resident client with no
    // delivery is visited only while it still holds an open batch; fully
    // idle clients cost nothing per epoch.
    std::size_t d = 0;
    auto it = clients_.begin();
    while (d < inbox_.size() || it != clients_.end()) {
        const bool has_delivery =
            d < inbox_.size() &&
            (it == clients_.end() || inbox_[d].client <= it->first);
        const ClientId id = has_delivery ? inbox_[d].client : it->first;
        const bool resident = it != clients_.end() && it->first == id;

        if (!has_delivery) {
            if (!it->second.open_batches) {
                ++it;
                continue;
            }
            if (telemetry_) ++telem_.record.clients_visited;
            process_client(id, it->second, nullptr, horizon);
            ++it;
            continue;
        }

        Delivery& del = inbox_[d++];
        auto s = resident ? it : clients_.try_emplace(id).first;
        if (resident) ++it;
        if (telemetry_) {
            ++telem_.record.clients_visited;
            telem_.record.events_drained += del.events.size();
        }
        process_client(id, s->second, &del.events, horizon);
        if (del.evict) {
            ClientState& c = s->second;
            epoch_stats_.sessions_evicted += c.sessions.size();
            ++epoch_stats_.clients_evicted;
            live_sessions_ -= c.sessions.size();
            clients_.erase(s);
        }
    }

    if (telemetry_) {
        // Staleness of every live session at the barrier: horizon minus the
        // last event folded into the session — pure event time, so the
        // merged sketch (bucket-sum across shards) is byte-identical for
        // any shard count. The obs quantile mirrors it with the same bounds
        // so --metrics reports see the same tail.
        for (auto& [id, c] : clients_) {
            for (auto& [beacon, sess] : c.sessions) {
                const double stale = std::max(0.0, horizon - sess.last_event_t());
                telem_.staleness_s.record(stale);
                if (!sess.has_fit()) ++telem_.record.sessions_no_fit;
                LOCBLE_QUANTILE("serve.staleness_s", stale, kStalenessMaxS,
                                kStalenessResolution);
            }
        }
        telem_.record.sessions_live = live_sessions_;
        telem_.record.wall_us = std::chrono::duration<double, std::micro>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count();
    }
}

void Shard::process_client(ClientId id, ClientState& c,
                           std::deque<Event>* events, double horizon) {
    // Drain the delivered buffer in arrival order. Poses extend the path;
    // advertisements are fused with the interpolated pose at the
    // group-delay-compensated pairing time and fed to the beacon's session.
    if (events != nullptr) {
        while (!events->empty()) {
            const Event e = events->front();
            events->pop_front();
            // Queue residency: how far behind the epoch horizon the event
            // is when drained — event time only, so the merged quantiles
            // are shard-count-invariant.
            LOCBLE_QUANTILE("serve.queue.residency_s", horizon - e.t, 30.0, 300u);
            if (e.kind == EventKind::pose) {
                // Keep the path time-ordered; a late pose (counted at
                // ingest) would corrupt interpolation, so it is ignored.
                if (c.path.empty() || e.t >= c.path.back().t)
                    c.path.push_back({e.t, e.position});
                continue;
            }
            auto [sit, created] = emplace_session(c.sessions, e.beacon);
            if (created) {
                ++epoch_stats_.sessions_created;
                ++live_sessions_;
            }
            TrackingSession& s = sit->second;
            if (c.path.empty()) continue;  // no pose yet: nothing to fuse
            const locble::Vec2 obs = pose_at(c, e.t - s.pose_lag_s());
            // Beacon position is the unknown; the regression consumes the
            // *relative* displacement target - observer with the target at
            // the frame origin — the same convention as the offline
            // pipeline.
            s.on_adv(e.t, e.rssi_dbm, -obs.x, -obs.y, epoch_stats_);
        }
    }

    // Close batches up to the horizon and run the deferred warm-started
    // solves; remember whether any fit moved for the clustering pass, and
    // whether any batch window is still open (so the next epoch revisits).
    bool changed = false;
    bool open = false;
    for (auto& [beacon, s] : c.sessions) {
        s.finish_epoch(horizon, epoch_stats_);
        if (s.take_epoch_changed()) changed = true;
        if (s.has_open_batch()) open = true;
    }
    c.open_batches = open;
    if (changed && cfg_.enable_clustering) run_clustering(c);

    // Record sessions whose snapshot row changed for the incremental
    // snapshot path (docs/SERVING.md); dirty_listed dedupes across epochs.
    for (auto& [beacon, s] : c.sessions) {
        if (s.snapshot_dirty() && !s.dirty_listed()) {
            s.mark_dirty_listed();
            dirty_.emplace_back(id, beacon);
        }
    }

    // Prune pose history that can no longer pair with any admissible
    // advertisement; keep the last two points so interpolation never loses
    // its bracket. Lazy: runs only when the client is visited.
    const double keep_after = horizon - kPoseHistoryS;
    std::size_t drop = 0;
    while (drop + 2 < c.path.size() && c.path[drop + 1].t < keep_after) ++drop;
    if (drop > 0) {
        c.path.erase(c.path.begin(),
                     c.path.begin() + static_cast<std::ptrdiff_t>(drop));
        c.path_cursor = c.path_cursor > drop ? c.path_cursor - drop : 0;
    }
}

void Shard::run_clustering(ClientState& c) {
    std::vector<BeaconId> fitted;
    fitted.reserve(c.sessions.size());
    for (const auto& [beacon, s] : c.sessions)
        if (s.has_fit()) fitted.push_back(beacon);
    if (fitted.size() < 2) return;

    std::vector<core::ClusterCandidate> cands;
    cands.reserve(fitted.size());
    for (const BeaconId beacon : fitted) {
        const TrackingSession& s = c.sessions.at(beacon);
        cands.push_back({beacon, s.rss_series(), s.fit()});
    }
    for (std::size_t i = 0; i < cands.size(); ++i) {
        std::vector<core::ClusterCandidate> neighbors;
        neighbors.reserve(cands.size() - 1);
        for (std::size_t j = 0; j < cands.size(); ++j)
            if (j != i) neighbors.push_back(cands[j]);
        const auto cal = calibrator_.calibrate(cands[i], neighbors);
        c.sessions.at(fitted[i]).set_cluster(cal);
        ++epoch_stats_.cluster_runs;
    }
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
