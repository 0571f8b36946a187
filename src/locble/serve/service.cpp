#include "locble/serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "locble/obs/obs.hpp"

namespace locble::serve {

namespace {

/// Round-trip-exact double formatting for the canonical snapshot text.
std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/// Nearest-rank percentile of an unsorted sample (sorted in place). Only
/// used for the ND wall-clock fields — event-time quantiles go through the
/// deterministic sketch.
double nearest_rank(std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto n = static_cast<double>(v.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank == 0) rank = 1;
    if (rank > v.size()) rank = v.size();
    return v[rank - 1];
}

/// Publish a ledger increment to the serve.* obs counters, IngestStats'
/// exported copy: they advance only here, at the epoch swap (driver-side
/// counts) and the barrier (worker-side counts). A zero increment is not
/// published, so a counter registers only once it has counted something.
void publish(const IngestStats& delta) {
    for (const IngestStatsField& f : kIngestStatsFields)
        if (f.counter != nullptr && delta.*f.value != 0)
            LOCBLE_COUNT_NAMED(f.counter, delta.*f.value);
}

BeaconEstimate make_estimate(ClientId client, BeaconId beacon,
                             const TrackingSession& session) {
    BeaconEstimate e;
    e.client = client;
    e.beacon = beacon;
    e.has_fit = session.has_fit();
    if (e.has_fit) e.fit = session.fit();
    e.samples_used = session.samples_used();
    e.samples_seen = session.samples_seen();
    e.regression_restarts = session.regression_restarts();
    e.resets = session.resets();
    e.last_event_t = session.last_event_t();
    return e;
}

}  // namespace

std::string canonical_text(const ServiceSnapshot& snap) {
    std::string out;
    out.reserve(128 + snap.estimates.size() * 256);
    out += "snapshot epoch=" + std::to_string(snap.epoch) +
           " horizon=" + fmt(snap.horizon) +
           " estimates=" + std::to_string(snap.estimates.size()) +
           " live=" + std::to_string(snap.sessions_live) +
           " delta=" + (snap.incremental ? std::string("1") : std::string("0")) +
           "\n";
    out += "stats";
    for (const IngestStatsField& f : kIngestStatsFields)
        out += std::string(" ") + f.name + "=" + std::to_string(snap.stats.*f.value);
    out += "\n";
    for (const BeaconEstimate& e : snap.estimates) {
        out += "client=" + std::to_string(e.client) +
               " beacon=" + std::to_string(e.beacon) +
               " fit=" + (e.has_fit ? std::string("1") : std::string("0"));
        if (e.has_fit) {
            out += " x=" + fmt(e.fit.location.x) + " y=" + fmt(e.fit.location.y) +
                   " n=" + fmt(e.fit.exponent) + " gamma=" + fmt(e.fit.gamma_dbm) +
                   " resid=" + fmt(e.fit.residual_db) +
                   " conf=" + fmt(e.fit.confidence) +
                   " ambiguous=" + (e.fit.ambiguous ? std::string("1")
                                                    : std::string("0")) +
                   " gammas=[";
            for (std::size_t i = 0; i < e.fit.segment_gammas.size(); ++i) {
                if (i > 0) out += ",";
                out += fmt(e.fit.segment_gammas[i]);
            }
            out += "]";
        }
        out += " used=" + std::to_string(e.samples_used) +
               " seen=" + std::to_string(e.samples_seen) +
               " restarts=" + std::to_string(e.regression_restarts) +
               " resets=" + std::to_string(e.resets) +
               " last_t=" + fmt(e.last_event_t) + "\n";
    }
    return out;
}

const char* health_name(ServiceHealth h) {
    switch (h) {
        case ServiceHealth::ok: return "ok";
        case ServiceHealth::degraded: return "degraded";
        case ServiceHealth::overloaded: return "overloaded";
    }
    return "ok";
}

std::string status_json(const ServiceStatus& s) {
    std::string out;
    out.reserve(768);
    out += "{\"schema_version\":1,\"deterministic\":{";
    out += "\"epoch\":" + std::to_string(s.epoch);
    out += ",\"horizon\":" + fmt(s.horizon);
    out += ",\"window_epochs\":" + std::to_string(s.window_epochs);
    out += ",\"sessions_live\":" + std::to_string(s.sessions_live);
    out += ",\"sessions_no_fit\":" + std::to_string(s.sessions_no_fit);
    out += ",\"window\":{";
    out += "\"submitted\":" + std::to_string(s.window_submitted);
    out += ",\"dropped\":" + std::to_string(s.window_dropped);
    out += ",\"rejected\":" + std::to_string(s.window_rejected);
    out += ",\"clients_evicted\":" + std::to_string(s.window_clients_evicted);
    out += "}";
    out += ",\"drop_rate\":" + fmt(s.drop_rate);
    out += ",\"no_fix_rate\":" + fmt(s.no_fix_rate);
    out += ",\"eviction_rate\":" + fmt(s.eviction_rate);
    out += ",\"staleness_s\":{";
    out += "\"p50\":" + fmt(s.staleness_p50_s);
    out += ",\"p95\":" + fmt(s.staleness_p95_s);
    out += ",\"p99\":" + fmt(s.staleness_p99_s);
    out += ",\"max\":" + fmt(s.staleness_max_s);
    out += "}";
    out += ",\"health\":\"";
    out += health_name(s.health);
    out += "\"},\"nd\":{";
    out += "\"epoch_wall_p50_us\":" + fmt(s.epoch_wall_p50_us);
    out += ",\"epoch_wall_p99_us\":" + fmt(s.epoch_wall_p99_us);
    out += ",\"epoch_wall_max_us\":" + fmt(s.epoch_wall_max_us);
    out += "}}\n";
    return out;
}

TrackingService::TrackingService(const Config& cfg,
                                 std::optional<core::EnvAware> envaware)
    : cfg_(cfg), envaware_(std::move(envaware)) {
    const unsigned nshards = cfg_.shards == 0 ? 1u : cfg_.shards;
    recorder_ = FlightRecorder(cfg_.flight_recorder_epochs);
    if (cfg_.shard.session.pipeline.use_envaware && !envaware_)
        throw std::invalid_argument(
            "TrackingService: session config enables EnvAware but no model "
            "was provided");
    const core::EnvAware* env = envaware_ ? &*envaware_ : nullptr;
    threads_ = cfg_.threads == 0 ? nshards : cfg_.threads;
    shards_.reserve(nshards);
    for (unsigned i = 0; i < nshards; ++i)
        shards_.push_back(
            std::make_unique<Shard>(cfg_.shard, env, recorder_.enabled(), threads_));
    // One pool for the service lifetime; with a single worker begin_epoch()
    // runs the whole epoch inline, so threads == 1 needs no pool at all.
    if (threads_ > 1) pool_.emplace(threads_);
}

TrackingService::~TrackingService() {
    try {
        end_epoch();
    } catch (...) {
        // A work item failed during teardown; the epoch's results are
        // being discarded anyway.
    }
}

void TrackingService::submit(const Event& e) {
    // The tap observes every submission pre-admission, so a replayed log
    // re-enacts drops/rejections instead of double-counting them.
    if (tap_) tap_->on_event(e);
    ++stats_.submitted;
    // A non-finite value would poison the session it reaches (a NaN RSSI
    // or pose freezes the fit) or the clock (an infinite t hangs batch
    // closing), so it is refused before it can touch any state.
    if (!is_finite(e)) {
        ++stats_.rejected;
        return;
    }
    shards_[shard_of(e.client, static_cast<std::uint32_t>(shards_.size()))]->enqueue(
        e, stats_);
    // The horizon (the service's event-time clock) advances on the driver
    // thread over accepted events, so batch closing and eviction see the
    // same clock whatever the shard count.
    horizon_ = has_horizon_ ? std::max(horizon_, e.t) : e.t;
    has_horizon_ = true;
}

void TrackingService::submit(const std::vector<Event>& events) {
    for (const Event& e : events) submit(e);
}

std::uint64_t TrackingService::begin_epoch() {
    if (in_flight_)
        throw std::logic_error("TrackingService::begin_epoch: epoch in flight");
    LOCBLE_SPAN("serve.epoch.swap");
    const std::uint64_t epoch = ++stats_.epochs;
    // Epoch mark before the swap: events the tap saw earlier belong to this
    // epoch, events after it to the next — exactly the swap semantics.
    if (tap_) tap_->on_epoch(epoch);
    epoch_horizon_ = horizon_;
    // The swap: from here on the driver may submit freely — new events land
    // in the fresh ingest buffers and belong to the next epoch.
    for (auto& s : shards_) s->begin_epoch(epoch_horizon_);
    // The barrier view takes every driver-side count up to the swap. Its
    // worker-side counts already equal the ledger's (no epoch in flight),
    // so the increment published is the driver's since the last swap.
    publish(stats_ - barrier_stats_);
    barrier_stats_ = stats_;
    if (recorder_.enabled()) {
        epoch_t0_ = std::chrono::steady_clock::now();
        std::size_t queued = 0;
        for (const auto& s : shards_) queued += s->inbox_events();
        LOCBLE_TRACE_COUNTER("serve.queue_depth", queued);
    }
    in_flight_ = true;

    // One client list for the whole epoch, in client-id order. Planning
    // creates the epoch's new clients, which changes a shard's client map,
    // so it runs here on the driver before any worker does.
    client_work_.clear();
    for (auto& s : shards_) s->plan_epoch(client_work_);
    std::sort(client_work_.begin(), client_work_.end(),
              [](const Shard::ClientWork& a, const Shard::ClientWork& b) {
                  return a.id < b.id;
              });
    // Stage 1: drain each delivery into its client's sessions.
    launch(client_work_.size(), [this](std::size_t worker, std::size_t i) {
        const Shard::ClientWork& w = client_work_[i];
        w.shard->drain(w, worker);
    });
    join();

    // Stage 2, nearly all of the epoch's work: close and solve every session
    // of the visited clients, in (client, beacon) order. It runs until
    // end_epoch(), beside the driver's ingest for the next epoch.
    session_work_.clear();
    if (!failure_) {
        for (const Shard::ClientWork& w : client_work_)
            for (auto& [beacon, session] : w.state->sessions)
                session_work_.push_back({w.shard, &session});
        launch(session_work_.size(), [this](std::size_t worker, std::size_t i) {
            const Shard::SessionWork& w = session_work_[i];
            w.shard->solve(*w.session, worker);
        });
    }
    if (!pool_) {
        LOCBLE_SPAN("serve.epoch");
        end_epoch();
    }
    return epoch;
}

void TrackingService::end_epoch() {
    if (!in_flight_) return;
    join();
    // The evictions decided at the swap change the client maps' shape, so
    // they run here, between stages — also after a failed stage. Evicted
    // clients still settle (and are freed) in stage 3, so their last epoch
    // counts in full.
    for (auto& s : shards_) s->evict();
    if (!failure_) {
        // Stage 3: each shard's telemetry walk (the largest items, so they
        // are claimed first), then each client's settle.
        const std::size_t walks = recorder_.enabled() ? shards_.size() : 0;
        launch(walks + client_work_.size(),
               [this, walks](std::size_t worker, std::size_t i) {
                   if (i < walks) {
                       shards_[i]->record_telemetry(worker);
                       return;
                   }
                   const Shard::ClientWork& w = client_work_[i - walks];
                   w.shard->settle(w, worker);
               });
        join();
    }
    in_flight_ = false;
    // The barrier. A failed epoch's counts are folded too: the work the
    // workers did before an item threw stays counted.
    IngestStats worked;
    for (auto& s : shards_) worked += s->end_epoch();
    stats_ += worked;
    barrier_stats_ += worked;
    publish(worked);
    if (failure_) std::rethrow_exception(std::exchange(failure_, nullptr));
    finalize_epoch_record();
}

void TrackingService::launch(std::size_t count,
                             std::function<void(std::size_t, std::size_t)> item) {
    if (count == 0) return;
    cursor_.store(0, std::memory_order_relaxed);
    // Items touch disjoint state, and the pool's queue orders the work
    // lists before every claim, so the cursor needs no ordering of its own.
    auto worker = [this, count, item = std::move(item)](std::size_t w) {
        std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        LOCBLE_SPAN("serve.shard.epoch");
        try {
            do {
                item(w, i);
            } while ((i = cursor_.fetch_add(1, std::memory_order_relaxed)) < count);
        } catch (...) {
            cursor_.store(count, std::memory_order_relaxed);  // no more claims
            throw;
        }
    };
    if (!pool_) {
        try {
            worker(0);
        } catch (...) {
            failure_ = std::current_exception();
        }
        return;
    }
    const std::size_t workers = std::min<std::size_t>(threads_, count);
    for (std::size_t w = 0; w < workers; ++w)
        inflight_.push_back(pool_->submit([worker, w] { worker(w); }));
}

void TrackingService::join() {
    if (inflight_.empty()) return;
    LOCBLE_SPAN("serve.epoch.barrier");
    // Wait for every worker before anything rethrows, so a failure still
    // leaves the service quiescent (no worker left touching shard state).
    for (auto& f : inflight_) {
        try {
            f.get();
        } catch (...) {
            if (!failure_) failure_ = std::current_exception();
        }
    }
    inflight_.clear();
}

void TrackingService::finalize_epoch_record() {
    if (!recorder_.enabled()) return;
    EpochRecord rec;
    rec.epoch = stats_.epochs;
    rec.horizon = epoch_horizon_;
    // The barrier view is monotone, so the exact u64 difference never
    // underflows.
    rec.delta = barrier_stats_ - last_record_stats_;
    last_record_stats_ = barrier_stats_;
    for (const auto& s : shards_) {
        const Shard::EpochTelemetry& t = s->telemetry();
        rec.shards.push_back(t.record);
        rec.sessions_live += t.record.sessions_live;
        rec.sessions_no_fit += t.record.sessions_no_fit;
        rec.staleness_s.merge(t.staleness_s);
    }
    rec.wall_epoch_us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - epoch_t0_)
                            .count();
    LOCBLE_TRACE_COUNTER("serve.live_sessions", rec.sessions_live);
    recorder_.push(std::move(rec));
}

std::uint64_t TrackingService::run_epoch() {
    LOCBLE_SPAN("serve.epoch");
    begin_epoch();
    end_epoch();
    return stats_.epochs;
}

ServiceSnapshot TrackingService::snapshot(SnapshotMode mode) {
    if (in_flight_)
        throw std::logic_error("TrackingService::snapshot: epoch in flight");
    LOCBLE_SPAN("serve.snapshot");
    ServiceSnapshot snap;
    snap.epoch = stats_.epochs;
    snap.horizon = epoch_horizon_;
    snap.incremental = mode == SnapshotMode::incremental;
    snap.stats = barrier_stats_;
    for (auto& shard : shards_) {
        snap.sessions_live += shard->live_sessions();
        if (mode == SnapshotMode::full) {
            for (auto& [client, state] : shard->clients_mut()) {
                for (auto& [beacon, session] : state.sessions) {
                    snap.estimates.push_back(
                        make_estimate(client, beacon, session));
                    session.clear_snapshot_dirty();
                }
            }
        } else {
            auto& clients = shard->clients_mut();
            for (const auto& [client, beacon] : shard->dirty_sessions()) {
                auto cit = clients.find(client);
                if (cit == clients.end()) continue;  // evicted since listed
                auto sit = cit->second.sessions.find(beacon);
                if (sit == cit->second.sessions.end()) continue;
                snap.estimates.push_back(
                    make_estimate(client, beacon, sit->second));
                sit->second.clear_snapshot_dirty();
            }
        }
        // Either mode resets the incremental baseline: the next delta
        // reports changes relative to this snapshot.
        shard->dirty_sessions().clear();
    }
    LOCBLE_COUNT("serve.snapshot.rows",
                 static_cast<std::uint64_t>(snap.estimates.size()));
    recorder_.note_snapshot_rows(stats_.epochs,
                                 static_cast<std::uint64_t>(snap.estimates.size()));
    // Shards are visited in index order, but the global order must not
    // depend on the client -> shard hash: sort by (client, beacon).
    std::sort(snap.estimates.begin(), snap.estimates.end(),
              [](const BeaconEstimate& a, const BeaconEstimate& b) {
                  return a.client != b.client ? a.client < b.client
                                              : a.beacon < b.beacon;
              });
    return snap;
}

IngestStats TrackingService::stats() const {
    if (in_flight_)
        throw std::logic_error("TrackingService::stats: epoch in flight");
    return stats_;
}

ServiceStatus TrackingService::status() const {
    if (in_flight_)
        throw std::logic_error("TrackingService::status: epoch in flight");
    ServiceStatus st;
    st.epoch = stats_.epochs;
    st.horizon = epoch_horizon_;
    const std::vector<EpochRecord> recs = recorder_.records();
    const std::size_t window = std::min(kStatusWindowEpochs, recs.size());
    st.window_epochs = window;
    if (window == 0) return st;  // nothing recorded: all zero, health ok

    obs::QuantileSketch staleness;
    std::vector<double> walls;
    walls.reserve(window);
    for (std::size_t i = recs.size() - window; i < recs.size(); ++i) {
        const EpochRecord& r = recs[i];
        st.window_submitted += r.delta.submitted;
        st.window_dropped += r.delta.dropped;
        st.window_rejected += r.delta.rejected;
        st.window_clients_evicted += r.delta.clients_evicted;
        walls.push_back(r.wall_epoch_us);
    }
    // Point-in-time fields come from the newest record; staleness quantiles
    // likewise describe the fleet *now* (the deterministic sketch merged
    // across shards at the last barrier), not a blur over the window.
    const EpochRecord& latest = recs.back();
    st.sessions_live = latest.sessions_live;
    st.sessions_no_fit = latest.sessions_no_fit;
    staleness = latest.staleness_s;

    st.drop_rate =
        st.window_submitted > 0
            ? static_cast<double>(st.window_dropped + st.window_rejected) /
                  static_cast<double>(st.window_submitted)
            : 0.0;
    st.no_fix_rate = st.sessions_live > 0
                         ? static_cast<double>(st.sessions_no_fit) /
                               static_cast<double>(st.sessions_live)
                         : 0.0;
    st.eviction_rate = static_cast<double>(st.window_clients_evicted) /
                       static_cast<double>(window);
    st.staleness_p50_s = staleness.quantile(0.50);
    st.staleness_p95_s = staleness.quantile(0.95);
    st.staleness_p99_s = staleness.quantile(0.99);
    st.staleness_max_s = staleness.max();

    if (st.drop_rate >= kOverloadedDropRate ||
        st.staleness_p99_s >= kOverloadedStalenessP99S)
        st.health = ServiceHealth::overloaded;
    else if (st.drop_rate >= kDegradedDropRate ||
             st.staleness_p99_s >= kDegradedStalenessP99S ||
             st.no_fix_rate >= kDegradedNoFixRate)
        st.health = ServiceHealth::degraded;

    st.epoch_wall_p50_us = nearest_rank(walls, 0.50);
    st.epoch_wall_p99_us = nearest_rank(walls, 0.99);
    st.epoch_wall_max_us = walls.empty() ? 0.0 : walls.back();
    return st;
}

}  // namespace locble::serve
