#include "locble/serve/tracking_session.hpp"

#include "locble/obs/obs.hpp"

namespace locble::serve {

TrackingSession::TrackingSession(const Config& cfg, const dsp::Anf& anf,
                                 const core::EnvAware* envaware)
    : anf_(anf), loop_(cfg.pipeline, envaware, cfg.max_session_samples) {}

double TrackingSession::pose_lag_s() const {
    return loop_.config().use_anf ? anf_.group_delay_s() : 0.0;
}

void TrackingSession::on_adv(double t, double rssi_dbm, double p, double q,
                             IngestStats& stats) {
    core::FusedSample fused;
    fused.t = t;
    fused.p = p;
    fused.q = q;
    // Causal ANF: one pass per sample, never revisited (the offline
    // pipeline zero-phase filters the whole capture instead).
    fused.rssi = loop_.config().use_anf ? anf_.process(rssi_dbm) : rssi_dbm;
    on_flush(loop_.add(rssi_dbm, fused), stats);
    ++samples_seen_;
    snap_dirty_ = true;  // samples_seen / last_event_t are snapshot fields
}

void TrackingSession::finish_epoch(double horizon, IngestStats& stats) {
    on_flush(loop_.close(horizon), stats);
    if (!dirty_) return;
    ++stats.solves;
    if (loop_.solve(fit_)) {
        has_fit_ = true;
        samples_used_ = loop_.size();
        snap_dirty_ = true;
    }
    dirty_ = false;
}

void TrackingSession::on_flush(const core::BatchLoop::Flush& f, IngestStats& stats) {
    if (f.samples == 0) return;
    ++stats.batches_flushed;
    LOCBLE_HISTOGRAM("serve.batch.samples", f.samples, 2.0, 4.0, 8.0, 16.0, 32.0,
                     64.0);
    if (f.restarted) {
        snap_dirty_ = true;
        LOCBLE_COUNT("serve.regression_restarts", 1);
    }
    if (f.reset) {
        // The sample cap started a fresh regression: the old fit describes
        // samples the session no longer has.
        samples_used_ = 0;
        has_fit_ = false;
        snap_dirty_ = true;
        ++stats.sessions_reset;
    }
    dirty_ = true;
}

}  // namespace locble::serve
