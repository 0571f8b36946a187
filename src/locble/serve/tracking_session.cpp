#include "locble/serve/tracking_session.hpp"

#include <cmath>
#include <stdexcept>

#include "locble/obs/obs.hpp"

namespace locble::serve {

TrackingSession::TrackingSession(const Config& cfg, const dsp::Anf& anf,
                                 const core::EnvAware* envaware, IngestStats* stats)
    : cfg_(cfg), stats_(stats), anf_(anf), solver_(cfg.pipeline.solver),
      session_(solver_) {
    if (cfg_.pipeline.use_envaware) {
        if (envaware == nullptr || !envaware->trained())
            throw std::invalid_argument(
                "TrackingSession: use_envaware requires a trained EnvAware");
        env_ = *envaware;  // own copy: the regime tracker is per-session state
        env_->reset_stream();
    }
}

double TrackingSession::pose_lag_s() const {
    return cfg_.pipeline.use_anf ? anf_.group_delay_s() : 0.0;
}

void TrackingSession::on_adv(double t, double rssi_dbm, double p, double q) {
    if (!started_) {
        started_ = true;
        batch_end_ = t + cfg_.pipeline.batch_seconds;
    }
    while (t > batch_end_) {
        flush_batch();
        batch_end_ += cfg_.pipeline.batch_seconds;
    }
    // Causal ANF: one pass per sample, never revisited (the offline
    // pipeline zero-phase filters the whole capture instead).
    const double denoised = cfg_.pipeline.use_anf ? anf_.process(rssi_dbm) : rssi_dbm;
    core::FusedSample fused;
    fused.t = t;
    fused.p = p;
    fused.q = q;
    fused.rssi = denoised;
    fused.segment = segment_;
    batch_raw_.push_back(rssi_dbm);
    batch_fused_.push_back(fused);
    ++samples_seen_;
    last_event_t_ = t;
    snap_dirty_ = true;  // samples_seen / last_event_t are snapshot fields
}

void TrackingSession::finish_epoch(double horizon) {
    while (started_ && horizon > batch_end_) {
        flush_batch();
        batch_end_ += cfg_.pipeline.batch_seconds;
    }
    if (dirty_ && !cfg_.solve_per_flush) solve_now();
}

void TrackingSession::reset_regression() {
    session_.reset();
    segment_ = 0;
    restarts_ = 0;
    samples_used_ = 0;
    has_fit_ = false;
    has_cluster_ = false;
    saw_blocked_ = false;
    band_min_ = 10.0;
    band_max_ = 0.0;
    ++resets_;
    epoch_changed_ = true;
    snap_dirty_ = true;
    if (stats_ != nullptr) ++stats_->sessions_reset;
    LOCBLE_COUNT("serve.sessions.reset", 1);
}

void TrackingSession::flush_batch() {
    if (batch_raw_.empty()) return;
    if (stats_ != nullptr) ++stats_->batches_flushed;
    LOCBLE_COUNT("serve.batches", 1);
    LOCBLE_HISTOGRAM("serve.batch.samples", batch_raw_.size(), 2.0, 4.0, 8.0, 16.0,
                     32.0, 64.0);
    diag_.batch_samples.push_back(batch_raw_.size());

    // EnvAware sees the raw batch (it learns from fluctuation statistics
    // the filter erases); a regime flip only restarts the regression when
    // the received level actually jumped — same rule as the offline
    // pipeline (core/pipeline.cpp).
    bool restart = false;
    if (cfg_.pipeline.use_envaware && env_ && batch_raw_.size() >= 4) {
        const auto obs = env_->observe(batch_raw_);
        diag_.envaware_windows += 1;
        if (obs.window_class != channel::PropagationClass::los) saw_blocked_ = true;
        regime_ = obs.regime;
        restart = obs.changed;
    }
    if (regime_ && cfg_.pipeline.use_regime_bands) {
        const auto band = core::exponent_band_for(*regime_);
        band_min_ = std::min(band_min_, band.first);
        band_max_ = std::max(band_max_, band.second);
    }
    double batch_mean = 0.0;
    for (const double v : batch_raw_) batch_mean += v;
    batch_mean /= static_cast<double>(batch_raw_.size());
    const bool level_jumped =
        have_prev_batch_ && std::abs(batch_mean - prev_batch_mean_) > 4.0;
    prev_batch_mean_ = batch_mean;
    have_prev_batch_ = true;

    if (restart && level_jumped && cfg_.pipeline.restart_on_change) {
        if (cfg_.reset_on_env_change) {
            // Lifecycle policy: forget the old environment's regression
            // entirely (allocation-free — Session::reset keeps capacity).
            reset_regression();
        } else {
            ++segment_;
            ++restarts_;
            snap_dirty_ = true;
            LOCBLE_COUNT("serve.regression_restarts", 1);
        }
    }
    if (cfg_.max_session_samples > 0 &&
        session_.size() + batch_fused_.size() > cfg_.max_session_samples)
        reset_regression();

    for (auto& s : batch_fused_) s.segment = segment_;
    session_.add(batch_fused_);
    dirty_ = true;

    batch_raw_.clear();
    batch_fused_.clear();
    if (cfg_.solve_per_flush) solve_now();
}

void TrackingSession::solve_now() {
    core::SolveHints hints;
    // The regime's exponent band applies only while one regime covered the
    // whole (current) regression; mixed-regime data keeps the full range.
    if (cfg_.pipeline.use_regime_bands && band_max_ > band_min_ && restarts_ == 0)
        hints.exponent_band = {{band_min_, band_max_}};
    if (cfg_.pipeline.gamma_prior_dbm) {
        double below = cfg_.pipeline.gamma_prior_below_db;
        if (saw_blocked_ && cfg_.pipeline.use_regime_bands) below += 14.0;
        hints.gamma_band_dbm = {*cfg_.pipeline.gamma_prior_dbm - below,
                                *cfg_.pipeline.gamma_prior_dbm +
                                    cfg_.pipeline.gamma_prior_above_db};
    }

    core::SolveDiagnostics sd;
    if (stats_ != nullptr) ++stats_->solves;
    LOCBLE_COUNT("serve.solves", 1);
    if (session_.solve_into(fit_, hints, &sd)) {
        has_fit_ = true;
        samples_used_ = session_.size();
        epoch_changed_ = true;
        snap_dirty_ = true;
    }
    diag_.solver_calls += 1;
    diag_.solver_candidates += sd.exponent_candidates;
    diag_.solver_failures += sd.candidate_failures;
    diag_.solver_multistarts += sd.multistart_runs;
    diag_.solver_warm_starts += sd.warm_starts;
    if (!sd.converged) diag_.convergence_failures += 1;
    dirty_ = false;
}

locble::TimeSeries TrackingSession::rss_series() const {
    locble::TimeSeries out;
    out.reserve(session_.size());
    for (const auto& s : session_.samples()) out.push_back({s.t, s.rssi});
    return out;
}

}  // namespace locble::serve
