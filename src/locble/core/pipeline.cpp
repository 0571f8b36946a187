#include "locble/core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "locble/dsp/anf.hpp"
#include "locble/obs/obs.hpp"

namespace locble::core {

LocBle::LocBle(const Config& cfg, std::optional<EnvAware> envaware)
    : cfg_(cfg), envaware_(std::move(envaware)) {
    if (cfg_.use_envaware && (!envaware_ || !envaware_->trained()))
        throw std::invalid_argument("LocBle: use_envaware requires a trained EnvAware");
}

motion::MotionEstimate rotate_motion(const motion::MotionEstimate& m, double angle) {
    motion::MotionEstimate out = m;
    for (auto& tp : out.path) tp.position = tp.position.rotated(angle);
    return out;
}

LocateResult LocBle::locate(const locble::TimeSeries& raw_rss,
                            const motion::MotionEstimate& observer) const {
    return run(raw_rss, observer, nullptr);
}

LocateResult LocBle::locate(const locble::TimeSeries& raw_rss,
                            const motion::MotionEstimate& observer,
                            const motion::MotionEstimate& target,
                            double target_frame_rotation) const {
    const motion::MotionEstimate aligned = rotate_motion(target, target_frame_rotation);
    return run(raw_rss, observer, &aligned);
}

LocateResult LocBle::run(const locble::TimeSeries& raw_rss,
                         const motion::MotionEstimate& observer,
                         const motion::MotionEstimate* target) const {
    LOCBLE_SPAN("pipeline.locate");
    LocateResult result;
    if (raw_rss.empty()) return result;
    LOCBLE_COUNT("pipeline.locate_calls", 1);
    LOCBLE_COUNT("pipeline.samples_in", raw_rss.size());

    // ANF runs offline (zero-phase) over the recorded capture.
    locble::TimeSeries denoised_series;
    if (cfg_.use_anf) denoised_series = dsp::Anf().process_offline(raw_rss);

    // The per-batch re-solve of Algorithm 1: one solve after every closed
    // batch, keeping the last fit that converged. Each batch and each solve
    // reports what it did; the diagnostics fold those reports.
    BatchLoop loop(cfg_, envaware_ ? &*envaware_ : nullptr);
    LocationFit fit;
    LocateResult::Diagnostics& diag = result.diagnostics;
    const auto solve_after = [&](const BatchLoop::Flush& f) {
        if (f.samples == 0) return;
        LOCBLE_COUNT("pipeline.batches", 1);
        diag.batch_samples.push_back(f.samples);
        if (f.window_class) {
            result.window_classes.push_back(*f.window_class);
            diag.envaware_windows += 1;
        }
        if (f.restarted) LOCBLE_COUNT("pipeline.regression_restarts", 1);
        SolveDiagnostics sd;
        const bool converged = loop.solve(fit, &sd);
        diag.solver_calls += 1;
        diag.solver_candidates += sd.exponent_candidates;
        diag.solver_failures += sd.candidate_failures;
        diag.solver_multistarts += sd.multistart_runs;
        diag.solver_warm_starts += sd.warm_starts;
        if (!sd.converged) diag.convergence_failures += 1;
        if (converged) {
            result.fit = fit;
            result.samples_used = loop.size();
        }
    };

    for (std::size_t i = 0; i < raw_rss.size(); ++i) {
        const auto& s = raw_rss[i];
        // Match movement to the RSS sample by timestamp (Algo. 1 line 8).
        const locble::Vec2 obs_pos = observer.position_at(s.t);
        locble::Vec2 tgt_pos{0.0, 0.0};
        if (target) tgt_pos = target->position_at(s.t);
        FusedSample fused;
        fused.t = s.t;
        fused.p = tgt_pos.x - obs_pos.x;
        fused.q = tgt_pos.y - obs_pos.y;
        fused.rssi = cfg_.use_anf ? denoised_series[i].value : s.value;
        solve_after(loop.add(s.value, fused));
    }
    solve_after(loop.flush());

    result.regression_restarts = loop.restarts();
    if (!result.fit) LOCBLE_COUNT("pipeline.no_fix", 1);
    return result;
}

BatchLoop::BatchLoop(const LocBle::Config& cfg, const EnvAware* envaware,
                     std::size_t max_samples)
    : cfg_(cfg), max_samples_(max_samples), solver_(cfg.solver), session_(solver_) {
    if (cfg_.use_envaware) {
        if (envaware == nullptr || !envaware->trained())
            throw std::invalid_argument(
                "BatchLoop: use_envaware requires a trained EnvAware");
        env_ = *envaware;
        env_->reset_stream();
    }
}

BatchLoop::Flush BatchLoop::add(double raw_rssi, FusedSample s) {
    if (!started_) {
        started_ = true;
        batch_end_ = s.t + kBatchSeconds;
    }
    const Flush f = close(s.t);
    s.segment = segment_;
    batch_raw_.push_back(raw_rssi);
    batch_fused_.push_back(s);
    last_t_ = s.t;
    return f;
}

BatchLoop::Flush BatchLoop::close(double t) {
    Flush f;
    if (!started_ || !(t > batch_end_)) return f;
    if (has_open_batch()) f = flush();
    batch_end_ = batch_end_after(batch_end_, t);
    return f;
}

double BatchLoop::batch_end_after(double end, double t) {
    // A step end + 2 is exact while the sum stays inside the binade
    // [2^e, 2^(e+1)) of a positive end below 2^54 (2 is a multiple of its
    // ulp), and from any end in [-2^54, -2] (the magnitude shrinks). So the
    // walk jumps, in one exact add, to its last step below min(t, the end
    // of that exact run) and takes the crossing step with its own
    // rounding; the next pass starts in the next binade, or past t.
    constexpr double kUnbounded = 0x1p54;
    static_assert(kBatchSeconds == 2.0, "the exact runs assume a 2 s step");
    while (t > end) {
        if (!(std::abs(end) < kUnbounded)) return t;
        double limit;
        if (end >= 2.0) {
            int e = 0;
            (void)std::frexp(end, &e);  // end in [2^(e-1), 2^e)
            limit = std::min(t, std::ldexp(1.0, e));
        } else if (end <= -2.0) {
            limit = std::min(t, 0.0);
        } else {
            end += kBatchSeconds;
            continue;
        }
        // The most steps that stay below limit; a rounded (limit - end)
        // can only overcount by one, which the check takes back.
        double k = std::ceil((limit - end) / kBatchSeconds) - 1.0;
        if (k > 0.0 && end + kBatchSeconds * k >= limit) k -= 1.0;
        end += kBatchSeconds * k;
        end += kBatchSeconds;
    }
    return end;
}

BatchLoop::Flush BatchLoop::flush() {
    Flush f;
    if (!has_open_batch()) return f;
    f.samples = batch_raw_.size();

    bool changed = false;
    if (env_ && batch_raw_.size() >= 4) {
        const auto obs = env_->observe(batch_raw_);
        f.window_class = obs.window_class;
        if (obs.window_class != channel::PropagationClass::los) saw_blocked_ = true;
        regime_ = obs.regime;
        changed = obs.changed;
    }
    if (regime_) {
        const auto band = exponent_band_for(*regime_);
        band_min_ = std::min(band_min_, band.first);
        band_max_ = std::max(band_max_, band.second);
    }
    double batch_mean = 0.0;
    for (const double v : batch_raw_) batch_mean += v;
    batch_mean /= static_cast<double>(batch_raw_.size());
    // A classifier flip only opens a new segment when the received level
    // actually moved (a real insertion-loss change); spurious
    // reclassifications must not fragment the regression.
    const bool level_jumped =
        have_prev_batch_ && std::abs(batch_mean - prev_batch_mean_) > 4.0;
    prev_batch_mean_ = batch_mean;
    have_prev_batch_ = true;
    // One regression shared across the walk: a confirmed change opens a new
    // environment segment (Algo. 1's "new regression"). The solver keeps
    // (x, h) common and fits Gamma per segment, so blockage insertion loss
    // is absorbed without discarding geometry.
    if (changed && level_jumped) {
        ++segment_;
        f.restarted = true;
    }
    if (max_samples_ > 0 && session_.size() + batch_fused_.size() > max_samples_) {
        // Allocation-free: Session::reset keeps every buffer's capacity.
        session_.reset();
        segment_ = 0;
        saw_blocked_ = false;
        band_min_ = 10.0;
        band_max_ = 0.0;
        ++resets_;
        f.reset = true;
    }

    for (auto& s : batch_fused_) s.segment = segment_;
    session_.add(batch_fused_);
    batch_raw_.clear();
    batch_fused_.clear();
    return f;
}

bool BatchLoop::solve(LocationFit& out, SolveDiagnostics* diag) {
    SolveHints hints;
    // The regime's exponent band applies only while one regime covered the
    // whole regression; mixed-regime data keeps the full range (the union
    // band measured worse than either constraint).
    if (band_max_ > band_min_ && segment_ == 0)
        hints.exponent_band = {{band_min_, band_max_}};
    if (cfg_.gamma_prior_dbm) {
        // Blockage shows up as insertion loss the log-distance model has no
        // term for; per-segment Gammas absorb it, so the band must open
        // downward when any blocked window was seen (glass/body ~3-8 dB,
        // concrete or metal 8-15 dB below calibration).
        double below = cfg_.gamma_prior_below_db;
        if (saw_blocked_) below += 14.0;
        hints.gamma_band_dbm = {*cfg_.gamma_prior_dbm - below,
                                *cfg_.gamma_prior_dbm + cfg_.gamma_prior_above_db};
    }

    return session_.solve_into(out, hints, diag);
}

}  // namespace locble::core
