#pragma once

namespace locble::dsp {

/// Scalar random-walk Kalman filter.
///
/// State model:  x[k] = x[k-1] + w,  w ~ N(0, Q)
/// Measurement:  z[k] = x[k]   + v,  v ~ N(0, R)
class ScalarKalman {
public:
    /// `q` process noise variance, `r` measurement noise variance,
    /// `initial_p` initial estimate variance.
    ScalarKalman(double q, double r, double initial_p = 1.0)
        : q_(q), r_(r), p_(initial_p) {}

    /// Predict + update with one measurement; returns the posterior state.
    double update(double z) {
        if (!initialized_) {
            x_ = z;
            initialized_ = true;
            return x_;
        }
        p_ += q_;
        const double k = p_ / (p_ + r_);
        x_ += k * (z - x_);
        p_ *= (1.0 - k);
        return x_;
    }

    /// Update against an explicit measurement variance (used by the adaptive
    /// filter to revalue a measurement on the fly).
    double update_with_r(double z, double r) {
        if (!initialized_) {
            x_ = z;
            initialized_ = true;
            return x_;
        }
        p_ += q_;
        const double k = p_ / (p_ + r);
        x_ += k * (z - x_);
        p_ *= (1.0 - k);
        return x_;
    }

    /// Add extra prediction variance before the next update (used by the
    /// adaptive filter to loosen the state when a level change is detected).
    void add_process_noise(double v) { p_ += v; }

    double state() const { return x_; }
    double covariance() const { return p_; }
    bool initialized() const { return initialized_; }
    /// Checkpoint restore (docs/WIRE.md): adopt a serialized posterior.
    void set_state(double x, double p, bool initialized) {
        x_ = x;
        p_ = p;
        initialized_ = initialized;
    }
    void reset() {
        initialized_ = false;
        x_ = 0.0;
        p_ = 1.0;
    }

private:
    double q_;
    double r_;
    double x_{0.0};
    double p_{1.0};
    bool initialized_{false};
};

/// Adaptive Kalman filter (AKF) from LocBLE's ANF (Sec. 4.2).
///
/// The 6th-order Butterworth output is smooth but delayed; raw RSS is prompt
/// but noisy. The AKF runs a random-walk Kalman whose state is updated by
/// both signals per sample:
///   - the Butterworth output as a low-noise measurement, and
///   - the raw sample as a high-noise measurement whose variance is scaled
///     *down* when the innovation sequence indicates a genuine level change
///     (consistent-sign, large innovations), restoring responsiveness.
///
/// The adaptation follows the innovation-based scheme: an EWMA of the raw
/// innovation tracks bias; when |bias| grows beyond the expected noise
/// band, raw trust and process noise both increase proportionally.
class AdaptiveKalman {
public:
    static constexpr double kQ = 0.02;          ///< base process noise (dB^2/sample)
    static constexpr double kRFiltered = 0.5;   ///< variance of the BF output
    static constexpr double kRRaw = 16.0;       ///< base variance of raw samples
    static constexpr double kBiasAlpha = 0.25;  ///< EWMA factor of the innovation bias
    static constexpr double kAdaptGain = 3.0;   ///< how strongly bias boosts response

    AdaptiveKalman() : kf_(kQ, kRRaw) {}

    /// Fuse one (raw, filtered) pair; returns the fused estimate.
    double update(double raw, double filtered);

    double state() const { return kf_.state(); }
    void reset();

    /// Complete serializable filter state (the gains are constants, never
    /// serialized) — service checkpointing.
    struct State {
        double x{0.0};
        double p{1.0};
        bool initialized{false};
        double bias{0.0};
    };
    State checkpoint_state() const {
        return {kf_.state(), kf_.covariance(), kf_.initialized(), bias_};
    }
    void restore_state(const State& s) {
        kf_.set_state(s.x, s.p, s.initialized);
        bias_ = s.bias;
    }

private:
    ScalarKalman kf_;
    double bias_{0.0};
};

}  // namespace locble::dsp
