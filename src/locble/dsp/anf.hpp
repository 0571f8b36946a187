#pragma once

#include <utility>
#include <vector>

#include "locble/common/timeseries.hpp"
#include "locble/dsp/butterworth.hpp"
#include "locble/dsp/kalman.hpp"

namespace locble::dsp {

/// Adaptive Noise Filter — LocBLE's RSS preprocessing stage (Sec. 4.2).
///
/// Raw RSS passes through a fine-tuned 6th-order low-pass Butterworth
/// filter to remove fast fading, then an adaptive Kalman filter fuses the
/// raw and filtered streams to recover the responsiveness the high-order
/// Butterworth costs.
class Anf {
public:
    static constexpr int kButterworthOrder = 6;
    static constexpr double kCutoffHz = 0.7;  ///< passes slow path-loss trends only
    static constexpr double kSampleRateHz = 10.0;

    Anf();

    /// Process one raw RSS sample; returns the denoised value.
    double process(double raw_rssi);

    /// Convenience: filter a whole series causally, preserving timestamps.
    locble::TimeSeries process(const locble::TimeSeries& raw);

    /// Offline variant for recorded measurements (Algo. 1 runs on complete
    /// batches): the Butterworth stage is applied forward-backward
    /// (zero-phase), then the adaptive Kalman fuses raw against the
    /// undelayed reference — so the output tracks the true level with no
    /// group delay to compensate. Does not disturb streaming state.
    locble::TimeSeries process_offline(const locble::TimeSeries& raw) const;

    /// The intermediate Butterworth-only output of the last process() call —
    /// exposed so the Fig. 4 bench can show BF vs BF+AKF.
    double last_bf_output() const { return last_bf_; }

    /// Effective group delay of the whole ANF chain in seconds, measured at
    /// construction by driving a copy with a ramp. The location pipeline
    /// pairs each denoised RSS value with the observer position this many
    /// seconds *earlier*, so filtering does not skew the motion/RSS fusion.
    double group_delay_s() const { return group_delay_s_; }

    void reset();

    /// Complete serializable streaming state of the ANF chain — one (s1, s2)
    /// pair per Butterworth section plus the adaptive-Kalman posterior. The
    /// derived group delay and all coefficients come from the constants above
    /// at construction and are never serialized (service checkpointing,
    /// docs/WIRE.md).
    struct State {
        std::vector<std::pair<double, double>> sections;  ///< (s1, s2) each
        AdaptiveKalman::State akf{};
        bool primed{false};
        double last_bf{0.0};
    };
    State checkpoint_state() const;
    /// Throws std::invalid_argument when the section count does not match
    /// this filter's design.
    void restore_state(const State& s);

private:
    BiquadCascade bf_;
    AdaptiveKalman akf_;
    bool primed_{false};
    double last_bf_{0.0};
    double group_delay_s_{0.0};
};

/// Offline ablation helper: the ANF's Butterworth stage alone over a series.
locble::TimeSeries butterworth_only(const locble::TimeSeries& raw);

}  // namespace locble::dsp
