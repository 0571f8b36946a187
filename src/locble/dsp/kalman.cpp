#include "locble/dsp/kalman.hpp"

#include <algorithm>
#include <cmath>

namespace locble::dsp {

double AdaptiveKalman::update(double raw, double filtered) {
    if (!kf_.initialized()) {
        bias_ = 0.0;
        kf_.update_with_r(raw, kRRaw);
        return kf_.state();
    }

    // Track the signed innovation of raw samples against the current state.
    const double innovation = raw - kf_.state();
    bias_ = (1.0 - kBiasAlpha) * bias_ + kBiasAlpha * innovation;

    // A persistent one-sided bias means the level genuinely moved and the
    // Butterworth branch is lagging: loosen the state, distrust the lagging
    // filtered branch, and boost trust in raw measurements.
    const double noise_band = std::sqrt(kRRaw);
    const double severity = std::min(std::abs(bias_) / noise_band, 1.0);
    const double boost = kAdaptGain * severity * severity;
    const double r_raw_eff = kRRaw / (1.0 + 8.0 * boost);
    const double r_filtered_eff = kRFiltered * (1.0 + 16.0 * boost);

    kf_.add_process_noise(kQ * 40.0 * boost);
    kf_.update_with_r(filtered, r_filtered_eff);
    kf_.update_with_r(raw, r_raw_eff);
    return kf_.state();
}

void AdaptiveKalman::reset() {
    kf_.reset();
    bias_ = 0.0;
}

}  // namespace locble::dsp
