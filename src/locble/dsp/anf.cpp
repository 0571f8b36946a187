#include "locble/dsp/anf.hpp"

#include <algorithm>
#include <stdexcept>

#include "locble/obs/obs.hpp"

namespace locble::dsp {

Anf::Anf()
    : bf_(design_butterworth_lowpass(kButterworthOrder, kCutoffHz, kSampleRateHz)) {
    // Measure the chain's steady-state ramp lag: for a unit-slope input the
    // settled output equals input(t - tau_g).
    Anf probe(*this);
    constexpr int kSettle = 80;
    constexpr int kRamp = 300;
    double out = 0.0;
    for (int i = 0; i < kSettle; ++i) out = probe.process(0.0);
    double in = 0.0;
    for (int i = 1; i <= kRamp; ++i) {
        in = static_cast<double>(i);
        out = probe.process(in);
    }
    group_delay_s_ = std::max(0.0, (in - out) / kSampleRateHz);
}

double Anf::process(double raw_rssi) {
    if (!primed_) {
        bf_.prime(raw_rssi);
        primed_ = true;
    }
    last_bf_ = bf_.process(raw_rssi);
    return akf_.update(raw_rssi, last_bf_);
}

locble::TimeSeries Anf::process(const locble::TimeSeries& raw) {
    locble::TimeSeries out;
    out.reserve(raw.size());
    for (const auto& s : raw) out.push_back({s.t, process(s.value)});
    return out;
}

locble::TimeSeries Anf::process_offline(const locble::TimeSeries& raw) const {
    LOCBLE_SPAN("anf.process_offline");
    locble::TimeSeries out;
    if (raw.empty()) return out;
    LOCBLE_COUNT("anf.offline_passes", 1);
    LOCBLE_COUNT("anf.samples", raw.size());
    const auto bf =
        design_butterworth_lowpass(kButterworthOrder, kCutoffHz, kSampleRateHz);
    const std::vector<double> smooth = filtfilt(bf, locble::values_of(raw));

    // Run the adaptive Kalman in both directions and average: each pass has
    // a small signal-dependent lag, equal and opposite, so the average is a
    // zero-lag smoother.
    const std::size_t n = raw.size();
    std::vector<double> fwd(n), bwd(n);
    AdaptiveKalman akf_f;
    for (std::size_t i = 0; i < n; ++i) fwd[i] = akf_f.update(raw[i].value, smooth[i]);
    AdaptiveKalman akf_b;
    for (std::size_t i = n; i-- > 0;) bwd[i] = akf_b.update(raw[i].value, smooth[i]);

    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back({raw[i].t, 0.5 * (fwd[i] + bwd[i])});
    return out;
}

void Anf::reset() {
    bf_.reset();
    akf_.reset();
    primed_ = false;
    last_bf_ = 0.0;
}

Anf::State Anf::checkpoint_state() const {
    State st;
    st.sections.reserve(bf_.sections().size());
    for (const Biquad& b : bf_.sections())
        st.sections.emplace_back(b.state_s1(), b.state_s2());
    st.akf = akf_.checkpoint_state();
    st.primed = primed_;
    st.last_bf = last_bf_;
    return st;
}

void Anf::restore_state(const State& s) {
    if (s.sections.size() != bf_.sections().size())
        throw std::invalid_argument(
            "Anf::restore_state: section count does not match this design");
    for (std::size_t i = 0; i < s.sections.size(); ++i)
        bf_.set_section_state(i, s.sections[i].first, s.sections[i].second);
    akf_.restore_state(s.akf);
    primed_ = s.primed;
    last_bf_ = s.last_bf;
}

locble::TimeSeries butterworth_only(const locble::TimeSeries& raw) {
    auto bf = design_butterworth_lowpass(Anf::kButterworthOrder, Anf::kCutoffHz,
                                         Anf::kSampleRateHz);
    locble::TimeSeries out;
    out.reserve(raw.size());
    bool primed = false;
    for (const auto& s : raw) {
        if (!primed) {
            bf.prime(s.value);
            primed = true;
        }
        out.push_back({s.t, bf.process(s.value)});
    }
    return out;
}

}  // namespace locble::dsp
