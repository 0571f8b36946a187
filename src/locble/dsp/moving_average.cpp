#include "locble/dsp/moving_average.hpp"

#include <algorithm>

namespace locble::dsp {

std::vector<double> centered_moving_average(const std::vector<double>& input,
                                            std::size_t half_window) {
    std::vector<double> out(input.size());
    for (std::size_t i = 0; i < input.size(); ++i) {
        const std::size_t lo = i >= half_window ? i - half_window : 0;
        const std::size_t hi = std::min(i + half_window, input.size() - 1);
        double s = 0.0;
        for (std::size_t j = lo; j <= hi; ++j) s += input[j];
        out[i] = s / static_cast<double>(hi - lo + 1);
    }
    return out;
}

}  // namespace locble::dsp
