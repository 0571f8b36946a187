#pragma once

#include <cstddef>
#include <vector>

namespace locble::dsp {

/// Offline centered moving average (half window each side, shrinking at the
/// edges). Preserves signal alignment, so peaks stay where they are.
/// LocBLE's step counter smooths accelerometer data with this before peak
/// voting (Sec. 5.2.1); the turn detector and RSS clustering use it too.
std::vector<double> centered_moving_average(const std::vector<double>& input,
                                            std::size_t half_window);

}  // namespace locble::dsp
