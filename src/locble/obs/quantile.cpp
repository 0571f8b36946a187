#include "locble/obs/quantile.hpp"

#include <cmath>
#include <stdexcept>

namespace locble::obs {

std::uint32_t sketch_bucket(double v, double upper, std::uint32_t resolution) {
    if (resolution == 0) return 0;
    if (std::isnan(v) || v > upper) return resolution;  // overflow
    if (v <= 0.0) return 0;
    // Smallest i with v <= upper * (i+1) / resolution. The final clamp
    // covers v == upper rounding up one past the last bounded bucket.
    const double scaled = std::ceil(v * static_cast<double>(resolution) / upper);
    auto i = static_cast<std::uint32_t>(scaled) - 1;
    return i < resolution ? i : resolution - 1;
}

double sketch_edge(std::uint32_t bucket, double upper, std::uint32_t resolution) {
    if (resolution == 0 || bucket >= resolution) return upper;  // saturates
    return upper * static_cast<double>(bucket + 1) /
           static_cast<double>(resolution);
}

double sketch_quantile(const std::vector<std::uint64_t>& buckets, double upper,
                       double q) {
    if (buckets.empty()) return 0.0;
    std::uint64_t count = 0;
    for (const std::uint64_t b : buckets) count += b;
    if (count == 0) return 0.0;
    const auto resolution = static_cast<std::uint32_t>(buckets.size() - 1);
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    if (rank == 0) rank = 1;
    std::uint64_t cum = 0;
    for (std::uint32_t i = 0; i < buckets.size(); ++i) {
        cum += buckets[i];
        if (cum >= rank) return sketch_edge(i, upper, resolution);
    }
    return upper;  // unreachable: cum == count >= rank by the end
}

QuantileSketch::QuantileSketch(double upper, std::uint32_t resolution)
    : upper_(upper), resolution_(resolution) {
    if (resolution == 0)
        throw std::invalid_argument("obs: quantile sketch needs resolution > 0");
    if (!(upper > 0.0))
        throw std::invalid_argument("obs: quantile sketch needs upper > 0");
    buckets_.assign(resolution_ + 1, 0);
}

void QuantileSketch::record(double v) {
    if (!configured()) return;
    buckets_[sketch_bucket(v, upper_, resolution_)] += 1;
    ++count_;
    if (!std::isnan(v) && (count_ == 1 || v > max_)) max_ = v;
}

void QuantileSketch::merge(const QuantileSketch& other) {
    if (!other.configured()) return;
    if (!configured()) {
        *this = other;
        return;
    }
    if (upper_ != other.upper_ || resolution_ != other.resolution_)
        throw std::logic_error("obs: merging quantile sketches with different "
                               "configurations");
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    if (other.count_ > 0 && (count_ == 0 || other.max_ > max_)) max_ = other.max_;
    count_ += other.count_;
}

double QuantileSketch::quantile(double q) const {
    return sketch_quantile(buckets_, upper_, q);
}

void QuantileSketch::restore(double upper, std::uint32_t resolution,
                             std::vector<std::uint64_t> buckets,
                             std::uint64_t count, double max) {
    if (resolution == 0 || !(upper > 0.0))
        throw std::logic_error("obs: restoring an unconfigured quantile sketch");
    if (buckets.size() != static_cast<std::size_t>(resolution) + 1)
        throw std::logic_error(
            "obs: quantile sketch restore bucket count does not match the "
            "resolution");
    upper_ = upper;
    resolution_ = resolution;
    buckets_ = std::move(buckets);
    count_ = count;
    max_ = max;
}

}  // namespace locble::obs
