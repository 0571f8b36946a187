#pragma once

#include <cstdint>
#include <vector>

namespace locble::obs {

/// Shared bucketing math of the exact fixed-resolution quantile sketch —
/// one set of functions used by QuantileSketch, the registry's Quantile
/// metric and the bench-report serializer, so every consumer derives the
/// same quantile from the same buckets.
///
/// The domain (0, upper] is split into `resolution` uniform buckets; bucket
/// i covers (edge(i-1), edge(i)] with edge(i) = upper * (i+1) / resolution.
/// Values <= 0 land in bucket 0, values > upper — and NaN — land in the
/// overflow bucket (index == resolution). Reported quantiles are bucket
/// *upper edges* (nearest-rank), so they are conservative by at most one
/// bucket width and saturate at `upper` once the overflow bucket is
/// reached: size the bound so the tail of interest sits inside it.

/// Bucket index of `v` (0..resolution, the last being overflow).
std::uint32_t sketch_bucket(double v, double upper, std::uint32_t resolution);

/// Inclusive upper edge of `bucket`; `upper` for the overflow bucket.
double sketch_edge(std::uint32_t bucket, double upper, std::uint32_t resolution);

/// Nearest-rank quantile over merged bucket counts (`buckets.size()` must
/// be resolution + 1). Returns 0 when the sketch is empty. Deterministic:
/// a pure function of the u64 counts and the fixed (upper, resolution), so
/// merged sketches yield byte-identical quantiles whatever the thread or
/// shard count that produced them.
double sketch_quantile(const std::vector<std::uint64_t>& buckets, double upper,
                       double q);

/// Exact fixed-resolution streaming quantile sketch.
///
/// Unlike GK/t-digest style summaries, this sketch is *exact over its
/// bucketing*: recording is a u64 increment, merging is a per-bucket u64
/// sum, and every quantile is a pure function of the merged counts — all
/// order-invariant, so quantiles over event-time metrics (staleness, queue
/// residency) are byte-identical across shard/thread counts. That is the
/// property the PR-2 determinism contract needs; wall-clock quantiles stay
/// out of it (they are ND by nature, whatever the sketch).
///
/// A default-constructed sketch is empty and unconfigured; record() on it
/// is a no-op. merge() adopts the other sketch's configuration when this
/// one is unconfigured and requires matching configurations otherwise.
class QuantileSketch {
public:
    QuantileSketch() = default;
    QuantileSketch(double upper, std::uint32_t resolution);

    bool configured() const { return resolution_ > 0; }
    double upper_bound() const { return upper_; }
    std::uint32_t resolution() const { return resolution_; }

    void record(double v);
    /// Per-bucket u64 sum; throws std::logic_error on configuration
    /// mismatch (an unconfigured side adopts the other's configuration).
    void merge(const QuantileSketch& other);

    std::uint64_t count() const { return count_; }
    double max() const { return count_ > 0 ? max_ : 0.0; }
    /// Nearest-rank quantile (bucket upper edge); 0 when empty.
    double quantile(double q) const;
    /// resolution + 1 counts, last = overflow; empty when unconfigured.
    const std::vector<std::uint64_t>& buckets() const { return buckets_; }

    /// Reinstate a sketch from its serialized parts (service checkpointing,
    /// docs/WIRE.md). `buckets.size()` must be resolution + 1 and resolution
    /// must be > 0 — throws std::logic_error otherwise. The restored sketch
    /// is observably identical to the one the parts came from: quantiles,
    /// max, count and future record()/merge() behave bit-identically.
    void restore(double upper, std::uint32_t resolution,
                 std::vector<std::uint64_t> buckets, std::uint64_t count,
                 double max);

private:
    double upper_{0.0};
    std::uint32_t resolution_{0};
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_{0};
    double max_{0.0};  ///< exact max (merge by max: order-invariant)
};

}  // namespace locble::obs
