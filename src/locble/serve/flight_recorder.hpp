#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "locble/obs/quantile.hpp"
#include "locble/serve/stats.hpp"

namespace locble::serve {

/// One shard's slice of an epoch flight record. The event-time counts are
/// deterministic *given the shard count* (each is a pure function of that
/// shard's event stream) but naturally vary with it — a record at 4 shards
/// splits the same totals four ways — and `wall_us` is wall-clock, so
/// per-shard rows live under the "nd" key of the JSON dump and never enter
/// cross-shard-count determinism comparisons.
struct ShardEpochRecord {
    std::uint64_t events_drained{0};   ///< events the shard's clients drained this epoch
    std::uint64_t clients_visited{0};  ///< clients processed (incl. open-batch revisits)
    std::uint64_t sessions_live{0};    ///< live sessions at epoch end
    std::uint64_t sessions_no_fit{0};  ///< live sessions without a location fit
    double wall_us{0.0};               ///< summed wall time of the shard's work items (ND)

    /// Field list in checkpoint byte order (serve/checkpoint.cpp).
    template <class Self, class Visitor>
    static void fields(Self& s, Visitor& v) {
        auto& [events_drained, clients_visited, sessions_live, sessions_no_fit, wall_us] =
            s;
        v(events_drained, clients_visited, sessions_live, sessions_no_fit, wall_us);
    }
};

/// One epoch of service history as the flight recorder keeps it.
///
/// Everything except `wall_epoch_us` and the per-shard rows is event-time
/// data merged by u64 sum / sketch-bucket sum / max — byte-identical for
/// any shard/thread count. `delta` is this epoch's increment of the merged
/// IngestStats (u64 subtraction of consecutive barrier views, exact).
/// Staleness is the deterministic definition the ISSUE fixes: service
/// horizon minus the session's last solved-into event timestamp, per live
/// session, at the epoch barrier.
struct EpochRecord {
    std::uint64_t epoch{0};
    double horizon{0.0};
    IngestStats delta{};
    /// Rows the snapshot taken after this epoch emitted; back-filled by
    /// TrackingService::snapshot() via note_snapshot_rows (0 until then).
    std::uint64_t snapshot_rows{0};
    std::uint64_t sessions_live{0};
    std::uint64_t sessions_no_fit{0};
    /// Per-session staleness, seconds; quantiles via .quantile(q), exact
    /// maximum via .max().
    obs::QuantileSketch staleness_s;
    double wall_epoch_us{0.0};  ///< wall-clock begin->barrier duration (ND)
    std::vector<ShardEpochRecord> shards;

    /// Field list in checkpoint byte order (serve/checkpoint.cpp); `epoch`
    /// is a fixed-width u64 there, every other counter a varint.
    template <class Self, class Visitor>
    static void fields(Self& s, Visitor& v) {
        auto& [epoch, horizon, delta, snapshot_rows, sessions_live, sessions_no_fit,
               staleness_s, wall_epoch_us, shards] = s;
        v.fixed_u64(epoch);
        v(horizon, delta, snapshot_rows, sessions_live, sessions_no_fit, staleness_s,
          wall_epoch_us, shards);
    }
};

/// Fixed-capacity ring of per-epoch records — the service's black box.
///
/// Owned and written by TrackingService on the driver thread (records are
/// finalized at the epoch barrier, so shard telemetry is read quiescently);
/// reads require the same driver-thread/quiescent discipline as the rest of
/// the service surface. Capacity 0 disables recording entirely — push() is
/// a no-op and the service skips the per-shard telemetry walk.
class FlightRecorder {
public:
    FlightRecorder() = default;
    explicit FlightRecorder(std::size_t capacity) : capacity_(capacity) {}

    bool enabled() const { return capacity_ > 0; }
    std::size_t capacity() const { return capacity_; }
    /// Records currently held (<= capacity).
    std::size_t size() const { return ring_.size(); }
    /// Epochs ever pushed, including those the ring has since evicted.
    std::uint64_t epochs_recorded() const { return total_pushed_; }

    void push(EpochRecord rec);

    /// Held records, oldest first.
    std::vector<EpochRecord> records() const;
    /// Newest record, or nullptr when empty.
    const EpochRecord* latest() const;

    /// Attach a snapshot's row count to the record of `epoch` (no-op when
    /// that epoch has already been evicted or was never recorded).
    void note_snapshot_rows(std::uint64_t epoch, std::uint64_t rows);

    void clear();

    /// Reinstate the ring from checkpointed history: `oldest_first` becomes
    /// the held records (truncated to capacity from the old end if longer)
    /// and `epochs_recorded` the lifetime push count. The internal ring
    /// layout may differ from the original recorder's, but every observable
    /// — records(), latest(), size(), epochs_recorded(), to_json() — is
    /// identical. No-op when the recorder is disabled (capacity 0).
    void restore(std::vector<EpochRecord> oldest_first,
                 std::uint64_t epochs_recorded);

    /// Versioned JSON dump, oldest record first. Deterministic fields are
    /// top-level per record; wall-clock durations and the per-shard rows
    /// are grouped under each record's "nd" key so a consumer diffing
    /// across shard counts knows exactly what to exclude. Doubles print
    /// %.17g (round-trip exact).
    std::string to_json() const;

private:
    std::size_t capacity_{0};
    std::vector<EpochRecord> ring_;
    std::size_t next_{0};  ///< ring slot the next push overwrites (once full)
    std::uint64_t total_pushed_{0};
};

}  // namespace locble::serve
