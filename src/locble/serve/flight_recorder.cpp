#include "locble/serve/flight_recorder.hpp"

#include <cstdio>
#include <utility>

namespace locble::serve {

namespace {

/// Round-trip-exact double formatting, matching the canonical snapshot text.
std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

void FlightRecorder::push(EpochRecord rec) {
    if (capacity_ == 0) return;
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(rec));
    } else {
        ring_[next_] = std::move(rec);
        next_ = (next_ + 1) % capacity_;
    }
    ++total_pushed_;
}

std::vector<EpochRecord> FlightRecorder::records() const {
    std::vector<EpochRecord> out;
    out.reserve(ring_.size());
    // Before the ring wraps, insertion order is index order and next_ stays
    // 0; afterwards next_ points at the oldest record.
    const std::size_t start = ring_.size() < capacity_ ? 0 : next_;
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

const EpochRecord* FlightRecorder::latest() const {
    if (ring_.empty()) return nullptr;
    if (ring_.size() < capacity_) return &ring_.back();
    return &ring_[(next_ + capacity_ - 1) % capacity_];
}

void FlightRecorder::note_snapshot_rows(std::uint64_t epoch, std::uint64_t rows) {
    for (auto& rec : ring_)
        if (rec.epoch == epoch) {
            rec.snapshot_rows = rows;
            return;
        }
}

void FlightRecorder::clear() {
    ring_.clear();
    next_ = 0;
    total_pushed_ = 0;
}

void FlightRecorder::restore(std::vector<EpochRecord> oldest_first,
                             std::uint64_t epochs_recorded) {
    if (capacity_ == 0) return;
    clear();
    // Re-pushing oldest-first reproduces every observable; the ring's
    // physical layout (next_, wrap state) is allowed to differ from the
    // recorder the records came from.
    for (auto& rec : oldest_first) push(std::move(rec));
    total_pushed_ = epochs_recorded;
}

std::string FlightRecorder::to_json() const {
    const std::vector<EpochRecord> recs = records();
    std::string out;
    out.reserve(256 + recs.size() * 512);
    out += "{\"schema_version\":1";
    out += ",\"capacity\":" + u64(capacity_);
    out += ",\"epochs_recorded\":" + u64(total_pushed_);
    out += ",\"records\":[";
    for (std::size_t r = 0; r < recs.size(); ++r) {
        const EpochRecord& rec = recs[r];
        if (r) out += ",";
        out += "\n  {\"epoch\":" + u64(rec.epoch);
        out += ",\"horizon\":" + fmt(rec.horizon);
        for (const IngestStatsField& f : kIngestStatsFields)
            out += std::string(",\"") + f.name + "\":" + u64(rec.delta.*f.value);
        out += ",\"snapshot_rows\":" + u64(rec.snapshot_rows);
        out += ",\"sessions_live\":" + u64(rec.sessions_live);
        out += ",\"sessions_no_fit\":" + u64(rec.sessions_no_fit);
        out += ",\"staleness_s\":{";
        out += "\"count\":" + u64(rec.staleness_s.count());
        out += ",\"upper_bound\":" + fmt(rec.staleness_s.upper_bound());
        out += ",\"p50\":" + fmt(rec.staleness_s.quantile(0.50));
        out += ",\"p95\":" + fmt(rec.staleness_s.quantile(0.95));
        out += ",\"p99\":" + fmt(rec.staleness_s.quantile(0.99));
        out += ",\"max\":" + fmt(rec.staleness_s.max());
        out += "}";
        out += ",\"nd\":{\"wall_epoch_us\":" + fmt(rec.wall_epoch_us);
        out += ",\"shards\":[";
        for (std::size_t s = 0; s < rec.shards.size(); ++s) {
            const ShardEpochRecord& sh = rec.shards[s];
            if (s) out += ",";
            out += "{\"events_drained\":" + u64(sh.events_drained);
            out += ",\"clients_visited\":" + u64(sh.clients_visited);
            out += ",\"sessions_live\":" + u64(sh.sessions_live);
            out += ",\"sessions_no_fit\":" + u64(sh.sessions_no_fit);
            out += ",\"wall_us\":" + fmt(sh.wall_us);
            out += "}";
        }
        out += "]}}";
    }
    out += "\n]}\n";
    return out;
}

}  // namespace locble::serve
