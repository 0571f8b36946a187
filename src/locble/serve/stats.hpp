#pragma once

#include <cstdint>
#include <iterator>

namespace locble::serve {

/// Monotonic u64 accounting of the service. Each count is kept once. The
/// driver-side counts (submitted, accepted, dropped, rejected, late, epochs,
/// clients_created) live in the service's own ledger, bumped on the driver
/// thread. The worker-side counts live in one per-epoch ledger per shard,
/// which the service folds into its ledger at the epoch barrier by exact
/// u64 addition, so every total is identical whatever the shard/thread
/// count. Available even in LOCBLE_OBS=OFF builds — this struct, not the
/// obs registry, is the backpressure API of record; the serve.* obs
/// counters are published from it (kIngestStatsFields).
struct IngestStats {
    std::uint64_t submitted{0};
    std::uint64_t accepted{0};
    std::uint64_t dropped{0};   ///< oldest events evicted from a full queue
    std::uint64_t rejected{0};  ///< non-finite events refused at submit
    std::uint64_t late{0};      ///< t went backwards within a client stream
    std::uint64_t epochs{0};
    std::uint64_t clients_created{0};
    std::uint64_t clients_evicted{0};
    std::uint64_t sessions_created{0};
    std::uint64_t sessions_evicted{0};
    std::uint64_t sessions_reset{0};
    std::uint64_t batches_flushed{0};
    std::uint64_t solves{0};

    IngestStats& operator+=(const IngestStats& o);
    /// Exact fieldwise difference of two monotone views (`*this` >= `o`),
    /// e.g. one epoch's increment of the barrier stats.
    IngestStats operator-(const IngestStats& o) const;
    bool operator==(const IngestStats&) const = default;
};

/// The one field list of IngestStats. Every per-field operation iterates
/// it: the sum and difference above, the canonical snapshot `stats` line,
/// the flight-recorder JSON, the checkpoint encoding and the serve.* obs
/// counters — so a counter is declared above, listed here, and incremented
/// where it happens, nowhere else. The order is the canonical text order
/// and the checkpoint byte layout: reordering or adding an entry bumps
/// kCkptFormat (serve/checkpoint.cpp) and re-pins
/// tests/serve/test_checkpoint.cpp.
struct IngestStatsField {
    const char* name;
    std::uint64_t IngestStats::*value;
    /// The obs counter the service publishes the field's increments to
    /// (docs/OBSERVABILITY.md); null for a field with no counter.
    const char* counter;
};
inline constexpr IngestStatsField kIngestStatsFields[] = {
    {"submitted", &IngestStats::submitted, nullptr},
    {"accepted", &IngestStats::accepted, "serve.ingest.accepted"},
    {"dropped", &IngestStats::dropped, "serve.ingest.dropped"},
    {"rejected", &IngestStats::rejected, "serve.ingest.rejected"},
    {"late", &IngestStats::late, "serve.ingest.late"},
    {"epochs", &IngestStats::epochs, "serve.epochs"},
    {"clients_created", &IngestStats::clients_created, "serve.clients.created"},
    {"clients_evicted", &IngestStats::clients_evicted, "serve.clients.evicted"},
    {"sessions_created", &IngestStats::sessions_created, "serve.sessions.created"},
    {"sessions_evicted", &IngestStats::sessions_evicted, "serve.sessions.evicted"},
    {"sessions_reset", &IngestStats::sessions_reset, "serve.sessions.reset"},
    {"batches_flushed", &IngestStats::batches_flushed, "serve.batches"},
    {"solves", &IngestStats::solves, "serve.solves"},
};
static_assert(std::size(kIngestStatsFields) * sizeof(std::uint64_t) ==
                  sizeof(IngestStats),
              "every IngestStats counter must be listed in kIngestStatsFields");

inline IngestStats& IngestStats::operator+=(const IngestStats& o) {
    for (const IngestStatsField& f : kIngestStatsFields) this->*f.value += o.*f.value;
    return *this;
}

inline IngestStats IngestStats::operator-(const IngestStats& o) const {
    IngestStats d;
    for (const IngestStatsField& f : kIngestStatsFields)
        d.*f.value = this->*f.value - o.*f.value;
    return d;
}

}  // namespace locble::serve
