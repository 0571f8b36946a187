#pragma once

#include <cmath>
#include <cstdint>

#include "locble/common/vec2.hpp"

namespace locble::serve {

/// Stable identifier of one connected phone (tracking client).
using ClientId = std::uint64_t;
/// Stable identifier of one advertised beacon.
using BeaconId = std::uint64_t;

/// What one ingest event carries.
enum class EventKind : std::uint8_t {
    /// A BLE advertisement report: (beacon, rssi_dbm) at time t.
    adv,
    /// A dead-reckoned pose sample: the client's on-device pedestrian dead
    /// reckoning (Sec. 5.2 runs on the phone) uploads its position in the
    /// client's observer frame at time t.
    pose,
};

/// One interleaved ingest event from one client. Deliberately a flat POD:
/// events are copied through bounded queues on the ingest hot path, so
/// there must be nothing to allocate or destroy.
///
/// Timestamps are client-clock seconds; per client they must be
/// non-decreasing (late events are accepted into the current batch and
/// counted under `serve.ingest.late`).
struct Event {
    ClientId client{0};
    double t{0.0};
    EventKind kind{EventKind::adv};
    BeaconId beacon{0};          ///< adv only
    double rssi_dbm{0.0};        ///< adv only
    locble::Vec2 position{};     ///< pose only (observer frame)

    /// Field list in checkpoint byte order (serve/checkpoint.cpp): the
    /// ingest queues hold the POD verbatim, so every field is written flat.
    template <class Self, class Visitor>
    static void fields(Self& s, Visitor& v) {
        auto& [client, t, kind, beacon, rssi_dbm, position] = s;
        v(client, t, kind, beacon, rssi_dbm, position);
    }
};

/// Are the values the event carries for its kind finite: `t` always, the
/// RSSI of an advertisement, the position of a pose? The service refuses an
/// event that is not (TrackingService::submit), and checkpoint restore
/// refuses a queued one.
inline bool is_finite(const Event& e) {
    return std::isfinite(e.t) &&
           (e.kind == EventKind::adv
                ? std::isfinite(e.rssi_dbm)
                : std::isfinite(e.position.x) && std::isfinite(e.position.y));
}

/// Advertisement event shorthand.
inline Event adv_event(ClientId client, double t, BeaconId beacon, double rssi_dbm) {
    Event e;
    e.client = client;
    e.t = t;
    e.kind = EventKind::adv;
    e.beacon = beacon;
    e.rssi_dbm = rssi_dbm;
    return e;
}

/// Pose event shorthand.
inline Event pose_event(ClientId client, double t, const locble::Vec2& position) {
    Event e;
    e.client = client;
    e.t = t;
    e.kind = EventKind::pose;
    e.position = position;
    return e;
}

/// SplitMix64 finalizer: the per-(client, shard) weight mix behind the
/// rendezvous assignment below.
inline std::uint64_t shard_weight_mix(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// Stable client -> shard assignment by rendezvous (highest-random-weight)
/// hashing: every (client, shard index) pair gets a SplitMix64 weight and
/// the client belongs to the argmax shard (lowest index wins ties). Pure
/// function of (client, shards), so the assignment never depends on arrival
/// order, map occupancy or thread count — one of the legs the serve
/// determinism contract stands on. Restore recomputes it against the
/// restoring service's shard count, which is how a checkpoint re-shards.
///
/// Results never depend on which map this is, but per-shard load does: a
/// different map would move the shard imbalance, and with it the epoch
/// timings, of every recorded serve workload. So the map stays until
/// client-granular epoch scheduling makes shards (and it) unnecessary.
inline std::uint32_t shard_of(ClientId client, std::uint32_t shards) {
    if (shards <= 1) return 0;
    std::uint32_t best = 0;
    std::uint64_t best_w = 0;
    for (std::uint32_t i = 0; i < shards; ++i) {
        const std::uint64_t w =
            shard_weight_mix(client ^ (0x100000001b3ull * (i + 1)));
        if (w > best_w) {
            best_w = w;
            best = i;
        }
    }
    return best;
}

}  // namespace locble::serve
