// Checkpoint byte-layout pin and forged-checkpoint rejection (docs/WIRE.md).
//
// The constants below pin checkpoint format 2 (kCkptFormat). The field
// lists *are* the layout: reordering, retyping or adding an entry moves
// these bytes, which requires bumping kCkptFormat and re-pinning here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "locble/common/rng.hpp"
#include "locble/core/envaware.hpp"
#include "locble/serve/event.hpp"
#include "locble/serve/replay.hpp"
#include "locble/serve/service.hpp"
#include "locble/sim/workload_log.hpp"
#include "locble/wire/log.hpp"

namespace locble::serve {
namespace {

TrackingService::Config pin_config(std::size_t recorder_epochs) {
    TrackingService::Config cfg;
    cfg.shards = 2;
    cfg.threads = 1;
    cfg.shard.session.pipeline.use_envaware = false;
    cfg.shard.session.pipeline.gamma_prior_dbm = -59.0;
    cfg.shard.session.pipeline.solver.search_mode =
        core::LocationSolver::SearchMode::coarse_to_fine;
    cfg.shard.queue_capacity = 4096;
    cfg.flight_recorder_epochs = recorder_epochs;
    return cfg;
}

/// FNV-1a 64. Unlike a CRC over the (already CRC-framed) sections, it sees
/// every payload edit.
std::uint64_t fnv1a64(std::uint64_t h, std::string_view s) {
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Replay the first half of a fixed synthesized log, leave two events
/// queued (so the ingest-queue encoding carries data), and checkpoint.
std::string pinned_checkpoint(const TrackingService::Config& cfg,
                              std::optional<core::EnvAware> env = std::nullopt) {
    sim::WorkloadLogConfig lcfg;
    lcfg.workload.clients = 16;
    lcfg.workload.beacons = 4;
    lcfg.epoch_s = 4.0;
    lcfg.seed = 7;
    const sim::WorkloadLog log = sim::make_workload_log(lcfg);

    TrackingService svc(cfg, std::move(env));
    ReplayDriver driver(svc, log.bytes);
    for (std::uint64_t i = 0; i < log.epochs / 2; ++i) {
        EXPECT_TRUE(driver.step_epoch());
    }
    const double t = svc.horizon() + 0.25;
    svc.submit(pose_event(900, t, {0.5, -1.5}));
    svc.submit(adv_event(900, t + 0.125, 3, -64.5));
    std::string ckpt = svc.checkpoint();

    // The pin must cover the optional branches: published fits and the
    // warm grid (coarse_to_fine solves).
    const std::string snap = canonical_text(svc.snapshot(SnapshotMode::full));
    EXPECT_NE(snap.find(" fit=1 "), std::string::npos);
    return ckpt;
}

struct SectionPin {
    std::uint64_t hash{kFnvBasis};  ///< over name + body of pinned sections
    std::size_t bytes{0};           ///< body bytes of pinned sections
    std::size_t sections{0};
    std::size_t recorder_bytes{0};  ///< length of the unpinned recorder body
};

/// Every section except `recorder`, whose rows carry wall-clock times and
/// one row per shard; of that one only the length is pinned.
SectionPin pin_sections(std::string_view ckpt) {
    SectionPin pin;
    wire::LogReader log(ckpt);
    EXPECT_EQ(log.header_status(), wire::WireStatus::ok);
    wire::LogRecord frame;
    wire::WireStatus st;
    while ((st = log.next(frame)) == wire::WireStatus::ok) {
        EXPECT_EQ(frame.type, wire::FrameType::section);
        if (frame.section_name == "recorder") {
            pin.recorder_bytes = frame.section_body.size();
            continue;
        }
        pin.hash = fnv1a64(pin.hash, frame.section_name);
        pin.hash = fnv1a64(pin.hash, frame.section_body);
        pin.bytes += frame.section_body.size();
        ++pin.sections;
    }
    EXPECT_EQ(st, wire::WireStatus::end);
    return pin;
}

TEST(WireCheckpointTest, FormatIsPinnedWithRecorderOff) {
    const std::string plain = pinned_checkpoint(pin_config(0));
    EXPECT_EQ(fnv1a64(kFnvBasis, plain), 0x6d2133cf79e64b29ull);
    EXPECT_EQ(plain.size(), 147172u);

    // EnvAware on: the regime tracker's optional classes carry data too.
    locble::Rng rng(20);
    core::EnvDatasetConfig dcfg;
    dcfg.traces_per_class = 15;
    core::EnvAware env;
    env.train(core::generate_env_dataset(dcfg, rng));
    auto cfg = pin_config(0);
    cfg.shard.session.pipeline.use_envaware = true;
    const std::string envaware = pinned_checkpoint(cfg, env);
    EXPECT_EQ(fnv1a64(kFnvBasis, envaware), 0xe3f7d47d4707c78aull);
    EXPECT_EQ(envaware.size(), 90002u);
}

TEST(WireCheckpointTest, FormatIsPinnedWithRecorderOn) {
    const SectionPin plain = pin_sections(pinned_checkpoint(pin_config(64)));
    EXPECT_EQ(plain.hash, 0x71fabe6d63a68977ull);
    EXPECT_EQ(plain.bytes, 146907u);
    EXPECT_EQ(plain.sections, 14u);
    EXPECT_EQ(plain.recorder_bytes, 662u);
}

/// FNV-1a 64 of a freshly built service's checkpoint. Its `meta` section
/// carries the config digest; every other byte is the same for any config.
std::uint64_t fresh_checkpoint_hash(const TrackingService::Config& cfg) {
    // The digest leaves the trained model out, so any trained one serves.
    static const core::EnvAware env = [] {
        locble::Rng rng(20);
        core::EnvDatasetConfig dcfg;
        dcfg.traces_per_class = 15;
        core::EnvAware e;
        e.train(core::generate_env_dataset(dcfg, rng));
        return e;
    }();
    std::optional<core::EnvAware> model;
    if (cfg.shard.session.pipeline.use_envaware) model = env;
    TrackingService svc(cfg, std::move(model));
    return fnv1a64(kFnvBasis, svc.checkpoint());
}

TEST(WireCheckpointTest, ConfigDigestIsPinnedForTheConfigsProgramsRun) {
    // perfbench's two serve workloads (perfbench/locble_perf.cpp).
    TrackingService::Config fleet;
    fleet.shards = 4;
    fleet.threads = 2;
    fleet.shard.session.pipeline.use_envaware = false;
    fleet.shard.session.pipeline.gamma_prior_dbm = -59.0;
    fleet.shard.session.pipeline.solver.search_mode =
        core::LocationSolver::SearchMode::coarse_to_fine;
    EXPECT_EQ(fresh_checkpoint_hash(fleet), 0xb5f8da9f49ebb356ull)
        << "fleet_replay";
    TrackingService::Config standby = fleet;
    standby.shards = 1;
    standby.threads = 1;
    standby.shard.session.pipeline.use_envaware = true;
    EXPECT_EQ(fresh_checkpoint_hash(standby), 0x6788b4aceab72b33ull)
        << "standby_long_walk";

    // bench_ablation_solver's variants and two of bench_solver_scaling's
    // exponent grid steps, each as the session pipeline of a default config.
    using Edit = std::function<void(core::LocBle::Config&)>;
    const auto variant = [](const Edit& edit) {
        TrackingService::Config cfg;
        edit(cfg.shard.session.pipeline);
        return fresh_checkpoint_hash(cfg);
    };
    const struct {
        const char* name;
        Edit edit;
        std::uint64_t hash;
    } pins[] = {
        {"defaults", [](auto&) {}, 0x5a764e15c66e7d0dull},
        {"no_wls", [](auto& p) { p.solver.use_wls = false; }, 0x6c75b7260892c7bdull},
        {"no_gn", [](auto& p) { p.solver.use_gn_refinement = false; },
         0x245cae8678507fa0ull},
        {"model_averaging", [](auto& p) { p.solver.use_model_averaging = true; },
         0x18da030a7d3de343ull},
        {"no_gamma_prior",
         [](auto& p) {
             p.gamma_prior_dbm = -60.0;
             p.gamma_prior_below_db = 30.0;
             p.gamma_prior_above_db = 30.0;
         },
         0x939a7b9772ddce5cull},
        {"exponent_step 0.1", [](auto& p) { p.solver.exponent_step = 0.1; },
         0x391940a299e3ed3cull},
        {"exponent_step 0.025", [](auto& p) { p.solver.exponent_step = 0.025; },
         0x0eef2ccd6333c53dull},
    };
    for (const auto& pin : pins) EXPECT_EQ(variant(pin.edit), pin.hash) << pin.name;

    // The kernel mode is outside the digest: both modes fit bit-identically.
    EXPECT_EQ(variant([](auto& p) {
                  p.solver.kernel_mode =
                      core::LocationSolver::Config::KernelMode::scalar_reference;
              }),
              pins[0].hash);
}

/// Re-frame a checkpoint with section bodies passed through `edit`. The
/// frame CRCs are recomputed, so only the checkpoint reader's own
/// validation can catch the edit.
std::string reframe(
    std::string_view ckpt,
    const std::function<void(std::string_view name, std::string& body)>& edit) {
    wire::LogReader in(ckpt);
    wire::LogWriter out(wire::StreamKind::checkpoint);
    wire::LogRecord frame;
    while (in.next(frame) == wire::WireStatus::ok) {
        std::string body(frame.section_body);
        edit(frame.section_name, body);
        out.section(frame.section_name, body);
    }
    return out.finish();
}

void expect_refused(std::string_view bytes, wire::WireStatus code, const char* what) {
    TrackingService fresh(pin_config(64));
    try {
        fresh.restore_checkpoint(bytes);
        ADD_FAILURE() << what << ": forged checkpoint restored";
    } catch (const wire::WireError& e) {
        EXPECT_EQ(e.code(), code) << what << ": " << e.what();
    }
}

void expect_malformed(std::string_view bytes, const char* what) {
    expect_refused(bytes, wire::WireStatus::malformed, what);
}

/// One client walking past beacon 7. Poses sit on whole seconds and
/// advertisements on t = 0.05 + 0.1 k, so the first advertisement's
/// timestamp bytes occur in the client section first as the first
/// accumulated sample's `t`, and the last advertisement's last as the
/// session's `last_event_t`. A final pose at t = 12 moves the horizon past
/// the last batch window, so every batch has flushed. `queued` is submitted
/// after the epoch and stays in the client's ingest queue.
constexpr double kFirstAdvT = 0.05;
constexpr int kAdvs = 100;

std::string forgery_donor(const std::vector<Event>& queued = {}) {
    TrackingService donor(pin_config(64));
    for (int s = 0; s <= 10; ++s)
        donor.submit(pose_event(1, s, {0.5 * s, s > 5 ? 0.5 * (s - 5) : 0.0}));
    for (int k = 0; k < kAdvs; ++k)
        donor.submit(adv_event(1, kFirstAdvT + 0.1 * k, 7, -60.0 - 0.1 * (k % 13)));
    donor.submit(pose_event(1, 12.0, {5.0, 2.5}));
    donor.run_epoch();
    donor.submit(queued);
    return donor.checkpoint();
}

std::string_view bytes_of(const double& v) {
    return {reinterpret_cast<const char*>(&v), sizeof v};
}

/// Rewrite the zigzag svarint `segment` of the first accumulated sample:
/// the FusedSample layout is f64 t, p, q, rssi, then svarint segment, so
/// it sits 32 bytes after the sample's `t`.
std::string with_first_sample_segment(std::string_view ckpt, std::uint8_t zigzag) {
    bool patched = false;
    std::string out = reframe(ckpt, [&](std::string_view name, std::string& body) {
        if (name != "client") return;
        const std::size_t at = body.find(bytes_of(kFirstAdvT));
        if (at == std::string::npos || at + 32 >= body.size()) return;
        EXPECT_EQ(body[at + 32], 0) << "first sample is not in segment 0";
        body[at + 32] = static_cast<char>(zigzag);
        patched = true;
    });
    EXPECT_TRUE(patched);
    return out;
}

/// Rewrite the session's own `segment` svarint with `zigzag`. The session
/// writes `last_event_t`, two empty batch buffers (one count byte each),
/// then `segment`.
std::string with_session_segment(std::string_view ckpt, std::string_view zigzag) {
    bool patched = false;
    std::string out = reframe(ckpt, [&](std::string_view name, std::string& body) {
        if (name != "client") return;
        const double last_t = kFirstAdvT + 0.1 * (kAdvs - 1);
        const std::size_t at = body.rfind(bytes_of(last_t));
        if (at == std::string::npos || at + 10 >= body.size()) return;
        EXPECT_EQ(body.substr(at + 8, 3), std::string(3, '\0'))
            << "unexpected open batch or segment";
        body.replace(at + 10, 1, zigzag);
        patched = true;
    });
    EXPECT_TRUE(patched);
    return out;
}

/// Rewrite the session's warm grid with `edit(body, at)`, where `at` is the
/// grid's offset in the client body. The grid follows the accumulated
/// samples: their one-byte varint count precedes the first sample's `t`,
/// and each sample is four f64s plus a one-byte segment (all in segment 0
/// here). The grid is the valid flag, f64 n_min, n_max and step, then the
/// varint point count at +25.
std::string with_warm_grid(std::string_view ckpt,
                           const std::function<void(std::string&, std::size_t)>& edit) {
    bool patched = false;
    std::string out = reframe(ckpt, [&](std::string_view name, std::string& body) {
        if (name != "client") return;
        const std::size_t first = body.find(bytes_of(kFirstAdvT));
        if (first == std::string::npos || first == 0) return;
        const auto samples = static_cast<unsigned char>(body[first - 1]);
        ASSERT_GT(samples, 8u);
        ASSERT_LT(samples, 128u);
        const std::size_t at = first + samples * std::size_t{33};
        ASSERT_LT(at + 25, body.size());
        ASSERT_EQ(body[at], 1) << "warm grid not valid";
        edit(body, at);
        patched = true;
    });
    EXPECT_TRUE(patched);
    return out;
}

double f64_at(const std::string& body, std::size_t at) {
    double v = 0.0;
    std::memcpy(&v, body.data() + at, sizeof v);
    return v;
}

void set_f64(std::string& body, std::size_t at, double v) {
    body.replace(at, sizeof v, bytes_of(v));
}

TEST(WireCheckpointTest, WarmGridZeroStepIsMalformed) {
    expect_malformed(with_warm_grid(forgery_donor(),
                                    [](std::string& body, std::size_t at) {
                                        set_f64(body, at + 17, 0.0);
                                    }),
                     "step 0");
}

TEST(WireCheckpointTest, WarmGridNanBandIsMalformed) {
    expect_malformed(with_warm_grid(forgery_donor(),
                                    [](std::string& body, std::size_t at) {
                                        set_f64(body, at + 1,
                                                std::numeric_limits<double>::quiet_NaN());
                                    }),
                     "n_min NaN");
}

TEST(WireCheckpointTest, WarmGridInvertedBandIsMalformed) {
    expect_malformed(with_warm_grid(forgery_donor(),
                                    [](std::string& body, std::size_t at) {
                                        const double n_min = f64_at(body, at + 1);
                                        const double n_max = f64_at(body, at + 9);
                                        ASSERT_LT(n_min, n_max);
                                        set_f64(body, at + 1, n_max);
                                        set_f64(body, at + 9, n_min);
                                    }),
                     "n_min > n_max");
}

TEST(WireCheckpointTest, WarmGridOfMoreThanAMillionPointsIsMalformed) {
    expect_malformed(with_warm_grid(forgery_donor(),
                                    [](std::string& body, std::size_t at) {
                                        const double step = f64_at(body, at + 17);
                                        set_f64(body, at + 9,
                                                f64_at(body, at + 1) + 2e6 * step);
                                    }),
                     "2e6 points");
}

TEST(WireCheckpointTest, WarmGridPointCountOffByOneIsMalformed) {
    for (const int delta : {-1, +1}) {
        expect_malformed(
            with_warm_grid(forgery_donor(),
                           [delta](std::string& body, std::size_t at) {
                               const auto n = static_cast<unsigned char>(body[at + 25]);
                               ASSERT_GT(n, 1u);
                               ASSERT_LT(n, 127u);
                               body[at + 25] = static_cast<char>(n + delta);
                           }),
            delta < 0 ? "points - 1" : "points + 1");
    }
}

/// The control for every forgery here: re-framing alone changes nothing.
TEST(WireCheckpointTest, ReframedCheckpointRestoresUnchanged) {
    const std::string ckpt = forgery_donor();
    const std::string same = reframe(ckpt, [](std::string_view, std::string&) {});
    EXPECT_EQ(same, ckpt);
    TrackingService fresh(pin_config(64));
    fresh.restore_checkpoint(same);
    EXPECT_EQ(fresh.checkpoint(), ckpt);
}

TEST(WireCheckpointTest, NegativeSampleSegmentIsMalformed) {
    expect_malformed(with_first_sample_segment(forgery_donor(), 1), "segment -1");
}

TEST(WireCheckpointTest, SampleSegmentBeyondSessionSegmentIsMalformed) {
    expect_malformed(with_first_sample_segment(forgery_donor(), 2), "segment +1");
}

TEST(WireCheckpointTest, NegativeSessionSegmentIsMalformed) {
    expect_malformed(with_session_segment(forgery_donor(), "\x01"), "segment -1");
}

TEST(WireCheckpointTest, SessionSegmentOffItsNewestSampleIsMalformed) {
    // zigzag(1000) = 2000, varint d0 0f: the newest accumulated sample is in
    // segment 0, and a flush always tags its batch with the session's
    // segment.
    expect_malformed(with_session_segment(forgery_donor(), "\xd0\x0f"),
                     "segment 1000");
}

/// Rewrite both the newest accumulated sample's `segment` and the session's
/// own with `zigzag`, so the two still agree. The last advertisement's time
/// occurs first as the newest sample's `t`, its segment 32 bytes on, and
/// last as the session's `last_event_t` (see with_session_segment).
std::string with_newest_segments(std::string_view ckpt, std::string_view zigzag) {
    bool patched = false;
    std::string out = reframe(ckpt, [&](std::string_view name, std::string& body) {
        if (name != "client") return;
        const double last_t = kFirstAdvT + 0.1 * (kAdvs - 1);
        const std::size_t sample = body.find(bytes_of(last_t));
        const std::size_t session = body.rfind(bytes_of(last_t));
        if (sample == std::string::npos || sample + 32 >= session) return;
        ASSERT_EQ(body[sample + 32], 0) << "newest sample is not in segment 0";
        ASSERT_EQ(body[session + 10], 0) << "session is not in segment 0";
        body.replace(session + 10, 1, zigzag);  // the later offset first
        body.replace(sample + 32, 1, zigzag);
        patched = true;
    });
    EXPECT_TRUE(patched);
    return out;
}

TEST(WireCheckpointTest, NewestSampleAndSessionBothInAFarSegmentAreMalformed) {
    // The two agree, but the newest sample steps up from segment 0 where a
    // flush steps by at most one: a session in segment k holds more than k
    // samples. zigzag(1000) = 2000 is varint d0 0f; zigzag(INT_MAX) =
    // 2^32 - 2 is varint fe ff ff ff 0f, in range for an int, but the next
    // solve's segment count (segment + 1) would overflow.
    expect_malformed(with_newest_segments(forgery_donor(), "\xd0\x0f"), "segments 1000");
    expect_malformed(with_newest_segments(forgery_donor(), "\xfe\xff\xff\xff\x0f"),
                     "segments INT_MAX");
}

TEST(WireCheckpointTest, SessionSegmentBeyond32BitsIsMalformed) {
    // zigzag(2^32) = 2^33, varint 80 80 80 80 20: wraps to segment 0 if
    // narrowed to int instead of range-checked.
    expect_malformed(with_session_segment(forgery_donor(), "\x80\x80\x80\x80\x20"),
                     "segment 2^32");
}

/// Rewrite the `resolution` varint of the first recorded staleness sketch
/// with `varint`. The sketch writes its configured flag, the f64 upper
/// bound (120 s by default), then the resolution (240: varint f0 01).
std::string with_sketch_resolution(std::string_view ckpt, std::string_view varint) {
    bool patched = false;
    std::string out = reframe(ckpt, [&](std::string_view name, std::string& body) {
        if (name != "recorder") return;
        const double upper = 120.0;
        const std::string head = "\x01" + std::string(bytes_of(upper)) + "\xf0\x01";
        const std::size_t at = body.find(head);
        if (at == std::string::npos) return;
        body.replace(at + 9, 2, varint);
        patched = true;
    });
    EXPECT_TRUE(patched);
    return out;
}

TEST(WireCheckpointTest, SketchResolutionBeyond32BitsIsMalformed) {
    // 2^32 + 240, varint f0 81 80 80 10: wraps to the valid 240 if narrowed
    // to u32 instead of range-checked.
    expect_malformed(with_sketch_resolution(forgery_donor(), "\xf0\x81\x80\x80\x10"),
                     "resolution 2^32 + 240");
}

TEST(WireCheckpointTest, MetaEpochOffItsStatsIsMalformed) {
    // The meta body opens with the u32 format and the u64 config digest;
    // the fixed u64 epoch follows and must equal the stats' `epochs`
    // count, 1 in the donor.
    const std::string forged =
        reframe(forgery_donor(), [](std::string_view name, std::string& body) {
            if (name != "meta") return;
            ASSERT_EQ(body[12], 1);
            body[12] = 2;
        });
    expect_malformed(forged, "epoch 2 with 1 in the stats");
}

TEST(WireCheckpointTest, FormatOneCheckpointIsAnUnknownVersion) {
    // The meta body opens with the u32 format, little-endian.
    const std::string forged =
        reframe(forgery_donor(), [](std::string_view name, std::string& body) {
            if (name != "meta") return;
            ASSERT_EQ(body.substr(0, 4), std::string("\x02\0\0\0", 4));
            body[0] = 1;
        });
    expect_refused(forged, wire::WireStatus::unknown_version, "format 1");
}

/// Replace the first f64 `value` in the client section (the last one with
/// `last`) with a NaN.
std::string with_nan_for(std::string_view ckpt, double value, bool last = false) {
    bool patched = false;
    std::string out = reframe(ckpt, [&](std::string_view name, std::string& body) {
        if (name != "client") return;
        const std::size_t at = last ? body.rfind(bytes_of(value)) : body.find(bytes_of(value));
        if (at == std::string::npos) return;
        set_f64(body, at, std::numeric_limits<double>::quiet_NaN());
        patched = true;
    });
    EXPECT_TRUE(patched);
    return out;
}

TEST(WireCheckpointTest, QueuedAdvWithNanRssiIsMalformed) {
    // The queue precedes the resident state, and -71.25 dBm occurs nowhere
    // else in the client section.
    constexpr double kRssi = -71.25;
    expect_malformed(with_nan_for(forgery_donor({adv_event(1, 12.5, 7, kRssi)}), kRssi),
                     "queued adv RSSI NaN");
}

TEST(WireCheckpointTest, AccumulatedSampleWithNanTimeIsMalformed) {
    expect_malformed(with_nan_for(forgery_donor(), kFirstAdvT), "sample t NaN");
}

TEST(WireCheckpointTest, QueueNewestTimeNanIsMalformed) {
    // The queued advertisement's time occurs first in the queue's buffer,
    // then last as the queue's `last_event_t`.
    constexpr double kT = 12.5;
    expect_malformed(
        with_nan_for(forgery_donor({adv_event(1, kT, 7, -70.0)}), kT, /*last=*/true),
        "queue last_event_t NaN");
}

TEST(WireCheckpointTest, SessionNewestTimeNanIsMalformed) {
    expect_malformed(
        with_nan_for(forgery_donor(), kFirstAdvT + 0.1 * (kAdvs - 1), /*last=*/true),
        "session last_event_t NaN");
}

/// Replace the session's batch end with `v`: BatchLoop::fields writes it
/// just before the loop's `last_t`, the session's `last_event_t`.
std::string with_batch_end(std::string_view ckpt, double v) {
    bool patched = false;
    std::string out = reframe(ckpt, [&](std::string_view name, std::string& body) {
        if (name != "client") return;
        const double last_t = kFirstAdvT + 0.1 * (kAdvs - 1);
        const std::size_t at = body.rfind(bytes_of(last_t));
        if (at == std::string::npos || at < 8) return;
        // The final pose at t = 12 closed the last window: the batch end is
        // the first step of 2 s past it.
        ASSERT_GT(f64_at(body, at - 8), 12.0);
        ASSERT_LE(f64_at(body, at - 8), 14.0);
        set_f64(body, at - 8, v);
        patched = true;
    });
    EXPECT_TRUE(patched);
    return out;
}

TEST(WireCheckpointTest, SessionBatchEndNanIsMalformed) {
    // close() needs t > batch end, so a NaN one never closes a window again.
    expect_malformed(with_batch_end(forgery_donor(), std::numeric_limits<double>::quiet_NaN()),
                     "batch end NaN");
}

TEST(WireCheckpointTest, SessionBatchEndInfiniteIsMalformed) {
    // +inf never closes a window again; -inf would recover at the next
    // close, but no checkpoint this build writes holds either.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    expect_malformed(with_batch_end(forgery_donor(), kInf), "batch end +inf");
    expect_malformed(with_batch_end(forgery_donor(), -kInf), "batch end -inf");
}

TEST(WireCheckpointTest, NanHorizonIsMalformed) {
    // After the u32 format, u64 digest, fixed u64 epoch and the bool8
    // has_horizon, the meta body holds the f64 horizon and epoch horizon,
    // both 12 s (the donor's last pose). A NaN horizon would stick
    // (max(NaN, t) is NaN) and stop idle eviction for good.
    static constexpr double kHorizon = 12.0;
    for (const std::size_t at : {std::size_t{21}, std::size_t{29}}) {
        const std::string forged =
            reframe(forgery_donor(), [at](std::string_view name, std::string& body) {
                if (name != "meta") return;
                ASSERT_EQ(body[20], 1);
                ASSERT_EQ(f64_at(body, at), kHorizon);
                set_f64(body, at, std::numeric_limits<double>::quiet_NaN());
            });
        expect_malformed(forged, at == 21 ? "horizon NaN" : "epoch horizon NaN");
    }
    // The donor's one flight record: its epoch horizon is the first 12 s
    // in the recorder section.
    bool patched = false;
    const std::string forged =
        reframe(forgery_donor(), [&](std::string_view name, std::string& body) {
            if (name != "recorder") return;
            const std::size_t at = body.find(bytes_of(kHorizon));
            if (at == std::string::npos) return;
            set_f64(body, at, std::numeric_limits<double>::quiet_NaN());
            patched = true;
        });
    EXPECT_TRUE(patched);
    expect_malformed(forged, "recorded horizon NaN");
}

TEST(WireCheckpointTest, SampleCapBoundsALongSessionsCheckpoint) {
    // One client circling a 10 m square past beacon 1 for 6000 s: poses at
    // 2 Hz, advertisements at 4 Hz, so 3000 batches of about 8 samples,
    // with the regression capped at 20 of them. Dyadic timestamps keep
    // every batch and epoch boundary exact.
    TrackingService::Config cfg;
    cfg.shard.session.pipeline.use_envaware = false;
    cfg.shard.session.max_session_samples = 160;
    cfg.flight_recorder_epochs = 0;
    TrackingService svc(cfg);
    const auto pose_at = [](double t) {
        const double s = std::fmod(t, 40.0);
        const int side = static_cast<int>(s / 10.0);
        const double u = s - 10.0 * side - 5.0;
        const Vec2 sides[] = {{u, -5.0}, {5.0, u}, {-u, 5.0}, {-5.0, -u}};
        return sides[side];
    };
    const Vec2 beacon{3.0, 4.0};
    constexpr int kEpochs = 750;
    constexpr int kEventsPerEpoch = 32;  // 8 s of advertisements at 4 Hz
    std::vector<std::size_t> bytes;
    for (int e = 0; e < kEpochs; ++e) {
        for (int k = 0; k < kEventsPerEpoch; ++k) {
            const double t = 8.0 * e + 0.25 * k + 0.125;
            const Vec2 p = pose_at(t);
            if (k % 2 == 0) svc.submit(pose_event(1, t, p));
            const double d = std::max(0.5, Vec2::distance(p, beacon));
            const double noise = 0.3 * ((k * 7) % 13 - 6);
            svc.submit(adv_event(1, t, 1, -59.0 - 20.0 * std::log10(d) + noise));
        }
        svc.run_epoch();
        bytes.push_back(svc.checkpoint().size());
    }
    const ServiceSnapshot snap = svc.snapshot();
    ASSERT_EQ(snap.estimates.size(), 1u);
    EXPECT_GT(snap.estimates[0].resets, 100);  // the cap reset it all along
    EXPECT_LE(snap.estimates[0].samples_used, 160u);
    EXPECT_EQ(snap.stats.batches_flushed, 2999u);  // the last is still open

    // Only the counters grow: the ledger, in the meta section's three stats
    // views, and the session's samples_seen and resets. Each grows less than
    // 128-fold from the early window to the late one, so its varint gets at
    // most one byte longer.
    const std::size_t counter_growth = 3 * std::size(kIngestStatsFields) + 2;
    const auto window_max = [&](int from, int to) {
        return *std::max_element(bytes.begin() + from, bytes.begin() + to);
    };
    const std::size_t early = window_max(50, 150);
    const std::size_t late = window_max(kEpochs - 100, kEpochs);
    EXPECT_LE(late, early + counter_growth) << "early " << early << ", late " << late;
}

TEST(WireCheckpointTest, TrailingMetaBytesAreMalformed) {
    const std::string forged =
        reframe(forgery_donor(), [](std::string_view name, std::string& body) {
            if (name == "meta") body.push_back('\0');
        });
    expect_malformed(forged, "meta + 1 byte");
}

TEST(WireCheckpointTest, TrailingRecorderBytesAreMalformed) {
    const std::string forged =
        reframe(forgery_donor(), [](std::string_view name, std::string& body) {
            if (name == "recorder") body.push_back('\0');
        });
    expect_malformed(forged, "recorder + 1 byte");
}

}  // namespace
}  // namespace locble::serve
