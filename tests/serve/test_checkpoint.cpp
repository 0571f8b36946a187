// Checkpoint byte-layout pin and forged-checkpoint rejection (docs/WIRE.md).
//
// The constants below pin checkpoint format 1 (kCkptFormat). The field
// lists *are* the layout: reordering, retyping or adding an entry moves
// these bytes, which requires bumping kCkptFormat and re-pinning here.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "locble/common/rng.hpp"
#include "locble/core/envaware.hpp"
#include "locble/serve/event.hpp"
#include "locble/serve/replay.hpp"
#include "locble/serve/service.hpp"
#include "locble/sim/workload_log.hpp"
#include "locble/wire/log.hpp"

namespace locble::serve {
namespace {

TrackingService::Config pin_config(bool clustering, std::size_t recorder_epochs) {
    TrackingService::Config cfg;
    cfg.shards = 2;
    cfg.threads = 1;
    cfg.shard.session.pipeline.use_envaware = false;
    cfg.shard.session.pipeline.gamma_prior_dbm = -59.0;
    cfg.shard.session.pipeline.solver.search_mode =
        core::LocationSolver::SearchMode::coarse_to_fine;
    cfg.shard.queue_capacity = 4096;
    cfg.shard.enable_clustering = clustering;
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

    // The pin must cover the optional branches: published fits, the warm
    // grid (coarse_to_fine solves), and cluster calibrations when enabled.
    const std::string snap = canonical_text(svc.snapshot(SnapshotMode::full));
    EXPECT_NE(snap.find(" fit=1 "), std::string::npos);
    if (cfg.shard.enable_clustering) {
        EXPECT_NE(snap.find(" cluster=1 "), std::string::npos);
    }
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
    const std::string plain = pinned_checkpoint(pin_config(false, 0));
    EXPECT_EQ(fnv1a64(kFnvBasis, plain), 0x3b45a37d56abe028ull);
    EXPECT_EQ(plain.size(), 147788u);

    const std::string clustered = pinned_checkpoint(pin_config(true, 0));
    EXPECT_EQ(fnv1a64(kFnvBasis, clustered), 0x4b8548801d5a3bb2ull);
    EXPECT_EQ(clustered.size(), 148773u);

    // EnvAware on: the regime tracker's optional classes carry data too.
    locble::Rng rng(20);
    core::EnvDatasetConfig dcfg;
    dcfg.traces_per_class = 15;
    core::EnvAware env;
    env.train(core::generate_env_dataset(dcfg, rng));
    auto cfg = pin_config(false, 0);
    cfg.shard.session.pipeline.use_envaware = true;
    const std::string envaware = pinned_checkpoint(cfg, env);
    EXPECT_EQ(fnv1a64(kFnvBasis, envaware), 0x7393d8e641263502ull);
    EXPECT_EQ(envaware.size(), 90606u);
}

TEST(WireCheckpointTest, FormatIsPinnedWithRecorderOn) {
    const SectionPin plain = pin_sections(pinned_checkpoint(pin_config(false, 64)));
    EXPECT_EQ(plain.hash, 0x258432d4e686b1e1ull);
    EXPECT_EQ(plain.bytes, 147523u);
    EXPECT_EQ(plain.sections, 14u);
    EXPECT_EQ(plain.recorder_bytes, 664u);

    const SectionPin clustered =
        pin_sections(pinned_checkpoint(pin_config(true, 64)));
    EXPECT_EQ(clustered.hash, 0xda7b14c47e9b1545ull);
    EXPECT_EQ(clustered.bytes, 148508u);
    EXPECT_EQ(clustered.sections, 14u);
    EXPECT_EQ(clustered.recorder_bytes, 664u);
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
    EXPECT_EQ(fresh_checkpoint_hash(fleet), 0xd85b06a05a86ce9cull)
        << "fleet_replay";
    TrackingService::Config standby = fleet;
    standby.shards = 1;
    standby.threads = 1;
    standby.shard.session.pipeline.use_envaware = true;
    EXPECT_EQ(fresh_checkpoint_hash(standby), 0xe6d56f4086e1950aull)
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
        {"defaults", [](auto&) {}, 0x6c04dea1cd4c10feull},
        {"no_wls", [](auto& p) { p.solver.use_wls = false; }, 0x5a2ec3ea5479c6d7ull},
        {"no_gn", [](auto& p) { p.solver.use_gn_refinement = false; },
         0x31336fc66a2daff5ull},
        {"model_averaging", [](auto& p) { p.solver.use_model_averaging = true; },
         0x624aac2f5d60e16bull},
        {"no_gamma_prior",
         [](auto& p) {
             p.gamma_prior_dbm = -60.0;
             p.gamma_prior_below_db = 30.0;
             p.gamma_prior_above_db = 30.0;
         },
         0x8852815e1bdb2bb9ull},
        {"exponent_step 0.1", [](auto& p) { p.solver.exponent_step = 0.1; },
         0xde6b4a2d418ab9a6ull},
        {"exponent_step 0.025", [](auto& p) { p.solver.exponent_step = 0.025; },
         0x470e85ab58ba1432ull},
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

void expect_malformed(std::string_view bytes, const char* what) {
    TrackingService fresh(pin_config(false, 64));
    try {
        fresh.restore_checkpoint(bytes);
        ADD_FAILURE() << what << ": forged checkpoint restored";
    } catch (const wire::WireError& e) {
        EXPECT_EQ(e.code(), wire::WireStatus::malformed) << what << ": " << e.what();
    }
}

/// One client walking past beacon 7. Poses sit on whole seconds and
/// advertisements on t = 0.05 + 0.1 k, so the first advertisement's
/// timestamp bytes occur in the client section first as the first
/// accumulated sample's `t`, and the last advertisement's last as the
/// session's `last_event_t`. A final pose at t = 12 moves the horizon past
/// the last batch window, so every batch has flushed.
constexpr double kFirstAdvT = 0.05;
constexpr int kAdvs = 100;

std::string forgery_donor() {
    TrackingService donor(pin_config(false, 64));
    for (int s = 0; s <= 10; ++s)
        donor.submit(pose_event(1, s, {0.5 * s, s > 5 ? 0.5 * (s - 5) : 0.0}));
    for (int k = 0; k < kAdvs; ++k)
        donor.submit(adv_event(1, kFirstAdvT + 0.1 * k, 7, -60.0 - 0.1 * (k % 13)));
    donor.submit(pose_event(1, 12.0, {5.0, 2.5}));
    donor.run_epoch();
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
    TrackingService fresh(pin_config(false, 64));
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

TEST(WireCheckpointTest, SessionSegmentBeyondFlushedBatchesIsMalformed) {
    // zigzag(1000) = 2000, varint d0 0f: more segments than flushed batches.
    expect_malformed(with_session_segment(forgery_donor(), "\xd0\x0f"),
                     "segment 1000");
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
