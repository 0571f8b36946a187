// Streaming equals offline: one RSS/pose stream through core::LocBle and
// through a serve::TrackingSession driven directly must give bitwise-equal
// results. With the ANF off and exhaustive search the two paths differ only
// in their solve cadence (after every batch offline, once at the end of the
// epoch in the service), and an exhaustive incremental solve equals a cold
// one — so the cadence may change cost, never state.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "locble/common/rng.hpp"
#include "locble/core/pipeline.hpp"
#include "locble/serve/tracking_session.hpp"

namespace locble::serve {
namespace {

using locble::Vec2;

/// Ideal L-shaped walk: 4 m along +x over t in [0, 4], 3 m along +y over
/// t in [5, 8].
motion::MotionEstimate l_walk() {
    motion::MotionEstimate m;
    for (int i = 0; i <= 40; ++i) m.path.push_back({0.1 * i, {0.1 * i, 0.0}});
    for (int i = 0; i <= 30; ++i) m.path.push_back({5.0 + 0.1 * i, {4.0, 0.1 * i}});
    return m;
}

/// Log-distance RSS from a beacon at `target` along `walk`, with Gaussian
/// noise `sigma`; from `drop_t` on the level falls by `drop_db` and the
/// noise rises to `sigma_after` (walking behind an obstacle).
locble::TimeSeries walk_rss(const motion::MotionEstimate& walk, const Vec2& target,
                            std::uint64_t seed, double drop_t = 1e9,
                            double drop_db = 0.0, double sigma = 1.0,
                            double sigma_after = 1.0) {
    locble::Rng rng(seed);
    locble::TimeSeries ts;
    for (double t = 0.0; t <= 8.0; t += 0.1) {
        const Vec2 obs = walk.position_at(t);
        const double l = std::max(Vec2::distance(target, obs), 0.1);
        const bool dropped = t >= drop_t;
        ts.push_back({t, -59.0 - 20.0 * std::log10(l) - (dropped ? drop_db : 0.0) +
                             rng.gaussian(0.0, dropped ? sigma_after : sigma)});
    }
    return ts;
}

const core::EnvAware& tiny_envaware() {
    static const core::EnvAware instance = [] {
        locble::Rng rng(55);
        core::EnvDatasetConfig cfg;
        cfg.traces_per_class = 20;
        core::EnvAware env;
        env.train(core::generate_env_dataset(cfg, rng));
        return env;
    }();
    return instance;
}

core::LocBle::Config stream_config(bool envaware) {
    core::LocBle::Config cfg;
    cfg.use_anf = false;
    cfg.use_envaware = envaware;
    cfg.gamma_prior_dbm = -59.0;
    cfg.solver.search_mode = core::LocationSolver::SearchMode::exhaustive;
    return cfg;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::uint64_t> gamma_bits(const core::LocationFit& fit) {
    std::vector<std::uint64_t> out;
    for (const double g : fit.segment_gammas) out.push_back(bits(g));
    return out;
}

/// Run `rss` through both paths and assert bitwise-equal results; returns
/// the offline result for case-specific checks.
core::LocateResult expect_streaming_equals_offline(const core::LocBle::Config& cfg,
                                                   const locble::TimeSeries& rss,
                                                   const motion::MotionEstimate& walk) {
    const core::EnvAware* env = cfg.use_envaware ? &tiny_envaware() : nullptr;
    const core::LocateResult offline =
        env ? core::LocBle(cfg, *env).locate(rss, walk)
            : core::LocBle(cfg).locate(rss, walk);

    TrackingSession::Config scfg;
    scfg.pipeline = cfg;
    TrackingSession session(scfg, dsp::Anf(), env);
    IngestStats stats;
    // The session's batch sizes, rebuilt from its own ledger: a call that
    // flushes closes the batch of every sample seen before it.
    std::vector<std::size_t> batches;
    std::size_t flushed_samples = 0;
    const auto record_flush = [&](const auto& call) {
        const std::uint64_t flushes = stats.batches_flushed;
        const std::size_t seen = session.samples_seen();
        call();
        ASSERT_LE(stats.batches_flushed, flushes + 1);
        if (stats.batches_flushed == flushes) return;
        batches.push_back(seen - flushed_samples);
        flushed_samples = seen;
    };
    for (const auto& s : rss) {
        const Vec2 obs = walk.position_at(s.t);
        record_flush([&] { session.on_adv(s.t, s.value, -obs.x, -obs.y, stats); });
    }
    record_flush([&] {
        session.finish_epoch(rss.back().t + 2.0 * core::BatchLoop::kBatchSeconds, stats);
    });

    EXPECT_EQ(offline.fit.has_value(), session.has_fit());
    if (offline.fit && session.has_fit()) {
        const core::LocationFit& a = *offline.fit;
        const core::LocationFit& b = session.fit();
        EXPECT_EQ(bits(a.location.x), bits(b.location.x));
        EXPECT_EQ(bits(a.location.y), bits(b.location.y));
        EXPECT_EQ(bits(a.exponent), bits(b.exponent));
        EXPECT_EQ(bits(a.gamma_dbm), bits(b.gamma_dbm));
        EXPECT_EQ(gamma_bits(a), gamma_bits(b));
        EXPECT_EQ(bits(a.residual_db), bits(b.residual_db));
        EXPECT_EQ(bits(a.confidence), bits(b.confidence));
    }
    EXPECT_EQ(offline.regression_restarts, session.regression_restarts());
    EXPECT_EQ(offline.samples_used, session.samples_used());
    EXPECT_EQ(offline.diagnostics.batch_samples, batches);
    return offline;
}

TEST(StreamingOfflineTest, EqualWithAndWithoutEnvAware) {
    const auto walk = l_walk();
    for (const bool envaware : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "envaware " << envaware << " seed " << seed);
            const Vec2 target{3.0 + 0.5 * static_cast<double>(seed), 2.0};
            const auto r = expect_streaming_equals_offline(
                stream_config(envaware), walk_rss(walk, target, seed), walk);
            EXPECT_TRUE(r.fit.has_value());
            EXPECT_EQ(r.diagnostics.envaware_windows > 0, envaware);
        }
    }
}

TEST(StreamingOfflineTest, EqualAcrossAnEnvironmentChange) {
    // A 15 dB drop with the noise going from 0.6 to 6 dB: EnvAware confirms
    // the change and both paths open a second Gamma segment.
    const auto walk = l_walk();
    const auto r = expect_streaming_equals_offline(
        stream_config(true), walk_rss(walk, {5.0, 2.0}, 5, 4.0, 15.0, 0.6, 6.0), walk);
    ASSERT_TRUE(r.fit.has_value());
    EXPECT_GE(r.regression_restarts, 1);
    EXPECT_GE(r.fit->segment_gammas.size(), 2u);
}

}  // namespace
}  // namespace locble::serve
