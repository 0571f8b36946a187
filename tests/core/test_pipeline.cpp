#include "locble/core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "locble/common/cdf.hpp"
#include "locble/common/rng.hpp"

namespace locble::core {
namespace {

using locble::Vec2;

/// Hand-built motion estimate for an ideal L-shaped walk: leg1 4 m along
/// +x over t in [0,4], leg2 3 m along +y over t in [5,8].
motion::MotionEstimate ideal_l_motion() {
    motion::MotionEstimate m;
    for (int i = 0; i <= 40; ++i) m.path.push_back({0.1 * i, {0.1 * i, 0.0}});
    for (int i = 0; i <= 30; ++i) m.path.push_back({5.0 + 0.1 * i, {4.0, 0.1 * i}});
    return m;
}

/// RSS series for a stationary target at `target` along that walk.
locble::TimeSeries rss_for(const Vec2& target, double gamma, double n,
                           double noise_db, std::uint64_t seed) {
    const auto motion = ideal_l_motion();
    locble::Rng rng(seed);
    locble::TimeSeries ts;
    for (double t = 0.0; t <= 8.0; t += 0.1) {
        const Vec2 obs = motion.position_at(t);
        const double l = std::max(locble::Vec2::distance(target, obs), 0.1);
        ts.push_back({t, gamma - 10.0 * n * std::log10(l) +
                             (noise_db > 0 ? rng.gaussian(0.0, noise_db) : 0.0)});
    }
    return ts;
}

LocBle::Config no_env_config() {
    LocBle::Config cfg;
    cfg.use_envaware = false;
    return cfg;
}

TEST(LocBleTest, RequiresTrainedEnvAwareWhenEnabled) {
    LocBle::Config cfg;
    cfg.use_envaware = true;
    EXPECT_THROW(LocBle(cfg, std::nullopt), std::invalid_argument);
    EXPECT_THROW(LocBle(cfg, EnvAware{}), std::invalid_argument);  // untrained
}

TEST(LocBleTest, LocatesStationaryTargetCleanSignal) {
    const Vec2 target{5.0, 2.5};
    const LocBle pipeline(no_env_config());
    const auto result =
        pipeline.locate(rss_for(target, -59.0, 2.0, 0.0, 1), ideal_l_motion());
    ASSERT_TRUE(result.fit.has_value());
    EXPECT_NEAR(result.fit->location.x, 5.0, 0.3);
    EXPECT_NEAR(result.fit->location.y, 2.5, 0.3);
    EXPECT_EQ(result.regression_restarts, 0);
    EXPECT_GT(result.samples_used, 50u);
}

TEST(LocBleTest, LocatesUnderNoise) {
    const Vec2 target{6.0, 3.0};
    const LocBle pipeline(no_env_config());
    double errsum = 0.0;
    int count = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto result =
            pipeline.locate(rss_for(target, -59.0, 2.0, 2.5, seed), ideal_l_motion());
        ASSERT_TRUE(result.fit.has_value());
        errsum += locble::Vec2::distance(result.fit->location, target);
        ++count;
    }
    EXPECT_LT(errsum / count, 2.1);  // ANF + regression under 2.5 dB noise
}

TEST(LocBleTest, AnfAblationDegradesAccuracy) {
    // Fig. 5's story: removing ANF costs accuracy. Medians over seeds keep
    // the comparison robust to the occasional diverged fit on raw data.
    const Vec2 target{6.0, 3.0};
    LocBle::Config with = no_env_config();
    LocBle::Config without = no_env_config();
    without.use_anf = false;
    std::vector<double> err_with, err_without;
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
        const auto rss = rss_for(target, -59.0, 2.0, 2.5, seed);
        const auto rw = LocBle(with).locate(rss, ideal_l_motion());
        const auto rwo = LocBle(without).locate(rss, ideal_l_motion());
        err_with.push_back(
            rw.fit ? locble::Vec2::distance(rw.fit->location, target) : 10.0);
        err_without.push_back(
            rwo.fit ? locble::Vec2::distance(rwo.fit->location, target) : 10.0);
    }
    const locble::EmpiricalCdf cdf_with(err_with);
    const locble::EmpiricalCdf cdf_without(err_without);
    // The robust dB-domain solver absorbs most of what ANF used to buy at
    // the estimate level (EXPERIMENTS.md, deviation D1); ANF must still
    // never *hurt*. Its denoising behaviour proper is validated in the DSP
    // suite.
    EXPECT_LE(cdf_with.median(), cdf_without.median() + 0.15);
}

TEST(LocBleTest, EmptyRssGivesNoFit) {
    const LocBle pipeline(no_env_config());
    const auto result = pipeline.locate({}, ideal_l_motion());
    EXPECT_FALSE(result.fit.has_value());
}

TEST(LocBleTest, MovingTargetFrameAlignment) {
    // Target moves +0.25 m/s along observer-frame -y, starting at (6, 2).
    // Its own dead-reckoning frame is rotated by -pi/2 (its +x is our -y).
    const Vec2 target0{6.0, 2.0};
    const Vec2 vel{0.0, -0.25};

    const auto obs_motion = ideal_l_motion();
    motion::MotionEstimate tgt_motion;  // in the TARGET's local frame
    for (double t = 0.0; t <= 8.0; t += 0.1) {
        const Vec2 disp_observer_frame = vel * t;
        // Target frame = observer frame rotated by +pi/2, so displacement in
        // target frame = R(-pi/2) * disp.
        tgt_motion.path.push_back(
            {t, disp_observer_frame.rotated(-std::numbers::pi / 2.0)});
    }

    const LocBle pipeline(no_env_config());
    std::vector<double> errors;
    for (std::uint64_t seed = 1; seed <= 7; ++seed) {
        locble::Rng rng(seed);
        locble::TimeSeries rss;
        for (double t = 0.0; t <= 8.0; t += 0.1) {
            const Vec2 obs = obs_motion.position_at(t);
            const Vec2 tgt = target0 + vel * t;
            const double l = std::max(locble::Vec2::distance(tgt, obs), 0.1);
            rss.push_back({t, -59.0 - 20.0 * std::log10(l) + rng.gaussian(0.0, 0.8)});
        }
        const auto result =
            pipeline.locate(rss, obs_motion, tgt_motion, std::numbers::pi / 2.0);
        ASSERT_TRUE(result.fit.has_value());
        errors.push_back(locble::Vec2::distance(result.fit->location, target0));
    }
    // Moving targets are weakly identifiable; the paper reports <2.5 m for
    // more than half of its moving-target runs (Sec. 7.4.2).
    EXPECT_LT(locble::EmpiricalCdf(errors).median(), 2.5);
}

TEST(RotateMotionTest, RotatesEveryPathPoint) {
    motion::MotionEstimate m;
    m.path = {{0.0, {1.0, 0.0}}, {1.0, {0.0, 2.0}}};
    const auto r = rotate_motion(m, std::numbers::pi / 2.0);
    EXPECT_NEAR(r.path[0].position.x, 0.0, 1e-12);
    EXPECT_NEAR(r.path[0].position.y, 1.0, 1e-12);
    EXPECT_NEAR(r.path[1].position.x, -2.0, 1e-12);
    EXPECT_NEAR(r.path[1].position.y, 0.0, 1e-12);
}

TEST(LocBleTest, WindowClassesReportedWithEnvAware) {
    // Train a tiny EnvAware and check the pipeline reports per-batch classes.
    locble::Rng rng(20);
    EnvDatasetConfig dcfg;
    dcfg.traces_per_class = 15;
    EnvAware env;
    env.train(generate_env_dataset(dcfg, rng));

    LocBle::Config cfg;
    cfg.use_envaware = true;
    const LocBle pipeline(cfg, std::move(env));
    const auto result =
        pipeline.locate(rss_for({5.0, 2.0}, -59.0, 2.0, 1.0, 4), ideal_l_motion());
    // 8 s of data in 2 s batches -> ~4 classified windows.
    EXPECT_GE(result.window_classes.size(), 3u);
    // Diagnostics mirror the classified windows.
    EXPECT_EQ(result.diagnostics.envaware_windows,
              static_cast<int>(result.window_classes.size()));
}

TEST(LocBleTest, DiagnosticsAccountForEveryBatchAndSolve) {
    const LocBle pipeline(no_env_config());
    const auto rss = rss_for({5.0, 2.5}, -59.0, 2.0, 0.0, 1);
    const auto result = pipeline.locate(rss, ideal_l_motion());
    ASSERT_TRUE(result.fit.has_value());

    const auto& d = result.diagnostics;
    // One solve per flushed batch, and every input sample lands in exactly
    // one batch.
    EXPECT_EQ(d.solver_calls, static_cast<int>(d.batch_samples.size()));
    EXPECT_GE(d.solver_calls, 3);  // 8 s walk in 2 s batches
    std::size_t batched = 0;
    for (const std::size_t n : d.batch_samples) batched += n;
    EXPECT_EQ(batched, rss.size());
    // The solver walked its exponent grid and a clean signal converges.
    EXPECT_GT(d.solver_candidates, 0);
    EXPECT_LE(d.solver_failures, d.solver_candidates);
    EXPECT_EQ(d.convergence_failures, 0);
    EXPECT_EQ(d.envaware_windows, 0);  // EnvAware disabled in this config
}

TEST(LocBleTest, DiagnosticsReportConvergenceFailures) {
    const LocBle pipeline(no_env_config());
    // Two RSS samples make one under-determined batch: no fit, and the
    // failure must be visible in the diagnostics.
    locble::TimeSeries rss{{0.0, -60.0}, {0.1, -61.0}};
    const auto result = pipeline.locate(rss, ideal_l_motion());
    EXPECT_FALSE(result.fit.has_value());
    EXPECT_EQ(result.diagnostics.solver_calls, result.diagnostics.convergence_failures);
    EXPECT_GE(result.diagnostics.convergence_failures, 1);
}

// ---------------------------------------------------------------------------
// BatchLoop::close at far-future times: the batch end jumps instead of
// walking, with the walk's own result.

/// The walk close() used to take, verbatim.
double walk_batch_end(double end, double t) {
    while (t > end) end += BatchLoop::kBatchSeconds;
    return end;
}

TEST(BatchLoopTest, BatchEndAfterMatchesTheWalk) {
    locble::Rng rng(29);
    const auto check = [](double end, double t) {
        ASSERT_EQ(BatchLoop::batch_end_after(end, t), walk_batch_end(end, t))
            << std::hexfloat << "end " << end << " t " << t;
    };
    // Random stream starts and gaps, as the services see them.
    for (int i = 0; i < 20000; ++i) {
        const double end = rng.uniform(-50.0, 1e8);
        check(end, end + rng.uniform(-4.0, 2e4));
    }
    // Every binade crossing from 2 s to 2^53 s, from ends just below the
    // top (fractional, where the crossing step rounds) to t just past it.
    for (int e = 2; e <= 53; ++e) {
        const double top = std::ldexp(1.0, e);
        for (int i = 0; i < 200; ++i)
            check(top - rng.uniform(0.0, 64.0), top + rng.uniform(-8.0, 64.0));
    }
    // Negative starts, up to and across zero.
    for (int i = 0; i < 2000; ++i) {
        const double end = -std::exp(rng.uniform(0.0, std::log(1e6)));
        check(end, end + rng.uniform(0.0, 2e4));
        check(rng.uniform(-8.0, 0.0), rng.uniform(-2.0, 8.0));
    }
    check(0.0, 0.0);
    check(1.0, 1.0);
    check(2.0, 1e-300);
}

TEST(BatchLoopTest, BatchEndAfterIsDefinedWhereTheWalkNeverEnds) {
    // From 2^54 on, end + 2 rounds back to end and the walk never ends:
    // the result is t.
    EXPECT_EQ(BatchLoop::batch_end_after(0x1p54, 0x1p55), 0x1p55);
    EXPECT_EQ(BatchLoop::batch_end_after(0x1p54 - 2.0, 1e17), 1e17);
    EXPECT_EQ(BatchLoop::batch_end_after(-0x1p60, 5.0), 5.0);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(BatchLoop::batch_end_after(10.0, inf), inf);
    // No step when t is not past the end (NaN included).
    EXPECT_EQ(BatchLoop::batch_end_after(10.0, 10.0), 10.0);
    EXPECT_EQ(BatchLoop::batch_end_after(10.0, std::nan("")), 10.0);
}

TEST(BatchLoopTest, FarFutureCloseReturnsAndFlushesOnce) {
    for (const double far : {1e12, 1e15, 1e17}) {
        SCOPED_TRACE(far);
        BatchLoop loop(no_env_config(), nullptr);
        for (int i = 0; i < 10; ++i) {
            FusedSample s;
            s.t = 0.1 * i;
            s.p = 0.3 * i;
            ASSERT_EQ(loop.add(-60.0 - 0.1 * i, s).samples, 0u);
        }
        ASSERT_TRUE(loop.has_open_batch());
        const auto f = loop.close(far);
        EXPECT_EQ(f.samples, 10u);  // one flush, of the whole batch
        EXPECT_FALSE(loop.has_open_batch());
        EXPECT_EQ(loop.size(), 10u);
        // The window now ends at or past `far`: a sample at `far` opens a
        // batch and closes nothing.
        FusedSample s;
        s.t = far;
        EXPECT_EQ(loop.add(-60.0, s).samples, 0u);
        EXPECT_TRUE(loop.has_open_batch());
    }
}

}  // namespace
}  // namespace locble::core
