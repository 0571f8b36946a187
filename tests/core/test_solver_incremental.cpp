#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "locble/common/linalg.hpp"
#include "locble/common/rng.hpp"
#include "locble/common/vec2.hpp"
#include "locble/core/location_solver.hpp"

namespace locble::core {
namespace {

using locble::Vec2;

/// Noisy L-shape walk split into `batches` chunks, mimicking the
/// pipeline's per-batch flush pattern (segment id advances midway to
/// exercise the multi-gamma path).
std::vector<std::vector<FusedSample>> batched_walk(const Vec2& target, double gamma,
                                                   double n, int batches,
                                                   double noise_db = 1.5,
                                                   std::uint64_t seed = 7,
                                                   int segment_switch_batch = -1) {
    locble::Rng rng(seed);
    std::vector<FusedSample> all;
    const int per_leg = 24;
    auto add = [&](const Vec2& obs, double t) {
        FusedSample s;
        s.t = t;
        s.p = -obs.x;
        s.q = -obs.y;
        const double l = locble::Vec2::distance(target, obs);
        s.rssi = gamma - 10.0 * n * std::log10(std::max(l, 0.1)) +
                 rng.gaussian(0.0, noise_db);
        all.push_back(s);
    };
    double t = 0.0;
    for (int i = 0; i < per_leg; ++i, t += 0.1)
        add({4.0 * i / (per_leg - 1.0), 0.0}, t);
    for (int i = 0; i < per_leg; ++i, t += 0.1)
        add({4.0, 3.0 * i / (per_leg - 1.0)}, t);

    const auto n_batches = static_cast<std::size_t>(batches);
    std::vector<std::vector<FusedSample>> out(n_batches);
    const std::size_t per_batch = (all.size() + n_batches - 1) / n_batches;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const int b = static_cast<int>(i / per_batch);
        if (segment_switch_batch >= 0 && b >= segment_switch_batch)
            all[i].segment = 1;
        out[static_cast<std::size_t>(b)].push_back(all[i]);
    }
    return out;
}

void expect_bitwise_equal(const LocationFit& a, const LocationFit& b) {
    EXPECT_EQ(a.location.x, b.location.x);
    EXPECT_EQ(a.location.y, b.location.y);
    EXPECT_EQ(a.exponent, b.exponent);
    EXPECT_EQ(a.gamma_dbm, b.gamma_dbm);
    ASSERT_EQ(a.segment_gammas.size(), b.segment_gammas.size());
    for (std::size_t i = 0; i < a.segment_gammas.size(); ++i)
        EXPECT_EQ(a.segment_gammas[i], b.segment_gammas[i]);
    EXPECT_EQ(a.residual_db, b.residual_db);
    EXPECT_EQ(a.confidence, b.confidence);
    EXPECT_EQ(a.ambiguous, b.ambiguous);
}

// The core contract of the incremental Session: in exhaustive mode every
// per-flush solve is bit-identical to a cold start over the accumulated
// samples, across many flushes and noise seeds.
TEST(SolverIncrementalTest, ExhaustiveSessionMatchesColdBitwise) {
    const LocationSolver solver;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        LocationSolver::Session session(solver);
        std::vector<FusedSample> accumulated;
        for (const auto& batch : batched_walk({5.0, 2.0}, -59.0, 2.1, 6, 1.5, seed)) {
            session.add(batch);
            accumulated.insert(accumulated.end(), batch.begin(), batch.end());
            const auto warm = session.solve();
            const auto cold = solver.solve(accumulated);
            ASSERT_EQ(warm.has_value(), cold.has_value()) << "seed " << seed;
            if (warm) expect_bitwise_equal(*warm, *cold);
        }
    }
}

// Same contract with the pipeline's hint pattern: the exponent band
// narrows mid-stream (grid rebuild) and the gamma band moves — the
// incremental state must be rebuilt transparently.
TEST(SolverIncrementalTest, ExhaustiveSessionMatchesColdAcrossHintChanges) {
    const LocationSolver solver;
    LocationSolver::Session session(solver);
    std::vector<FusedSample> accumulated;
    int flush = 0;
    for (const auto& batch : batched_walk({4.5, -1.5}, -62.0, 2.4, 6)) {
        session.add(batch);
        accumulated.insert(accumulated.end(), batch.begin(), batch.end());
        SolveHints hints;
        if (flush >= 2) hints.exponent_band = {{1.8, 3.2}};
        if (flush >= 4) hints.exponent_band = {{2.0, 2.8}};
        if (flush >= 3) hints.gamma_band_dbm = {{-75.0, -50.0}};
        const auto warm = session.solve(hints);
        const auto cold = solver.solve(accumulated, hints);
        ASSERT_EQ(warm.has_value(), cold.has_value()) << "flush " << flush;
        if (warm) expect_bitwise_equal(*warm, *cold);
        ++flush;
    }
}

// Segment growth mid-stream (the pipeline's regression restart) extends
// the per-segment gamma vector; incremental must still match cold.
TEST(SolverIncrementalTest, ExhaustiveSessionMatchesColdWithSegmentGrowth) {
    const LocationSolver solver;
    LocationSolver::Session session(solver);
    std::vector<FusedSample> accumulated;
    for (const auto& batch :
         batched_walk({5.0, 2.0}, -59.0, 2.0, 6, 1.0, 3, /*segment_switch_batch=*/3)) {
        session.add(batch);
        accumulated.insert(accumulated.end(), batch.begin(), batch.end());
        const auto warm = session.solve();
        const auto cold = solver.solve(accumulated);
        ASSERT_EQ(warm.has_value(), cold.has_value());
        if (warm) {
            expect_bitwise_equal(*warm, *cold);
            EXPECT_EQ(warm->segment_gammas.size(), cold->segment_gammas.size());
        }
    }
}

// coarse_to_fine trades the exhaustive grid for a coarse scan plus
// hill-descent refinement with warm-started GN. It must stay within
// tolerance of the exhaustive fit (the bench gate asserts < 1% on the
// paper metrics; here we check the solver-level quantities directly).
TEST(SolverIncrementalTest, CoarseToFineWithinToleranceOfExhaustive) {
    LocationSolver::Config coarse_cfg;
    coarse_cfg.search_mode = LocationSolver::SearchMode::coarse_to_fine;
    const LocationSolver exhaustive;
    const LocationSolver coarse(coarse_cfg);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        LocationSolver::Session session(coarse);
        std::vector<FusedSample> accumulated;
        SolveDiagnostics cd{}, ed{};
        std::optional<LocationFit> warm, cold;
        int warm_starts = 0;
        for (const auto& batch : batched_walk({5.0, 2.0}, -59.0, 2.1, 6, 1.5, seed)) {
            session.add(batch);
            accumulated.insert(accumulated.end(), batch.begin(), batch.end());
            warm = session.solve({}, &cd);
            cold = exhaustive.solve(accumulated, {}, &ed);
            warm_starts += cd.warm_starts;
        }
        ASSERT_TRUE(warm.has_value());
        ASSERT_TRUE(cold.has_value());
        EXPECT_NEAR(warm->location.x, cold->location.x, 0.25) << "seed " << seed;
        EXPECT_NEAR(warm->location.y, cold->location.y, 0.25) << "seed " << seed;
        EXPECT_NEAR(warm->exponent, cold->exponent, 0.15) << "seed " << seed;
        // The coarse scan must actually skip work and reuse warm fits.
        EXPECT_LT(cd.exponent_candidates, ed.exponent_candidates);
        EXPECT_GT(warm_starts, 0) << "seed " << seed;
    }
}

// Model averaging blends near-optimal exponent candidates; the branch must
// produce a consistent fit whose residual matches a direct evaluation of
// the averaged parameters.
TEST(SolverIncrementalTest, ModelAveragingBranchIsConsistent) {
    LocationSolver::Config cfg;
    cfg.use_model_averaging = true;
    const LocationSolver averaging(cfg);
    const LocationSolver plain;

    std::vector<FusedSample> samples;
    for (const auto& batch : batched_walk({5.0, 2.0}, -59.0, 2.1, 1, 2.0))
        samples.insert(samples.end(), batch.begin(), batch.end());

    const auto avg = averaging.solve(samples);
    const auto best = plain.solve(samples);
    ASSERT_TRUE(avg.has_value());
    ASSERT_TRUE(best.has_value());
    // Averaging recomputes the residual stats at the blended parameters
    // with the best candidate's gammas — verify against a direct call.
    ASSERT_EQ(avg->segment_gammas.size(), 1u);
    const ResidualStats check =
        residual_stats(samples, avg->location, avg->exponent, avg->segment_gammas[0]);
    EXPECT_EQ(avg->residual_db, check.rms_db);
    EXPECT_EQ(avg->confidence, check.confidence);
    // The blend stays in the neighbourhood of the argmin candidate.
    EXPECT_NEAR(avg->location.x, best->location.x, 1.5);
    EXPECT_NEAR(avg->location.y, best->location.y, 1.5);
    // And averaging in a session matches averaging cold, bitwise.
    LocationSolver::Session session(averaging);
    session.add(samples);
    const auto warm = session.solve();
    ASSERT_TRUE(warm.has_value());
    expect_bitwise_equal(*warm, *avg);
}

// The solver evaluates grid points in chunks whose Gauss-Newton runs share
// lockstep batches, then combines the candidates in grid order. Oracle:
// each grid point solved alone (a hint band holding just its exponent),
// combined by this test in grid order with the strict-`<` argmin and the
// model average — which reads the candidates in order, so any other
// combination order moves its bits.
TEST(SolverIncrementalTest, CandidatesCombineInGridOrder) {
    LocationSolver::Config cfg;
    cfg.use_model_averaging = true;
    const LocationSolver averaging(cfg);
    const LocationSolver plain;
    for (std::uint64_t seed = 21; seed <= 23; ++seed) {
        SCOPED_TRACE(seed);
        std::vector<FusedSample> samples;
        for (const auto& batch : batched_walk({5.0, 2.0}, -59.0, 2.1, 1, 2.5, seed))
            samples.insert(samples.end(), batch.begin(), batch.end());

        // The grid points, enumerated as the solver enumerates them.
        std::vector<LocationFit> fits;
        const double step = plain.config().exponent_step;
        for (double n = LocationSolver::kExponentMin;
             n <= LocationSolver::kExponentMax + 1e-9; n += step) {
            SolveHints hints;
            hints.exponent_band = std::make_pair(n, n);
            const auto fit = plain.solve(samples, hints);
            if (fit) fits.push_back(*fit);
        }
        ASSERT_GT(fits.size(), 10u);
        std::size_t best = 0;
        for (std::size_t i = 1; i < fits.size(); ++i)
            if (fits[i].residual_db < fits[best].residual_db) best = i;
        Vec2 loc_acc{0.0, 0.0};
        double n_acc = 0.0, weight_acc = 0.0;
        int blended = 0;
        for (const auto& c : fits) {
            if (c.residual_db > fits[best].residual_db * 1.15 + 1e-9) continue;
            if (c.ambiguous != fits[best].ambiguous) continue;
            const double w = 1.0 / std::max(c.residual_db, 1e-6);
            loc_acc += c.location * w;
            n_acc += c.exponent * w;
            weight_acc += w;
            ++blended;
        }
        ASSERT_GT(blended, 3);  // enough candidates for the order to matter
        const Vec2 want_loc = loc_acc / weight_acc;
        const double want_n = n_acc / weight_acc;

        const auto argmin = plain.solve(samples);
        ASSERT_TRUE(argmin.has_value());
        expect_bitwise_equal(*argmin, fits[best]);
        const auto avg = averaging.solve(samples);
        ASSERT_TRUE(avg.has_value());
        EXPECT_EQ(avg->location.x, want_loc.x);
        EXPECT_EQ(avg->location.y, want_loc.y);
        EXPECT_EQ(avg->exponent, want_n);
        ASSERT_EQ(avg->segment_gammas.size(), 1u);
        EXPECT_EQ(avg->segment_gammas[0], fits[best].segment_gammas[0]);
    }
}

// A workspace is reusable across unrelated problems: a cold solve resets
// all incremental state, so results equal the plain allocating overload,
// and repeated same-shape solves stop growing the buffers.
TEST(SolverIncrementalTest, WorkspaceReuseAcrossProblems) {
    const LocationSolver solver;
    SolverWorkspace ws;
    LocationFit out;

    std::vector<FusedSample> a, b;
    for (const auto& batch : batched_walk({5.0, 2.0}, -59.0, 2.0, 1, 1.0, 11))
        a.insert(a.end(), batch.begin(), batch.end());
    for (const auto& batch : batched_walk({2.5, -3.0}, -64.0, 2.6, 1, 1.0, 12))
        b.insert(b.end(), batch.begin(), batch.end());

    ASSERT_TRUE(solver.solve(a, {}, nullptr, ws, out));
    const auto ref_a = solver.solve(a);
    ASSERT_TRUE(ref_a.has_value());
    expect_bitwise_equal(out, *ref_a);

    // Same workspace, different problem: no cross-contamination.
    ASSERT_TRUE(solver.solve(b, {}, nullptr, ws, out));
    const auto ref_b = solver.solve(b);
    ASSERT_TRUE(ref_b.has_value());
    expect_bitwise_equal(out, *ref_b);

    // After warm-up, identical solves must not grow any buffer.
    const std::uint64_t grows = ws.grow_events();
    ASSERT_TRUE(solver.solve(b, {}, nullptr, ws, out));
    ASSERT_TRUE(solver.solve(a, {}, nullptr, ws, out));
    EXPECT_EQ(ws.grow_events(), grows);
}

// The evict-and-recreate path of long-running services (locble::serve):
// a Session that is reset() and refilled with a different problem must be
// bit-identical to a cold Session that only ever saw that problem — no
// incremental state may leak across the reset.
TEST(SolverIncrementalTest, ResetThenRefillMatchesColdBitwise) {
    const LocationSolver solver;
    LocationSolver::Session reused(solver);
    LocationFit out, cold_out;

    // Warm the session on problem A, incrementally, with solves between
    // batches so every piece of warm state (rho powers, normal equations,
    // warm-start fit) is populated.
    for (const auto& batch : batched_walk({5.0, 2.0}, -59.0, 2.0, 4, 1.5, 21)) {
        reused.add(batch);
        reused.solve_into(out);
    }
    ASSERT_GT(reused.size(), 0u);

    reused.reset();
    EXPECT_EQ(reused.size(), 0u);

    // Refill with problem B (different target, gamma, exponent, seed) and
    // compare flush-by-flush against a session born cold.
    LocationSolver::Session cold(solver);
    for (const auto& batch : batched_walk({1.5, -2.5}, -63.0, 2.4, 4, 1.5, 22)) {
        reused.add(batch);
        cold.add(batch);
        const bool r = reused.solve_into(out);
        const bool c = cold.solve_into(cold_out);
        ASSERT_EQ(r, c);
        if (r) expect_bitwise_equal(out, cold_out);
    }
    EXPECT_EQ(reused.size(), cold.size());

    // And a second reset keeps working.
    reused.reset();
    EXPECT_EQ(reused.size(), 0u);
}

// The flat linalg twins must reproduce the allocating versions bitwise —
// that equivalence is what keeps the workspace solver's linear algebra
// identical to the historical implementation.
TEST(SolverIncrementalTest, FlatLinalgTwinsAreBitIdentical) {
    locble::Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 12, m = 4;
        locble::Matrix x(n, std::vector<double>(m));
        std::vector<double> y(n);
        std::vector<double> xf(n * m);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < m; ++j)
                xf[i * m + j] = x[i][j] = rng.gaussian(0.0, 3.0);
            y[i] = rng.gaussian(0.0, 1.0);
        }
        const auto beta_ref = locble::least_squares(x, y);
        double beta[4], ata[16], atb[4], scale[4];
        ASSERT_TRUE(
            locble::least_squares_flat(xf.data(), y.data(), n, m, beta, ata, atb, scale));
        for (std::size_t j = 0; j < m; ++j) EXPECT_EQ(beta[j], beta_ref[j]);
    }
}

}  // namespace
}  // namespace locble::core
