#include "locble/core/location_solver.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "locble/common/linalg.hpp"
#include "locble/obs/obs.hpp"

namespace locble::core {

namespace {

using KernelMode = LocationSolver::Config::KernelMode;
constexpr std::size_t kW = kernels::kLaneWidth;

/// Bundled structure-of-arrays view of the packed sample stream plus the
/// configured kernel mode — what every per-sample pass dispatches on. The
/// pointers alias SolverWorkspace::soa_* (packed in solve_impl) and are
/// valid for the same count as the AoS span.
struct SoaView {
    const double* p;
    const double* q;
    const double* rssi;
    const int* seg;
    KernelMode mode;
};

/// Residual statistics with per-segment gammas. One prediction pass over
/// the samples (residuals parked in `resid_buf`, sized >= count by the
/// caller) plus one cheap pass for the centered second moment — no
/// temporary vector, no allocation. The single-segment case runs through
/// the lane kernels (or their scalar-reference twins — bit-identical by
/// the solver_kernels.hpp contract). With several segments the lane path
/// computes the residuals in the multi-segment element kernel and folds
/// them in index order, the same sums as the AoS loop.
ResidualStats residual_stats_kernel(const FusedSample* samples, std::size_t count,
                                    const locble::Vec2& location, double exponent,
                                    const double* gammas, int k, double* resid_buf,
                                    const SoaView& soa) {
    ResidualStats out;
    if (count == 0) return out;
    double sum = 0.0, ss = 0.0;
    if (k == 1) {
        double m2;
        if (soa.mode == KernelMode::lanes) {
            kernels::residual2_lanes<kW>(soa.p, soa.q, soa.rssi, count, location.x,
                                         location.y, gammas[0], exponent, resid_buf,
                                         sum, ss);
            m2 = kernels::centered_m2_lanes<kW>(resid_buf, count,
                                                sum / static_cast<double>(count));
        } else {
            kernels::residual2_ref(samples, count, location.x, location.y,
                                   gammas[0], exponent, resid_buf, sum, ss);
            m2 = kernels::centered_m2_ref(resid_buf, count,
                                          sum / static_cast<double>(count));
        }
        return residual_stats_from_moments(count, sum, ss, m2);
    }
    if (soa.mode == KernelMode::lanes) {
        kernels::residual_seg_lanes<kW>(soa.p, soa.q, soa.rssi, soa.seg, count,
                                        location.x, location.y, gammas, k, exponent,
                                        resid_buf);
        for (std::size_t i = 0; i < count; ++i) {
            sum += resid_buf[i];
            ss += resid_buf[i] * resid_buf[i];
        }
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            const auto& s = samples[i];
            const double dx = location.x + s.p;
            const double dy = location.y + s.q;
            const double g =
                gammas[static_cast<std::size_t>(std::min(s.segment, k - 1))];
            const double r = s.rssi - predict_rssi_db(g, exponent, dx * dx + dy * dy);
            resid_buf[i] = r;
            sum += r;
            ss += r * r;
        }
    }
    const double mean = sum / static_cast<double>(count);
    double m2 = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        const double d = resid_buf[i] - mean;
        m2 += d * d;
    }
    return residual_stats_from_moments(count, sum, ss, m2);
}

}  // namespace

ResidualStats residual_stats_from_moments(std::size_t count, double sum, double ss,
                                          double m2) {
    ResidualStats out;
    out.mean_db = sum / static_cast<double>(count);
    out.stddev_db = std::sqrt(m2 / static_cast<double>(count));
    out.rms_db = std::sqrt(ss / static_cast<double>(count));
    const double sigma = std::max(out.stddev_db, 1e-6);
    out.confidence = std::exp(-(out.mean_db * out.mean_db) / (2.0 * sigma * sigma));
    return out;
}

ResidualStats residual_stats(const std::vector<FusedSample>& samples,
                             const locble::Vec2& location, double exponent,
                             double gamma_dbm) {
    std::vector<double> resid(samples.size());
    const double gammas[1] = {gamma_dbm};
    // No packed SoA mirror here; the scalar-reference twin reads the AoS
    // span directly and is bit-identical to the lane kernels the solver's
    // internal scoring uses — so stats computed here EXPECT_EQ-match the
    // solver's reported residual_db.
    const SoaView soa{nullptr, nullptr, nullptr, nullptr, KernelMode::scalar_reference};
    return residual_stats_kernel(samples.data(), samples.size(), location, exponent,
                                 gammas, 1, resid.data(), soa);
}

std::pair<double, double> exponent_band_for(channel::PropagationClass cls) {
    switch (cls) {
        case channel::PropagationClass::los: return {1.6, 2.4};
        case channel::PropagationClass::plos: return {2.1, 3.1};
        case channel::PropagationClass::nlos: return {2.7, 4.2};
    }
    return {LocationSolver::kExponentMin, LocationSolver::kExponentMax};
}

void LocationSolver::evaluate_points(SolverWorkspace& ws, SolverWorkspace::PointEval* pts,
                                     std::size_t m, const FusedSample* samples,
                                     std::size_t count, bool lateral_ok, double gamma_min,
                                     double gamma_max, int k, double mean_rssi,
                                     bool try_warm) const {
    const std::size_t uk = static_cast<std::size_t>(k);
    const SoaView soa{ws.soa_p.data(), ws.soa_q.data(), ws.soa_rssi.data(),
                      ws.soa_seg.data(), cfg_.kernel_mode};
    double* const scratch = ws.gn_scratch.data();

    // The Gauss-Newton runs of one stage, up to kAccLanes of them, advance
    // in lockstep (or, in scalar_reference mode, one after another through
    // the AoS twins); owner[j] is the point run j belongs to.
    kernels::GnBatch batch;
    batch.k = uk;
    batch.gamma_min = gamma_min;
    batch.gamma_max = gamma_max;
    batch.gammas = ws.run_gammas.data();
    std::size_t owner[kernels::kAccLanes];
    const auto add_run = [&](std::size_t pi, const locble::Vec2& start) {
        const std::size_t j = batch.runs++;
        owner[j] = pi;
        batch.x[j] = start.x;
        batch.h[j] = start.y;
        batch.exponent[j] = ws.grid[pts[pi].gi].n;
        return j;
    };
    const auto run_batch = [&](bool seeded) {
        if (soa.mode == KernelMode::lanes) {
            if (seeded)
                kernels::seed_lockstep<kW>(soa.p, soa.q, soa.rssi, soa.seg, count, batch,
                                           scratch);
            if (cfg_.use_gn_refinement)
                kernels::gn_lockstep<kW>(soa.p, soa.q, soa.rssi, soa.seg, count, batch,
                                         scratch);
        } else {
            if (seeded) kernels::seed_lockstep_ref(samples, count, batch, scratch);
            if (cfg_.use_gn_refinement)
                kernels::gn_lockstep_ref(samples, count, batch, scratch);
        }
    };
    const auto point_gammas = [&](std::size_t pi) {
        return ws.point_gammas.data() + pi * uk;
    };

    // Plausibility screen: discard non-physical attempts so a noise-
    // favoured exponent cannot launch the target outside radio range.
    const auto plausible = [&](const locble::Vec2& loc, const double* gammas) {
        if (loc.norm() > kMaxRangeM) return false;
        for (std::size_t s = 0; s < uk; ++s)
            if (gammas[s] < gamma_min - 1e-9 || gammas[s] > gamma_max + 1e-9)
                return false;
        return true;
    };
    // Offer run j's fit to its point, which keeps the best *plausible*
    // attempt (`improve`: only one with a lower RMS than it holds).
    const auto offer = [&](std::size_t j, bool improve) {
        auto& pe = pts[owner[j]];
        const locble::Vec2 loc{batch.x[j], batch.h[j]};
        const double* gammas = batch.gammas + j * uk;
        if (!plausible(loc, gammas)) return false;
        const ResidualStats st = residual_stats_kernel(samples, count, loc,
                                                       batch.exponent[j], gammas, k,
                                                       ws.resid.data(), soa);
        if (improve && !(st.rms_db < pe.best_rms)) return true;
        pe.best_rms = st.rms_db;
        pe.best_confidence = st.confidence;
        pe.best_loc = loc;
        std::copy_n(gammas, uk, point_gammas(owner[j]));
        return true;
    };

    // Warm starts (coarse_to_fine sessions): Gauss-Newton seeded from the
    // previous flush's fit at the grid point. The carried gammas are
    // re-clamped to the current band and extended if new environment
    // segments appeared since. An implausible result falls back to the
    // cold evaluation below.
    batch.runs = 0;
    for (std::size_t pi = 0; pi < m; ++pi) {
        auto& pe = pts[pi];
        const auto& gp = ws.grid[pe.gi];
        if (!(try_warm && gp.has_fit)) {
            pe.cold = true;
            continue;
        }
        pe.warm = true;
        const std::size_t j = add_run(pi, gp.warm_loc);
        const std::size_t have = gp.warm_gammas.size();
        for (std::size_t s = 0; s < uk; ++s) {
            const double g = s < have ? gp.warm_gammas[s]
                                      : (have > 0 ? gp.warm_gammas[have - 1]
                                                  : 0.5 * (gamma_min + gamma_max));
            batch.gammas[j * uk + s] = std::clamp(g, gamma_min, gamma_max);
        }
    }
    run_batch(/*seeded=*/false);
    for (std::size_t j = 0; j < batch.runs; ++j)
        if (!offer(j, /*improve=*/false)) pts[owner[j]].cold = true;

    // Cold evaluation, first the linear elliptical seed (paper Eq. 3) on
    // all samples with a single Gamma; rho is exponential in RSS, so dB
    // noise becomes multiplicative. Weighting rows by 1/rho_i minimizes
    // relative error — the first-order equivalent of fitting in the dB
    // domain, in the same linear form.
    //
    // The normal equations are folded incrementally: raw row products
    // accumulate append-only per grid point, and the conditioning scales (a
    // running per-column max) are divided out of the m x m aggregate at
    // solve time. Plain LS (ablation) keeps the paper's raw Eq. 3 rows,
    // uniformly scaled by 1/rho_scale — which factors out of the sums, so
    // the same raw folds serve both modes.
    //
    // rho_i = eta^RSSI_i (the only exponent-dependent per-sample quantity)
    // is computed inside the fold; only the once-per-session refold, when
    // the walk first gains lateral spread, computes a sample's rho twice,
    // and rho_scale's running max is unmoved by it.
    batch.runs = 0;
    for (std::size_t pi = 0; pi < m; ++pi) {
        auto& pe = pts[pi];
        if (!pe.cold) continue;
        auto& gp = ws.grid[pe.gi];
        // A sticky rho failure marks the exponent degenerate.
        if (gp.rho_bad) {
            pe.failed = true;
            continue;
        }
        const std::size_t mm = lateral_ok ? 4 : 3;
        if (gp.ls_count == 0 || gp.ls_lateral != lateral_ok) {
            std::fill_n(gp.ls_ata, 16, 0.0);
            std::fill_n(gp.ls_atb, 4, 0.0);
            std::fill_n(gp.ls_max, 4, 0.0);
            gp.ls_count = 0;
            gp.ls_lateral = lateral_ok;
        }
        for (std::size_t i = gp.ls_count; i < count; ++i) {
            const auto& s = samples[i];
            const double rho = std::pow(gp.eta, s.rssi);
            if (!(rho > 0.0) || !std::isfinite(rho)) {
                gp.rho_bad = true;
                break;
            }
            gp.rho_scale = std::max(gp.rho_scale, rho);
            const double u = cfg_.use_wls ? 1.0 / rho : 1.0;
            double row[4];
            if (lateral_ok) {
                row[0] = (s.p * s.p + s.q * s.q) * u;
                row[1] = s.p * u;
                row[2] = s.q * u;
                row[3] = u;
            } else {
                row[0] = s.p * s.p * u;
                row[1] = s.p * u;
                row[2] = u;
            }
            const double t = cfg_.use_wls ? 1.0 : rho;
            for (std::size_t j = 0; j < mm; ++j) {
                gp.ls_max[j] = std::max(gp.ls_max[j], std::abs(row[j]));
                gp.ls_atb[j] += row[j] * t;
                for (std::size_t jk = j; jk < mm; ++jk)
                    gp.ls_ata[j * 4 + jk] += row[j] * row[jk];
            }
        }
        if (gp.rho_bad) {
            pe.failed = true;
            continue;
        }
        gp.ls_count = count;

        // x_ij = raw_ij * f with f the uniform mode factor; dividing the
        // aggregates by f-adjusted column scales reproduces the scaled
        // normal equations of locble::least_squares.
        const double f = cfg_.use_wls ? 1.0 : 1.0 / gp.rho_scale;
        const double f2 = f * f;
        double scale[4];
        for (std::size_t j = 0; j < mm; ++j) {
            scale[j] = gp.ls_max[j] * f;
            if (scale[j] < 1e-300) scale[j] = 1.0;
        }
        for (std::size_t j = 0; j < mm; ++j) {
            ws.atb[j] = f2 * gp.ls_atb[j] / scale[j];
            for (std::size_t jk = j; jk < mm; ++jk)
                ws.ata[j * mm + jk] = f2 * gp.ls_ata[j * 4 + jk] / (scale[j] * scale[jk]);
        }
        for (std::size_t j = 0; j < mm; ++j)
            for (std::size_t jk = 0; jk < j; ++jk)
                ws.ata[j * mm + jk] = ws.ata[jk * mm + j];

        bool linear_seed_ok =
            count >= mm && locble::solve_linear_flat(ws.ata, ws.atb, ws.beta, mm);
        if (linear_seed_ok)
            for (std::size_t j = 0; j < mm; ++j) ws.beta[j] /= scale[j];
        if (linear_seed_ok && !(ws.beta[0] > 0.0))
            linear_seed_ok = false;  // eps = 1/A > 0

        // The linear seed when it exists, plus multi-start Gauss-Newton
        // from the level-implied range when it does not (weak quadratic
        // excitation makes the linear system lose the sign of A) or when
        // its refinement ran away.
        pe.gamma_seed = 0.5 * (gamma_min + gamma_max);
        if (!linear_seed_ok) continue;
        const double a = ws.beta[0];
        const double eps = 1.0 / a;
        pe.gamma_seed = std::clamp(5.0 * gp.n * std::log10(eps), gamma_min, gamma_max);
        locble::Vec2 start;
        if (lateral_ok) {
            start = {ws.beta[1] / (2.0 * a), ws.beta[2] / (2.0 * a)};
        } else {
            const double x0 = ws.beta[1] / (2.0 * a);
            const double g = ws.beta[2];
            const double h2 = g * eps - x0 * x0;
            start = {x0, std::sqrt(std::max(h2, 0.0))};
        }
        batch.gamma_seed[add_run(pi, start)] = pe.gamma_seed;
    }
    run_batch(/*seeded=*/true);
    for (std::size_t j = 0; j < batch.runs; ++j) offer(j, /*improve=*/true);

    // Multi-start: eight bearings at the level-implied range, one batch per
    // point, offered in bearing order.
    for (std::size_t pi = 0; pi < m; ++pi) {
        auto& pe = pts[pi];
        if (!pe.cold || pe.failed || pe.best_rms < 1e300) continue;
        pe.multistart = true;
        const double exponent = ws.grid[pe.gi].n;
        const double d0 = std::clamp(
            std::pow(10.0, (pe.gamma_seed - mean_rssi) / (10.0 * exponent)), 0.5,
            kMaxRangeM);
        constexpr int kBearings = 8;
        static_assert(kBearings <= static_cast<int>(kernels::kAccLanes));
        batch.runs = 0;
        for (int b = 0; b < kBearings; ++b) {
            const double angle = 2.0 * std::numbers::pi * b / kBearings;
            batch.gamma_seed[add_run(pi, locble::unit_from_angle(angle) * d0)] =
                pe.gamma_seed;
        }
        run_batch(/*seeded=*/true);
        for (std::size_t j = 0; j < batch.runs; ++j) offer(j, /*improve=*/true);
        if (pe.best_rms >= 1e300) pe.failed = true;
    }

    for (std::size_t pi = 0; pi < m; ++pi) {
        auto& pe = pts[pi];
        if (pe.failed) continue;
        auto& slot = pe.slot;
        slot.exponent = ws.grid[pe.gi].n;
        slot.raw_loc = pe.best_loc;
        slot.loc = pe.best_loc;
        slot.ambiguous = !lateral_ok;
        slot.multistart = pe.multistart;
        if (slot.ambiguous) slot.loc.y = std::abs(slot.loc.y);
        slot.score = pe.best_rms;
        slot.confidence = pe.best_confidence;
        // The winning attempt already evaluated the residuals at this exact
        // (loc, gammas); recompute only when the ambiguity convention
        // actually moved the location.
        if (slot.loc.y != pe.best_loc.y) {
            const ResidualStats stats =
                residual_stats_kernel(samples, count, slot.loc, slot.exponent,
                                      point_gammas(pi), k, ws.resid.data(), soa);
            slot.score = stats.rms_db;
            slot.confidence = stats.confidence;
        }
        slot.residual_db = slot.score;
    }
}

void SolverWorkspace::rebuild_grid(double n_min, double n_max, double step) {
    std::size_t points = 0;
    for (double n = n_min; n <= n_max + 1e-9; n += step) ++points;
    ensure_size(grid, points);
    std::size_t idx = 0;
    for (double n = n_min; n <= n_max + 1e-9; n += step) {
        auto& gp = grid[idx++];
        gp.n = n;
        gp.eta = std::pow(10.0, -1.0 / (5.0 * n));
        gp.rho_scale = 0.0;
        gp.rho_bad = false;
        gp.ls_count = 0;
        gp.has_fit = false;
    }
    grid_valid = true;
    grid_n_min = n_min;
    grid_n_max = n_max;
    grid_step = step;
}

bool LocationSolver::solve_impl(const FusedSample* samples, std::size_t count,
                                const SolveHints& hints, SolveDiagnostics* diag,
                                SolverWorkspace& ws, LocationFit& out,
                                bool incremental) const {
    LOCBLE_SPAN("solver.solve");
    LOCBLE_COUNT("solver.solve_calls", 1);
    if (diag) *diag = SolveDiagnostics{};
    if (!incremental || count < ws.agg_count) ws.invalidate();
    const std::uint64_t grows_before = ws.grow_events_;
    if (count < kMinSamples) {
        LOCBLE_COUNT("solver.too_few_samples", 1);
        return false;
    }

    // Fold samples added since the previous solve into the running
    // aggregates (same left-to-right folds a cold start performs, so the
    // values are bit-identical either way).
    if (ws.agg_count == 0 && count > 0) ws.q_min = ws.q_max = samples[0].q;
    if (ws.agg_count < count)
        LOCBLE_COUNT("solver.samples_folded", count - ws.agg_count);
    // Pack the structure-of-arrays mirror alongside the aggregate fold:
    // the lane kernels (solver_kernels.hpp) stream these contiguous
    // arrays. Append-only like every other per-sample aggregate.
    ws.ensure_size(ws.soa_p, count);
    ws.ensure_size(ws.soa_q, count);
    ws.ensure_size(ws.soa_rssi, count);
    ws.ensure_size(ws.soa_seg, count);
    for (std::size_t i = ws.agg_count; i < count; ++i) {
        const auto& s = samples[i];
        ws.seg_k = std::max(ws.seg_k, s.segment + 1);
        ws.q_min = std::min(ws.q_min, s.q);
        ws.q_max = std::max(ws.q_max, s.q);
        ws.rssi_sum += s.rssi;
        ws.soa_p[i] = s.p;
        ws.soa_q[i] = s.q;
        ws.soa_rssi[i] = s.rssi;
        ws.soa_seg[i] = s.segment;
    }
    ws.agg_count = count;

    // Is there usable lateral (q) excitation, or is the walk effectively 1-D?
    const bool lateral_ok = (ws.q_max - ws.q_min) >= kMinLateralSpread;
    const int k = ws.seg_k;
    const double mean_rssi = ws.rssi_sum / static_cast<double>(count);

    double n_min = kExponentMin;
    double n_max = kExponentMax;
    if (hints.exponent_band) {
        n_min = std::max(n_min, hints.exponent_band->first);
        n_max = std::min(n_max, hints.exponent_band->second);
    }
    double gamma_min = kGammaMinDbm;
    double gamma_max = kGammaMaxDbm;
    if (hints.gamma_band_dbm) {
        gamma_min = std::max(gamma_min, hints.gamma_band_dbm->first);
        gamma_max = std::min(gamma_max, hints.gamma_band_dbm->second);
    }

    // (Re)build the exponent grid when the hint-narrowed band changed; the
    // per-point incremental state (normal-equation folds, warm fits)
    // survives as long as the grid does.
    if (!ws.grid_valid || ws.grid_n_min != n_min || ws.grid_n_max != n_max ||
        ws.grid_step != cfg_.exponent_step) {
        ws.rebuild_grid(n_min, n_max, cfg_.exponent_step);
        LOCBLE_COUNT("solver.grid_rebuilds", 1);
    }
    const std::size_t grid_size = ws.grid.size();

    // Size the flat scratch once per solve (no-ops after warm-up).
    const std::size_t uk = static_cast<std::size_t>(k);
    ws.ensure_size(ws.run_gammas, kernels::kAccLanes * uk);
    ws.ensure_size(ws.point_gammas, kernels::kAccLanes * uk);
    ws.ensure_size(ws.gn_scratch, kernels::lockstep_scratch_size(uk));
    ws.ensure_size(ws.best_gammas, uk);
    ws.ensure_size(ws.resid, count);
    ws.ensure_size(ws.evaluated, grid_size);
    std::fill(ws.evaluated.begin(), ws.evaluated.end(), std::uint8_t{0});
    ws.candidates.clear();
    if (ws.candidates.capacity() < grid_size) {
        ++ws.grow_events_;
        ws.candidates.reserve(grid_size);
    }

    const bool coarse = cfg_.search_mode == SearchMode::coarse_to_fine;
    int grid_points = 0, failures = 0, multistarts = 0, warm_starts = 0;
    double best_score = 1e300;
    int best_idx = -1;

    // Grid points are queued in the serial evaluation order and evaluated
    // in chunks of up to kAccLanes (their Gauss-Newton runs share lockstep
    // batches); each chunk's outcomes are then folded in queue order, so
    // the candidates, the strict `<` argmin, the warm grid and every count
    // are those of evaluating the points one at a time. Batching the warm
    // and seed starts across points, not only each point's bearings, is
    // worth +13% fleet_replay and +16% standby_long_walk throughput
    // (docs/PERFORMANCE.md).
    SolverWorkspace::PointEval chunk[kernels::kAccLanes];
    std::size_t queued = 0;
    const auto flush_chunk = [&] {
        evaluate_points(ws, chunk, queued, samples, count, lateral_ok, gamma_min,
                        gamma_max, k, mean_rssi, coarse && incremental);
        for (std::size_t pi = 0; pi < queued; ++pi) {
            auto& pe = chunk[pi];
            auto& gp = ws.grid[pe.gi];
            const double* gammas = ws.point_gammas.data() + pi * uk;
            if (pe.warm) {
                ++warm_starts;
                LOCBLE_COUNT("solver.warm_starts", 1);
                if (pe.cold) LOCBLE_COUNT("solver.warm_fallbacks", 1);
            }
            if (coarse) {
                // Remember this flush's fit as the next flush's GN seed.
                gp.has_fit = !pe.failed;
                if (gp.has_fit) {
                    gp.warm_loc = pe.slot.raw_loc;
                    ws.ensure_size(gp.warm_gammas, uk);
                    std::copy_n(gammas, uk, gp.warm_gammas.data());
                }
            }
            if (pe.failed) {
                ++failures;
                continue;
            }
            if (pe.slot.multistart) ++multistarts;
            pe.slot.grid_idx = static_cast<int>(pe.gi);
            ws.candidates.push_back(pe.slot);
            if (pe.slot.score < best_score) {
                best_score = pe.slot.score;
                best_idx = static_cast<int>(ws.candidates.size()) - 1;
                std::copy_n(gammas, uk, ws.best_gammas.data());
            }
        }
        queued = 0;
    };
    const auto queue_point = [&](std::size_t gi) {
        ws.evaluated[gi] = 1;
        ++grid_points;
        chunk[queued] = SolverWorkspace::PointEval{};
        chunk[queued++].gi = gi;
        if (queued == kernels::kAccLanes) flush_chunk();
    };

    if (!coarse) {
        for (std::size_t gi = 0; gi < grid_size; ++gi) queue_point(gi);
        flush_chunk();
    } else {
        // Coarse pass at 2x the grid step (endpoints always included)...
        for (std::size_t gi = 0; gi < grid_size; gi += 2) queue_point(gi);
        if (grid_size > 0 && !ws.evaluated[grid_size - 1]) queue_point(grid_size - 1);
        flush_chunk();
        // ...then hill-descend on the fine grid around the running argmin
        // until both neighbours have been evaluated and neither wins.
        int prev_best = -2;
        while (best_idx >= 0 && prev_best != best_idx) {
            prev_best = best_idx;
            const int bg = ws.candidates[static_cast<std::size_t>(best_idx)].grid_idx;
            for (const int d : {-1, 1}) {
                const int j = bg + d;
                if (j >= 0 && j < static_cast<int>(grid_size) &&
                    !ws.evaluated[static_cast<std::size_t>(j)]) {
                    LOCBLE_COUNT("solver.refine_evals", 1);
                    queue_point(static_cast<std::size_t>(j));
                }
            }
            flush_chunk();
        }
    }

    LOCBLE_COUNT("solver.exponent_candidates", grid_points);
    LOCBLE_COUNT("solver.candidate_failures", failures);
    LOCBLE_COUNT("solver.multistart_runs", multistarts);
    if (ws.grow_events_ != grows_before)
        LOCBLE_COUNT("solver.workspace_grows", ws.grow_events_ - grows_before);
    if (diag) {
        diag->exponent_candidates = grid_points;
        diag->candidate_failures = failures;
        diag->multistart_runs = multistarts;
        diag->warm_starts = warm_starts;
        diag->converged = best_idx >= 0;
    }
    if (best_idx < 0) {
        LOCBLE_COUNT("solver.convergence_failures", 1);
        return false;
    }
    const auto& best = ws.candidates[static_cast<std::size_t>(best_idx)];
    LOCBLE_HISTOGRAM("solver.residual_db", best.residual_db, 0.5, 1.0, 2.0, 3.0, 4.0,
                     6.0, 8.0, 12.0);

    out.location = best.loc;
    out.exponent = best.exponent;
    out.segment_gammas.resize(static_cast<std::size_t>(k));
    std::copy_n(ws.best_gammas.data(), static_cast<std::size_t>(k),
                out.segment_gammas.data());
    out.gamma_dbm = out.segment_gammas.back();
    out.residual_db = best.residual_db;
    out.confidence = best.confidence;
    out.ambiguous = best.ambiguous;

    // The residual is nearly flat across neighbouring exponents; averaging
    // the near-optimal candidates (within 15% of the best residual) damps
    // the jitter a hard argmin would inherit from noise.
    if (!cfg_.use_model_averaging) return true;

    locble::Vec2 loc_acc{0.0, 0.0};
    double n_acc = 0.0, weight_acc = 0.0;
    for (const auto& c : ws.candidates) {
        if (c.score > best.score * 1.15 + 1e-9) continue;
        if (c.ambiguous != best.ambiguous) continue;
        const double w = 1.0 / std::max(c.score, 1e-6);
        loc_acc += c.loc * w;
        n_acc += c.exponent * w;
        weight_acc += w;
    }
    if (weight_acc > 0.0) {
        out.location = loc_acc / weight_acc;
        out.exponent = n_acc / weight_acc;
        const ResidualStats stats = residual_stats_kernel(
            samples, count, out.location, out.exponent, ws.best_gammas.data(), k,
            ws.resid.data(), SoaView{ws.soa_p.data(), ws.soa_q.data(),
                                     ws.soa_rssi.data(), ws.soa_seg.data(),
                                     cfg_.kernel_mode});
        out.residual_db = stats.rms_db;
        out.confidence = stats.confidence;
    }
    return true;
}

std::optional<LocationFit> LocationSolver::solve(const std::vector<FusedSample>& samples,
                                                 const SolveHints& hints,
                                                 SolveDiagnostics* diag) const {
    SolverWorkspace ws;
    LocationFit out;
    if (!solve_impl(samples.data(), samples.size(), hints, diag, ws, out,
                    /*incremental=*/false))
        return std::nullopt;
    return out;
}

bool LocationSolver::solve(const std::vector<FusedSample>& samples,
                           const SolveHints& hints, SolveDiagnostics* diag,
                           SolverWorkspace& ws, LocationFit& out) const {
    return solve_impl(samples.data(), samples.size(), hints, diag, ws, out,
                      /*incremental=*/false);
}

std::optional<LocationFit> LocationSolver::resolve_l_shape(
    const LocationFit& leg1, const LocationFit& leg2, const locble::Vec2& leg2_origin,
    double leg2_heading) {
    // Each ambiguous leg fit yields two mirror candidates in its own frame.
    const auto candidates_of = [](const LocationFit& fit) {
        std::vector<locble::Vec2> out{fit.location};
        if (fit.ambiguous) out.push_back({fit.location.x, -fit.location.y});
        return out;
    };
    // Leg 1's frame *is* the observer frame. Leg 2 candidates must be
    // rotated/translated out of the second leg's local frame.
    std::vector<locble::Vec2> c1 = candidates_of(leg1);
    std::vector<locble::Vec2> c2;
    for (const auto& c : candidates_of(leg2))
        c2.push_back(leg2_origin + c.rotated(leg2_heading));

    double best_gap = 1e300;
    locble::Vec2 best_point;
    for (const auto& a : c1) {
        for (const auto& b : c2) {
            const double gap = locble::Vec2::distance(a, b);
            if (gap < best_gap) {
                best_gap = gap;
                best_point = (a + b) * 0.5;
            }
        }
    }
    if (best_gap >= 1e300) return std::nullopt;

    LocationFit out;
    out.location = best_point;
    // Blend the per-leg parameter estimates, weighting by confidence.
    const double w1 = std::max(leg1.confidence, 1e-6);
    const double w2 = std::max(leg2.confidence, 1e-6);
    out.exponent = (leg1.exponent * w1 + leg2.exponent * w2) / (w1 + w2);
    out.gamma_dbm = (leg1.gamma_dbm * w1 + leg2.gamma_dbm * w2) / (w1 + w2);
    out.segment_gammas = {out.gamma_dbm};
    out.residual_db = 0.5 * (leg1.residual_db + leg2.residual_db);
    out.confidence = std::min(leg1.confidence, leg2.confidence);
    out.ambiguous = false;
    return out;
}

}  // namespace locble::core
