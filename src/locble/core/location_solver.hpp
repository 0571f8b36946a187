#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "locble/channel/pathloss.hpp"
#include "locble/common/vec2.hpp"
#include "locble/core/solver_kernels.hpp"

namespace locble::core {

/// One fused measurement: the relative displacement between target and
/// observer at the moment an RSS sample arrived (Sec. 5's p_i = b_i - a_i,
/// q_i = d_i - c_i) plus the (denoised) RSS value.
struct FusedSample {
    double t{0.0};
    double p{0.0};     ///< relative x displacement (m)
    double q{0.0};     ///< relative y displacement (m)
    double rssi{0.0};  ///< dBm, after ANF
    /// Environment segment (EnvAware regime) this sample was captured in.
    /// The paper's model RS = Gamma(e) - 10 n(e) log10(l) has environment-
    /// dependent parameters; the solver shares (x, h) across segments and
    /// fits one Gamma per segment, which absorbs blockage insertion loss.
    int segment{0};
};

/// The 0.1 m distance floor of the dB model, expressed on the squared
/// distance both hot callers already have.
inline constexpr double kMinDistanceSq = 0.01;

/// The paper's Eq. 1 path-loss model in the dB domain, evaluated on the
/// *squared* target-observer distance: Gamma - 5 n log10(max(l^2, 0.01)).
/// This is the single definition shared by RSS prediction, residual
/// scoring and the Gauss-Newton refinement. The log10 is the kernels'
/// deterministic, branchless implementation (bit-identical across ISAs,
/// ~9e-16 max relative error vs libm — see solver_kernels.hpp), so scalar
/// call sites agree bit-for-bit with the vectorized lane kernels.
inline double predict_rssi_db(double gamma_dbm, double exponent, double dist_sq) {
    return gamma_dbm -
           5.0 * exponent * kernels::det_log10(std::max(dist_sq, kMinDistanceSq));
}

/// The solver's output: the target's location in the observer frame plus
/// the jointly estimated propagation parameters.
struct LocationFit {
    locble::Vec2 location;      ///< (x, h): target position at measurement start
    double exponent{2.0};       ///< estimated path-loss exponent n(e)
    double gamma_dbm{-59.0};    ///< Gamma(e) of the latest environment segment
    /// Gamma per environment segment (size >= 1; last == gamma_dbm).
    std::vector<double> segment_gammas{};
    double residual_db{0.0};    ///< RMS of dB-domain residuals
    double confidence{0.0};     ///< Sec. 5 estimation confidence in (0, 1]
    bool ambiguous{false};      ///< 1-D motion: sign of location.y unresolved
};

/// Optional constraints a caller can hand the solver:
///   - EnvAware's propagation class narrows the plausible exponent band
///     (the "adjust the location estimation" coupling of Sec. 4.1);
///   - the calibrated 1 m power carried in every beacon frame (iBeacon
///     measured power / Eddystone txPower) bounds Gamma.
struct SolveHints {
    std::optional<std::pair<double, double>> exponent_band;
    std::optional<std::pair<double, double>> gamma_band_dbm;
};

/// Exponent band for a recognized propagation class.
std::pair<double, double> exponent_band_for(channel::PropagationClass cls);

/// Per-solve work/convergence accounting, filled by LocationSolver::solve
/// when the caller passes a sink. This is the library-level mirror of the
/// locble::obs solver metrics: users get stage insight from a plain struct
/// without enabling (or even compiling) the tracer.
struct SolveDiagnostics {
    int exponent_candidates{0};  ///< Eq. 5 grid points evaluated
    int candidate_failures{0};   ///< grid points rejected (degenerate or implausible)
    int multistart_runs{0};      ///< grid points that fell back to multi-start GN
    int warm_starts{0};          ///< grid points seeded from a previous flush's fit
    bool converged{false};       ///< a fit was returned
};

/// Reusable scratch and incremental per-exponent state for LocationSolver.
///
/// All buffers grow on first use ("warm-up") and are then reused: a solve
/// with a workspace that has already seen inputs of the same or larger
/// size performs zero heap allocations. Treat the contents as opaque —
/// only LocationSolver reads them.
class SolverWorkspace {
public:
    SolverWorkspace() = default;

    /// Forget all incremental state (normal-equation folds, warm fits,
    /// sample aggregates). Buffer capacity is retained — including the grid,
    /// which the next solve rebuilds in place — so subsequent solves stay
    /// allocation-free.
    void invalidate() {
        grid_valid = false;
        agg_count = 0;
        seg_k = 1;
        q_min = q_max = 0.0;
        rssi_sum = 0.0;
    }

    /// Number of buffer (re)allocations since construction. Stable across
    /// two identical solves == the zero-allocation guarantee held.
    std::uint64_t grow_events() const { return grow_events_; }

    /// The exponent grid's warm-start state as one field list — the one
    /// piece of incremental solver state that is *not* rebuildable from the
    /// sample stream (the normal-equation sums and rho scales are re-folded
    /// bit-identically from the samples; the coarse_to_fine GN seeds are
    /// history). Service checkpointing (docs/WIRE.md) visits it in place:
    /// a writer visits a const workspace, a reader a workspace whose
    /// samples were just re-added, which then solves bit-identically to the
    /// uninterrupted run in either search mode.
    ///
    /// Visits `valid`; when set, the band `n_min, n_max, step`, the point
    /// count through `v.warm_points(n)`, and per point `has_fit` plus — only
    /// when set — its warm location and gammas (an unset point visits a
    /// default location and no gammas). A reader gets `v.warm_band(n_min,
    /// n_max, step)` right after the band, to refuse an implausible one; the
    /// grid is then rebuilt exactly as solve_impl would build it, and
    /// `v.warm_points` receives the rebuilt point count.
    template <class Self, class Visitor>
    static void warm_grid_fields(Self& ws, Visitor& v) {
        v(ws.grid_valid);
        if (!ws.grid_valid) return;
        v(ws.grid_n_min, ws.grid_n_max, ws.grid_step);
        if constexpr (!std::is_const_v<Self>) {
            v.warm_band(ws.grid_n_min, ws.grid_n_max, ws.grid_step);
            ws.rebuild_grid(ws.grid_n_min, ws.grid_n_max, ws.grid_step);
        }
        v.warm_points(ws.grid.size());
        for (auto& gp : ws.grid) {
            v(gp.has_fit);
            if (gp.has_fit) {
                v(gp.warm_loc, gp.warm_gammas);
            } else {
                locble::Vec2 loc{};
                std::vector<double> gammas;
                v(loc, gammas);
            }
        }
    }

    /// Read-only view of the structure-of-arrays sample mirror the solver
    /// packs once per flush (append-only, like every other aggregate).
    /// Exposed only so the pack round-trip property can be tested
    /// (tests/core/test_solver_kernels.cpp); the arrays are valid for the
    /// first packed_count() entries after a solve.
    std::size_t packed_count() const { return agg_count; }
    const std::vector<double>& packed_p() const { return soa_p; }
    const std::vector<double>& packed_q() const { return soa_q; }
    const std::vector<double>& packed_rssi() const { return soa_rssi; }
    const std::vector<int>& packed_segment() const { return soa_seg; }

private:
    friend class LocationSolver;

    /// Incremental state for one exponent grid point, kept valid across
    /// batch flushes of an append-only sample stream.
    struct GridPoint {
        double n{0.0};            ///< exponent value of this grid point
        double eta{0.0};          ///< 10^(-1/(5n))
        double rho_scale{0.0};    ///< running max of rho_i = eta^rssi_i (conditioning)
        bool rho_bad{false};      ///< sticky: a rho was nonfinite or <= 0
        // Incremental linear-seed state: raw (unscaled) normal-equation
        // sums of the Eq. 3 design rows, folded append-only with each
        // sample's rho computed in the fold (no per-sample cache);
        // conditioning scales are applied to the m x m aggregate at solve
        // time, so each flush pays O(new samples) + O(m^3) instead of
        // O(all samples).
        std::size_t ls_count{0};  ///< samples folded into the sums
        bool ls_lateral{false};   ///< row shape (m = 4 vs 3) the sums use
        double ls_ata[16]{};      ///< upper-triangle raw A^T A sums
        double ls_atb[4]{};      ///< raw A^T y sums
        double ls_max[4]{};      ///< running per-column |entry| max
        // Warm-start state (coarse_to_fine mode only).
        bool has_fit{false};
        locble::Vec2 warm_loc;
        std::vector<double> warm_gammas;
    };

    /// A surviving exponent candidate (the per-fit gammas live in
    /// `best_gammas`, only kept for the winning candidate).
    struct CandidateSlot {
        double exponent{0.0};
        locble::Vec2 loc;       ///< reported location (|y| under ambiguity)
        locble::Vec2 raw_loc;   ///< pre-disambiguation GN fixed point (warm seed)
        double score{1e300};
        double confidence{0.0};
        double residual_db{0.0};
        int grid_idx{-1};
        bool ambiguous{false};
        bool multistart{false};
    };

    /// One grid point's evaluation within a chunk of up to kAccLanes
    /// points whose Gauss-Newton runs share lockstep batches.
    struct PointEval {
        std::size_t gi{0};
        bool warm{false};        ///< a warm start was tried
        bool cold{false};        ///< from the linear seed (no warm start, or it failed)
        bool multistart{false};  ///< fell back to the bearings
        bool failed{false};      ///< no candidate: degenerate or nothing plausible
        double gamma_seed{0.0};
        double best_rms{1e300};  ///< best plausible attempt so far
        double best_confidence{0.0};
        locble::Vec2 best_loc;
        CandidateSlot slot;  ///< the candidate, when not failed
    };

    template <class Vec>
    void ensure_size(Vec& v, std::size_t n) {
        if (v.capacity() < n) ++grow_events_;
        v.resize(n);
    }

    /// (Re)enumerate the exponent grid for a hint band — the single grid
    /// constructor shared by solve_impl and warm_grid_fields, so a restored
    /// workspace's grid is the one the uninterrupted run would have built.
    void rebuild_grid(double n_min, double n_max, double step);

    // Grid identity: the incremental state is valid only while the
    // enumerated exponent grid is unchanged.
    bool grid_valid{false};
    double grid_n_min{0.0}, grid_n_max{0.0}, grid_step{0.0};
    std::vector<GridPoint> grid;

    // Append-only sample aggregates (bitwise equal to the cold-start
    // full-pass values because they are the same left-to-right folds).
    std::size_t agg_count{0};
    int seg_k{1};
    double q_min{0.0}, q_max{0.0};
    double rssi_sum{0.0};

    // Structure-of-arrays mirror of the sample stream, packed append-only
    // alongside the aggregate fold (valid for the first agg_count entries).
    // The lane kernels (solver_kernels.hpp) read these contiguous arrays,
    // soa_seg in the multi-segment (k > 1) passes; the AoS FusedSample span
    // remains the source of truth for the scalar-reference kernel mode.
    std::vector<double> soa_p, soa_q, soa_rssi;
    std::vector<int> soa_seg;

    // Flat scratch for the linear seed (m <= 4, fixed arrays).
    double ata[16]{}, atb[4]{}, beta[4]{};

    // Gauss-Newton scratch: the Gammas of one lockstep batch's runs and
    // of its grid points' best attempts (kAccLanes x segment count each),
    // and the executor's own scratch (kernels::lockstep_scratch_size).
    std::vector<double> run_gammas, point_gammas, gn_scratch;
    std::vector<double> resid;

    // Per-solve candidate set (for argmin + model averaging).
    std::vector<CandidateSlot> candidates;
    std::vector<double> best_gammas;
    std::vector<std::uint8_t> evaluated;  ///< per grid point, current solve

    std::uint64_t grow_events_{0};
};

/// Elliptical-regression location estimator (Sec. 5).
///
/// For a candidate exponent n, the path-loss law becomes linear in
/// (A, C, D, G) after substituting rho_i = eta^{RS_i} with
/// eta = 10^{-1/(5n)}:
///
///   A (p^2 + q^2) + C p + D q + G = rho,   A = 1/eps, C = 2x/eps,
///                                          D = 2h/eps, G = (x^2+h^2)/eps
///
/// The solver grid-searches n (Eq. 5), solving the least-squares system at
/// each candidate and scoring it by the dB-domain residual; the target is
/// read off as (C/2A, D/2A) and Gamma as 5 n log10(1/A).
///
/// Hot-path design (docs/PERFORMANCE.md): all kernels run allocation-free
/// on a SolverWorkspace, and a Session makes the per-batch re-solve of the
/// pipeline incremental — the linear seed's normal equations and the sample
/// aggregates are folded in once per new sample per grid point instead of
/// rebuilt from scratch.
class LocationSolver {
public:
    /// Exponent grid traversal strategy (Eq. 5).
    enum class SearchMode {
        /// Evaluate every grid point. Incremental solves are bit-identical
        /// to cold-start solves.
        exhaustive,
        /// Scan at 2x the grid step, then hill-descend on the fine grid
        /// around the argmin; previous-flush fits warm-start Gauss-Newton.
        /// Roughly 2-4x faster per solve, within tolerance of exhaustive.
        coarse_to_fine,
    };

    /// Eq. 5's exponent search range; hints only narrow it.
    static constexpr double kExponentMin = 1.2;
    static constexpr double kExponentMax = 6.0;
    /// Fewer samples than this give no fit.
    static constexpr std::size_t kMinSamples = 8;
    /// Below this spread (m) the q dimension is considered degenerate and
    /// the 1-D (ambiguous) model is fit instead.
    static constexpr double kMinLateralSpread = 0.35;
    /// Physical plausibility bounds on candidate fits: BLE beacons are
    /// receivable within ~15 m indoors (Sec. 2.2), and the 1 m power offset
    /// of any real transmitter/receiver pair lies in a known band.
    /// Candidates outside are discarded during the Eq. 5 search.
    static constexpr double kMaxRangeM = 25.0;
    static constexpr double kGammaMinDbm = -90.0;
    static constexpr double kGammaMaxDbm = -30.0;

    struct Config {
        double exponent_step{0.05};  ///< grid resolution for Eq. 5's search
        /// Ablation switches for the estimator design choices documented in
        /// DESIGN.md (defaults are the measured-best configuration).
        bool use_wls{true};              ///< 1/rho row weighting of the linear seed
        bool use_gn_refinement{true};    ///< dB-domain Gauss-Newton polish
        bool use_model_averaging{false};  ///< average near-optimal exponents (measured
                                          ///  counterproductive once GN refinement
                                          ///  exists; kept for the ablation bench)
        SearchMode search_mode{SearchMode::exhaustive};
        /// Hot-loop implementation selector. By the lane determinism
        /// contract (solver_kernels.hpp) both modes produce bit-identical
        /// fits; `scalar_reference` exists as the bench baseline and the
        /// end-to-end identity gate, not as a fallback.
        enum class KernelMode {
            lanes,             ///< SoA lane kernels (the production path)
            scalar_reference,  ///< AoS scalar twins, canonical 8-lane order
        };
        KernelMode kernel_mode{KernelMode::lanes};
    };

    LocationSolver() : LocationSolver(Config{}) {}
    explicit LocationSolver(const Config& cfg) : cfg_(cfg) {}

    /// Full 2-D fit over (typically L-shaped) movement data. Returns
    /// nullopt when there are too few samples or every candidate exponent
    /// yields a degenerate system. `hints` (optional) narrows the exponent
    /// and Gamma search regions; `diag` (optional) receives per-solve
    /// work/convergence accounting.
    std::optional<LocationFit> solve(const std::vector<FusedSample>& samples,
                                     const SolveHints& hints = {},
                                     SolveDiagnostics* diag = nullptr) const;

    /// Cold solve into caller-provided workspace and output storage.
    /// Performs zero heap allocations once `ws` and `out.segment_gammas`
    /// have warmed up to the problem size. Returns false when no fit
    /// converged (`out` is left untouched in that case).
    bool solve(const std::vector<FusedSample>& samples, const SolveHints& hints,
               SolveDiagnostics* diag, SolverWorkspace& ws, LocationFit& out) const;

    /// Incremental warm-started regression over an append-only sample
    /// stream — the pipeline's per-batch re-solve. Each solve() folds only
    /// the samples added since the previous solve into the per-exponent
    /// state (normal-equation sums, aggregates) and, in coarse_to_fine mode,
    /// seeds Gauss-Newton from the previous flush's fit per grid point.
    ///
    /// Contract: in SearchMode::exhaustive a Session solve is bit-identical
    /// to a cold-start solve over the same accumulated samples; in
    /// coarse_to_fine it is within tolerance (see docs/PERFORMANCE.md).
    class Session {
    public:
        explicit Session(const LocationSolver& solver) : solver_(&solver) {}

        /// Forget all samples and incremental state while keeping every
        /// buffer's capacity — the evict-and-recreate path of long-running
        /// services (locble::serve): a reset-then-refilled Session solves
        /// allocation-free and stays bit-identical to a cold solve over the
        /// same samples (exhaustive mode).
        void reset() {
            samples_.clear();
            ws_.invalidate();
        }

        void add(const FusedSample& s) { samples_.push_back(s); }
        void add(const std::vector<FusedSample>& batch) {
            samples_.insert(samples_.end(), batch.begin(), batch.end());
        }

        const std::vector<FusedSample>& samples() const { return samples_; }
        std::size_t size() const { return samples_.size(); }

        std::optional<LocationFit> solve(const SolveHints& hints = {},
                                         SolveDiagnostics* diag = nullptr) {
            LocationFit out;
            if (!solver_->solve_impl(samples_.data(), samples_.size(), hints, diag,
                                     ws_, out, /*incremental=*/true))
                return std::nullopt;
            return out;
        }

        /// Zero-allocation variant: the result is written into `out`
        /// (reusing its segment_gammas capacity). Returns false when no
        /// fit converged.
        bool solve_into(LocationFit& out, const SolveHints& hints = {},
                        SolveDiagnostics* diag = nullptr) {
            return solver_->solve_impl(samples_.data(), samples_.size(), hints, diag,
                                       ws_, out, /*incremental=*/true);
        }

        SolverWorkspace& workspace() { return ws_; }
        const SolverWorkspace& workspace() const { return ws_; }

    private:
        const LocationSolver* solver_;
        SolverWorkspace ws_;
        std::vector<FusedSample> samples_;
    };

    /// The paper's explicit disambiguation (Sec. 5.1): fit each leg of an
    /// L-shaped walk independently (each is 1-D and symmetric about its own
    /// axis), rotate both candidate pairs into the observer frame, and pick
    /// the pair of candidates that agree. `leg2_origin`/`leg2_heading`
    /// place the second leg's local frame inside the observer frame.
    static std::optional<LocationFit> resolve_l_shape(
        const LocationFit& leg1, const LocationFit& leg2,
        const locble::Vec2& leg2_origin, double leg2_heading);

    const Config& config() const { return cfg_; }

private:
    /// The one solve kernel behind every public entry point. `incremental`
    /// keeps the workspace's per-exponent state; a cold solve resets it
    /// first, which makes cold == incremental bitwise by construction.
    bool solve_impl(const FusedSample* samples, std::size_t count,
                    const SolveHints& hints, SolveDiagnostics* diag,
                    SolverWorkspace& ws, LocationFit& out, bool incremental) const;

    /// Evaluate m <= kAccLanes exponent grid points `pts[i].gi`: a
    /// warm-started GN where `try_warm` and the point kept a fit, else (or
    /// when that is implausible) the linear seed + GN refinement, with the
    /// multi-start bearings when that finds nothing plausible. The stages'
    /// Gauss-Newton runs advance in lockstep batches; each point's outcome
    /// is what evaluating it alone gives.
    void evaluate_points(SolverWorkspace& ws, SolverWorkspace::PointEval* pts,
                         std::size_t m, const FusedSample* samples, std::size_t count,
                         bool lateral_ok, double gamma_min, double gamma_max, int k,
                         double mean_rssi, bool try_warm) const;

    Config cfg_;
};

/// Residual diagnostics backing the confidence number (Sec. 5): mean and
/// std of deltaRS = RS - RS_hat, and confidence = exp(-mu^2 / (2 sigma^2)).
struct ResidualStats {
    double mean_db{0.0};
    double stddev_db{0.0};
    double rms_db{0.0};
    double confidence{0.0};
};

/// Evaluate a fitted model against samples.
ResidualStats residual_stats(const std::vector<FusedSample>& samples,
                             const locble::Vec2& location, double exponent,
                             double gamma_dbm);

/// Assemble ResidualStats from `count` residuals' sum, sum of squares and
/// centered second moment — the kernel outputs every scoring path of the
/// solver produces, in either kernel mode.
ResidualStats residual_stats_from_moments(std::size_t count, double sum, double ss,
                                          double m2);

}  // namespace locble::core
