#pragma once

#include <optional>
#include <vector>

#include "locble/common/timeseries.hpp"
#include "locble/core/envaware.hpp"
#include "locble/core/location_solver.hpp"
#include "locble/motion/dead_reckoning.hpp"

namespace locble::core {

/// Output of one LocBLE measurement (Algo. 1's return value).
struct LocateResult {
    /// Stage-level accounting for one locate() call, populated on every run
    /// regardless of the locble::obs build/runtime switches — library users
    /// get solver and batching insight without linking the tracer.
    struct Diagnostics {
        int solver_calls{0};         ///< regression solves (one per flushed batch)
        int solver_candidates{0};    ///< exponent grid points evaluated in total
        int solver_failures{0};      ///< grid points rejected (degenerate/implausible)
        int solver_multistarts{0};   ///< solves that needed the multi-start fallback
        int solver_warm_starts{0};   ///< grid points seeded from a previous flush
        int convergence_failures{0}; ///< solves that returned no fit at all
        int envaware_windows{0};     ///< batches EnvAware classified
        std::vector<std::size_t> batch_samples;  ///< RSS samples per Algo. 1 batch
    };

    std::optional<LocationFit> fit;  ///< nullopt when no regression converged
    int regression_restarts{0};      ///< environment changes that reset the fit
    std::size_t samples_used{0};     ///< samples in the final regression
    std::vector<channel::PropagationClass> window_classes;  ///< per-batch EnvAware output
    Diagnostics diagnostics;
};

/// The LocBLE estimation pipeline (Sec. 5.3, Algorithm 1): batches RSS,
/// classifies the environment per batch (EnvAware), denoises with ANF,
/// matches RSS to dead-reckoned movement by timestamp, and maintains the
/// elliptical regression — restarting it when the environment changes.
class LocBle {
public:
    struct Config {
        LocationSolver::Config solver{};
        bool use_anf{true};          ///< ablation switch (Fig. 5)
        bool use_envaware{true};     ///< ablation switch (Fig. 5)
        /// Calibrated 1 m RSSI read from the target's beacon frame (iBeacon
        /// measured power / Eddystone txPower); when set, Gamma is searched
        /// in [prior - below, prior + above]. The band is asymmetric:
        /// fading, blockage and body shadowing only ever *lower* the
        /// received level relative to calibration.
        std::optional<double> gamma_prior_dbm;
        double gamma_prior_below_db{5.0};
        double gamma_prior_above_db{3.0};
    };

    /// `envaware` must be trained when cfg.use_envaware is true; pass
    /// std::nullopt to run without environment recognition.
    LocBle(const Config& cfg, std::optional<EnvAware> envaware);
    explicit LocBle(const Config& cfg) : LocBle(cfg, std::nullopt) {}

    /// Locate a stationary target from the observer's RSS capture and
    /// dead-reckoned movement. RSS timestamps and the motion estimate must
    /// share a clock.
    LocateResult locate(const locble::TimeSeries& raw_rss,
                        const motion::MotionEstimate& observer) const;

    /// Locate a *moving* target: the target transfers its own motion
    /// estimate after the measurement (Sec. 5). `target_frame_rotation` is
    /// the target's initial magnetic heading minus the observer's, which
    /// aligns the two dead-reckoning frames through the shared compass
    /// reference.
    LocateResult locate(const locble::TimeSeries& raw_rss,
                        const motion::MotionEstimate& observer,
                        const motion::MotionEstimate& target,
                        double target_frame_rotation) const;

    const Config& config() const { return cfg_; }

private:
    LocateResult run(const locble::TimeSeries& raw_rss,
                     const motion::MotionEstimate& observer,
                     const motion::MotionEstimate* target) const;

    Config cfg_;
    std::optional<EnvAware> envaware_;
};

/// Algorithm 1's per-beacon batch loop (Sec. 5.3), the one copy behind both
/// LocBle::locate and the streaming serve::TrackingSession. It cuts the
/// stream into kBatchSeconds windows, classifies each closed batch with
/// EnvAware, lets the regime narrow the exponent band, opens a new Gamma
/// segment on a confirmed environment change (Algo. 1 line 13), and folds
/// the batch into one incremental LocationSolver::Session. The callers
/// differ only in what they feed add() — zero-phase or causal ANF, and how
/// they pair poses — and in when they call solve(): after every closed
/// batch offline, once per epoch in the service.
class BatchLoop {
public:
    /// Algo. 1 collects 2-3 s batches.
    static constexpr double kBatchSeconds = 2.0;

    /// What one add(), close() or flush() did. At most one non-empty batch
    /// closes per call: add() closes the windows before it buffers, so the
    /// open batch always lies in the current window.
    struct Flush {
        std::size_t samples{0};  ///< size of the batch that closed; 0 if none did
        bool restarted{false};   ///< a confirmed environment change opened a segment
        bool reset{false};       ///< the sample cap reset the regression first
        /// EnvAware's class for the batch, when it ran (batches of >= 4).
        std::optional<channel::PropagationClass> window_class;
    };

    /// `envaware` must be trained when cfg.use_envaware is set; the loop
    /// keeps its own copy (the regime tracker is per-stream state). A
    /// `max_samples` > 0 caps the regression: a batch that would grow it
    /// past the cap resets it first (counted in resets()).
    BatchLoop(const LocBle::Config& cfg, const EnvAware* envaware,
              std::size_t max_samples = 0);
    BatchLoop(const BatchLoop&) = delete;
    BatchLoop& operator=(const BatchLoop&) = delete;

    /// Close every window that ended before `s.t`, then buffer the sample:
    /// `raw_rssi` for EnvAware (it learns from the fluctuation statistics a
    /// filter erases), `s` — denoised RSSI and relative displacement — for
    /// the regression.
    Flush add(double raw_rssi, FusedSample s);
    /// Close every window that ended before `t`.
    Flush close(double t);
    /// The batch end close(t) leaves after `end`: what the walk
    /// `while (t > end) end += kBatchSeconds;` leaves, rounding included,
    /// without its (t - end) / 2 steps — a far-future t (1e12 s) costs at
    /// most two steps per binade of `end`. Where that walk would never end
    /// (|end| >= 2^54, where end + 2 can round back to end) the result is t.
    static double batch_end_after(double end, double t);
    /// Close the open batch whatever its window (the end of a capture).
    Flush flush();

    /// Solve the regression over every batch folded so far, with the
    /// regime's exponent band and the Gamma prior band as hints, reporting
    /// the solve's accounting into `diag` when given. Returns false, leaving
    /// `out` untouched, when no fit converged.
    bool solve(LocationFit& out, SolveDiagnostics* diag = nullptr);

    const LocBle::Config& config() const { return cfg_; }
    /// The samples of the current regression, in arrival order.
    const std::vector<FusedSample>& samples() const { return session_.samples(); }
    std::size_t size() const { return session_.size(); }
    int segment() const { return segment_; }
    /// Environment changes that opened a segment of the current regression:
    /// each steps segment() once, and a sample-cap reset zeroes it.
    int restarts() const { return segment_; }
    int resets() const { return resets_; }
    double last_t() const { return last_t_; }
    /// End of the open batch window: close(t) flushes once t passes it.
    double batch_end() const { return batch_end_; }
    bool has_open_batch() const { return !batch_raw_.empty(); }
    /// The raw RSSI of the open batch, in arrival order.
    const std::vector<double>& open_batch_rssi() const { return batch_raw_; }

    /// The loop's complete stream state as one field list, for any visitor
    /// (like SolverWorkspace::warm_grid_fields, this module knows nothing
    /// of the wire format). `env_` and `session_` are visited whole; the
    /// visitor reaches their state through their own accessors. The list
    /// binds every member, so a new one fails to compile until it is
    /// listed or left out here with its reason.
    template <class Self, class Visitor>
    static void fields(Self& s, Visitor& v) {
        // cfg_, max_samples_ and solver_ are left out: they are construction
        // arguments, rebuilt from the same config on restore.
        auto& [cfg_, max_samples_, solver_, env_, session_, started_, batch_end_, last_t_,
               batch_raw_, batch_fused_, segment_, resets_, regime_, band_min_, band_max_,
               saw_blocked_, prev_batch_mean_, have_prev_batch_] = s;
        v(env_, session_, started_, batch_end_, last_t_, batch_raw_, batch_fused_,
          segment_, resets_, regime_, band_min_, band_max_, saw_blocked_, prev_batch_mean_,
          have_prev_batch_);
    }

private:
    LocBle::Config cfg_;
    std::size_t max_samples_;
    LocationSolver solver_;

    std::optional<EnvAware> env_;
    LocationSolver::Session session_;
    bool started_{false};
    double batch_end_{0.0};
    double last_t_{0.0};
    std::vector<double> batch_raw_;
    std::vector<FusedSample> batch_fused_;
    int segment_{0};
    int resets_{0};
    std::optional<channel::PropagationClass> regime_;
    double band_min_{10.0}, band_max_{0.0};  ///< union of the regime bands seen
    bool saw_blocked_{false};  ///< any non-LoS window in this regression
    double prev_batch_mean_{0.0};
    bool have_prev_batch_{false};
};

/// Rotate a dead-reckoned path by `angle` radians (frame alignment for the
/// moving-target mode).
motion::MotionEstimate rotate_motion(const motion::MotionEstimate& m, double angle);

}  // namespace locble::core
