#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "locble/core/clustering.hpp"
#include "locble/core/pipeline.hpp"
#include "locble/motion/dead_reckoning.hpp"
#include "locble/runtime/trial_runner.hpp"
#include "locble/sim/capture.hpp"
#include "locble/sim/scenarios.hpp"

namespace locble::sim {

/// A default EnvAware trained once on the synthetic LOS/p-LOS/NLOS corpus
/// (deterministic; reused by every experiment and bench).
///
/// Thread safety: the instance is a function-local static, so concurrent
/// first calls are serialized by the C++11 "magic static" guarantee — the
/// training runs exactly once and every caller observes the fully trained
/// model. After construction the object is only read through const methods
/// (classify() et al. carry no mutable state), so sharing it across the
/// parallel trial runner's worker threads is safe.
const core::EnvAware& shared_envaware();

/// Everything configurable about one simulated measurement.
struct MeasurementConfig {
    core::LocBle::Config pipeline{};
    CaptureRunner::Config capture{};
    motion::DeadReckoner::Config reckoner{};
    /// Override of the measurement walk; when unset, the scenario's own
    /// (site-fitting) L-shape is used.
    std::optional<LShapeSpec> lshape;

    MeasurementConfig() {
        // The app instructs the user to make a right-angle turn (Sec. 5.2).
        reckoner.snap_right_angles = true;
    }
};

/// Result of one measurement run, with the estimate expressed both in the
/// observer frame (the paper's (x, h)) and in site coordinates.
struct MeasurementOutcome {
    bool ok{false};
    locble::Vec2 estimate_observer_frame;
    locble::Vec2 truth_observer_frame;
    locble::Vec2 estimate_site;
    locble::Vec2 truth_site;
    double error_m{0.0};
    double x_error_m{0.0};  ///< |x_hat - x| in the observer frame
    double h_error_m{0.0};  ///< |h_hat - h|
    core::LocateResult detail;
    /// The target's RSS stream as captured (post-processing consumers such
    /// as the proximity assist read its tail).
    locble::TimeSeries rss;
};

/// Map a point from the observer frame (origin `start`, +x along `heading`)
/// into site coordinates, and back.
locble::Vec2 observer_to_site(const locble::Vec2& v, const locble::Vec2& start,
                              double heading);
locble::Vec2 site_to_observer(const locble::Vec2& v, const locble::Vec2& start,
                              double heading);

/// Run one stationary-target measurement: L-shaped walk from the scenario's
/// start, full capture, dead reckoning, LocBLE pipeline.
MeasurementOutcome measure_stationary(const Scenario& sc, const BeaconPlacement& target,
                                      const MeasurementConfig& cfg, locble::Rng& rng);

/// Same, with an explicit observer trajectory (used by the distance sweep
/// and navigation experiments).
MeasurementOutcome measure_stationary_with_walk(const Scenario& sc,
                                                const BeaconPlacement& target,
                                                const imu::Trajectory& walk,
                                                const MeasurementConfig& cfg,
                                                locble::Rng& rng);

/// Moving-target measurement (Sec. 7.4.2): both devices move; the target's
/// RSS + motion transfer to the observer afterwards; frames are aligned via
/// the shared compass reference. Error is measured at the target's initial
/// location.
MeasurementOutcome measure_moving(const Scenario& sc, const BeaconPlacement& target,
                                  const imu::Trajectory& observer_walk,
                                  const MeasurementConfig& cfg, locble::Rng& rng);

/// Multi-beacon measurement with clustering calibration (Sec. 6): the
/// target plus `neighbors` are captured in one walk, each beacon gets its
/// own fit, DTW clustering selects the co-located set and re-weights.
struct ClusteredOutcome {
    MeasurementOutcome single;      ///< target-only estimate
    MeasurementOutcome calibrated;  ///< after clustering calibration
    core::ClusterCalibration cluster;
};
ClusteredOutcome measure_with_cluster(const Scenario& sc, const BeaconPlacement& target,
                                      const std::vector<BeaconPlacement>& neighbors,
                                      const MeasurementConfig& cfg, locble::Rng& rng);

/// Build the scenario's default L-shaped measurement walk (using `spec`
/// when given, otherwise the scenario's own L-shape).
imu::Trajectory default_l_walk(const Scenario& sc,
                               const std::optional<LShapeSpec>& spec = std::nullopt);

// ---------------------------------------------------------------------------
// Parallel Monte-Carlo batch entry points
//
// Every bench and sweep in this repo repeats one of the measure_* functions
// over hundreds of independently seeded trials. These helpers run such a
// batch on the runtime::TrialRunner: trial t draws from
// Rng::for_stream(plan.seed, t) and lands in slot t of the result vector,
// so the output is bit-identical for any thread count.
// ---------------------------------------------------------------------------

/// Run an arbitrary per-trial function `fn(trial_index, rng)` in parallel
/// under `plan`; results are ordered by trial index.
template <class Fn>
auto run_trials_parallel(const runtime::TrialPlan& plan, Fn&& fn) {
    runtime::TrialRunner runner(plan.threads);
    return runner.run(plan.trials, plan.seed, std::forward<Fn>(fn));
}

/// Batch of stationary-target measurements (one scenario, one beacon,
/// `plan.trials` independently seeded walks).
std::vector<MeasurementOutcome> run_stationary_trials(const Scenario& sc,
                                                      const BeaconPlacement& target,
                                                      const MeasurementConfig& cfg,
                                                      const runtime::TrialPlan& plan);

}  // namespace locble::sim
