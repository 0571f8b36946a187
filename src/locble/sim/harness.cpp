#include "locble/sim/harness.hpp"

#include <cmath>
#include <stdexcept>

namespace locble::sim {

const core::EnvAware& shared_envaware() {
    // Function-local static: concurrent first calls block until the one
    // training pass finishes (C++11 magic-static guarantee), making this
    // safe to call from trial-runner worker threads. Benches that want the
    // training cost out of their timed region can call it once up front.
    static const core::EnvAware instance = [] {
        locble::Rng rng(20170417);
        const core::EnvDatasetConfig cfg{};
        const ml::Dataset data = generate_env_dataset(cfg, rng);
        core::EnvAware env;
        env.train(data);
        return env;
    }();
    return instance;
}

locble::Vec2 observer_to_site(const locble::Vec2& v, const locble::Vec2& start,
                              double heading) {
    return start + v.rotated(heading);
}

locble::Vec2 site_to_observer(const locble::Vec2& v, const locble::Vec2& start,
                              double heading) {
    return (v - start).rotated(-heading);
}

imu::Trajectory default_l_walk(const Scenario& sc,
                               const std::optional<LShapeSpec>& spec) {
    const LShapeSpec& l = spec ? *spec : sc.lshape;
    return imu::make_l_shape(sc.observer_start, sc.observer_heading, l.leg1_m, l.leg2_m,
                             l.turn_rad);
}

namespace {

core::LocBle build_pipeline(const MeasurementConfig& cfg, const BeaconPlacement& target) {
    core::LocBle::Config pipeline_cfg = cfg.pipeline;
    // The phone reads the calibrated 1 m power straight from the beacon's
    // advertisement frame; feed it to the solver as the Gamma prior.
    if (!pipeline_cfg.gamma_prior_dbm)
        pipeline_cfg.gamma_prior_dbm = target.profile.measured_power_dbm;
    if (pipeline_cfg.use_envaware) return core::LocBle(pipeline_cfg, shared_envaware());
    return core::LocBle(pipeline_cfg);
}

MeasurementOutcome finish_outcome(const core::LocateResult& result,
                                  const locble::Vec2& truth_site,
                                  const locble::Vec2& start, double heading) {
    MeasurementOutcome out;
    out.detail = result;
    out.truth_site = truth_site;
    out.truth_observer_frame = site_to_observer(truth_site, start, heading);
    if (!result.fit) return out;
    out.ok = true;
    out.estimate_observer_frame = result.fit->location;
    out.estimate_site = observer_to_site(result.fit->location, start, heading);
    out.error_m = locble::Vec2::distance(out.estimate_site, truth_site);
    out.x_error_m =
        std::abs(out.estimate_observer_frame.x - out.truth_observer_frame.x);
    out.h_error_m =
        std::abs(out.estimate_observer_frame.y - out.truth_observer_frame.y);
    return out;
}

}  // namespace

MeasurementOutcome measure_stationary_with_walk(const Scenario& sc,
                                                const BeaconPlacement& target,
                                                const imu::Trajectory& walk,
                                                const MeasurementConfig& cfg,
                                                locble::Rng& rng) {
    const CaptureRunner runner(cfg.capture);
    const WalkCapture capture = runner.run(sc.site, {target}, walk, rng);

    const motion::MotionEstimate observer_motion =
        motion::DeadReckoner(cfg.reckoner).track(capture.observer_imu);

    const core::LocBle pipeline = build_pipeline(cfg, target);
    const auto it = capture.rss.find(target.id);
    if (it == capture.rss.end() || it->second.empty())
        return finish_outcome({}, target.position, walk.pose_at(0.0).position,
                              walk.pose_at(0.0).heading);
    const core::LocateResult result = pipeline.locate(it->second, observer_motion);
    MeasurementOutcome out = finish_outcome(result, target.position,
                                            walk.pose_at(0.0).position,
                                            walk.pose_at(0.0).heading);
    out.rss = it->second;
    return out;
}

MeasurementOutcome measure_stationary(const Scenario& sc, const BeaconPlacement& target,
                                      const MeasurementConfig& cfg, locble::Rng& rng) {
    return measure_stationary_with_walk(sc, target, default_l_walk(sc, cfg.lshape), cfg,
                                        rng);
}

MeasurementOutcome measure_moving(const Scenario& sc, const BeaconPlacement& target,
                                  const imu::Trajectory& observer_walk,
                                  const MeasurementConfig& cfg, locble::Rng& rng) {
    if (!target.motion)
        throw std::invalid_argument("measure_moving: target has no trajectory");

    const CaptureRunner runner(cfg.capture);
    const WalkCapture capture = runner.run(sc.site, {target}, observer_walk, rng);

    const motion::DeadReckoner reckoner(cfg.reckoner);
    const motion::MotionEstimate observer_motion = reckoner.track(capture.observer_imu);

    // The target's own capture travels back to the observer (Sec. 5); its
    // dead-reckoned frame is aligned through the compass headings both
    // devices measured at their starting points.
    const auto& target_imu = capture.target_imu.at(target.id);
    motion::DeadReckoner::Config target_reckoner = cfg.reckoner;
    target_reckoner.snap_right_angles = false;  // free-form target movement
    const motion::MotionEstimate target_motion =
        motion::DeadReckoner(target_reckoner).track(target_imu);
    const double frame_rotation =
        initial_mag_heading(target_imu) - initial_mag_heading(capture.observer_imu);

    const core::LocBle pipeline = build_pipeline(cfg, target);
    const auto it = capture.rss.find(target.id);
    const locble::Vec2 start = observer_walk.pose_at(0.0).position;
    const double heading = observer_walk.pose_at(0.0).heading;
    const locble::Vec2 truth = target.motion->pose_at(0.0).position;
    if (it == capture.rss.end() || it->second.empty())
        return finish_outcome({}, truth, start, heading);

    // The observer frame is anchored at the *observer's* start; the target
    // moves relative to its own start, so its displacements (not absolute
    // positions) feed the solver. locate() handles that via p = b - a.
    const core::LocateResult result =
        pipeline.locate(it->second, observer_motion, target_motion, frame_rotation);
    MeasurementOutcome out = finish_outcome(result, truth, start, heading);
    out.rss = it->second;
    return out;
}

ClusteredOutcome measure_with_cluster(const Scenario& sc, const BeaconPlacement& target,
                                      const std::vector<BeaconPlacement>& neighbors,
                                      const MeasurementConfig& cfg, locble::Rng& rng) {
    const imu::Trajectory walk = default_l_walk(sc, cfg.lshape);
    std::vector<BeaconPlacement> all{target};
    all.insert(all.end(), neighbors.begin(), neighbors.end());

    const CaptureRunner runner(cfg.capture);
    const WalkCapture capture = runner.run(sc.site, all, walk, rng);
    const motion::MotionEstimate observer_motion =
        motion::DeadReckoner(cfg.reckoner).track(capture.observer_imu);
    const core::LocBle pipeline = build_pipeline(cfg, target);

    const locble::Vec2 start = walk.pose_at(0.0).position;
    const double heading = walk.pose_at(0.0).heading;

    ClusteredOutcome out;
    std::optional<core::ClusterCandidate> target_candidate;
    std::vector<core::ClusterCandidate> neighbor_candidates;
    for (const auto& b : all) {
        const auto it = capture.rss.find(b.id);
        if (it == capture.rss.end() || it->second.empty()) continue;
        const core::LocateResult result = pipeline.locate(it->second, observer_motion);
        if (b.id == target.id)
            out.single = finish_outcome(result, target.position, start, heading);
        if (!result.fit) continue;
        core::ClusterCandidate cand;
        cand.id = b.id;
        cand.rss = it->second;
        cand.fit = *result.fit;
        if (b.id == target.id)
            target_candidate = std::move(cand);
        else
            neighbor_candidates.push_back(std::move(cand));
    }

    if (!target_candidate) {
        out.calibrated = out.single;
        return out;
    }

    const core::ClusteringCalibrator calibrator;
    out.cluster = calibrator.calibrate(*target_candidate, neighbor_candidates);

    core::LocateResult calibrated_result = out.single.detail;
    if (calibrated_result.fit) {
        calibrated_result.fit->location = out.cluster.calibrated;
        calibrated_result.fit->confidence = out.cluster.combined_confidence;
    }
    out.calibrated = finish_outcome(calibrated_result, target.position, start, heading);
    return out;
}

std::vector<MeasurementOutcome> run_stationary_trials(const Scenario& sc,
                                                      const BeaconPlacement& target,
                                                      const MeasurementConfig& cfg,
                                                      const runtime::TrialPlan& plan) {
    shared_envaware();  // train outside the worker threads / timed region
    return run_trials_parallel(plan, [&](int, locble::Rng& rng) {
        return measure_stationary(sc, target, cfg, rng);
    });
}

}  // namespace locble::sim
