#pragma once

#include <cstddef>

#include "locble/core/envaware.hpp"
#include "locble/core/location_solver.hpp"
#include "locble/core/pipeline.hpp"
#include "locble/dsp/anf.hpp"
#include "locble/serve/stats.hpp"

namespace locble::serve {

/// Streaming per-(client, beacon) tracking chain: causal ANF denoising
/// feeding core::BatchLoop, the Algorithm 1 batch loop (Sec. 5.3) that the
/// offline core::LocBle pipeline drives too.
///
/// Two deliberate differences from the offline pipeline, documented in
/// docs/SERVING.md: the ANF runs causally (a service cannot zero-phase
/// filter the future), so each denoised sample is paired with the pose
/// `Anf::group_delay_s()` earlier; and the solver re-solve is deferred to
/// the end of the epoch instead of running at every batch flush, so one
/// warm-started solve amortizes over every event the epoch delivered —
/// the serve layer's batching win. The cadence changes cost, not state:
/// the final fit equals the offline one for the same fused stream.
///
/// Everything here is driven by event-stream time, never the wall clock,
/// and by exactly one shard thread at a time, so a session's whole history
/// is a pure function of its input events — identical whatever the shard
/// or thread count.
class TrackingSession {
public:
    struct Config {
        /// Stage configuration shared with the offline pipeline: solver,
        /// ANF and EnvAware switches, Gamma prior.
        core::LocBle::Config pipeline{};
        /// When > 0, a session whose accumulated regression exceeds this
        /// many samples is reset (counted in `resets`) before the next
        /// batch is added — bounds per-session memory on endless streams.
        std::size_t max_session_samples{0};

        /// Field list in config-digest byte order (serve/checkpoint.cpp).
        template <class Self, class Visitor>
        static void fields(Self& s, Visitor& v) {
            auto& [pipeline, max_session_samples] = s;
            v(max_session_samples, pipeline);
        }
    };

    /// `anf` is a freshly built ANF; the session copies it. Building one
    /// designs the Butterworth cascade and probes its group delay, which
    /// costs far more than the copy, so a shard builds it once for all its
    /// sessions. `envaware` must be a trained model when
    /// cfg.pipeline.use_envaware is set; the session keeps its own copy (the
    /// regime tracker carries per-session streaming state).
    TrackingSession(const Config& cfg, const dsp::Anf& anf,
                    const core::EnvAware* envaware);

    TrackingSession(const TrackingSession&) = delete;
    TrackingSession& operator=(const TrackingSession&) = delete;

    /// Feed one advertisement: raw RSSI plus the relative displacement
    /// (p, q) = target - observer at the pose-pairing time (the caller
    /// already compensated the ANF group delay). Flushes every batch whose
    /// window closed before `t`, counting the flushes and resets in `stats`
    /// (the caller's ledger: a shard passes its epoch's worker counts).
    void on_adv(double t, double rssi_dbm, double p, double q, IngestStats& stats);

    /// Close out the epoch at event-time `horizon`: flush every batch whose
    /// window has passed, then, if a batch closed since the last solve, run
    /// one warm-started incremental solve over everything accumulated.
    /// Flushes, resets and the solve are counted in `stats`, as in on_adv().
    void finish_epoch(double horizon, IngestStats& stats);

    /// Pair poses this many seconds before the advertisement timestamp —
    /// the causal ANF chain's group delay (0 when the ANF is disabled).
    double pose_lag_s() const;

    bool has_fit() const { return has_fit_; }
    const core::LocationFit& fit() const { return fit_; }
    std::size_t samples_used() const { return samples_used_; }
    std::size_t samples_seen() const { return samples_seen_; }
    int regression_restarts() const { return loop_.restarts(); }
    int resets() const { return loop_.resets(); }
    double last_event_t() const { return loop_.last_t(); }

    /// Does the session still hold samples in an un-flushed batch window?
    /// The shard uses this to keep visiting otherwise-idle clients until
    /// their last open batch has closed and solved.
    bool has_open_batch() const { return loop_.has_open_batch(); }

    /// Snapshot dirty tracking (incremental snapshots, docs/SERVING.md):
    /// `snapshot_dirty()` is true when any field of the session's snapshot
    /// row changed since the last time a snapshot cleared it; the shard's
    /// per-epoch dirty list dedupes entries with `dirty_listed()`.
    bool snapshot_dirty() const { return snap_dirty_; }
    bool dirty_listed() const { return dirty_listed_; }
    void mark_dirty_listed() { dirty_listed_ = true; }
    void clear_snapshot_dirty() {
        snap_dirty_ = false;
        dirty_listed_ = false;
    }

private:
    /// Checkpoint/restore (serve/checkpoint.cpp) visits fields() below.
    friend struct CheckpointCodec;

    /// The session's complete serializable state as one field list, in
    /// checkpoint byte order (docs/WIRE.md): the codec's writer visits a
    /// const session, its reader a freshly constructed one (same config and
    /// EnvAware model — the config digest enforces this), which then
    /// continues bit-identically. `loop_` nests core::BatchLoop::fields;
    /// `anf_` and the loop's EnvAware and solver Session are visited through
    /// their own checkpoint state. The solver's incremental per-grid-point
    /// folds are not carried: restore re-adds the samples to the fresh
    /// Session, which rebuilds them bit-identically (left-to-right folds of
    /// the append-only stream); only the warm-start grid — genuine history
    /// — travels.
    template <class Self, class Visitor>
    static void fields(Self& s, Visitor& v) {
        auto& [anf_, loop_, dirty_, snap_dirty_, dirty_listed_, has_fit_, fit_,
               samples_used_, samples_seen_] = s;
        v(anf_, loop_, dirty_, snap_dirty_, dirty_listed_, has_fit_);
        if (has_fit_) v(fit_);
        v(samples_used_, samples_seen_);
    }

    /// The session's side of a closed batch: ledger counters, obs, and the
    /// snapshot and solve bookkeeping.
    void on_flush(const core::BatchLoop::Flush& f, IngestStats& stats);

    dsp::Anf anf_;
    core::BatchLoop loop_;

    bool dirty_{false};
    // A fresh session has a row to publish, so it is born snapshot-dirty.
    bool snap_dirty_{true};
    bool dirty_listed_{false};
    bool has_fit_{false};
    core::LocationFit fit_;
    std::size_t samples_used_{0};
    std::size_t samples_seen_{0};
};

}  // namespace locble::serve
