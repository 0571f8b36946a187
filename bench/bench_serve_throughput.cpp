// Serve throughput: the sharded batching TrackingService versus the naive
// multi-client server one would write straight against the public offline
// API — one pipeline per (client, beacon) behind one global mutex, full
// core::LocBle::locate() re-run over the accumulated capture whenever a
// session saw new data (ISSUE 5 tentpole).
//
// Both servers consume the identical interleaved event stream on a single
// core with the same solver search mode, so the measured gap isolates the
// serve architecture: bounded-queue ingest, per-epoch batch flushing, the
// causal (run-once) ANF, and the warm-started incremental solver session,
// against the naive server's re-filter-and-cold-solve-from-scratch cadence.
//
// Reported per sweep point: per-trial wall time of both servers, the
// median-of-per-trial-ratios speedup (lockstep epochs cancel machine
// load), an events/sec shard sweep (1/2/4/8 shards, single-threaded — on
// one core sharding must be free, not faster), an *overlapped* shard sweep
// (threads == shards, ingest submitted while the epoch is in flight — the
// PR 6 pipelining tentpole; on a multi-core box events/sec must improve
// with shard count), an overflow run with a deliberately tiny queue (drop
// accounting), and a 1-shard vs 8-shard canonical snapshot identity check.
// A final idle-fleet section measures full vs incremental snapshot cost on
// a 64-client fleet where 56 clients have gone silent.
//
// The tail-latency telemetry section (ISSUE 7) replays a mostly-idle fleet
// with the epoch flight recorder on and reports the service's own health
// surface: event-time snapshot-staleness quantiles, rolling-window drop /
// no-fix / eviction rates, and the ok/degraded/overloaded classification.
// Every `tail.*` scalar is a pure function of event time and u64 counters,
// so it is byte-identical whatever the shard count; scheduling-dependent
// values (epoch wall-clock percentiles, the shard count itself) live under
// `tail.nd.*` and are excluded from determinism comparisons. The section
// also writes SERVE_status_shards{1,8}.json and SERVE_flight_recorder.json
// next to the report so CI can diff the status "deterministic" object
// across shard counts and archive the recorder dump. The headline pass's
// shard count follows LOCBLE_SERVE_TAIL_SHARDS (default 1) — an env var,
// like LOCBLE_THREADS, because it is a CI axis rather than a user knob.
//
// At the xlarge point a second overlapped sweep holds one shard and varies
// the worker threads (1/2/4): workers claim clients and sessions, not
// shards, so a one-shard service scales with its threads too.
//
// Headline CI gates: xlarge.speedup >= 2 and
// xlarge.determinism_identical == 1 always, tail.determinism_identical == 1
// always; on runners with >= 4 cores (the `cores` scalar) both overlapped
// sweeps must additionally scale:
// xlarge.overlap_events_per_sec_shards4 > overlap_events_per_sec_shards1 and
// xlarge.overlap_events_per_sec_1shard_threads4 > ..._1shard_threads1.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "locble/common/table.hpp"
#include "locble/core/pipeline.hpp"
#include "locble/serve/service.hpp"
#include "locble/sim/multi_client.hpp"

using namespace locble;

namespace {

constexpr double kEpochSeconds = 4.0;

double now_us() {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

core::LocBle::Config pipeline_config() {
    core::LocBle::Config cfg;
    cfg.use_envaware = false;  // identical stages on both sides
    cfg.gamma_prior_dbm = -59.0;
    // Both servers get the production fast-path solver, so the ratio
    // measures the serve architecture, not the exponent grid.
    cfg.solver.search_mode = core::LocationSolver::SearchMode::coarse_to_fine;
    return cfg;
}

serve::TrackingService::Config serve_config(unsigned shards,
                                            unsigned threads = 1) {
    serve::TrackingService::Config cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.shard.session.pipeline = pipeline_config();
    cfg.shard.queue_capacity = 1 << 14;
    return cfg;
}

/// Slice the workload into per-epoch submission batches (same edges the
/// phased run_pass uses).
std::vector<std::vector<serve::Event>> chunk_by_epoch(
    const std::vector<serve::Event>& events) {
    std::vector<std::vector<serve::Event>> batches;
    std::size_t i = 0;
    for (double edge = kEpochSeconds; i < events.size(); edge += kEpochSeconds) {
        std::vector<serve::Event> b;
        while (i < events.size() && events[i].t <= edge) b.push_back(events[i++]);
        batches.push_back(std::move(b));
    }
    return batches;
}

/// The baseline: what the offline API invites you to write. One global
/// mutex over a map of per-client captures; every epoch re-runs the whole
/// offline pipeline (zero-phase ANF over the full accumulated series +
/// cold solve) for every session that saw new data.
class NaiveServer {
public:
    NaiveServer() : pipeline_(pipeline_config()) {}

    void ingest(const serve::Event& e) {
        const std::lock_guard<std::mutex> lock(mu_);
        Client& c = clients_[e.client];
        if (e.kind == serve::EventKind::pose) {
            c.motion.path.push_back({e.t, e.position});
        } else {
            c.rss[e.beacon].push_back({e.t, e.rssi_dbm});
            c.dirty[e.beacon] = true;
        }
    }

    void epoch() {
        const std::lock_guard<std::mutex> lock(mu_);
        for (auto& [id, c] : clients_) {
            if (c.motion.path.empty()) continue;
            for (auto& [beacon, dirty] : c.dirty) {
                if (!dirty) continue;
                dirty = false;
                const auto result = pipeline_.locate(c.rss[beacon], c.motion);
                if (result.fit) {
                    c.fits[beacon] = *result.fit;
                    ++fits_;
                }
                ++solves_;
            }
        }
    }

    std::uint64_t solves() const { return solves_; }
    std::uint64_t fits() const { return fits_; }

private:
    struct Client {
        motion::MotionEstimate motion;
        std::map<std::uint64_t, locble::TimeSeries> rss;
        std::map<std::uint64_t, bool> dirty;
        std::map<std::uint64_t, core::LocationFit> fits;
    };
    std::mutex mu_;
    core::LocBle pipeline_;
    std::map<serve::ClientId, Client> clients_;
    std::uint64_t solves_{0};
    std::uint64_t fits_{0};
};

/// Drive one server through the workload in epoch slices; returns wall us.
template <class Ingest, class Epoch>
double run_pass(const std::vector<serve::Event>& events, Ingest&& ingest,
                Epoch&& epoch) {
    const double t0 = now_us();
    std::size_t i = 0;
    for (double edge = kEpochSeconds; i < events.size(); edge += kEpochSeconds) {
        while (i < events.size() && events[i].t <= edge) ingest(events[i++]);
        epoch();
    }
    return now_us() - t0;
}

double serve_pass(const sim::MultiClientWorkload& wl, unsigned shards,
                  std::string* canonical = nullptr) {
    serve::TrackingService svc(serve_config(shards));
    const double us = run_pass(
        wl.events, [&](const serve::Event& e) { svc.submit(e); },
        [&] { svc.run_epoch(); });
    if (canonical != nullptr) *canonical = serve::canonical_text(svc.snapshot());
    return us;
}

/// The pipelined schedule: batch k+1 is submitted while epoch k runs on
/// `threads` workers. Byte-identical results to serve_pass by the
/// phased-equivalence contract; on a multi-core box the ingest cost hides
/// behind the epoch and shards add real parallelism.
double overlapped_pass(const std::vector<std::vector<serve::Event>>& batches,
                       unsigned shards, unsigned threads,
                       std::string* canonical = nullptr) {
    serve::TrackingService svc(serve_config(shards, threads));
    const double t0 = now_us();
    if (!batches.empty()) svc.submit(batches.front());
    for (std::size_t k = 0; k < batches.size(); ++k) {
        svc.begin_epoch();
        if (k + 1 < batches.size()) svc.submit(batches[k + 1]);
        svc.end_epoch();
    }
    const double us = now_us() - t0;
    if (canonical != nullptr) *canonical = serve::canonical_text(svc.snapshot());
    return us;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct SweepPoint {
    const char* key;
    int clients;
    int beacons;
};

}  // namespace

int main(int argc, char** argv) {
    const auto opt = bench::parse_options(argc, argv);
    bench::Runner runner("serve_throughput", opt, 52000);

    bench::print_header(
        "Serve throughput — sharded batching service vs naive mutex server",
        "same event stream, same solver, single core; the serve layer's "
        "batching + warm-started incremental solves carry the speedup");

    const SweepPoint sweep[] = {
        {"small", 8, 2},
        {"medium", 24, 4},
        {"large", 48, 8},
        {"xlarge", 64, 8},
    };
    const int trials = runner.trials_or(3);
    const unsigned shard_sweep[] = {1, 2, 4, 8};

    TextTable table({"point", "events", "naive ms", "serve ms", "speedup",
                     "ev/s (1 shard)", "identical"});

    double xlarge_speedup = 0.0;
    bool all_identical = true;

    for (std::size_t p = 0; p < std::size(sweep); ++p) {
        const auto& pt = sweep[p];
        sim::MultiClientConfig wcfg;
        wcfg.clients = pt.clients;
        wcfg.beacons = pt.beacons;
        const auto wl = sim::make_multi_client_workload(wcfg, runner.sweep_seed(p));
        const std::string k(pt.key);

        // Warm-up pass of each server (page in code + allocators).
        { NaiveServer warm; run_pass(wl.events,
            [&](const serve::Event& e) { warm.ingest(e); }, [&] { warm.epoch(); }); }
        serve_pass(wl, 1);

        // Lockstep trials: naive then serve back-to-back per trial, so
        // transient machine load cancels inside each per-trial ratio.
        std::vector<double> naive_us, serve_us, ratios;
        std::uint64_t naive_solves = 0;
        for (int t = 0; t < trials; ++t) {
            NaiveServer naive;
            const double n_us = run_pass(
                wl.events, [&](const serve::Event& e) { naive.ingest(e); },
                [&] { naive.epoch(); });
            const double s_us = serve_pass(wl, 1);
            naive_us.push_back(n_us);
            serve_us.push_back(s_us);
            ratios.push_back(n_us / s_us);
            naive_solves = naive.solves();
        }
        runner.add_trials(trials);
        const double speedup = median(ratios);
        if (k == "xlarge") xlarge_speedup = speedup;

        // Shard sweep: events/sec at 1/2/4/8 shards, still one thread.
        std::string canon1, canon8;
        double per_shard_evps[std::size(shard_sweep)] = {};
        for (std::size_t s = 0; s < std::size(shard_sweep); ++s) {
            std::string* canon = shard_sweep[s] == 1   ? &canon1
                                 : shard_sweep[s] == 8 ? &canon8
                                                       : nullptr;
            const double us = serve_pass(wl, shard_sweep[s], canon);
            per_shard_evps[s] =
                static_cast<double>(wl.events.size()) / (us * 1e-6);
        }
        const bool identical = canon1 == canon8 && !canon1.empty();
        all_identical = all_identical && identical;

        // Overlapped sweep: pipelined ingest with threads == shards. The
        // canonical snapshot must stay byte-identical to the phased 1-shard
        // run (the phased-equivalence contract), and on a multi-core box
        // events/sec must improve with shard count.
        const auto batches = chunk_by_epoch(wl.events);
        double overlap_evps[std::size(shard_sweep)] = {};
        std::string ocanon;
        for (std::size_t s = 0; s < std::size(shard_sweep); ++s) {
            const double us = overlapped_pass(
                batches, shard_sweep[s], shard_sweep[s],
                shard_sweep[s] == 8 ? &ocanon : nullptr);
            overlap_evps[s] =
                static_cast<double>(wl.events.size()) / (us * 1e-6);
        }
        bool overlap_identical = ocanon == canon1 && !canon1.empty();

        // One shard, more workers: the epoch's sessions spread over the
        // threads whatever the shard count.
        const unsigned thread_sweep[] = {1, 2, 4};
        double thread_evps[std::size(thread_sweep)] = {};
        if (k == "xlarge") {
            for (std::size_t t = 0; t < std::size(thread_sweep); ++t) {
                std::string tcanon;
                const double us =
                    overlapped_pass(batches, 1, thread_sweep[t], &tcanon);
                thread_evps[t] = static_cast<double>(wl.events.size()) / (us * 1e-6);
                overlap_identical = overlap_identical && tcanon == canon1;
            }
        }
        all_identical = all_identical && overlap_identical;

        // Overflow run: a queue two orders too small must degrade
        // gracefully and account for every drop.
        auto ocfg = serve_config(1);
        ocfg.shard.queue_capacity = 64;
        serve::TrackingService overloaded(ocfg);
        for (const auto& e : wl.events) overloaded.submit(e);
        overloaded.run_epoch();
        const serve::IngestStats ostats = overloaded.stats();

        table.add_row(k,
                      {static_cast<double>(wl.events.size()),
                       median(naive_us) / 1000.0, median(serve_us) / 1000.0,
                       speedup, per_shard_evps[0], identical ? 1.0 : 0.0},
                      2);

        auto& rep = runner.report();
        rep.add_scalar(k + ".clients", pt.clients);
        rep.add_scalar(k + ".beacons", pt.beacons);
        rep.add_scalar(k + ".events", static_cast<double>(wl.events.size()));
        rep.add_scalar(k + ".naive_us", median(naive_us));
        rep.add_scalar(k + ".serve_us", median(serve_us));
        rep.add_scalar(k + ".naive_solves", static_cast<double>(naive_solves));
        rep.add_scalar(k + ".speedup", speedup);
        for (std::size_t s = 0; s < std::size(shard_sweep); ++s)
            rep.add_scalar(k + ".events_per_sec_shards" +
                               std::to_string(shard_sweep[s]),
                           per_shard_evps[s]);
        for (std::size_t s = 0; s < std::size(shard_sweep); ++s)
            rep.add_scalar(k + ".overlap_events_per_sec_shards" +
                               std::to_string(shard_sweep[s]),
                           overlap_evps[s]);
        if (k == "xlarge")
            for (std::size_t t = 0; t < std::size(thread_sweep); ++t)
                rep.add_scalar(k + ".overlap_events_per_sec_1shard_threads" +
                                   std::to_string(thread_sweep[t]),
                               thread_evps[t]);
        rep.add_scalar(k + ".determinism_identical",
                       identical && overlap_identical ? 1.0 : 0.0);
        rep.add_scalar(k + ".overflow_submitted",
                       static_cast<double>(ostats.submitted));
        rep.add_scalar(k + ".overflow_dropped",
                       static_cast<double>(ostats.dropped));
        rep.add_scalar(k + ".overflow_accepted",
                       static_cast<double>(ostats.accepted));
    }

    std::printf("%s\n", table.str().c_str());

    // Idle-fleet snapshot benchmark: 64 clients, 56 silent after 8 s of
    // their own timeline, idle eviction off so the whole fleet stays
    // resident. The full snapshot re-reads every session each epoch; the
    // incremental snapshot's cost scales with the handful of sessions the
    // active clients keep dirtying.
    {
        sim::MultiClientConfig icfg;
        icfg.clients = 64;
        icfg.beacons = 8;
        icfg.idle_clients = 56;
        icfg.idle_active_s = 8.0;
        const auto iwl =
            sim::make_multi_client_workload(icfg, runner.sweep_seed(99));
        auto cfg = serve_config(4);
        cfg.shard.idle_timeout_s = 1e9;  // keep the idle cohort resident
        serve::TrackingService full_svc(cfg);
        serve::TrackingService inc_svc(cfg);

        std::vector<double> full_us, inc_us;
        double full_rows = 0.0, inc_rows = 0.0;
        std::size_t live = 0;
        for (const auto& batch : chunk_by_epoch(iwl.events)) {
            full_svc.submit(batch);
            inc_svc.submit(batch);
            full_svc.run_epoch();
            inc_svc.run_epoch();
            double t0 = now_us();
            const auto f = full_svc.snapshot(serve::SnapshotMode::full);
            full_us.push_back(now_us() - t0);
            t0 = now_us();
            const auto d = inc_svc.snapshot(serve::SnapshotMode::incremental);
            inc_us.push_back(now_us() - t0);
            full_rows += static_cast<double>(f.estimates.size());
            inc_rows += static_cast<double>(d.estimates.size());
            live = f.sessions_live;
        }
        const double n = static_cast<double>(full_us.size());
        const double f_med = median(full_us);
        const double i_med = median(inc_us);
        std::printf(
            "idle fleet (%zu live sessions, %d/%d clients silent): full "
            "snapshot %.0f us/epoch (%.0f rows avg), incremental %.0f "
            "us/epoch (%.0f rows avg), %.1fx\n\n",
            live, icfg.idle_clients, icfg.clients, f_med, full_rows / n, i_med,
            inc_rows / n, i_med > 0.0 ? f_med / i_med : 0.0);
        auto& rep = runner.report();
        rep.add_scalar("idle.sessions_live", static_cast<double>(live));
        rep.add_scalar("idle.epochs", n);
        rep.add_scalar("idle.snapshot_full_us", f_med);
        rep.add_scalar("idle.snapshot_incremental_us", i_med);
        rep.add_scalar("idle.snapshot_rows_full_avg", full_rows / n);
        rep.add_scalar("idle.snapshot_rows_incremental_avg", inc_rows / n);
        rep.add_scalar("idle.snapshot_speedup",
                       i_med > 0.0 ? f_med / i_med : 0.0);
    }

    // Tail-latency telemetry: the same mostly-idle fleet shape as above,
    // replayed with the flight recorder on. Event-time staleness is exactly
    // what the health surface must flag here — the idle cohort's snapshots
    // age while eviction is off — and every deterministic status field must
    // come out byte-identical at 1 and 8 shards.
    {
        sim::MultiClientConfig tcfg;
        tcfg.clients = 64;
        tcfg.beacons = 8;
        tcfg.idle_clients = 48;
        tcfg.idle_active_s = 8.0;
        const auto twl =
            sim::make_multi_client_workload(tcfg, runner.sweep_seed(7));
        const auto tbatches = chunk_by_epoch(twl.events);

        struct TailRun {
            serve::ServiceStatus status;
            std::string status_json;
            std::string recorder_json;
            double wall_us{0.0};
        };
        auto tail_pass = [&](unsigned shards) {
            auto cfg = serve_config(shards);
            cfg.shard.idle_timeout_s = 1e9;  // idle cohort stays resident
            cfg.flight_recorder_epochs = 256;  // cover the whole run
            serve::TrackingService svc(cfg);
            const double t0 = now_us();
            for (const auto& b : tbatches) {
                svc.submit(b);
                svc.run_epoch();
            }
            TailRun r;
            r.wall_us = now_us() - t0;
            (void)svc.snapshot();  // back-fills the latest record's row count
            r.status = svc.status();
            r.status_json = serve::status_json(r.status);
            r.recorder_json = svc.flight_recorder().to_json();
            return r;
        };
        // The status JSON up to (excluding) the "nd" object: schema version
        // plus the whole deterministic section.
        const auto deterministic_part = [](const std::string& json) {
            const std::size_t nd = json.find("\"nd\":");
            return json.substr(0, nd == std::string::npos ? json.size() : nd);
        };

        unsigned tail_shards = 1;
        if (const char* env = std::getenv("LOCBLE_SERVE_TAIL_SHARDS"))
            tail_shards = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
        if (tail_shards == 0) tail_shards = 1;

        const TailRun run1 = tail_pass(1);
        const TailRun run8 = tail_pass(8);
        const TailRun head = tail_shards == 1   ? run1
                             : tail_shards == 8 ? run8
                                                : tail_pass(tail_shards);
        const bool tail_identical =
            deterministic_part(run1.status_json) ==
            deterministic_part(run8.status_json);
        all_identical = all_identical && tail_identical;

        const serve::ServiceStatus& st = head.status;
        std::printf(
            "tail telemetry (%u shard%s, %zu epochs): health %s, staleness "
            "p50/p95/p99 %.1f/%.1f/%.1f s (max %.1f), drop %.4f, no-fix "
            "%.4f; status deterministic across 1 vs 8 shards: %s\n\n",
            tail_shards, tail_shards == 1 ? "" : "s", tbatches.size(),
            serve::health_name(st.health), st.staleness_p50_s,
            st.staleness_p95_s, st.staleness_p99_s, st.staleness_max_s,
            st.drop_rate, st.no_fix_rate, tail_identical ? "yes" : "NO");

        auto& rep = runner.report();
        rep.add_scalar("tail.events", static_cast<double>(twl.events.size()));
        rep.add_scalar("tail.epochs", static_cast<double>(st.epoch));
        rep.add_scalar("tail.window_epochs",
                       static_cast<double>(st.window_epochs));
        rep.add_scalar("tail.sessions_live",
                       static_cast<double>(st.sessions_live));
        rep.add_scalar("tail.sessions_no_fit",
                       static_cast<double>(st.sessions_no_fit));
        rep.add_scalar("tail.staleness_p50_s", st.staleness_p50_s);
        rep.add_scalar("tail.staleness_p95_s", st.staleness_p95_s);
        rep.add_scalar("tail.staleness_p99_s", st.staleness_p99_s);
        rep.add_scalar("tail.staleness_max_s", st.staleness_max_s);
        rep.add_scalar("tail.drop_rate", st.drop_rate);
        rep.add_scalar("tail.no_fix_rate", st.no_fix_rate);
        rep.add_scalar("tail.eviction_rate", st.eviction_rate);
        rep.add_text("tail.health", serve::health_name(st.health));
        rep.add_scalar("tail.determinism_identical", tail_identical ? 1.0 : 0.0);
        // nd group: wall clock + run configuration, excluded from the
        // cross-shard-count byte comparison.
        rep.add_scalar("tail.nd.shards", static_cast<double>(tail_shards));
        rep.add_scalar("tail.nd.wall_us", head.wall_us);
        rep.add_scalar("tail.nd.epoch_wall_p50_us", st.epoch_wall_p50_us);
        rep.add_scalar("tail.nd.epoch_wall_p99_us", st.epoch_wall_p99_us);
        rep.add_scalar("tail.nd.epoch_wall_max_us", st.epoch_wall_max_us);

        if (opt.json) {
            const std::string dir =
                opt.out_dir.empty() || opt.out_dir == "." ? std::string()
                                                          : opt.out_dir + "/";
            const auto dump = [&](const std::string& name,
                                  const std::string& body) {
                const std::string path = dir + name;
                std::ofstream file(path, std::ios::trunc);
                if (!file)
                    throw std::runtime_error("cannot write " + path);
                file << body;
                std::printf("report: %s\n", path.c_str());
            };
            dump("SERVE_status_shards1.json", run1.status_json + "\n");
            dump("SERVE_status_shards8.json", run8.status_json + "\n");
            dump("SERVE_flight_recorder.json", head.recorder_json + "\n");
        }
    }

    runner.report().add_text("largest_point", "xlarge");
    runner.report().add_scalar(
        "cores", static_cast<double>(std::thread::hardware_concurrency()));
    std::printf("headline (CI gate): xlarge.speedup >= 2 (got %.2f); every\n"
                "point's phased and overlapped canonical snapshots plus the\n"
                "tail status identical across shard counts (%s);\n"
                "on >= 4 cores the overlapped sweeps must scale with "
                "shards and, at one shard, with threads\n\n",
                xlarge_speedup, all_identical ? "yes" : "NO");
    return runner.finish();
}
