// LocBLE performance benchmark: one program, three closed-loop workloads
// (perfbench/README.md has the why of each and the metric map).
//
//   locble_perf --workload fleet_replay|standby_long_walk|offline_fix
//               --seed N --seconds S --trace 0|1
//               [--scale full|tiny] [--threads N] [--trace-out PATH]
//
// Every workload is generated from --seed, driven through the library's
// public API from this one process, scored against the simulator's truth,
// and checked. The last stdout line is one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Lines before it are a human-readable table of the same
// metrics plus the snapshot-stream digest. Exit code 0 means the run
// finished; "correct" says whether its outputs checked out.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ledger.hpp"
#include "locble/core/envaware.hpp"
#include "locble/core/pipeline.hpp"
#include "locble/motion/dead_reckoning.hpp"
#include "locble/obs/metrics.hpp"
#include "locble/obs/trace.hpp"
#include "locble/serve/replay.hpp"
#include "locble/serve/service.hpp"
#include "locble/sim/capture.hpp"
#include "locble/sim/harness.hpp"
#include "locble/sim/multi_client.hpp"
#include "locble/sim/scenarios.hpp"
#include "locble/sim/workload_log.hpp"
#include "locble/wire/log.hpp"
#include "oracle.hpp"

using namespace locble;

namespace {

// --- command line ------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    bool tiny{false};   ///< --scale tiny: the benchmark's own smoke tests
    int threads{0};     ///< fleet_replay worker threads; 0 = workload default
    std::string trace_out;

    /// Set-ups timed for setup_s: one at tiny scale.
    std::size_t setup_reps() const { return tiny ? 1 : 5; }
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "error: %s\nusage: locble_perf --workload "
                 "fleet_replay|standby_long_walk|offline_fix --seed N --seconds S "
                 "--trace 0|1 [--scale full|tiny] [--threads N] [--trace-out PATH]\n",
                 why);
    std::exit(2);
}

bool parse_number(const char* text, double& out) {
    char* end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(out);
}

Options parse_options(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) usage("missing flag value");
        const char* value = argv[++i];
        double number = 0.0;
        const bool numeric = parse_number(value, number);
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed" && numeric && number >= 0) {
            o.seed = static_cast<std::uint64_t>(number);
        } else if (flag == "--seconds" && numeric && number > 0) {
            o.seconds = number;
        } else if (flag == "--trace" && numeric && (number == 0 || number == 1)) {
            o.trace = number == 1;
        } else if (flag == "--scale" && (std::string_view(value) == "full" ||
                                         std::string_view(value) == "tiny")) {
            o.tiny = std::string_view(value) == "tiny";
        } else if (flag == "--threads" && numeric && number >= 1 && number <= 64) {
            o.threads = static_cast<int>(number);
        } else if (flag == "--trace-out") {
            o.trace_out = value;
        } else {
            usage("unknown flag or bad value");
        }
    }
    if (o.workload.empty()) usage("--workload is required");
    // The other two workloads run on one thread by design.
    if (o.threads > 0 && o.workload != "fleet_replay")
        usage("--threads applies to fleet_replay only");
    return o;
}

// --- metrics -----------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// One run's result: accounting, correctness and the metrics in print order.
struct Result {
    bool correct{true};
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    std::vector<Metric> metrics;
    /// getrusage max RSS once set-up and the first pass are done. Later
    /// passes rebuild the service and only add allocator churn.
    double peak_rss_mb{0.0};

    /// Add a metric to the printed set, reading 0 until set().
    void declare(std::string name, std::string unit) {
        metrics.push_back({std::move(name), 0.0, std::move(unit)});
    }
    void set(std::string_view name, double value) {
        for (Metric& m : metrics)
            if (m.name == name) {
                m.value = value;
                return;
            }
        throw std::logic_error("undeclared metric " + std::string(name));
    }
    void check(bool ok, const char* what) {
        if (ok) return;
        correct = false;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    }
};

struct MetricDef {
    const char* name;
    const char* unit;
};

/// Printed by --trace 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"events_per_sec", "events/s"}, {"fixes_per_sec", "fixes/s"},
    {"epoch_ms_p50", "ms"},    {"epoch_ms_p90", "ms"},         {"fix_ms_p50", "ms"},
    {"fix_ms_p90", "ms"},      {"fix_error_m_p50", "m"},       {"fix_error_m_p90", "m"},
    {"fix_rate", "ratio"},     {"peak_rss_mb", "MB"},
};

/// Printed by --trace 1, followed by self_ms.<span> for each kSelfTimeSpans
/// entry. A metric of a layer the workload never calls reads 0.
constexpr MetricDef kPerLayer[] = {
    {"wire.decode_ns_per_event", "ns"},
    {"wire.decode_failed", "count"},
    {"serve.submit_ns_per_event", "ns"},
    {"serve.ingest_dropped", "count"},
    {"serve.ingest_rejected", "count"},
    {"serve.ingest_late", "count"},
    {"serve.epoch_busy_ms_p50", "ms"},
    {"serve.barrier_wait_ms_p50", "ms"},
    {"serve.shard_imbalance_p50", "ratio"},
    {"serve.solves", "count"},
    {"serve.batches_flushed", "count"},
    {"serve.staleness_s_p99", "s"},
    {"serve.snapshot_us_p50", "us"},
    {"serve.snapshot_rows_per_epoch", "rows"},
    {"serve.status_us_p50", "us"},
    {"serve.checkpoint_ms_p50", "ms"},
    {"serve.restore_ms_p50", "ms"},
    {"serve.checkpoint_bytes_per_session", "B"},
    {"solver.solve_ms_p50", "ms"},
    {"solver.solve_ms_p99", "ms"},
    {"solver.epoch_share", "ratio"},
    {"solver.solve_calls", "count"},
    {"solver.exponent_candidates", "count"},
    {"solver.multistart_runs", "count"},
    {"solver.multistart_ratio", "ratio"},
    {"solver.warm_fallbacks", "count"},
    {"solver.workspace_grows", "count"},
    {"solver.samples_folded", "count"},
    {"solver.convergence_failures", "count"},
    {"anf.offline_share", "ratio"},
    {"envaware.windows", "count"},
    {"anf.samples", "count"},
    {"trace.epoch_accounted", "ratio"},
    {"no_fix_rate", "ratio"},
    {"core.locate_ms_p50", "ms"},
    {"motion.track_ms_p50", "ms"},
    {"trace.overhead_pct", "%"},
};

/// Spans whose self time is reported, in ms per pass: the benchmark's own
/// spans around each layer call first, then the program's existing spans.
constexpr const char* kSelfTimeSpans[] = {
    "driver.cycle",           "call.wire.next",         "call.serve.submit",
    "call.serve.begin_epoch", "call.serve.end_epoch",   "call.serve.snapshot",
    "call.serve.status",      "call.serve.checkpoint",  "call.serve.restore_checkpoint",
    "call.motion.track",      "call.core.locate",       "serve.epoch",
    "serve.epoch.swap",       "serve.epoch.barrier",    "serve.shard.epoch",
    "serve.snapshot",         "solver.solve",           "pipeline.locate",
    "anf.process_offline",
};

double read_peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Time one call into a layer on the global tracer's clock. While tracing is
/// on, the call is also recorded as a span, so the program's own spans nest
/// under it in the trace.
template <class F>
double timed_us(const char* span, F&& f) {
    obs::Tracer& tracer = obs::Tracer::global();
    const double t0 = tracer.now_us();
    f();
    const double dur = tracer.now_us() - t0;
    tracer.record(span, t0, dur);
    return dur;
}

/// Set-up timing. The first set-up builds what the run uses. Repetitions
/// build the same inputs again between passes, so that they sample the host
/// across the whole run, and are discarded. setup_s is the median.
class SetupTimer {
public:
    template <class F>
    auto time(F&& build) {
        const auto t0 = std::chrono::steady_clock::now();
        auto built = build();
        secs_.push_back(seconds_since(t0));
        std::fprintf(stderr, "setup %zu: %.3f s\n", secs_.size(), secs_.back());
        return built;
    }
    std::size_t count() const { return secs_.size(); }
    double median() const { return perf::quantile(secs_, 0.5); }

private:
    std::vector<double> secs_;
};

/// Run whole passes for about `seconds`, in groups of `group` passes: a
/// further group starts only while it is expected to end nearer the target
/// than stopping now would, and at least one group runs. `pass` gets the
/// pass index; `between` runs after each pass.
template <class Pass, class Between>
void run_passes(double seconds, int group, Pass&& pass, Between&& between) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0;; ++i) {
        const auto p0 = std::chrono::steady_clock::now();
        pass(i);
        const double pass_s = seconds_since(p0);
        between();
        if ((i + 1) % group == 0 && seconds_since(t0) + group * pass_s / 2 >= seconds) return;
    }
}

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/// Deterministic half of status_json(): everything before the "nd" key.
std::string det_status(const serve::ServiceStatus& st) {
    const std::string full = serve::status_json(st);
    return full.substr(0, full.find("\"nd\":"));
}

/// EnvAware trained with the recipe of sim::shared_envaware(), run here so
/// every set-up repetition pays for the training.
core::EnvAware train_envaware() {
    locble::Rng rng(20170417);
    core::EnvAware env;
    env.train(core::generate_env_dataset(core::EnvDatasetConfig{}, rng));
    return env;
}

// --- obs counters and spans (the traced epochs) --------------------------------

/// Deterministic obs counters the per-layer metrics read, per pass.
const char* const kCounters[] = {
    "solver.solve_calls",       "solver.exponent_candidates", "solver.multistart_runs",
    "solver.warm_fallbacks",    "solver.workspace_grows",     "solver.samples_folded",
    "solver.convergence_failures", "envaware.windows",         "anf.samples",
};

std::map<std::string, std::uint64_t> read_counters() {
    std::map<std::string, std::uint64_t> out;
    for (const char* name : kCounters) out[name] = 0;
    for (const obs::MetricSnapshot& m : obs::Registry::global().snapshot())
        if (m.kind == obs::MetricKind::counter && m.deterministic && out.count(m.name))
            out[m.name] = m.count;
    return out;
}

/// Spans that count as layer work when accounting for a driver cycle: every
/// span of the program except the barrier wait, plus the benchmark's spans
/// around the calls that have no program span inside them. The benchmark's
/// wrappers of begin_epoch, end_epoch, snapshot and locate are left out, so
/// the driver blocked in end_epoch counts only while a worker runs a shard.
bool is_layer_work(std::string_view span) {
    if (span == "driver.cycle" || span == "serve.epoch.barrier") return false;
    if (span.substr(0, 5) != "call.") return true;
    return span == "call.wire.next" || span == "call.serve.submit" ||
           span == "call.serve.status" || span == "call.serve.checkpoint" ||
           span == "call.serve.restore_checkpoint" || span == "call.motion.track";
}

/// The traced part of a traced run. Each pass traces every other epoch (or
/// round of fixes) and the next pass the others, so a pair of passes runs
/// each epoch once traced and once untraced, interleaved epoch by epoch:
/// host drift weighs on both sides alike. Obs counters and the tracer are on
/// only during traced epochs. Each traced epoch's spans are taken from the
/// tracer when it ends and moved onto the run's clock.
class TracedEpochs {
public:
    TracedEpochs() : t0_(std::chrono::steady_clock::now()) { obs::Registry::global().reset(); }

    /// Whether epoch `k` of pass `pass` runs traced.
    static bool traced(int pass, std::size_t k) {
        return (k + static_cast<std::size_t>(pass)) % 2 == 1;
    }

    void begin_epoch() {
        offset_us_ = seconds_since(t0_) * 1e6;
        obs::Tracer::global().reset();
        obs::Tracer::global().start();  // restarts the tracer's clock at 0
        obs::Registry::global().set_enabled(true);
    }
    void end_epoch() {
        obs::Registry::global().set_enabled(false);
        obs::Tracer::global().stop();
        const std::size_t first = spans_.size();
        parsed_ = perf::parse_trace(obs::Tracer::global().to_json(), spans_) && parsed_;
        for (std::size_t i = first; i < spans_.size(); ++i) spans_[i].ts += offset_us_;
    }
    /// After each pair of passes, which between them traced every epoch
    /// once: every pair must count the same work.
    void end_pair(Result& res) {
        const auto counts = read_counters();
        obs::Registry::global().reset();
        if (pairs_ == 0)
            counters_ = counts;
        else
            res.check(counts == counters_, "obs counters differ between identical pass pairs");
        ++pairs_;
    }
    /// Total the spans, and write them as a Chrome trace. After the last pass.
    void finish(const std::string& trace_out, Result& res) {
        res.check(parsed_, "trace does not parse");
        perf::add_coverage(spans_, "driver.cycle", is_layer_work, epoch_);
        if (!trace_out.empty()) {
            const std::string json = perf::to_chrome_json(spans_);
            std::FILE* f = std::fopen(trace_out.c_str(), "wb");
            const bool written =
                f != nullptr && std::fwrite(json.data(), 1, json.size(), f) == json.size();
            if (f != nullptr) std::fclose(f);
            res.check(written, "cannot write the Chrome trace");
        }
        perf::total_spans(std::move(spans_), totals_);
        spans_.clear();
    }
    double epoch_accounted() const { return epoch_.share(); }

    double count(const char* name) const {
        const auto it = counters_.find(name);
        return it == counters_.end() ? 0.0 : static_cast<double>(it->second);
    }
    const perf::SpanTotals& span(const char* name) const {
        static const perf::SpanTotals none;
        const auto it = totals_.find(name);
        return it == totals_.end() ? none : it->second;
    }
    /// A pair of passes traces one pass's worth of epochs.
    double self_ms_per_pass(const char* name) const {
        return pairs_ == 0 ? 0.0 : span(name).self_us / 1e3 / pairs_;
    }
    double share(const char* part_self, const char* whole_total) const {
        const double whole = span(whole_total).total_us;
        return whole > 0.0 ? span(part_self).self_us / whole : 0.0;
    }

    /// Metrics every workload's traced run reports from spans and counters.
    void add_common(Result& res) const {
        const auto& solve = span("solver.solve").durations_us;
        res.set("solver.solve_ms_p50", perf::quantile(solve, 0.5) / 1e3);
        res.set("solver.solve_ms_p99", perf::quantile(solve, 0.99) / 1e3);
        res.set("solver.epoch_share", share("solver.solve", "serve.shard.epoch"));
        for (const char* name : {"solver.solve_calls", "solver.exponent_candidates",
                                 "solver.multistart_runs"})
            res.set(name, count(name));
        const double candidates = count("solver.exponent_candidates");
        res.set("solver.multistart_ratio",
                candidates > 0 ? count("solver.multistart_runs") / candidates : 0.0);
        for (const char* name : {"solver.warm_fallbacks", "solver.workspace_grows",
                                 "solver.samples_folded", "solver.convergence_failures"})
            res.set(name, count(name));
        res.set("anf.offline_share", share("anf.process_offline", "pipeline.locate"));
        res.set("envaware.windows", count("envaware.windows"));
        res.set("anf.samples", count("anf.samples"));
        res.set("trace.epoch_accounted", epoch_accounted());
        for (const char* name : kSelfTimeSpans)
            res.set(std::string("self_ms.") + name, self_ms_per_pass(name));
    }

private:
    std::chrono::steady_clock::time_point t0_;
    double offset_us_{0.0};
    bool parsed_{true};
    int pairs_{0};
    std::map<std::string, std::uint64_t> counters_;
    std::vector<perf::Span> spans_;
    std::map<std::string, perf::SpanTotals> totals_;
    perf::Coverage epoch_;
};

/// Tracing overhead: how much longer the traced epochs took than the same
/// epochs untraced, as a percentage. For the same work this is also the
/// untraced rate over the traced rate, less one.
double overhead_pct(double untraced_us, double traced_us) {
    return untraced_us > 0.0 ? (traced_us / untraced_us - 1.0) * 100.0 : 0.0;
}

// --- serve workloads: fleet_replay, standby_long_walk -----------------------------

struct ServeSpec {
    int clients{0};
    int beacons{8};
    int scenario{2};
    sim::LShapeSpec lshape{};
    double epoch_s{1.0};
    unsigned shards{1};
    unsigned threads{1};
    bool envaware{false};
    bool standby{false};  ///< hot standby restored from every epoch's checkpoint
    /// The least trace.epoch_accounted a full-scale traced run accepts.
    double min_epoch_accounted{0.0};
};

ServeSpec fleet_spec(const Options& o) {
    ServeSpec s;
    s.clients = o.tiny ? 12 : 256;
    s.beacons = o.tiny ? 4 : 8;
    s.scenario = 2;
    s.lshape = {3.5, 3.0, 1.5707963267948966};
    s.shards = 4;
    // Two workers on the four shards: at four threads on a four-core host,
    // wall-clock figures did not repeat run to run (perfbench/README.md).
    s.threads = o.threads > 0 ? static_cast<unsigned>(o.threads) : 2;
    // The epoch is decode + submit beside the shard epochs, the barrier,
    // snapshot and status: all but loop glue and barrier wake-up is spanned.
    s.min_epoch_accounted = 0.95;
    return s;
}

ServeSpec standby_spec(const Options& o) {
    ServeSpec s;
    s.clients = o.tiny ? 6 : 128;
    s.beacons = o.tiny ? 3 : 8;
    s.scenario = 9;
    s.lshape = {12.0, 10.0, 1.5707963267948966};
    s.shards = 1;
    s.threads = 1;
    s.envaware = true;
    s.standby = true;
    return s;
}

/// Everything a serve pass needs, built during set-up.
struct ServeInputs {
    sim::WorkloadLog log;
    std::map<std::uint64_t, locble::Vec2> truth;  ///< observer frame, by beacon id
    std::size_t pairs{0};                          ///< clients x beacons
    std::optional<core::EnvAware> envaware;
    serve::TrackingService::Config config;
    std::unique_ptr<serve::TrackingService> service;  ///< the first pass's
};

ServeInputs make_serve_inputs(const ServeSpec& spec, std::uint64_t seed) {
    ServeInputs in;
    sim::WorkloadLogConfig lcfg;
    lcfg.workload.clients = spec.clients;
    lcfg.workload.beacons = spec.beacons;
    lcfg.workload.scenario_index = spec.scenario;
    lcfg.workload.measurement.lshape = spec.lshape;
    lcfg.epoch_s = spec.epoch_s;
    lcfg.seed = seed;
    in.log = sim::make_workload_log(lcfg);

    // The deployment does not depend on the fleet size: a one-client
    // workload of the same shape carries the same beacon truth.
    sim::MultiClientConfig one = lcfg.workload;
    one.clients = 1;
    const sim::MultiClientWorkload probe = sim::make_multi_client_workload(one, seed);
    const sim::Scenario sc = sim::scenario(spec.scenario);
    for (const auto& [id, site] : probe.beacon_truth)
        in.truth[id] = perf::observer_frame_truth(sc, site);
    in.pairs = static_cast<std::size_t>(spec.clients) * in.truth.size();

    serve::TrackingService::Config& cfg = in.config;
    cfg.shards = spec.shards;
    cfg.threads = spec.threads;
    cfg.shard.session.pipeline.use_envaware = spec.envaware;
    cfg.shard.session.pipeline.gamma_prior_dbm = probe.measured_power_dbm;
    cfg.shard.session.pipeline.solver.search_mode =
        core::LocationSolver::SearchMode::coarse_to_fine;
    if (spec.envaware) in.envaware = train_envaware();
    in.service = std::make_unique<serve::TrackingService>(cfg, in.envaware);
    return in;
}

/// One driver-loop iteration (one epoch) of a serve pass.
struct EpochRow {
    bool traced{false};
    double cycle_us{0.0};
    double decode_us{0.0};    ///< LogReader::next + from_wire of the next epoch
    double submit_us{0.0};    ///< TrackingService::submit of the next epoch
    std::uint64_t events{0};  ///< events decoded and submitted
    double end_us{0.0};
    double snapshot_us{0.0};
    double status_us{0.0};
    double checkpoint_us{0.0};
    double restore_us{0.0};
    double busy_us{0.0};       ///< flight recorder: begin -> barrier
    double imbalance{1.0};     ///< max / mean shard wall time
    std::uint64_t fit_rows{0}; ///< snapshot rows carrying a fit
};

struct ServePass {
    double loop_us{0.0};
    std::uint64_t events{0};
    std::uint64_t decode_failed{0};
    std::vector<EpochRow> epochs;
    std::vector<serve::ServiceSnapshot> snaps;
    std::vector<serve::ServiceStatus> statuses;
    std::uint64_t checkpoint_bytes{0};     ///< summed over epochs
    std::uint64_t checkpoint_sessions{0};  ///< live sessions, summed over epochs
    serve::IngestStats stats;
    bool standby_matches{true};
};

/// Replay the log once through `svc` on the pipelined schedule: begin epoch
/// k, decode and submit epoch k+1's events while k runs, end epoch k, then
/// snapshot and status (and, with a standby, checkpoint + restore). With
/// `traced`, the epochs it picks for pass `pass` run traced.
ServePass run_serve_pass(const ServeSpec& spec, const ServeInputs& in,
                         serve::TrackingService& svc, TracedEpochs* traced, int pass) {
    ServePass p;
    wire::LogReader reader(in.log.bytes);
    if (reader.header_status() != wire::WireStatus::ok) {
        ++p.decode_failed;
        return p;
    }
    wire::LogRecord rec;
    std::vector<serve::Event> batch;
    std::unique_ptr<serve::TrackingService> standby;

    // Decode and submit up to the next epoch mark; false at the end of the log.
    auto pump = [&](EpochRow& row) {
        for (;;) {
            wire::WireStatus st = wire::WireStatus::ok;
            row.decode_us += timed_us("call.wire.next", [&] {
                st = reader.next(rec);
                if (st != wire::WireStatus::ok || rec.type != wire::FrameType::events)
                    return;
                batch.clear();
                for (const wire::EventRecord& e : rec.events)
                    batch.push_back(serve::from_wire(e));
            });
            if (st == wire::WireStatus::end) return false;
            if (st != wire::WireStatus::ok) {
                ++p.decode_failed;
                return false;
            }
            if (rec.type == wire::FrameType::epoch) return true;
            if (rec.type != wire::FrameType::events) {  // no sections in an event log
                ++p.decode_failed;
                return false;
            }
            row.submit_us += timed_us("call.serve.submit", [&] { svc.submit(batch); });
            row.events += batch.size();
            p.events += batch.size();
        }
    };

    obs::Tracer& tracer = obs::Tracer::global();
    const auto loop_t0 = std::chrono::steady_clock::now();
    EpochRow lead;  // the first epoch's events, submitted before the loop
    bool more = pump(lead);
    while (more) {
        EpochRow row;
        row.traced = traced != nullptr && TracedEpochs::traced(pass, p.epochs.size());
        if (row.traced) traced->begin_epoch();
        const double t0 = tracer.now_us();
        timed_us("call.serve.begin_epoch", [&] { svc.begin_epoch(); });
        more = pump(row);
        row.end_us = timed_us("call.serve.end_epoch", [&] { svc.end_epoch(); });
        serve::ServiceSnapshot snap;
        row.snapshot_us = timed_us("call.serve.snapshot", [&] {
            snap = svc.snapshot(serve::SnapshotMode::incremental);
        });
        serve::ServiceStatus status;
        row.status_us = timed_us("call.serve.status", [&] { status = svc.status(); });
        if (spec.standby) {
            std::string bytes;
            row.checkpoint_us =
                timed_us("call.serve.checkpoint", [&] { bytes = svc.checkpoint(); });
            standby = std::make_unique<serve::TrackingService>(in.config, in.envaware);
            row.restore_us = timed_us("call.serve.restore_checkpoint",
                                      [&] { standby->restore_checkpoint(bytes); });
            p.checkpoint_bytes += bytes.size();
            p.checkpoint_sessions += snap.sessions_live;
        }
        row.cycle_us = tracer.now_us() - t0;
        tracer.record("driver.cycle", t0, row.cycle_us);
        if (row.traced) traced->end_epoch();

        if (const serve::EpochRecord* r = svc.flight_recorder().latest()) {
            row.busy_us = r->wall_epoch_us;
            double max_us = 0.0, sum_us = 0.0;
            for (const serve::ShardEpochRecord& s : r->shards) {
                max_us = std::max(max_us, s.wall_us);
                sum_us += s.wall_us;
            }
            if (sum_us > 0.0)
                row.imbalance = max_us * static_cast<double>(r->shards.size()) / sum_us;
        }
        p.epochs.push_back(row);
        p.snaps.push_back(std::move(snap));
        p.statuses.push_back(status);
    }
    p.loop_us = seconds_since(loop_t0) * 1e6;
    p.stats = svc.stats();
    if (spec.standby) {
        p.standby_matches =
            standby != nullptr &&
            serve::canonical_text(standby->snapshot()) ==
                serve::canonical_text(svc.snapshot()) &&
            det_status(standby->status()) == det_status(svc.status());
    }
    return p;
}

/// Everything a serve run accumulates over its passes.
struct ServeTotals {
    double loop_us{0.0};
    std::uint64_t events{0};
    std::uint64_t fit_rows{0};
    std::vector<EpochRow> epochs;
    int passes{0};
};

/// What a pass computed, as opposed to how fast: identical for every pass
/// of a run, and for any thread count.
struct ServeOutcome {
    std::uint64_t digest{0};  ///< FNV-1a of canonical snapshots + deterministic status
    perf::Accuracy accuracy;
    serve::IngestStats stats;
    double staleness_s_p99{0.0};  ///< median over epochs of status().staleness_p99_s
    double rows_per_epoch{0.0};
    double checkpoint_bytes_per_session{0.0};
};

/// Scores and checks each finished pass, outside the timed loop; the first
/// pass sets the outcome every later pass must reproduce exactly.
class ServeChecker {
public:
    explicit ServeChecker(const ServeInputs& in) : in_(in) {}

    void absorb(ServePass& p, ServeTotals& tot, Result& res) {
        ServeOutcome out;
        out.digest = 0xcbf29ce484222325ull;
        perf::Oracle oracle(in_.pairs);
        std::uint64_t fit_rows = 0, rows = 0;
        std::vector<double> staleness;
        for (std::size_t i = 0; i < p.snaps.size(); ++i) {
            out.digest = fnv1a(out.digest, serve::canonical_text(p.snaps[i]));
            out.digest = fnv1a(out.digest, det_status(p.statuses[i]));
            oracle.follow(p.snaps[i], in_.truth);
            for (const serve::BeaconEstimate& e : p.snaps[i].estimates)
                if (e.has_fit) ++p.epochs[i].fit_rows;
            fit_rows += p.epochs[i].fit_rows;
            rows += p.snaps[i].estimates.size();
            staleness.push_back(p.statuses[i].staleness_p99_s);
        }
        out.accuracy = oracle.accuracy();
        out.stats = p.stats;
        out.staleness_s_p99 = perf::quantile(staleness, 0.5);
        if (!p.snaps.empty())
            out.rows_per_epoch = static_cast<double>(rows) / static_cast<double>(p.snaps.size());
        if (p.checkpoint_sessions > 0)
            out.checkpoint_bytes_per_session = static_cast<double>(p.checkpoint_bytes) /
                                               static_cast<double>(p.checkpoint_sessions);

        res.check(out.accuracy.valid, "non-finite estimate or row outside the workload");
        res.check(p.standby_matches, "hot standby diverged from the primary");
        res.check(p.decode_failed == 0, "wire decode failed");
        res.check(p.stats.submitted == in_.log.events, "not every logged event was submitted");
        res.check(p.epochs.size() == in_.log.epochs, "not every logged epoch ran");
        if (tot.passes == 0) {
            first_ = out;
            res.peak_rss_mb = read_peak_rss_mb();
        } else {
            res.check(out.digest == first_.digest &&
                          out.checkpoint_bytes_per_session ==
                              first_.checkpoint_bytes_per_session,
                      "snapshot stream differs between identical passes");
        }
        decode_failed_ += p.decode_failed;
        res.attempted += p.stats.submitted;
        res.failed += p.stats.dropped + p.stats.rejected + p.decode_failed;

        ++tot.passes;
        std::fprintf(stderr, "pass %d: %.1f s, %.0f events/s\n", tot.passes, p.loop_us / 1e6,
                     static_cast<double>(p.events) / (p.loop_us / 1e6));
        tot.loop_us += p.loop_us;
        tot.events += p.events;
        tot.fit_rows += fit_rows;
        tot.epochs.insert(tot.epochs.end(), p.epochs.begin(), p.epochs.end());
    }

    const ServeOutcome& outcome() const { return first_; }
    std::uint64_t decode_failed() const { return decode_failed_; }

private:
    const ServeInputs& in_;
    ServeOutcome first_;
    std::uint64_t decode_failed_{0};
};

std::vector<double> column(const std::vector<EpochRow>& rows, double EpochRow::*field) {
    std::vector<double> out;
    out.reserve(rows.size());
    for (const EpochRow& r : rows) out.push_back(r.*field);
    return out;
}

double sum(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
}

void run_serve(const ServeSpec& spec, const Options& opt, Result& res) {
    auto build = [&] { return make_serve_inputs(spec, opt.seed); };
    SetupTimer setup;
    ServeInputs in = setup.time(build);
    auto setup_again = [&] {
        if (!opt.trace && setup.count() < opt.setup_reps()) setup.time(build);
    };
    ServeChecker checker(in);
    ServeTotals tot;

    auto one_pass = [&](TracedEpochs* traced, int pass) {
        std::unique_ptr<serve::TrackingService> svc = std::move(in.service);
        if (svc == nullptr) svc = std::make_unique<serve::TrackingService>(in.config, in.envaware);
        ServePass p = run_serve_pass(spec, in, *svc, traced, pass);
        checker.absorb(p, tot, res);
    };

    if (!opt.trace) {
        run_passes(opt.seconds, 1, [&](int) { one_pass(nullptr, 0); }, setup_again);
        while (setup.count() < opt.setup_reps()) setup.time(build);
    } else {
        TracedEpochs traced;
        run_passes(
            opt.seconds, 2,
            [&](int i) {
                one_pass(&traced, i);
                if (i % 2 == 1) traced.end_pair(res);
            },
            [] {});
        traced.finish(opt.trace_out, res);
        // Tiny epochs last well under a millisecond, too short for the check.
        if (!opt.tiny)
            res.check(traced.epoch_accounted() >= spec.min_epoch_accounted,
                      "layer work covers too little of the epoch");

        // Layer calls timed from outside, on the untraced epochs.
        std::vector<EpochRow> rows, traced_rows;
        for (const EpochRow& r : tot.epochs) (r.traced ? traced_rows : rows).push_back(r);
        double events = 0.0;
        for (const EpochRow& r : rows) events += static_cast<double>(r.events);
        res.set("wire.decode_ns_per_event",
                sum(column(rows, &EpochRow::decode_us)) * 1e3 / events);
        res.set("wire.decode_failed", static_cast<double>(checker.decode_failed()));
        res.set("serve.submit_ns_per_event",
                sum(column(rows, &EpochRow::submit_us)) * 1e3 / events);
        const ServeOutcome& out = checker.outcome();
        const serve::IngestStats& s = out.stats;
        res.set("serve.ingest_dropped", static_cast<double>(s.dropped));
        res.set("serve.ingest_rejected", static_cast<double>(s.rejected));
        res.set("serve.ingest_late", static_cast<double>(s.late));
        res.set("serve.epoch_busy_ms_p50",
                perf::quantile(column(rows, &EpochRow::busy_us), 0.5) / 1e3);
        res.set("serve.barrier_wait_ms_p50",
                perf::quantile(column(rows, &EpochRow::end_us), 0.5) / 1e3);
        res.set("serve.shard_imbalance_p50",
                perf::quantile(column(rows, &EpochRow::imbalance), 0.5));
        res.set("serve.solves", static_cast<double>(s.solves));
        res.set("serve.batches_flushed", static_cast<double>(s.batches_flushed));
        res.set("serve.staleness_s_p99", out.staleness_s_p99);
        res.set("serve.snapshot_us_p50",
                perf::quantile(column(rows, &EpochRow::snapshot_us), 0.5));
        res.set("serve.snapshot_rows_per_epoch", out.rows_per_epoch);
        res.set("serve.status_us_p50",
                perf::quantile(column(rows, &EpochRow::status_us), 0.5));
        // Zero on fleet_replay, which runs no standby.
        res.set("serve.checkpoint_ms_p50",
                perf::quantile(column(rows, &EpochRow::checkpoint_us), 0.5) / 1e3);
        res.set("serve.restore_ms_p50",
                perf::quantile(column(rows, &EpochRow::restore_us), 0.5) / 1e3);
        res.set("serve.checkpoint_bytes_per_session", out.checkpoint_bytes_per_session);
        traced.add_common(res);
        res.set("no_fix_rate", out.accuracy.no_fix_rate);
        res.set("trace.overhead_pct",
                overhead_pct(sum(column(rows, &EpochRow::cycle_us)),
                             sum(column(traced_rows, &EpochRow::cycle_us))));
    }
    std::printf("digest %s seed=%llu fnv1a64=%016llx\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(checker.outcome().digest));
    if (opt.trace) return;

    const double loop_s = tot.loop_us / 1e6;
    const perf::Accuracy& acc = checker.outcome().accuracy;
    std::vector<std::pair<double, double>> fix_ms;
    for (const EpochRow& r : tot.epochs)
        fix_ms.emplace_back(r.cycle_us / 1e3, static_cast<double>(r.fit_rows));
    const std::vector<double> cycle_ms = [&] {
        std::vector<double> v = column(tot.epochs, &EpochRow::cycle_us);
        for (double& x : v) x /= 1e3;
        return v;
    }();
    res.set("setup_s", setup.median());
    res.set("events_per_sec", static_cast<double>(tot.events) / loop_s);
    res.set("fixes_per_sec", static_cast<double>(tot.fit_rows) / loop_s);
    res.set("epoch_ms_p50", perf::quantile(cycle_ms, 0.5));
    res.set("epoch_ms_p90", perf::quantile(cycle_ms, 0.9));
    res.set("fix_ms_p50", perf::weighted_quantile(fix_ms, 0.5));
    res.set("fix_ms_p90", perf::weighted_quantile(fix_ms, 0.9));
    res.set("fix_error_m_p50", acc.error_m_p50);
    res.set("fix_error_m_p90", acc.error_m_p90);
    res.set("fix_rate", 1.0 - acc.no_fix_rate);
    std::printf("passes %d, epochs %zu\n", tot.passes, tot.epochs.size());
}

// --- offline_fix ---------------------------------------------------------------

/// One pre-generated single-beacon capture: what a phone recorded on one
/// L-walk, plus the truth it is scored against.
struct Capture {
    locble::TimeSeries rss;
    imu::ImuTrace imu;
    locble::Vec2 truth;  ///< beacon in the walk's observer frame
    std::uint64_t beacon{1};
};

constexpr int kEnvironments = 9;

struct OfflineInputs {
    std::vector<Capture> captures;  ///< environment k % 9 + 1 at index k
    motion::DeadReckoner reckoner;
    std::optional<core::LocBle> pipeline;
    std::uint64_t events_per_pass{0};  ///< RSS + IMU samples over all captures
};

OfflineInputs make_offline_inputs(const Options& opt) {
    const int per_env = opt.tiny ? 2 : 120;
    const sim::MeasurementConfig mcfg;
    OfflineInputs in;
    in.reckoner = motion::DeadReckoner(mcfg.reckoner);

    const sim::CaptureRunner runner(mcfg.capture);
    const std::vector<sim::Scenario> scenarios = sim::all_scenarios();
    sim::BeaconPlacement beacon;
    for (int k = 0; k < per_env * kEnvironments; ++k) {
        const sim::Scenario& sc = scenarios.at(static_cast<std::size_t>(k % kEnvironments));
        beacon.position = sc.default_beacon;
        locble::Rng rng = locble::Rng::for_stream(opt.seed, static_cast<std::uint64_t>(k));
        sim::WalkCapture wc = runner.run(sc.site, {beacon}, sim::default_l_walk(sc), rng);
        Capture c;
        c.rss = std::move(wc.rss[beacon.id]);
        c.imu = std::move(wc.observer_imu);
        c.truth = perf::observer_frame_truth(sc, beacon.position);
        c.beacon = beacon.id;
        in.events_per_pass += c.rss.size() + c.imu.accel_vertical.size() +
                              c.imu.gyro_z.size() + c.imu.mag_heading.size();
        in.captures.push_back(std::move(c));
    }
    // The library default (exhaustive search, EnvAware, ANF), with the
    // Gamma prior read from the beacon's advertised 1 m power.
    core::LocBle::Config pcfg = mcfg.pipeline;
    pcfg.gamma_prior_dbm = beacon.profile.measured_power_dbm;
    in.pipeline.emplace(pcfg, train_envaware());
    return in;
}

struct OfflineTotals {
    double loop_us{0.0};
    std::uint64_t fixes{0};
    std::uint64_t events{0};
    /// Untraced rounds only.
    std::vector<double> round_ms, fix_ms, track_ms, locate_ms;
    /// Summed round times, for the tracing overhead.
    double untraced_us{0.0}, traced_us{0.0};
    int passes{0};
};

void run_offline(const Options& opt, Result& res) {
    auto build = [&] { return make_offline_inputs(opt); };
    SetupTimer setup;
    const OfflineInputs in = setup.time(build);
    auto setup_again = [&] {
        if (!opt.trace && setup.count() < opt.setup_reps()) setup.time(build);
    };
    const std::size_t n = in.captures.size();
    std::optional<perf::Accuracy> reference;
    OfflineTotals tot;

    // One pass fixes every capture in rounds of one capture per environment.
    // With `traced`, the rounds it picks for pass `pass` run traced.
    auto one_pass = [&](TracedEpochs* traced, int pass) {
        std::vector<core::LocateResult> results(n);
        obs::Tracer& tracer = obs::Tracer::global();
        std::vector<double> fix_ms, track_ms, locate_ms;  // one round's
        const auto loop_t0 = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < n; r += kEnvironments) {
            const bool on = traced != nullptr && TracedEpochs::traced(pass, r / kEnvironments);
            if (on) traced->begin_epoch();
            fix_ms.clear();
            track_ms.clear();
            locate_ms.clear();
            const double t0 = tracer.now_us();
            for (std::size_t k = r; k < std::min(n, r + kEnvironments); ++k) {
                const Capture& c = in.captures[k];
                motion::MotionEstimate motion;
                const double track_us = timed_us("call.motion.track",
                                                 [&] { motion = in.reckoner.track(c.imu); });
                const double locate_us = timed_us("call.core.locate", [&] {
                    results[k] = in.pipeline->locate(c.rss, motion);
                });
                track_ms.push_back(track_us / 1e3);
                locate_ms.push_back(locate_us / 1e3);
                fix_ms.push_back((track_us + locate_us) / 1e3);
            }
            const double cycle_us = tracer.now_us() - t0;
            tracer.record("driver.cycle", t0, cycle_us);
            if (on) {
                traced->end_epoch();
                tot.traced_us += cycle_us;
                continue;
            }
            tot.untraced_us += cycle_us;
            tot.round_ms.push_back(cycle_us / 1e3);
            tot.fix_ms.insert(tot.fix_ms.end(), fix_ms.begin(), fix_ms.end());
            tot.track_ms.insert(tot.track_ms.end(), track_ms.begin(), track_ms.end());
            tot.locate_ms.insert(tot.locate_ms.end(), locate_ms.begin(), locate_ms.end());
        }
        const double pass_s = seconds_since(loop_t0);
        if (tot.passes == 0) res.peak_rss_mb = read_peak_rss_mb();
        std::fprintf(stderr, "pass %d: %.1f s, %.1f fixes/s\n", tot.passes + 1, pass_s,
                     static_cast<double>(n) / pass_s);
        tot.loop_us += pass_s * 1e6;
        tot.fixes += n;
        tot.events += in.events_per_pass;
        ++tot.passes;

        // A fix that comes back without a fit is an answer (scored by
        // fix_rate); one that comes back non-finite is a failed call.
        perf::Oracle oracle(n);
        std::uint64_t broken = 0;
        for (std::size_t k = 0; k < n; ++k) {
            const auto& fit = results[k].fit;
            oracle.set(k, in.captures[k].beacon, fit.has_value(),
                       fit ? fit->location : locble::Vec2{}, in.captures[k].truth);
            if (fit && !(std::isfinite(fit->location.x) && std::isfinite(fit->location.y)))
                ++broken;
        }
        const perf::Accuracy acc = oracle.accuracy();
        res.check(acc.valid, "non-finite offline fix");
        if (!reference)
            reference = acc;
        else
            res.check(acc.error_m_p50 == reference->error_m_p50 &&
                          acc.error_m_p90 == reference->error_m_p90 &&
                          acc.fixed == reference->fixed,
                      "offline fixes differ between identical passes");
        res.attempted += n;
        res.failed += broken;
    };

    if (!opt.trace) {
        run_passes(opt.seconds, 1, [&](int) { one_pass(nullptr, 0); }, setup_again);
        while (setup.count() < opt.setup_reps()) setup.time(build);
        const double loop_s = tot.loop_us / 1e6;
        res.set("setup_s", setup.median());
        res.set("events_per_sec", static_cast<double>(tot.events) / loop_s);
        res.set("fixes_per_sec", static_cast<double>(tot.fixes) / loop_s);
        res.set("epoch_ms_p50", perf::quantile(tot.round_ms, 0.5));
        res.set("epoch_ms_p90", perf::quantile(tot.round_ms, 0.9));
        res.set("fix_ms_p50", perf::quantile(tot.fix_ms, 0.5));
        res.set("fix_ms_p90", perf::quantile(tot.fix_ms, 0.9));
        res.set("fix_error_m_p50", reference->error_m_p50);
        res.set("fix_error_m_p90", reference->error_m_p90);
        res.set("fix_rate", 1.0 - reference->no_fix_rate);
        std::printf("passes %d, fixes %llu\n", tot.passes,
                    static_cast<unsigned long long>(tot.fixes));
        return;
    }

    TracedEpochs traced;
    run_passes(
        opt.seconds, 2,
        [&](int i) {
            one_pass(&traced, i);
            if (i % 2 == 1) traced.end_pair(res);
        },
        [] {});
    traced.finish(opt.trace_out, res);
    traced.add_common(res);
    res.set("no_fix_rate", reference->no_fix_rate);
    res.set("core.locate_ms_p50", perf::quantile(tot.locate_ms, 0.5));
    res.set("motion.track_ms_p50", perf::quantile(tot.track_ms, 0.5));
    res.set("trace.overhead_pct", overhead_pct(tot.untraced_us, tot.traced_us));
}

// --- output ----------------------------------------------------------------------

void print_result(const Result& res) {
    for (const Metric& m : res.metrics)
        std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                res.correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const Metric& m = res.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_options(argc, argv);
    Result res;
    if (opt.trace) {
        for (const MetricDef& m : kPerLayer) res.declare(m.name, m.unit);
        for (const char* span : kSelfTimeSpans)
            res.declare(std::string("self_ms.") + span, "ms");
    } else {
        for (const MetricDef& m : kEndToEnd) res.declare(m.name, m.unit);
    }
    try {
        if (opt.workload == "fleet_replay") {
            run_serve(fleet_spec(opt), opt, res);
        } else if (opt.workload == "standby_long_walk") {
            run_serve(standby_spec(opt), opt, res);
        } else if (opt.workload == "offline_fix") {
            run_offline(opt, res);
        } else {
            usage("unknown workload");
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    for (const Metric& m : res.metrics)
        res.check(std::isfinite(m.value), "a metric is not finite");
    if (!opt.trace) res.set("peak_rss_mb", res.peak_rss_mb);
    std::fflush(stderr);
    print_result(res);
    return 0;
}
