// Wire codec and record/replay throughput (the locble::wire subsystem,
// docs/WIRE.md), plus the two identity gates the format exists for.
//
// Sections:
//
//  - codec.*: raw encode/decode throughput of the versioned binary event
//    format. A multi-client workload's event stream is tiled to ~256k
//    events, written through LogWriter (varint-packed records, CRC32 per
//    frame) and drained back through LogReader; events/sec and MB/s are
//    medians over --trials repetitions of the same buffer, so the numbers
//    isolate the codec, not the simulator.
//
//  - replay.*: end-to-end replay of the recorded log through a fresh
//    TrackingService at 1 and 8 shards, observing the canonical snapshot +
//    deterministic status stream after every epoch.
//    replay.identical == 1 means the two streams were byte-equal — the
//    record/replay determinism contract.
//
//  - checkpoint.*: mid-log checkpoint at 2 shards, restore into a fresh
//    8-shard service, replay of the remainder on both sides.
//    checkpoint.identical == 1 means the resumed service's final full
//    snapshot and deterministic status match the uninterrupted run's byte
//    for byte; save/restore wall costs (medians over --trials, each restore
//    into a fresh service) and the checkpoint size ride along.
//
//  - crc.*: CRC-32 throughput over the checkpoint tiled to 6.5 MB, the size
//    of a late hot-standby checkpoint, through wire::crc32 (folded by
//    carry-less multiplication where the CPU has PCLMULQDQ) and through
//    wire::crc32_slice8; MB/s are medians over --trials. crc.identical == 1
//    means both gave the same value on every trial.
//
// With --out the bench also writes the recorded log (WIRE_event_log.bin)
// and the mid-log checkpoint (WIRE_checkpoint.bin) next to the report so
// the CI wire-replay job can archive real artifacts of the format.
//
// CI gates (the wire-replay job): replay.identical == 1,
// checkpoint.identical == 1 and crc.identical == 1 always; on runners with
// >= 4 cores (the `cores` scalar) additionally
// codec.decode_events_per_sec >= 1e6, and where /proc/cpuinfo lists
// pclmulqdq crc.speedup >= 4. The identity failures also fail the bench
// binary itself (exit 1) so a local run cannot miss them. Wall-clock
// throughputs are ND and never compared across runs byte-wise.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "locble/serve/replay.hpp"
#include "locble/serve/service.hpp"
#include "locble/sim/multi_client.hpp"
#include "locble/sim/workload_log.hpp"
#include "locble/wire/codec.hpp"
#include "locble/wire/log.hpp"

using namespace locble;

namespace {

constexpr double kEpochSeconds = 4.0;

double now_us() {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
}

serve::TrackingService::Config service_config(unsigned shards,
                                              unsigned threads) {
    serve::TrackingService::Config cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.shard.session.pipeline.use_envaware = false;
    cfg.shard.session.pipeline.gamma_prior_dbm = -59.0;
    cfg.shard.session.pipeline.solver.search_mode =
        core::LocationSolver::SearchMode::coarse_to_fine;
    cfg.shard.queue_capacity = 4096;
    return cfg;
}

/// Deterministic half of status_json() (everything before the "nd" key).
std::string det_status(const serve::TrackingService& svc) {
    const std::string full = serve::status_json(svc.status());
    return full.substr(0, full.find("\"nd\":"));
}

std::string observe(serve::TrackingService& svc) {
    return serve::canonical_text(
               svc.snapshot(serve::SnapshotMode::incremental)) +
           det_status(svc) + "\n";
}

/// Replay a log into a fresh service, observing after every epoch.
std::string replay_observed(std::string_view log, unsigned shards,
                            unsigned threads, double* wall_us = nullptr) {
    serve::TrackingService svc(service_config(shards, threads));
    serve::ReplayDriver driver(svc, log);
    std::string stream;
    const double t0 = now_us();
    while (driver.step_epoch()) stream += observe(svc);
    if (wall_us != nullptr) *wall_us = now_us() - t0;
    return stream;
}

}  // namespace

int main(int argc, char** argv) {
    const auto opt = bench::parse_options(argc, argv);
    bench::Runner runner("wire_replay", opt, 81000);
    auto& rep = runner.report();

    bench::print_header(
        "Wire format — event codec throughput, replay and checkpoint identity",
        "recorded logs replay byte-identically at any shard count; a mid-log "
        "checkpoint resumes bit-identically to the uninterrupted run");

    int exit_code = 0;
    const int reps = runner.trials_or(5);

    // --- workload + recorded log -------------------------------------------
    sim::WorkloadLogConfig lcfg;
    lcfg.workload.clients = 64;
    lcfg.workload.beacons = 8;
    lcfg.epoch_s = kEpochSeconds;
    lcfg.seed = runner.master_seed();
    const sim::WorkloadLog log = sim::make_workload_log(lcfg);
    rep.add_scalar("log.events", static_cast<double>(log.events));
    rep.add_scalar("log.epochs", static_cast<double>(log.epochs));
    rep.add_scalar("log.bytes", static_cast<double>(log.bytes.size()));
    std::printf("recorded log: %llu events, %llu epochs, %zu bytes\n",
                static_cast<unsigned long long>(log.events),
                static_cast<unsigned long long>(log.epochs), log.bytes.size());

    // --- codec throughput ----------------------------------------------------
    {
        const sim::MultiClientWorkload wl =
            sim::make_multi_client_workload(lcfg.workload, lcfg.seed);
        std::vector<wire::EventRecord> events;
        events.reserve(wl.events.size());
        for (const serve::Event& e : wl.events) events.push_back(serve::to_wire(e));

        // Tile the stream so one repetition is long enough to time.
        constexpr std::size_t kTargetEvents = 1u << 18;
        const std::size_t tiles =
            std::max<std::size_t>(1, kTargetEvents / std::max<std::size_t>(
                                                         1, events.size()));
        const std::size_t n = tiles * events.size();

        std::vector<double> enc_us, dec_us;
        std::string bytes;
        for (int r = 0; r < reps; ++r) {
            double t0 = now_us();
            wire::LogWriter w;
            for (std::size_t k = 0; k < tiles; ++k)
                for (const wire::EventRecord& e : events) w.add_event(e);
            bytes = w.finish();
            enc_us.push_back(now_us() - t0);

            t0 = now_us();
            wire::LogReader rdr(bytes);
            wire::LogRecord rec;
            std::size_t seen = 0;
            wire::WireStatus st;
            while ((st = rdr.next(rec)) == wire::WireStatus::ok)
                seen += rec.events.size();
            dec_us.push_back(now_us() - t0);
            if (st != wire::WireStatus::end || seen != n) {
                std::fprintf(stderr, "FAIL: decode drain broke (%s, %zu/%zu)\n",
                             wire::status_name(st), seen, n);
                exit_code = 1;
            }
        }
        runner.add_trials(reps);
        const double mb = static_cast<double>(bytes.size()) / 1e6;
        const double enc_s = median(enc_us) / 1e6, dec_s = median(dec_us) / 1e6;
        rep.add_scalar("codec.events", static_cast<double>(n));
        rep.add_scalar("codec.bytes_per_event",
                       static_cast<double>(bytes.size()) / static_cast<double>(n));
        rep.add_scalar("codec.encode_events_per_sec",
                       static_cast<double>(n) / enc_s);
        rep.add_scalar("codec.encode_mb_per_sec", mb / enc_s);
        rep.add_scalar("codec.decode_events_per_sec",
                       static_cast<double>(n) / dec_s);
        rep.add_scalar("codec.decode_mb_per_sec", mb / dec_s);
        std::printf(
            "codec: %zu events, %.1f B/event | encode %.2f Mev/s %.1f MB/s | "
            "decode %.2f Mev/s %.1f MB/s\n",
            n, static_cast<double>(bytes.size()) / static_cast<double>(n),
            static_cast<double>(n) / enc_s / 1e6, mb / enc_s,
            static_cast<double>(n) / dec_s / 1e6, mb / dec_s);
    }

    // --- replay identity across shard counts --------------------------------
    {
        double wall1 = 0.0, wall8 = 0.0;
        const std::string one = replay_observed(log.bytes, 1, 1, &wall1);
        const std::string eight = replay_observed(log.bytes, 8, 8, &wall8);
        const bool identical = !one.empty() && one == eight;
        rep.add_scalar("replay.identical", identical ? 1.0 : 0.0);
        rep.add_scalar("replay.events_per_sec_shards1",
                       static_cast<double>(log.events) / (wall1 / 1e6));
        rep.add_scalar("replay.events_per_sec_shards8",
                       static_cast<double>(log.events) / (wall8 / 1e6));
        std::printf("replay: shards 1 vs 8 %s (%.0f / %.0f events/s)\n",
                    identical ? "byte-identical" : "DIVERGED",
                    static_cast<double>(log.events) / (wall1 / 1e6),
                    static_cast<double>(log.events) / (wall8 / 1e6));
        if (!identical) {
            std::fprintf(stderr, "FAIL: replay streams diverged\n");
            exit_code = 1;
        }
    }

    // --- mid-log checkpoint/restore identity ---------------------------------
    std::string ckpt;
    {
        // Uninterrupted reference at 1 shard.
        serve::TrackingService ref(service_config(1, 1));
        serve::ReplayDriver(ref, log.bytes).run();

        // First half at 2 shards, checkpoint, restore at 8, finish the log.
        const std::uint64_t half = log.epochs / 2;
        serve::TrackingService first(service_config(2, 2));
        serve::ReplayDriver head(first, log.bytes);
        for (std::uint64_t i = 0; i < half; ++i) head.step_epoch();
        std::vector<double> save_us_v, restore_us_v;
        std::unique_ptr<serve::TrackingService> resumed;
        for (int r = 0; r < reps; ++r) {
            double t0 = now_us();
            ckpt = first.checkpoint();
            save_us_v.push_back(now_us() - t0);

            resumed = std::make_unique<serve::TrackingService>(service_config(8, 4));
            t0 = now_us();
            resumed->restore_checkpoint(ckpt);
            restore_us_v.push_back(now_us() - t0);
        }
        const double save_us = median(save_us_v), restore_us = median(restore_us_v);
        serve::ReplayDriver tail(*resumed, log.bytes);
        tail.skip_epochs(half);
        while (tail.step_epoch()) {
        }

        const bool identical =
            serve::canonical_text(resumed->snapshot()) ==
                serve::canonical_text(ref.snapshot()) &&
            det_status(*resumed) == det_status(ref);
        rep.add_scalar("checkpoint.identical", identical ? 1.0 : 0.0);
        rep.add_scalar("checkpoint.bytes", static_cast<double>(ckpt.size()));
        rep.add_scalar("checkpoint.epoch", static_cast<double>(half));
        rep.add_scalar("checkpoint.save_us", save_us);
        rep.add_scalar("checkpoint.restore_us", restore_us);
        std::printf(
            "checkpoint: %zu bytes at epoch %llu, save %.0f us, restore %.0f "
            "us, resume %s\n",
            ckpt.size(), static_cast<unsigned long long>(half), save_us,
            restore_us, identical ? "byte-identical" : "DIVERGED");
        if (!identical) {
            std::fprintf(stderr, "FAIL: checkpoint resume diverged\n");
            exit_code = 1;
        }
    }

    // --- CRC-32 throughput: folded vs slice-by-8 -----------------------------
    {
        constexpr std::size_t kBytes = 6'500'000;
        std::string buf;
        buf.reserve(kBytes + ckpt.size());
        while (buf.size() < kBytes) buf += ckpt;
        buf.resize(kBytes);

        std::vector<double> fold_us, slice8_us;
        bool identical = true;
        for (int r = 0; r < reps; ++r) {
            double t0 = now_us();
            const std::uint32_t folded = wire::crc32(buf.data(), buf.size());
            fold_us.push_back(now_us() - t0);
            t0 = now_us();
            const std::uint32_t sliced = wire::crc32_slice8(buf.data(), buf.size());
            slice8_us.push_back(now_us() - t0);
            identical = identical && folded == sliced;
        }
        const double mb = static_cast<double>(kBytes) / 1e6;
        const double fold_mbs = mb / (median(fold_us) / 1e6);
        const double slice8_mbs = mb / (median(slice8_us) / 1e6);
        rep.add_scalar("crc.bytes", static_cast<double>(kBytes));
        rep.add_scalar("crc.mb_per_sec", fold_mbs);
        rep.add_scalar("crc.slice8_mb_per_sec", slice8_mbs);
        rep.add_scalar("crc.speedup", fold_mbs / slice8_mbs);
        rep.add_scalar("crc.identical", identical ? 1.0 : 0.0);
        std::printf("crc32: %.1f MB | crc32 %.0f MB/s | slice-by-8 %.0f MB/s | %.1fx, %s\n",
                    mb, fold_mbs, slice8_mbs, fold_mbs / slice8_mbs,
                    identical ? "identical" : "DIFFERENT");
        if (!identical) {
            std::fprintf(stderr, "FAIL: crc32 differs from crc32_slice8\n");
            exit_code = 1;
        }
    }

    // --- artifacts -----------------------------------------------------------
    if (opt.json) {
        const std::string dir =
            opt.out_dir.empty() || opt.out_dir == "." ? std::string()
                                                      : opt.out_dir + "/";
        for (const auto& [name, bytes] :
             {std::pair<const char*, const std::string&>{"WIRE_event_log.bin",
                                                         log.bytes},
              {"WIRE_checkpoint.bin", ckpt}}) {
            const std::string path = dir + name;
            if (!wire::write_file(path, bytes)) {
                std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
                exit_code = 1;
            } else {
                std::printf("artifact: %s\n", path.c_str());
            }
        }
    }

    rep.add_scalar(
        "cores", static_cast<double>(std::thread::hardware_concurrency()));
    rep.add_text("gate",
                 "replay.identical == 1, checkpoint.identical == 1 and "
                 "crc.identical == 1 always; codec.decode_events_per_sec >= 1e6 "
                 "on >= 4 cores; crc.speedup >= 4 where the CPU has PCLMULQDQ");
    const int fin = runner.finish();
    return exit_code != 0 ? exit_code : fin;
}
