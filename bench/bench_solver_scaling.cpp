// Solver hot-path scaling: naive cold re-solve per batch flush versus the
// incremental SolverWorkspace Session (ISSUE 3 tentpole).
//
// The pipeline's per-batch pattern is "append a batch, re-solve the whole
// accumulated regression". The naive baseline pays the full cold cost at
// every flush; the Session folds only the new samples into the
// per-exponent state (rho powers, linear-seed normal equations, sample
// aggregates) and, in coarse_to_fine mode, warm-starts Gauss-Newton from
// the previous flush's fit while scanning the exponent grid coarse-first.
//
// Sweep: samples-per-batch x batches x exponent-grid size. For each point
// we report the per-walk wall time of
//   naive   — cold LocationSolver::solve over the accumulated samples in
//             KernelMode::scalar_reference (the AoS scalar twins — the
//             pre-lane-kernel implementation),
//   incr    — Session in exhaustive mode on the production lane kernels
//             (bit-identical results by the determinism contract),
//   coarse  — Session in coarse_to_fine mode (the production fast path),
// plus the speedup ratios. speedup_exhaustive therefore measures the lane
// kernels *and* incremental reuse against the scalar cold baseline, and
// `exhaustive_identical` doubles as the end-to-end cross-mode identity
// gate of solver_kernels.hpp. The headline gate (CI) is the largest
// point's coarse ratio; medium+ points also gate speedup_exhaustive.
//
// A kernel.* micro-section times the raw gn2/residual2 kernels (scalar
// reference vs lane kernels at the build's kLaneWidth) on a synthetic SoA
// problem, isolating the SIMD win from the incremental one, and batches of
// Gauss-Newton runs taken one at a time vs in lockstep (eight k == 1 runs;
// 1-8 runs at k = 2..4), every run checked against gn_lockstep_ref.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "locble/common/rng.hpp"
#include "locble/common/table.hpp"
#include "locble/core/location_solver.hpp"

using namespace locble;
using core::FusedSample;
using core::LocationFit;
using core::LocationSolver;

namespace {

struct SweepPoint {
    const char* key;
    int per_batch;
    int batches;
    double exponent_step;  // grid resolution: points ~ 4.8 / step
};

/// Noisy L-walk RSS stream split into per-flush batches.
std::vector<std::vector<FusedSample>> make_batches(const SweepPoint& pt,
                                                   std::uint64_t seed) {
    locble::Rng rng(seed);
    const locble::Vec2 target{5.0, 2.0};
    const int total = pt.per_batch * pt.batches;
    const int half = total / 2;
    std::vector<std::vector<FusedSample>> out(static_cast<std::size_t>(pt.batches));
    for (int i = 0; i < total; ++i) {
        // L-shape: first half along +x, second half along +y.
        locble::Vec2 obs;
        if (i < half) {
            obs = {4.0 * i / std::max(half - 1, 1), 0.0};
        } else {
            obs = {4.0, 3.0 * (i - half) / std::max(total - half - 1, 1)};
        }
        FusedSample s;
        s.t = 0.1 * i;
        s.p = -obs.x;
        s.q = -obs.y;
        const double l = locble::Vec2::distance(target, obs);
        s.rssi = -59.0 - 10.0 * 2.1 * std::log10(std::max(l, 0.1)) +
                 rng.gaussian(0.0, 3.0);
        out[static_cast<std::size_t>(i / pt.per_batch)].push_back(s);
    }
    return out;
}

double now_us() {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool bitwise_equal(const LocationFit& a, const LocationFit& b) {
    return a.location.x == b.location.x && a.location.y == b.location.y &&
           a.exponent == b.exponent && a.gamma_dbm == b.gamma_dbm &&
           a.residual_db == b.residual_db && a.confidence == b.confidence &&
           a.ambiguous == b.ambiguous && a.segment_gammas == b.segment_gammas;
}

struct ModeResult {
    double us{1e300};              // best-of-trials wall time for the whole walk
    std::vector<double> trial_us;  // per-trial wall times, in trial order
    LocationFit fit;
    bool got_fit{false};
};

/// Median of per-trial ratios a/b. Each trial times both modes
/// back-to-back, so transient machine load cancels inside the ratio —
/// far more stable on a busy host than a ratio of independent minima.
double median_ratio(const ModeResult& a, const ModeResult& b) {
    std::vector<double> r;
    for (std::size_t i = 0; i < a.trial_us.size() && i < b.trial_us.size(); ++i)
        r.push_back(a.trial_us[i] / b.trial_us[i]);
    std::sort(r.begin(), r.end());
    if (r.empty()) return 0.0;
    const std::size_t n = r.size();
    return n % 2 ? r[n / 2] : 0.5 * (r[n / 2 - 1] + r[n / 2]);
}

/// One walk with all three modes advanced in lockstep: at every flush the
/// naive cold solve, the exhaustive Session solve, and the coarse Session
/// solve run back-to-back (milliseconds apart), so transient machine load
/// inflates all three near-identically and cancels out of the per-trial
/// time ratios. Accumulates each mode's total solve time for the walk.
void run_pass(const std::vector<std::vector<FusedSample>>& batches,
              const LocationSolver& naive_solver, const LocationSolver& exhaustive,
              const LocationSolver& coarse_solver, ModeResult& naive,
              ModeResult& incr, ModeResult& coarse) {
    LocationSolver::Session incr_session(exhaustive);
    LocationSolver::Session coarse_session(coarse_solver);
    std::vector<FusedSample> accumulated;
    double t_naive = 0.0, t_incr = 0.0, t_coarse = 0.0;
    naive.got_fit = incr.got_fit = coarse.got_fit = false;
    for (const auto& batch : batches) {
        accumulated.insert(accumulated.end(), batch.begin(), batch.end());
        incr_session.add(batch);
        coarse_session.add(batch);

        double t0 = now_us();
        if (auto fit = naive_solver.solve(accumulated)) {
            naive.fit = std::move(*fit);
            naive.got_fit = true;
        }
        t_naive += now_us() - t0;

        t0 = now_us();
        incr.got_fit = incr_session.solve_into(incr.fit) || incr.got_fit;
        t_incr += now_us() - t0;

        t0 = now_us();
        coarse.got_fit = coarse_session.solve_into(coarse.fit) || coarse.got_fit;
        t_coarse += now_us() - t0;
    }
    naive.trial_us.push_back(t_naive);
    incr.trial_us.push_back(t_incr);
    coarse.trial_us.push_back(t_coarse);
    naive.us = std::min(naive.us, t_naive);
    incr.us = std::min(incr.us, t_incr);
    coarse.us = std::min(coarse.us, t_coarse);
}

/// Min-over-trials for all three lockstep modes; one untimed warm-up pass.
void run_point(const std::vector<std::vector<FusedSample>>& batches,
               const LocationSolver& naive_solver, const LocationSolver& exhaustive,
               const LocationSolver& coarse_solver, int trials, ModeResult& naive,
               ModeResult& incr, ModeResult& coarse) {
    ModeResult warmup_n, warmup_i, warmup_c;
    run_pass(batches, naive_solver, exhaustive, coarse_solver, warmup_n, warmup_i,
             warmup_c);
    for (int trial = 0; trial < trials; ++trial)
        run_pass(batches, naive_solver, exhaustive, coarse_solver, naive, incr,
                 coarse);
}

/// Raw-kernel micro-benchmark: the GN accumulation and residual pass on a
/// synthetic SoA problem, scalar reference vs the build's lane width. The
/// checksum of every timed pass is folded into the report so the compiler
/// cannot discard the loops.
void bench_kernels(bench::Runner& runner, int trials) {
    constexpr std::size_t kN = 4096;
    constexpr std::size_t kReps = 64;
    locble::Rng rng(runner.sweep_seed(9));
    std::vector<core::FusedSample> aos(kN);
    std::vector<double> p(kN), q(kN), rssi(kN), resid(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        aos[i].p = p[i] = rng.uniform(-15.0, 15.0);
        aos[i].q = q[i] = rng.uniform(-15.0, 15.0);
        aos[i].rssi = rssi[i] = rng.uniform(-90.0, -40.0);
    }
    const double x = 5.0, h = 2.0, gamma = -59.0, exponent = 2.1;
    const double c = -10.0 * exponent / 2.302585092994046;
    constexpr std::size_t kW = core::kernels::kLaneWidth;

    double gn_ref_us = 1e300, gn_lanes_us = 1e300;
    double res_ref_us = 1e300, res_lanes_us = 1e300;
    double checksum = 0.0;
    for (int trial = 0; trial < trials + 1; ++trial) {  // first pass warms up
        double t0 = now_us();
        for (std::size_t rep = 0; rep < kReps; ++rep) {
            core::kernels::GnSums2 s{};
            core::kernels::gn2_ref(aos.data(), kN, x, h, gamma, exponent, c, s);
            checksum += s.r0;
        }
        const double t_gn_ref = now_us() - t0;

        t0 = now_us();
        for (std::size_t rep = 0; rep < kReps; ++rep) {
            core::kernels::GnSums2 s{};
            core::kernels::gn2_lanes<kW>(p.data(), q.data(), rssi.data(), kN, x,
                                         h, gamma, exponent, c, s);
            checksum += s.r0;
        }
        const double t_gn_lanes = now_us() - t0;

        t0 = now_us();
        for (std::size_t rep = 0; rep < kReps; ++rep) {
            double sum = 0.0, ss = 0.0;
            core::kernels::residual2_ref(aos.data(), kN, x, h, gamma, exponent,
                                         resid.data(), sum, ss);
            checksum += ss;
        }
        const double t_res_ref = now_us() - t0;

        t0 = now_us();
        for (std::size_t rep = 0; rep < kReps; ++rep) {
            double sum = 0.0, ss = 0.0;
            core::kernels::residual2_lanes<kW>(p.data(), q.data(), rssi.data(),
                                               kN, x, h, gamma, exponent,
                                               resid.data(), sum, ss);
            checksum += ss;
        }
        const double t_res_lanes = now_us() - t0;

        if (trial == 0) continue;
        gn_ref_us = std::min(gn_ref_us, t_gn_ref);
        gn_lanes_us = std::min(gn_lanes_us, t_gn_lanes);
        res_ref_us = std::min(res_ref_us, t_res_ref);
        res_lanes_us = std::min(res_lanes_us, t_res_lanes);
    }
    runner.add_trials(trials);

    const double per = 1e3 / (static_cast<double>(kN) * kReps);  // us -> ns/sample
    std::printf("kernels (n=%zu, W=%zu): gn2 %.2f -> %.2f ns/sample (x%.2f), "
                "residual2 %.2f -> %.2f ns/sample (x%.2f)\n\n",
                kN, kW, gn_ref_us * per, gn_lanes_us * per,
                gn_ref_us / gn_lanes_us, res_ref_us * per, res_lanes_us * per,
                res_ref_us / res_lanes_us);
    runner.report().add_scalar("kernel.gn2_ref_ns_per_sample", gn_ref_us * per);
    runner.report().add_scalar("kernel.gn2_lanes_ns_per_sample", gn_lanes_us * per);
    runner.report().add_scalar("kernel.gn2_speedup", gn_ref_us / gn_lanes_us);
    runner.report().add_scalar("kernel.residual2_ref_ns_per_sample",
                               res_ref_us * per);
    runner.report().add_scalar("kernel.residual2_lanes_ns_per_sample",
                               res_lanes_us * per);
    runner.report().add_scalar("kernel.residual2_speedup",
                               res_ref_us / res_lanes_us);
    runner.report().add_scalar("kernel.checksum", checksum);
}

/// Serial and lockstep wall time of one lockstep micro-benchmark case.
struct LockstepTiming {
    double serial_us;
    double lock_us;
};

/// Lockstep Gauss-Newton micro-benchmark. Each case times `runs` runs over
/// one n-sample L-walk in k Gamma segments, each run from its own bearing
/// at its own exponent: taken one at a time (a batch of one run per call,
/// a sweep and a scalar solve per iteration) and advanced together by the
/// lockstep executor. Every run of both is checked bit for bit against
/// gn_lockstep_ref — the same run alone on the AoS samples, through the
/// scalar twins and solve_linear_flat (`kernel.gn_lockstep_identical`).
void bench_lockstep(bench::Runner& runner, int trials) {
    namespace kn = core::kernels;
    constexpr std::size_t kW = kn::kLaneWidth;
    constexpr int kReps = 200;
    locble::Rng rng(runner.sweep_seed(10));
    std::size_t compared = 0, mismatches = 0;
    const auto time_case = [&](std::size_t n, std::size_t k, std::size_t runs) {
        // An L-walk past a target at (5, 2), 2 dB noise, each segment 3 dB
        // below the one before.
        std::vector<double> p(n), q(n), rssi(n);
        std::vector<int> seg(n);
        std::vector<FusedSample> aos(n);
        for (std::size_t i = 0; i < n; ++i) {
            const double u = static_cast<double>(i) / static_cast<double>(n);
            p[i] = 5.0 - (u < 0.5 ? 8.0 * u : 4.0);
            q[i] = 2.0 - (u < 0.5 ? 0.0 : 6.0 * (u - 0.5));
            seg[i] = static_cast<int>(i * k / n);
            const double l2 = std::max(p[i] * p[i] + q[i] * q[i], 0.01);
            rssi[i] = -59.0 - 3.0 * seg[i] - 10.5 * std::log10(l2) +
                      rng.gaussian(0.0, 2.0);
            aos[i] = FusedSample{0.0, p[i], q[i], rssi[i], seg[i]};
        }
        std::vector<double> scratch(kn::lockstep_scratch_size(k));
        kn::GnBatch start;
        start.runs = runs;
        start.k = k;
        start.gamma_min = -90.0;
        start.gamma_max = -30.0;
        for (std::size_t j = 0; j < runs; ++j) {
            const double angle = 2.0 * 3.141592653589793 * static_cast<double>(j) /
                                 static_cast<double>(kn::kAccLanes);
            start.x[j] = 4.0 * std::cos(angle);
            start.h[j] = 4.0 * std::sin(angle);
            start.exponent[j] = 1.6 + 0.3 * static_cast<double>(j);
        }
        std::vector<double> g_ref(runs * k, -59.0), g_serial(runs * k), g_lock(runs * k);
        kn::GnBatch ref = start;
        ref.gammas = g_ref.data();
        kn::gn_lockstep_ref(aos.data(), n, ref, scratch.data());
        kn::GnBatch serial[kn::kAccLanes];
        kn::GnBatch lock;
        // Bit for bit: memcmp tells -0.0 from 0.0 and matches a NaN.
        const auto same = [&](double x, double h, const double* g, std::size_t j) {
            return std::memcmp(&x, &ref.x[j], sizeof x) == 0 &&
                   std::memcmp(&h, &ref.h[j], sizeof h) == 0 &&
                   std::memcmp(g, g_ref.data() + j * k, k * sizeof(double)) == 0;
        };
        LockstepTiming best{1e300, 1e300};
        for (int trial = 0; trial < trials + 1; ++trial) {  // first pass warms up
            double t0 = now_us();
            for (int rep = 0; rep < kReps; ++rep) {
                for (std::size_t j = 0; j < runs; ++j) {
                    kn::GnBatch& one = serial[j];
                    one = kn::GnBatch{};
                    one.runs = 1;
                    one.k = k;
                    one.gamma_min = start.gamma_min;
                    one.gamma_max = start.gamma_max;
                    one.x[0] = start.x[j];
                    one.h[0] = start.h[j];
                    one.exponent[0] = start.exponent[j];
                    one.gammas = g_serial.data() + j * k;
                    std::fill_n(one.gammas, k, -59.0);
                    kn::gn_lockstep<kW>(p.data(), q.data(), rssi.data(), seg.data(), n,
                                        one, scratch.data());
                }
            }
            const double t_serial = now_us() - t0;

            t0 = now_us();
            for (int rep = 0; rep < kReps; ++rep) {
                lock = start;
                std::fill(g_lock.begin(), g_lock.end(), -59.0);
                lock.gammas = g_lock.data();
                kn::gn_lockstep<kW>(p.data(), q.data(), rssi.data(), seg.data(), n, lock,
                                    scratch.data());
            }
            const double t_lock = now_us() - t0;
            for (std::size_t j = 0; j < runs; ++j) {
                compared += 2;
                if (!same(serial[j].x[0], serial[j].h[0], g_serial.data() + j * k, j))
                    ++mismatches;
                if (!same(lock.x[j], lock.h[j], g_lock.data() + j * k, j)) ++mismatches;
            }
            if (trial == 0) continue;
            best.serial_us = std::min(best.serial_us, t_serial);
            best.lock_us = std::min(best.lock_us, t_lock);
        }
        return best;
    };

    // k == 1: the eight bearings of one grid point, at the per-sweep
    // sample counts of the perfbench workloads.
    constexpr std::size_t kCountsK1[] = {16, 38, 68, 190};
    for (const std::size_t n : kCountsK1) {
        const LockstepTiming t = time_case(n, 1, kn::kAccLanes);
        const double per_run = 1e3 / (static_cast<double>(kReps) * kn::kAccLanes);
        std::printf("lockstep GN (n=%zu, k=1, 8 runs, W=%zu): %.0f -> %.0f ns/run (x%.2f)\n",
                    n, kW, t.serial_us * per_run, t.lock_us * per_run,
                    t.serial_us / t.lock_us);
        runner.report().add_scalar("kernel.gn_lockstep_speedup_n" + std::to_string(n),
                                   t.serial_us / t.lock_us);
    }
    // k > 1: batches of 1..8 runs at the k > 1 sweep lengths of offline_fix
    // (~64 samples) and standby_long_walk (~131).
    constexpr std::size_t kSegments[] = {2, 3, 4};
    constexpr std::size_t kCountsSeg[] = {64, 131};
    for (const std::size_t k : kSegments) {
        for (const std::size_t n : kCountsSeg) {
            std::printf("lockstep GN (n=%zu, k=%zu, W=%zu) serial/lockstep by runs:", n, k,
                        kW);
            for (std::size_t runs = 1; runs <= kn::kAccLanes; ++runs) {
                const LockstepTiming t = time_case(n, k, runs);
                std::printf(" %zu:x%.2f", runs, t.serial_us / t.lock_us);
                runner.report().add_scalar("kernel.gn_lockstep_speedup_k" +
                                               std::to_string(k) + "_n" +
                                               std::to_string(n) + "_r" +
                                               std::to_string(runs),
                                           t.serial_us / t.lock_us);
            }
            std::printf("\n");
        }
    }
    runner.add_trials(trials);
    std::printf("lockstep GN: %zu runs compared with gn_lockstep_ref, %zu mismatches\n\n",
                compared, mismatches);
    runner.report().add_scalar("kernel.gn_lockstep_runs_compared",
                               static_cast<double>(compared));
    runner.report().add_scalar("kernel.gn_lockstep_identical",
                               mismatches == 0 ? 1.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
    const auto opt = bench::parse_options(argc, argv);
    bench::Runner runner("solver_scaling", opt, 47000);

    bench::print_header(
        "Solver scaling — naive cold re-solve vs incremental Session",
        "per-flush walk cost; 'incr' is bit-identical exhaustive, 'coarse' is "
        "the coarse_to_fine warm-started production fast path");

    const SweepPoint sweep[] = {
        {"small", 8, 4, 0.1},
        {"medium", 16, 8, 0.05},
        {"large", 24, 12, 0.05},
        {"xlarge", 24, 24, 0.025},
    };
    const int trials = runner.trials_or(5);

    TextTable table({"point", "samples", "grid", "naive us", "incr us", "coarse us",
                     "x incr", "x coarse"});
    const char* largest_key = sweep[std::size(sweep) - 1].key;

    for (std::size_t i = 0; i < std::size(sweep); ++i) {
        const auto& pt = sweep[i];
        const auto batches = make_batches(pt, runner.sweep_seed(i));

        LocationSolver::Config cfg;
        cfg.exponent_step = pt.exponent_step;
        const LocationSolver exhaustive(cfg);
        // The naive baseline runs the scalar-reference kernels: its fits
        // must still match the lane-kernel Session bitwise (the cross-mode
        // identity gate).
        LocationSolver::Config naive_cfg = cfg;
        naive_cfg.kernel_mode = LocationSolver::Config::KernelMode::scalar_reference;
        const LocationSolver naive_solver(naive_cfg);
        LocationSolver::Config coarse_cfg = cfg;
        coarse_cfg.search_mode = LocationSolver::SearchMode::coarse_to_fine;
        const LocationSolver coarse_solver(coarse_cfg);

        ModeResult naive, incr, coarse;
        run_point(batches, naive_solver, exhaustive, coarse_solver, trials, naive,
                  incr, coarse);
        runner.add_trials(trials);

        const bool identical = naive.got_fit == incr.got_fit &&
                               (!naive.got_fit || bitwise_equal(naive.fit, incr.fit));
        double coarse_err = 0.0;
        if (naive.got_fit && coarse.got_fit)
            coarse_err = locble::Vec2::distance(naive.fit.location, coarse.fit.location);

        const double x_incr = median_ratio(naive, incr);
        const double x_coarse = median_ratio(naive, coarse);
        const int grid = static_cast<int>((LocationSolver::kExponentMax -
                                           LocationSolver::kExponentMin) /
                                          cfg.exponent_step) + 1;
        table.add_row(pt.key,
                      {static_cast<double>(pt.per_batch * pt.batches),
                       static_cast<double>(grid), naive.us, incr.us, coarse.us,
                       x_incr, x_coarse},
                      2);

        const std::string k(pt.key);
        runner.report().add_scalar(k + ".samples", pt.per_batch * pt.batches);
        runner.report().add_scalar(k + ".grid_points", grid);
        runner.report().add_scalar(k + ".batches", pt.batches);
        runner.report().add_scalar(k + ".naive_us", naive.us);
        runner.report().add_scalar(k + ".incremental_us", incr.us);
        runner.report().add_scalar(k + ".coarse_us", coarse.us);
        runner.report().add_scalar(k + ".speedup_exhaustive", x_incr);
        runner.report().add_scalar(k + ".speedup_coarse_warm", x_coarse);
        runner.report().add_scalar(k + ".exhaustive_identical", identical ? 1.0 : 0.0);
        runner.report().add_scalar(k + ".coarse_location_delta_m", coarse_err);
        if (!identical)
            std::printf("WARNING: %s exhaustive incremental != naive!\n", pt.key);
    }
    std::printf("%s\n", table.str().c_str());
    bench_kernels(runner, trials);
    bench_lockstep(runner, trials);
    runner.report().add_scalar("lane_width",
                               static_cast<double>(core::kernels::kLaneWidth));
    runner.report().add_text("kernel_isa", LOCBLE_KERNEL_ISA);
    runner.report().add_text("largest_point", largest_key);
    std::printf("headline (CI gate): %s.speedup_coarse_warm — the incremental\n"
                "warm-started production path vs naive cold re-solve\n\n",
                largest_key);
    return runner.finish();
}
