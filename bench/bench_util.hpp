#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "locble/common/cdf.hpp"
#include "locble/runtime/bench_report.hpp"
#include "locble/runtime/trial_runner.hpp"
#include "locble/sim/harness.hpp"

namespace locble::bench {

/// Command-line options shared by every bench binary.
struct Options {
    int trials{0};          ///< 0 = keep each sweep's built-in default
    unsigned threads{0};    ///< 0 = LOCBLE_THREADS env var, else all cores
    std::uint64_t seed{0};  ///< 0 = the bench's built-in master seed
    std::string out_dir{"."};
    bool json{true};
    bool metrics{false};      ///< collect locble::obs metrics into the report
    std::string trace_file;   ///< non-empty = write a Chrome trace_event JSON
};

/// Parse `--trials N --threads N --seed S --out DIR --no-json --metrics
/// --trace FILE`; prints usage and exits on `--help` or malformed input.
Options parse_options(int argc, char** argv);

/// Shared execution harness for one bench binary: owns the parsed options,
/// a TrialRunner sized per --threads, the wall clock, and the JSON report.
///
/// Determinism contract: a sweep tagged `k` runs its trials on master seed
/// `sweep_seed(k)`; trial t of that sweep draws from
/// Rng::for_stream(sweep_seed(k), t). All seeds are pure functions of
/// (--seed, k, t), so metric values are byte-identical for any --threads.
class Runner {
public:
    /// `name` becomes the BENCH_<name>.json stem; `default_seed` is the
    /// master seed when --seed is not given.
    Runner(const std::string& name, const Options& opt, std::uint64_t default_seed);

    int trials_or(int dflt) const { return opt_.trials > 0 ? opt_.trials : dflt; }
    std::uint64_t master_seed() const { return master_seed_; }
    /// Independent per-sweep master seed (pure function of --seed and tag).
    std::uint64_t sweep_seed(std::uint64_t tag) const {
        return locble::Rng::split_seed(master_seed_, tag);
    }
    unsigned threads() const { return runner_.threads(); }

    /// Run one sweep of `trials` seeded Monte-Carlo trials in parallel;
    /// results ordered by trial index.
    template <class Fn>
    auto run(int trials, std::uint64_t seed, Fn&& fn) {
        trials_run_ += trials;
        return runner_.run(trials, seed, std::forward<Fn>(fn));
    }

    /// Count `n` timed repetitions a bench runs in its own loops rather
    /// than through run(), so the report's `trials` states them too.
    void add_trials(int n) { trials_run_ += n; }

    runtime::BenchReport& report() { return report_; }

    /// Stamp run info + wall time, fold the obs snapshot into the report
    /// (--metrics), write the trace file (--trace), write BENCH_<name>.json
    /// (unless --no-json) and print where it went. Returns the process exit
    /// code.
    int finish();

private:
    Options opt_;
    std::uint64_t master_seed_;
    runtime::TrialRunner runner_;
    runtime::BenchReport report_;
    std::chrono::steady_clock::time_point start_;
    int trials_run_{0};
};

/// Collect stationary-measurement errors over `runs` independently seeded
/// trials of one scenario, in parallel (NaN-free: failed fits count as the
/// site diagonal).
inline std::vector<double> stationary_errors(Runner& runner, const sim::Scenario& sc,
                                             const sim::BeaconPlacement& beacon,
                                             const sim::MeasurementConfig& cfg,
                                             int runs, std::uint64_t sweep_seed) {
    return runner.run(runs, sweep_seed, [&](int, locble::Rng& rng) {
        const auto out = sim::measure_stationary(sc, beacon, cfg, rng);
        return out.ok ? out.error_m : std::hypot(sc.site.width_m, sc.site.height_m);
    });
}

/// Print a header naming the experiment and the paper's reference result.
inline void print_header(const std::string& id, const std::string& claim) {
    std::printf("== %s ==\n", id.c_str());
    std::printf("paper: %s\n\n", claim.c_str());
}

/// Record a named CDF into the report as a summary metric.
inline void report_cdf(Runner& runner, const std::string& key,
                       const std::vector<double>& samples) {
    runner.report().add_summary(key, samples);
}

}  // namespace locble::bench
