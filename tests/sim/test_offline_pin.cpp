// Byte-level pin of the offline pipeline: an FNV-1a hash over every field
// of LocateResult for fixed simulated captures. A refactor of core::LocBle
// (or of anything it drives) that changes one bit of a fix, a diagnostic
// counter or a batch size fails here with the environment and seed that
// moved; only a deliberate behaviour change re-records the constants.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "locble/sim/harness.hpp"

namespace locble::sim {
namespace {

struct Fnv {
    std::uint64_t h{1469598103934665603ull};

    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
};

std::uint64_t hash_result(const core::LocateResult& r) {
    Fnv f;
    f.u64(r.fit.has_value());
    if (r.fit) {
        f.f64(r.fit->location.x);
        f.f64(r.fit->location.y);
        f.f64(r.fit->exponent);
        f.f64(r.fit->gamma_dbm);
        f.u64(r.fit->segment_gammas.size());
        for (const double g : r.fit->segment_gammas) f.f64(g);
        f.f64(r.fit->residual_db);
        f.f64(r.fit->confidence);
        f.u64(r.fit->ambiguous);
    }
    f.i64(r.regression_restarts);
    f.u64(r.samples_used);
    f.u64(r.window_classes.size());
    for (const auto c : r.window_classes) f.u64(static_cast<std::uint64_t>(c));
    const auto& d = r.diagnostics;
    f.i64(d.solver_calls);
    f.i64(d.solver_candidates);
    f.i64(d.solver_failures);
    f.i64(d.solver_multistarts);
    f.i64(d.solver_warm_starts);
    f.i64(d.convergence_failures);
    f.i64(d.envaware_windows);
    f.u64(d.batch_samples.size());
    for (const std::size_t n : d.batch_samples) f.u64(n);
    return f.h;
}

/// One stationary fix with the library default config (ANF, EnvAware,
/// exhaustive search, Gamma prior from the beacon frame) in environment
/// `sc` under capture seed `seed`.
core::LocateResult default_fix(const Scenario& sc, std::uint64_t seed) {
    BeaconPlacement beacon;
    beacon.position = sc.default_beacon;
    locble::Rng rng = locble::Rng::for_stream(seed, static_cast<std::uint64_t>(sc.index));
    return measure_stationary(sc, beacon, MeasurementConfig{}, rng).detail;
}

TEST(OfflinePinTest, LocateResultBitsArePinnedPerEnvironment) {
    // kPinned[environment - 1][seed - 1].
    constexpr std::uint64_t kPinned[9][2] = {
        {0x645d1609ba66638dull, 0x21091d5ff10b7da6ull},  // meeting room
        {0x9e148952f3bc7b32ull, 0xf565a679938c77eaull},  // hallway
        {0x6b6f0d5cfa112bacull, 0x1c6a9fa535e5195bull},  // bedroom
        {0x187e65f9e4f8ecb6ull, 0x5410b288b7b726ccull},  // living room
        {0xc1e564c542ea6dd5ull, 0x7084ed98a8c83bc6ull},  // restaurant
        {0xf6d5a00413588efeull, 0x882977ce896a0d4full},  // store
        {0x72e8994b6a42b0f8ull, 0xc5d4ffcfb4afc1c9ull},  // labs
        {0x5f1fdfbf4840d359ull, 0xd1999674102bd62bull},  // hall
        {0x37743645c5055828ull, 0x9e8032422bb7aaf5ull},  // parking lot
    };
    int restarts = 0;
    for (const Scenario& sc : all_scenarios()) {
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            const core::LocateResult r = default_fix(sc, seed);
            restarts += r.regression_restarts;
            EXPECT_EQ(hash_result(r), kPinned[sc.index - 1][seed - 1])
                << sc.name << " seed " << seed << std::hex << ": got 0x"
                << hash_result(r);
        }
    }
    // The captures must reach Algorithm 1's segment path, or the pin would
    // not cover it.
    EXPECT_GT(restarts, 0);
}

}  // namespace
}  // namespace locble::sim
