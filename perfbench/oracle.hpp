#pragma once

// Ground-truth oracle of the performance benchmark: scores location
// estimates, which live in each walk's observer frame, against the
// simulator's site-frame truth.

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include "locble/common/vec2.hpp"
#include "locble/serve/service.hpp"
#include "locble/sim/scenarios.hpp"

namespace perf {

/// A site-frame point in the observer frame of a walk that starts at the
/// scenario's observer_start facing its observer_heading (every walk the
/// benchmark simulates does).
locble::Vec2 observer_frame_truth(const locble::sim::Scenario& sc,
                                  const locble::Vec2& site_point);

/// Accuracy over a fixed population of (owner, beacon) pairs.
struct Accuracy {
    std::size_t pairs{0};   ///< population size
    std::size_t fixed{0};   ///< pairs whose last estimate carries a fit
    double error_m_p50{0.0};
    double error_m_p90{0.0};
    double no_fix_rate{0.0};  ///< (pairs - fixed) / pairs
    /// Every fitted estimate was finite and no row fell outside the
    /// population (an unknown beacon, or more pairs than expected).
    bool valid{true};
};

/// Keeps the last estimate of every (owner, beacon) pair and scores it.
/// The owner is a serve client id or an offline capture index. Pairs never
/// reported count as having no fix.
class Oracle {
public:
    explicit Oracle(std::size_t expected_pairs) : expected_pairs_(expected_pairs) {}

    /// Record the latest estimate of a pair (a later call replaces it).
    void set(std::uint64_t owner, std::uint64_t beacon, bool has_fit,
             const locble::Vec2& estimate, const locble::Vec2& truth);

    /// Follow one snapshot of the service's stream. Incremental snapshots
    /// carry only changed rows, and an evicted session simply stops
    /// appearing, so its last row stays in force.
    void follow(const locble::serve::ServiceSnapshot& snap,
                const std::map<std::uint64_t, locble::Vec2>& truth_by_beacon);

    Accuracy accuracy() const;

private:
    struct Row {
        bool has_fit{false};
        double error_m{0.0};
        bool finite{true};
    };
    std::size_t expected_pairs_;
    std::map<std::pair<std::uint64_t, std::uint64_t>, Row> rows_;
    bool unknown_beacon_{false};
};

}  // namespace perf
