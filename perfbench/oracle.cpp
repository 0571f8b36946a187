#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ledger.hpp"
#include "locble/sim/harness.hpp"

namespace perf {

locble::Vec2 observer_frame_truth(const locble::sim::Scenario& sc,
                                  const locble::Vec2& site_point) {
    return locble::sim::site_to_observer(site_point, sc.observer_start,
                                         sc.observer_heading);
}

void Oracle::set(std::uint64_t owner, std::uint64_t beacon, bool has_fit,
                 const locble::Vec2& estimate, const locble::Vec2& truth) {
    Row row;
    row.has_fit = has_fit;
    if (has_fit) {
        row.finite = std::isfinite(estimate.x) && std::isfinite(estimate.y);
        row.error_m = locble::Vec2::distance(estimate, truth);
    }
    rows_[{owner, beacon}] = row;
}

void Oracle::follow(const locble::serve::ServiceSnapshot& snap,
                    const std::map<std::uint64_t, locble::Vec2>& truth_by_beacon) {
    for (const locble::serve::BeaconEstimate& e : snap.estimates) {
        const auto truth = truth_by_beacon.find(e.beacon);
        if (truth == truth_by_beacon.end()) {
            unknown_beacon_ = true;
            continue;
        }
        set(e.client, e.beacon, e.has_fit, e.fit.location, truth->second);
    }
}

Accuracy Oracle::accuracy() const {
    Accuracy a;
    a.pairs = std::max(expected_pairs_, rows_.size());
    std::vector<double> errors;
    for (const auto& [key, row] : rows_) {
        if (!row.has_fit) continue;
        a.valid = a.valid && row.finite;
        errors.push_back(row.error_m);
    }
    a.fixed = errors.size();
    a.error_m_p50 = quantile(errors, 0.5);
    a.error_m_p90 = quantile(errors, 0.9);
    a.no_fix_rate = a.pairs == 0 ? 0.0
                                 : static_cast<double>(a.pairs - a.fixed) /
                                       static_cast<double>(a.pairs);
    a.valid = a.valid && !unknown_beacon_ && rows_.size() <= expected_pairs_;
    return a;
}

}  // namespace perf
