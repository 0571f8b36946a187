#pragma once

// Timing ledger of the performance benchmark: nearest-rank quantiles of the
// per-call samples the driver collects, and the span analysis that turns a
// Chrome trace (obs::Tracer::to_json) into per-layer self times and into the
// share of each driver cycle that layer work covers.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perf {

/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it. 0 when empty.
double quantile(std::vector<double> samples, double q);

/// Nearest-rank quantile of (value, weight) pairs: the smallest value whose
/// cumulative weight reaches q of the total. 0 when the total weight is 0.
double weighted_quantile(std::vector<std::pair<double, double>> samples, double q);

/// One complete ("X") event of a Chrome trace.
struct Span {
    std::string name;
    std::uint32_t tid{0};
    double ts{0.0};   ///< start, us on the tracer's clock
    double dur{0.0};  ///< us
};

/// Parse the complete events of a Chrome trace in the line-per-event layout
/// obs::Tracer::to_json writes, and append them to `out`. Counter ("C")
/// events are ignored. Returns false when a span line does not parse.
bool parse_trace(std::string_view chrome_json, std::vector<Span>& out);

/// The spans as a Chrome trace, loadable in Perfetto or chrome://tracing.
std::string to_chrome_json(const std::vector<Span>& spans);

/// Totals of one span name over a whole trace.
struct SpanTotals {
    std::uint64_t count{0};
    double total_us{0.0};
    /// Duration minus the part covered by direct child spans (spans on the
    /// same thread nested inside it).
    double self_us{0.0};
    std::vector<double> durations_us;
};

/// Add the spans to their name's totals in `out`.
void total_spans(std::vector<Span> spans, std::map<std::string, SpanTotals>& out);

/// How much of a set of cycle spans other spans cover, on any thread.
struct Coverage {
    double covered_us{0.0};
    double cycle_us{0.0};
    double share() const { return cycle_us > 0.0 ? covered_us / cycle_us : 0.0; }
};

/// For every span named `cycle`, add its duration, and the length of the
/// union of the spans `covers` accepts clipped to it, to `acc`.
void add_coverage(const std::vector<Span>& spans, std::string_view cycle,
                  const std::function<bool(std::string_view)>& covers, Coverage& acc);

}  // namespace perf
