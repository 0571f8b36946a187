#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace perf {

double quantile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
    return samples[idx];
}

double weighted_quantile(std::vector<std::pair<double, double>> samples, double q) {
    double total = 0.0;
    for (const auto& s : samples) total += s.second;
    if (!(total > 0.0)) return 0.0;
    std::sort(samples.begin(), samples.end());
    double seen = 0.0;
    for (const auto& [value, weight] : samples) {
        seen += weight;
        if (seen >= q * total) return value;
    }
    return samples.back().first;
}

namespace {

/// Value of `"key":` in one event line, as the text up to the next ',' '}'
/// or '"'. Empty when the key is absent.
std::string_view field(std::string_view line, std::string_view key) {
    const std::string pattern = "\"" + std::string(key) + "\":";
    const std::size_t at = line.find(pattern);
    if (at == std::string_view::npos) return {};
    std::size_t begin = at + pattern.size();
    if (begin < line.size() && line[begin] == '"') ++begin;
    const std::size_t end = line.find_first_of(",}\"", begin);
    return line.substr(begin, end == std::string_view::npos ? end : end - begin);
}

bool to_double(std::string_view text, double& out) {
    const std::string s(text);
    char* end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return !s.empty() && end == s.c_str() + s.size();
}

}  // namespace

bool parse_trace(std::string_view chrome_json, std::vector<Span>& out) {
    std::size_t pos = 0;
    while (pos < chrome_json.size()) {
        std::size_t eol = chrome_json.find('\n', pos);
        if (eol == std::string_view::npos) eol = chrome_json.size();
        const std::string_view line = chrome_json.substr(pos, eol - pos);
        pos = eol + 1;
        if (field(line, "ph") != "X") continue;
        Span s;
        s.name = std::string(field(line, "name"));
        double tid = 0.0;
        if (s.name.empty() || !to_double(field(line, "tid"), tid) ||
            !to_double(field(line, "ts"), s.ts) || !to_double(field(line, "dur"), s.dur))
            return false;
        s.tid = static_cast<std::uint32_t>(tid);
        out.push_back(std::move(s));
    }
    return true;
}

std::string to_chrome_json(const std::vector<Span>& spans) {
    std::string out = "{\"traceEvents\":[";
    char tail[128];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::snprintf(tail, sizeof tail,
                      "\",\"cat\":\"locble\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                      "\"ts\":%.3f,\"dur\":%.3f}",
                      static_cast<unsigned>(s.tid), s.ts, s.dur);
        out += i ? ",\n  {\"name\":\"" : "\n  {\"name\":\"";
        out += s.name;
        out += tail;
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

void total_spans(std::vector<Span> spans, std::map<std::string, SpanTotals>& out) {
    // Parents first: by thread, then start, then longest first.
    std::stable_sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
        if (a.tid != b.tid) return a.tid < b.tid;
        if (a.ts != b.ts) return a.ts < b.ts;
        return a.dur > b.dur;
    });
    // Walk each thread with a stack of open spans; a span's duration is
    // charged against its innermost enclosing span's self time.
    std::vector<double> child_us(spans.size(), 0.0);
    std::vector<std::size_t> open;
    constexpr double kSlackUs = 0.002;  // timestamps are printed to 1 ns
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        while (!open.empty()) {
            const Span& top = spans[open.back()];
            if (top.tid == s.tid && s.ts + s.dur <= top.ts + top.dur + kSlackUs) break;
            open.pop_back();
        }
        if (!open.empty()) child_us[open.back()] += s.dur;
        open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanTotals& t = out[spans[i].name];
        ++t.count;
        t.total_us += spans[i].dur;
        t.self_us += std::max(0.0, spans[i].dur - child_us[i]);
        t.durations_us.push_back(spans[i].dur);
    }
}

void add_coverage(const std::vector<Span>& spans, std::string_view cycle,
                  const std::function<bool(std::string_view)>& covers, Coverage& acc) {
    // Covering intervals by start; a sweep over them in that order yields
    // their union.
    std::vector<std::pair<double, double>> cover;
    double longest = 0.0;
    for (const Span& s : spans)
        if (covers(s.name)) {
            cover.emplace_back(s.ts, s.ts + s.dur);
            longest = std::max(longest, s.dur);
        }
    std::sort(cover.begin(), cover.end());
    for (const Span& c : spans) {
        if (c.name != cycle) continue;
        const double end = c.ts + c.dur;
        auto it = std::lower_bound(cover.begin(), cover.end(),
                                   std::make_pair(c.ts - longest,
                                                  -std::numeric_limits<double>::infinity()));
        double reach = c.ts;  // covered up to here
        for (; it != cover.end() && it->first < end; ++it) {
            const double lo = std::max(it->first, reach);
            const double hi = std::min(it->second, end);
            if (hi > lo) {
                acc.covered_us += hi - lo;
                reach = hi;
            }
        }
        acc.cycle_us += c.dur;
    }
}

}  // namespace perf
