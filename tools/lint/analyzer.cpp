#include "analyzer.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <tuple>

namespace locble::lint {

namespace {

void append_escaped(std::string& out, const std::string& s) {
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
}

void field(std::string& out, const char* key, const std::string& value,
           bool comma = true) {
    out += '"';
    out += key;
    out += "\": \"";
    append_escaped(out, value);
    out += '"';
    if (comma) out += ", ";
}

}  // namespace

std::vector<const Finding*> AnalysisResult::failing() const {
    std::vector<const Finding*> out;
    for (const Finding& f : findings)
        if (f.severity == "error" && !f.baselined) out.push_back(&f);
    return out;
}

AnalysisResult analyze(const std::vector<SourceFile>& files,
                       const AnalyzerOptions& opts) {
    AnalysisResult result;
    result.files_scanned = files.size();

    // Pass 1: shared index.
    std::vector<FileIndex> index;
    index.reserve(files.size());
    for (const SourceFile& f : files)
        index.push_back(build_file_index(f.path, f.contents));

    // Pass 2a: cross-file symbol collection (unordered members declared in
    // headers are recognized when iterated in .cpp files).
    GlobalSymbols symbols;
    for (const FileIndex& fi : index) collect_symbols(fi, symbols);

    // Pass 2b: per-file rules.
    for (const FileIndex& fi : index) {
        std::vector<Finding> file_findings = run_file_rules(fi, symbols);
        result.findings.insert(result.findings.end(),
                               std::make_move_iterator(file_findings.begin()),
                               std::make_move_iterator(file_findings.end()));
    }

    // Pass 3: include-graph layering.
    if (opts.layering) {
        result.graph = check_layering(index);
        result.findings.insert(result.findings.end(),
                               result.graph.violations.begin(),
                               result.graph.violations.end());
    }

    // Pass 4: reachability classification.
    if (opts.reachability) {
        const CallGraph call_graph = build_call_graph(index);
        result.undefined_entry_points = undefined_entry_points(call_graph);
        const std::set<std::string> reached = reachable_functions(call_graph);
        classify_findings(index, reached, result.findings);
    }

    // Pass 5: fingerprints + baseline.
    std::sort(result.findings.begin(), result.findings.end(),
              [](const Finding& a, const Finding& b) {
                  return std::tie(a.file, a.line, a.rule) <
                         std::tie(b.file, b.line, b.rule);
              });
    assign_fingerprints(result.findings);
    apply_baseline(result.findings, opts.baseline, result.stale_baseline);
    return result;
}

std::string findings_json(const AnalysisResult& result) {
    std::string out = "{\n  \"schema_version\": 1,\n"
                      "  \"tool\": \"determinism_lint\",\n";
    out += "  \"files_scanned\": " + std::to_string(result.files_scanned) + ",\n";

    out += "  \"rules\": [";
    const auto ids = rule_ids();
    for (std::size_t i = 0; i < ids.size(); ++i)
        out += std::string(i == 0 ? "" : ", ") + '"' + ids[i] + '"';
    out += "],\n";

    std::size_t errors = 0, infos = 0, baselined = 0;
    out += "  \"findings\": [";
    for (std::size_t i = 0; i < result.findings.size(); ++i) {
        const Finding& f = result.findings[i];
        if (f.severity == "info") ++infos;
        else if (f.baselined) ++baselined;
        else ++errors;
        out += i == 0 ? "\n" : ",\n";
        out += "    {";
        field(out, "file", f.file);
        out += "\"line\": " + std::to_string(f.line) + ", ";
        field(out, "rule", f.rule);
        field(out, "severity", f.severity);
        if (!f.surface.empty()) field(out, "surface", f.surface);
        if (!f.function.empty()) field(out, "function", f.function);
        field(out, "fingerprint", f.fingerprint);
        out += "\"baselined\": ";
        out += f.baselined ? "true" : "false";
        out += ", ";
        if (!f.note.empty()) field(out, "note", f.note);
        field(out, "excerpt", f.excerpt, /*comma=*/false);
        out += "}";
    }
    out += result.findings.empty() ? "],\n" : "\n  ],\n";

    out += "  \"layering\": {\n    \"modules\": [";
    for (std::size_t i = 0; i < result.graph.modules.size(); ++i)
        out += std::string(i == 0 ? "" : ", ") + '"' + result.graph.modules[i] + '"';
    out += "],\n    \"edges\": [";
    for (std::size_t i = 0; i < result.graph.edges.size(); ++i) {
        out += std::string(i == 0 ? "" : ", ") + "[\"" +
               result.graph.edges[i].first + "\", \"" +
               result.graph.edges[i].second + "\"]";
    }
    out += "],\n    \"violations\": " +
           std::to_string(result.graph.violations.size());
    out += ",\n    \"cycles\": [";
    for (std::size_t i = 0; i < result.graph.cycles.size(); ++i) {
        out += i == 0 ? "\"" : ", \"";
        append_escaped(out, result.graph.cycles[i]);
        out += '"';
    }
    out += "]\n  },\n";

    out += "  \"stale_baseline\": [";
    for (std::size_t i = 0; i < result.stale_baseline.size(); ++i)
        out += std::string(i == 0 ? "" : ", ") + '"' + result.stale_baseline[i] + '"';
    out += "],\n";
    out += "  \"undefined_entry_points\": [";
    for (std::size_t i = 0; i < result.undefined_entry_points.size(); ++i)
        out += std::string(i == 0 ? "" : ", ") + '"' + result.undefined_entry_points[i] +
               '"';
    out += "],\n";

    out += "  \"summary\": {\"total\": " + std::to_string(result.findings.size()) +
           ", \"failing\": " + std::to_string(errors) +
           ", \"baselined\": " + std::to_string(baselined) +
           ", \"info\": " + std::to_string(infos) + "}\n}\n";
    return out;
}

}  // namespace locble::lint
