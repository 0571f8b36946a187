#pragma once

#include <string>
#include <vector>

#include "include_graph.hpp"
#include "lint_core.hpp"
#include "reachability.hpp"
#include "source_index.hpp"

namespace locble::lint {

/// The multi-pass determinism analyzer (docs/CORRECTNESS.md):
///
///   pass 1  index      — tokenize every file once (source_index.hpp)
///   pass 2  rules      — line rules + the flow-sensitive unordered rule
///                        over the shared index (lint_core.hpp)
///   pass 3  layering   — module include-graph vs the documented DAG
///                        (include_graph.hpp)
///   pass 4  reachability — deterministic-surface vs "nd" classification
///                        of rand/wallclock findings (reachability.hpp)
///   pass 5  baseline   — fingerprint matching against baseline.json
///
/// All passes run over in-memory sources, so tests drive the whole
/// analyzer without touching the filesystem.

struct SourceFile {
    std::string path;      ///< repo-relative, forward slashes
    std::string contents;
};

struct AnalyzerOptions {
    bool layering{true};
    bool reachability{true};
    std::vector<BaselineEntry> baseline;
};

struct AnalysisResult {
    /// Every finding (rules + layering), annotated with severity, surface,
    /// fingerprint and baselined flag; sorted by (file, line, rule).
    std::vector<Finding> findings;
    /// Baseline fingerprints with no live finding.
    std::vector<std::string> stale_baseline;
    /// Reachability entry-point names no scanned function defines
    /// (reachability.hpp); empty when that pass is off.
    std::vector<std::string> undefined_entry_points;
    /// Layering graph (also summarized into findings).
    ModuleGraphResult graph;
    std::size_t files_scanned{0};

    /// Findings that gate: severity "error" and not baselined.
    std::vector<const Finding*> failing() const;
};

AnalysisResult analyze(const std::vector<SourceFile>& files,
                       const AnalyzerOptions& opts);

/// The structured findings report (schema_version 1) uploaded as a CI
/// artifact. Deterministic byte output for a given result.
std::string findings_json(const AnalysisResult& result);

}  // namespace locble::lint
