#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint_core.hpp"
#include "source_index.hpp"

namespace locble::lint {

/// Pass 4: reachability classification (docs/CORRECTNESS.md). Indexes
/// every function definition across the scanned tree, builds a name-based
/// call graph, and marks which functions are reachable from the
/// deterministic entry points — the trial/epoch surfaces whose outputs the
/// bit-identity contract covers. rand/wallclock findings in src/ that sit
/// in functions NOT on that surface are demoted to severity "info" with
/// surface "nd": they are reported (and visible in the JSON artifact) but
/// do not gate, which is what keeps display-only helpers out of the
/// baseline.
///
/// The call graph is name-based and unions overloads, so it
/// over-approximates reachability: a false edge can only promote a finding
/// to the gating tier, never hide one. Code outside any indexed function
/// (file-scope initializers, macro-hidden bodies) is treated as reachable
/// for the same reason.

/// The deterministic entry-point names: trial execution
/// (run/run_trials_parallel), the serve epoch schedule
/// (begin_epoch/end_epoch/run_epoch) and its stages
/// (plan_epoch/drain/settle/record_telemetry/evict), ingest
/// (enqueue/submit/ingest), result surfaces (solve/locate/snapshot) and
/// the sim measurement harness entry points.
const std::set<std::string>& entry_point_names();

struct CallGraph {
    /// Function name -> callee names (only names that are themselves
    /// defined somewhere in the scanned set).
    std::map<std::string, std::set<std::string>> calls;
    /// Every defined function name.
    std::set<std::string> defined;
};

CallGraph build_call_graph(const std::vector<FileIndex>& files);

/// Entry-point names no indexed function defines, sorted. Over the whole
/// tree each one is a stale entry (a renamed or deleted function) that
/// anchors nothing; over a subset, names outside it.
std::vector<std::string> undefined_entry_points(const CallGraph& g);

/// Function names reachable from the entry points (entries included, when
/// defined).
std::set<std::string> reachable_functions(const CallGraph& g);

/// Classify rand/wallclock findings for src/ files: sets surface to
/// "deterministic" (reachable — still gates) or "nd" (unreachable —
/// severity demoted to "info"). Findings in bench/ and tests/, and
/// findings outside any indexed function, stay "deterministic".
void classify_findings(const std::vector<FileIndex>& files,
                       const std::set<std::string>& reachable,
                       std::vector<Finding>& findings);

}  // namespace locble::lint
