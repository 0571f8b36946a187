#include "reachability.hpp"

#include <deque>

namespace locble::lint {

const std::set<std::string>& entry_point_names() {
    static const std::set<std::string> entries = {
        // Trial execution (runtime::TrialRunner and friends).
        "run", "run_trials_parallel",
        // Serve epoch schedule, its stages and ingest
        // (serve::TrackingService/Shard).
        "run_epoch", "begin_epoch", "end_epoch", "plan_epoch", "drain",
        "settle", "record_telemetry", "evict", "enqueue", "submit", "ingest",
        // Result surfaces whose bytes the contract covers.
        "solve", "locate", "snapshot",
        // Sim measurement harness.
        "measure_stationary", "measure_moving",
    };
    return entries;
}

CallGraph build_call_graph(const std::vector<FileIndex>& files) {
    CallGraph g;
    for (const FileIndex& fi : files)
        for (const FunctionDef& fn : fi.functions) g.defined.insert(fn.name);

    for (const FileIndex& fi : files) {
        for (const FunctionDef& fn : fi.functions) {
            auto& callees = g.calls[fn.name];
            for (std::size_t t = fn.body_begin;
                 t + 1 <= fn.body_end && t + 1 < fi.tokens.size(); ++t) {
                const Token& tok = fi.tokens[t];
                if (tok.kind != Token::Kind::ident) continue;
                if (fi.tokens[t + 1].text != "(") continue;
                if (tok.text == fn.name) continue;  // direct recursion: no-op
                if (g.defined.count(tok.text) != 0) callees.insert(tok.text);
            }
        }
    }
    return g;
}

std::vector<std::string> undefined_entry_points(const CallGraph& g) {
    std::vector<std::string> out;
    for (const std::string& e : entry_point_names())
        if (g.defined.count(e) == 0) out.push_back(e);
    return out;  // sorted: the set iterates in order
}

std::set<std::string> reachable_functions(const CallGraph& g) {
    std::set<std::string> reached;
    std::deque<std::string> queue;
    for (const std::string& e : entry_point_names())
        if (g.defined.count(e) != 0) {
            reached.insert(e);
            queue.push_back(e);
        }
    while (!queue.empty()) {
        const std::string u = queue.front();
        queue.pop_front();
        const auto it = g.calls.find(u);
        if (it == g.calls.end()) continue;
        for (const std::string& v : it->second)
            if (reached.insert(v).second) queue.push_back(v);
    }
    return reached;
}

void classify_findings(const std::vector<FileIndex>& files,
                       const std::set<std::string>& reachable,
                       std::vector<Finding>& findings) {
    std::map<std::string, const FileIndex*> by_path;
    for (const FileIndex& fi : files) by_path[fi.path] = &fi;

    for (Finding& f : findings) {
        if (f.rule != "rand" && f.rule != "wallclock") continue;
        const bool is_src = f.file.rfind("src/", 0) == 0 ||
                            f.file.find("/src/") != std::string::npos;
        const bool is_tests = f.file.rfind("tests/", 0) == 0 ||
                              f.file.find("/tests/") != std::string::npos;
        if (!is_src || is_tests) {
            f.surface = "deterministic";
            continue;
        }
        const auto it = by_path.find(f.file);
        const FunctionDef* fn =
            it == by_path.end() ? nullptr : enclosing_function(*it->second, f.line);
        if (fn == nullptr) {
            // File scope / unindexed body: conservatively on-surface.
            f.surface = "deterministic";
            continue;
        }
        const bool on_surface = reachable.count(fn->name) != 0 ||
                                entry_point_names().count(fn->name) != 0;
        if (on_surface) {
            f.surface = "deterministic";
        } else {
            f.surface = "nd";
            f.severity = "info";
            if (f.note.empty())
                f.note = "quarantined: '" + fn->name +
                         "' is not reachable from any deterministic entry "
                         "point (reachability.hpp)";
        }
    }
}

}  // namespace locble::lint
