// locble multi-pass determinism analyzer (docs/CORRECTNESS.md).
//
// Scans C++ sources for the project's banned nondeterminism patterns —
// ambient randomness, wall-clock reads, unordered-container iteration that
// reaches a serialization/float-accumulation sink, volatile, raw
// allocation in the solver hot path, unguarded obs calls, non-tree kernel
// reductions — enforces the module layering DAG over the include graph,
// classifies rand/wallclock findings by reachability from the
// deterministic entry points, and fails if any gating finding is neither
// `// locble-lint: allow(<rule>)`-ed inline nor fingerprinted in the
// baseline.
//
// Usage:
//   determinism_lint [--root DIR] [--baseline FILE] [--json-out FILE]
//                    [--graph-out FILE] [--no-layering] [--no-reachability]
//                    <path>...
//
// Paths may be files or directories (searched recursively for
// .cpp/.cc/.hpp/.h). --root makes reported paths (and baseline/fingerprint
// keys) relative to DIR. --json-out writes the structured findings report,
// --graph-out the Graphviz module graph. Exit code 0 = clean, 1 = gating
// findings, 2 = usage/IO error.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.hpp"

namespace fs = std::filesystem;

namespace {

bool has_cxx_extension(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

std::string read_file(const fs::path& p, bool& ok) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
        ok = false;
        return "";
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    ok = true;
    return ss.str();
}

bool write_file(const fs::path& p, const std::string& contents) {
    std::ofstream out(p, std::ios::binary);
    if (!out) return false;
    out << contents;
    return static_cast<bool>(out);
}

/// Forward-slashed path relative to root (or unchanged if not under root).
std::string relativize(const fs::path& p, const fs::path& root) {
    std::error_code ec;
    fs::path rel = fs::relative(p, root, ec);
    const fs::path& use = (ec || rel.empty() || *rel.begin() == "..") ? p : rel;
    return use.generic_string();
}

}  // namespace

int main(int argc, char** argv) {
    fs::path root = fs::current_path();
    fs::path baseline_file, json_out, graph_out;
    locble::lint::AnalyzerOptions opts;
    std::vector<fs::path> inputs;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
            root = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
            baseline_file = argv[++i];
        } else if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
            json_out = argv[++i];
        } else if (std::strcmp(argv[i], "--graph-out") == 0 && i + 1 < argc) {
            graph_out = argv[++i];
        } else if (std::strcmp(argv[i], "--no-layering") == 0) {
            opts.layering = false;
        } else if (std::strcmp(argv[i], "--no-reachability") == 0) {
            opts.reachability = false;
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::printf(
                "usage: determinism_lint [--root DIR] [--baseline FILE] "
                "[--json-out FILE] [--graph-out FILE] [--no-layering] "
                "[--no-reachability] <path>...\n");
            return 0;
        } else {
            inputs.emplace_back(argv[i]);
        }
    }
    if (inputs.empty()) {
        std::fprintf(stderr, "determinism_lint: no input paths (try --help)\n");
        return 2;
    }

    std::vector<fs::path> files;
    for (const fs::path& in : inputs) {
        std::error_code ec;
        if (fs::is_directory(in, ec)) {
            for (const auto& entry : fs::recursive_directory_iterator(in, ec))
                if (entry.is_regular_file() && has_cxx_extension(entry.path()))
                    files.push_back(entry.path());
            if (ec) {
                std::fprintf(stderr, "determinism_lint: cannot walk %s: %s\n",
                             in.string().c_str(), ec.message().c_str());
                return 2;
            }
        } else if (fs::is_regular_file(in, ec)) {
            files.push_back(in);
        } else {
            std::fprintf(stderr, "determinism_lint: no such path: %s\n",
                         in.string().c_str());
            return 2;
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    if (!baseline_file.empty()) {
        bool ok = false;
        const std::string text = read_file(baseline_file, ok);
        if (!ok) {
            std::fprintf(stderr, "determinism_lint: cannot read baseline %s\n",
                         baseline_file.string().c_str());
            return 2;
        }
        std::string error;
        if (!locble::lint::parse_baseline_json(text, opts.baseline, error)) {
            std::fprintf(stderr, "determinism_lint: malformed baseline %s: %s\n",
                         baseline_file.string().c_str(), error.c_str());
            return 2;
        }
    }

    std::vector<locble::lint::SourceFile> sources;
    sources.reserve(files.size());
    for (const fs::path& file : files) {
        bool ok = false;
        std::string contents = read_file(file, ok);
        if (!ok) {
            std::fprintf(stderr, "determinism_lint: cannot read %s\n",
                         file.string().c_str());
            return 2;
        }
        sources.push_back({relativize(file, root), std::move(contents)});
    }

    const auto result = locble::lint::analyze(sources, opts);

    if (!json_out.empty() &&
        !write_file(json_out, locble::lint::findings_json(result))) {
        std::fprintf(stderr, "determinism_lint: cannot write %s\n",
                     json_out.string().c_str());
        return 2;
    }
    if (!graph_out.empty() &&
        !write_file(graph_out, locble::lint::graph_dot(result.graph))) {
        std::fprintf(stderr, "determinism_lint: cannot write %s\n",
                     graph_out.string().c_str());
        return 2;
    }

    const auto failing = result.failing();
    for (const auto* f : failing) {
        std::fprintf(stderr, "%s:%d: [%s] %s%s%s  (fingerprint %s)\n",
                     f->file.c_str(), f->line, f->rule.c_str(),
                     f->excerpt.c_str(), f->note.empty() ? "" : " — ",
                     f->note.c_str(), f->fingerprint.c_str());
    }
    for (const auto& fp : result.stale_baseline)
        std::fprintf(stderr,
                     "determinism_lint: stale baseline fingerprint '%s' — the "
                     "finding is gone, remove it from baseline.json\n",
                     fp.c_str());
    for (const auto& name : result.undefined_entry_points)
        std::fprintf(stderr,
                     "determinism_lint: entry point '%s' is defined by no scanned "
                     "function — rename or remove it in reachability.cpp\n",
                     name.c_str());
    for (const auto& cycle : result.graph.cycles)
        std::fprintf(stderr, "determinism_lint: include cycle %s\n", cycle.c_str());

    std::size_t infos = 0, baselined = 0;
    for (const auto& f : result.findings) {
        if (f.severity == "info") ++infos;
        else if (f.baselined) ++baselined;
    }
    std::printf(
        "determinism_lint: %zu files, %zu findings (%zu baselined, %zu "
        "info/nd), %zu failing, %zu module edges\n",
        result.files_scanned, result.findings.size(), baselined, infos,
        failing.size(), result.graph.edges.size());
    return failing.empty() ? 0 : 1;
}
