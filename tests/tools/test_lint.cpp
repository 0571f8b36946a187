// Unit tests for the multi-pass determinism analyzer (tools/lint): the
// tokenizer-backed rule engine, the flow-sensitive unordered rule, the
// include-graph layering pass, reachability classification, content
// fingerprints and the JSON baseline.

#include "analyzer.hpp"
#include "include_graph.hpp"
#include "lint_core.hpp"
#include "reachability.hpp"
#include "source_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace locble::lint {
namespace {

std::vector<std::string> rules_hit(const std::string& path, const std::string& src) {
    std::vector<std::string> out;
    for (const auto& f : lint_source(path, src)) out.push_back(f.rule);
    return out;
}

TEST(LintTest, FlagsAmbientRandomness) {
    EXPECT_EQ(rules_hit("src/locble/core/foo.cpp", "int x = rand();\n"),
              std::vector<std::string>{"rand"});
    EXPECT_EQ(rules_hit("src/locble/core/foo.cpp", "std::random_device rd;\n"),
              std::vector<std::string>{"rand"});
    EXPECT_EQ(rules_hit("src/locble/core/foo.cpp", "std::mt19937_64 eng(1);\n"),
              std::vector<std::string>{"rand"});
}

TEST(LintTest, RngHomeIsExemptFromRandRule) {
    EXPECT_TRUE(rules_hit("src/locble/common/rng.hpp", "std::mt19937_64 engine_;\n")
                    .empty());
}

TEST(LintTest, IdentifiersContainingRandDoNotMatch) {
    EXPECT_TRUE(rules_hit("src/a.cpp", "double operand = 1.0;\n").empty());
    EXPECT_TRUE(rules_hit("src/a.cpp", "int rando_count = 0;\n").empty());
}

TEST(LintTest, FlagsWallClockReads) {
    EXPECT_EQ(rules_hit("src/a.cpp", "auto t = std::chrono::system_clock::now();\n"),
              std::vector<std::string>{"wallclock"});
    EXPECT_EQ(rules_hit("src/a.cpp", "time_t t = time(nullptr);\n"),
              std::vector<std::string>{"wallclock"});
    EXPECT_EQ(rules_hit("src/a.cpp",
                        "auto t = std::chrono::high_resolution_clock::now();\n"),
              std::vector<std::string>{"wallclock"});
}

TEST(LintTest, SteadyClockIsAllowed) {
    EXPECT_TRUE(
        rules_hit("bench/b.cpp", "auto t = std::chrono::steady_clock::now();\n")
            .empty());
    // `clock::now()` via an alias is not the libc clock() call.
    EXPECT_TRUE(rules_hit("bench/b.cpp",
                          "using clock = std::chrono::steady_clock;\n"
                          "auto t = clock::now();\n")
                    .empty());
}

TEST(LintTest, FlagsVolatile) {
    EXPECT_EQ(rules_hit("bench/b.cpp", "volatile double sink = 0.0;\n"),
              std::vector<std::string>{"volatile"});
}

TEST(LintTest, RawNewOnlyPolicesSolverHotPath) {
    EXPECT_EQ(rules_hit("src/locble/core/location_solver.cpp",
                        "double* buf = new double[n];\n"),
              std::vector<std::string>{"raw-new"});
    EXPECT_EQ(rules_hit("src/locble/core/location_solver.cpp", "delete[] buf;\n"),
              std::vector<std::string>{"raw-new"});
    // Deleted special members are declarations, not allocation.
    EXPECT_TRUE(rules_hit("src/locble/core/location_solver.hpp",
                          "Session(const Session&) = delete;\n")
                    .empty());
    // Outside the hot path, new/delete are the other rules' business.
    EXPECT_TRUE(rules_hit("src/locble/sim/harness.cpp", "auto* p = new int(3);\n")
                    .empty());
}

TEST(LintTest, FlagsUnguardedObsGlobalsInSrcOnly) {
    EXPECT_EQ(rules_hit("src/locble/core/pipeline.cpp",
                        "obs::Registry::global().counter(\"x\");\n"),
              std::vector<std::string>{"obs-guard"});
    EXPECT_TRUE(rules_hit("src/locble/obs/metrics.cpp",
                          "Registry& Registry::global() { return instance; }\n")
                    .empty());
    EXPECT_TRUE(rules_hit("bench/bench_util.cpp",
                          "auto snap = obs::Registry::global().snapshot();\n")
                    .empty());
}

TEST(LintTest, TestsGetOnlyReproducibilityRules) {
    // tests/ paths: rand and wallclock still fire...
    EXPECT_EQ(rules_hit("tests/core/test_foo.cpp", "int x = rand();\n"),
              std::vector<std::string>{"rand"});
    EXPECT_EQ(rules_hit("tests/core/test_foo.cpp",
                        "auto t = std::chrono::system_clock::now();\n"),
              std::vector<std::string>{"wallclock"});
    // ...but the structural rules do not — tests legitimately exercise
    // unordered containers, volatile, raw new and the obs registry.
    EXPECT_TRUE(rules_hit("tests/obs/test_metrics.cpp",
                          "std::unordered_map<int, int> m;\n"
                          "volatile int sink = 0;\n"
                          "obs::Registry::global().snapshot();\n")
                    .empty());
    EXPECT_TRUE(rules_hit("tests/core/location_solver_helper.hpp",
                          "auto* p = new int[3];\n")
                    .empty());
    // An absolute path containing /tests/ is gated the same way.
    EXPECT_TRUE(rules_hit("/repo/tests/obs/test_metrics.cpp",
                          "Tracer::global().reset();\n")
                    .empty());
}

TEST(LintTest, CommentsAndStringsDoNotTrigger) {
    EXPECT_TRUE(rules_hit("src/a.cpp", "// the new solver avoids rand()\n").empty());
    EXPECT_TRUE(rules_hit("src/a.cpp", "/* time( and volatile in prose */\n").empty());
    EXPECT_TRUE(
        rules_hit("src/a.cpp", "const char* s = \"unordered_map time( rand\";\n")
            .empty());
}

TEST(LintTest, AllowPragmaSuppressesSameAndNextLine) {
    EXPECT_TRUE(rules_hit("src/a.cpp",
                          "int x = rand();  // locble-lint: allow(rand)\n")
                    .empty());
    EXPECT_TRUE(rules_hit("src/a.cpp",
                          "// locble-lint: allow(rand, wallclock)\n"
                          "int x = rand() + time(nullptr);\n")
                    .empty());
    // The pragma names a different rule: the finding stands.
    EXPECT_EQ(rules_hit("src/a.cpp",
                        "int x = rand();  // locble-lint: allow(volatile)\n"),
              std::vector<std::string>{"rand"});
    // And it only reaches one line down.
    EXPECT_EQ(rules_hit("src/a.cpp",
                        "// locble-lint: allow(rand)\n"
                        "int ok = rand();\n"
                        "int bad = rand();\n"),
              std::vector<std::string>{"rand"});
}

TEST(LintTest, LineNumbersAreOneBasedAndAccurate) {
    const auto findings = lint_source("src/a.cpp",
                                      "int a = 0;\n"
                                      "int b = rand();\n"
                                      "volatile int c = 0;\n");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].line, 2);
    EXPECT_EQ(findings[0].rule, "rand");
    EXPECT_EQ(findings[1].line, 3);
    EXPECT_EQ(findings[1].rule, "volatile");
}

TEST(LintTest, RawStringLiteralsAreStripped) {
    EXPECT_TRUE(rules_hit("src/a.cpp",
                          "const char* s = R\"(rand() volatile time())\";\n")
                    .empty());
}

TEST(LintTest, FlagsFloatReductions) {
    EXPECT_EQ(rules_hit("src/a.cpp", "std::atomic<double> sum{0.0};\n"),
              std::vector<std::string>{"float-reduce"});
    EXPECT_EQ(rules_hit("src/a.cpp", "std::atomic< float > acc;\n"),
              std::vector<std::string>{"float-reduce"});
    EXPECT_EQ(rules_hit("bench/b.cpp",
                        "auto s = std::reduce(std::execution::par, v.begin(), "
                        "v.end(), 0.0);\n"),
              std::vector<std::string>{"float-reduce"});
    EXPECT_EQ(rules_hit("src/a.cpp",
                        "#pragma omp parallel for reduction(+:sum)\n"),
              std::vector<std::string>{"float-reduce"});
    // Integer atomics and serial reduce are the deterministic idiom.
    EXPECT_TRUE(rules_hit("src/a.cpp", "std::atomic<std::uint64_t> n{0};\n")
                    .empty());
    EXPECT_TRUE(rules_hit("src/a.cpp",
                          "auto s = std::reduce(v.begin(), v.end(), 0.0);\n")
                    .empty());
    // tests/ may build whatever accumulators they like.
    EXPECT_TRUE(rules_hit("tests/core/test_foo.cpp",
                          "std::atomic<double> sum{0.0};\n")
                    .empty());
}

TEST(LintTest, KernelFilesBanEveryNonTreeReduction) {
    // The lane-kernel determinism contract (solver_kernels.hpp): OpenMP,
    // std::execution policies and atomics of any type are findings inside
    // the kernel files, whatever the surrounding expression looks like.
    EXPECT_EQ(rules_hit("src/locble/core/solver_kernels.cpp",
                        "#pragma omp simd\n"),
              std::vector<std::string>{"kernel-reduce"});
    EXPECT_EQ(rules_hit("src/locble/core/solver_kernels.cpp",
                        "auto s = std::reduce(std::execution::unseq, a, b);\n"),
              (std::vector<std::string>{"float-reduce", "kernel-reduce"}));
    EXPECT_EQ(rules_hit("src/locble/core/solver_kernels.hpp",
                        "std::atomic<std::uint64_t> calls{0};\n"),
              std::vector<std::string>{"kernel-reduce"});
    // The same lines are fine elsewhere in src/ (subject only to the
    // generic float-reduce rule).
    EXPECT_TRUE(rules_hit("src/locble/core/location_solver.cpp",
                          "#pragma omp simd\n")
                    .empty());
}

TEST(LintTest, KernelReduceIgnoresAllowPragmas) {
    EXPECT_EQ(rules_hit("src/locble/core/solver_kernels.cpp",
                        "// locble-lint: allow(kernel-reduce)\n"
                        "#pragma omp simd\n"),
              std::vector<std::string>{"kernel-reduce"});
}

TEST(LintTest, KernelFilesAreSolverHotPath) {
    // raw-new covers the kernel TU like the rest of the solver hot path.
    EXPECT_EQ(rules_hit("src/locble/core/solver_kernels.cpp",
                        "double* buf = new double[n];\n"),
              std::vector<std::string>{"raw-new"});
}

TEST(LintTest, RuleIdListIsStable) {
    const auto ids = rule_ids();
    ASSERT_EQ(ids.size(), 9u);
    EXPECT_EQ(ids[0], "rand");
    EXPECT_EQ(ids[5], "obs-guard");
    EXPECT_EQ(ids[6], "float-reduce");
    EXPECT_EQ(ids[7], "kernel-reduce");
    EXPECT_EQ(ids[8], "layering");
}

// --- flow-sensitive unordered rule ----------------------------------------

TEST(FlowTest, BareDeclarationNoLongerFlags) {
    // The rewrite made the rule flow-sensitive: declaring (or key-looking-up)
    // an unordered container is legal; only sink-reaching ITERATION flags.
    EXPECT_TRUE(rules_hit("src/a.cpp", "std::unordered_map<int, int> m;\n").empty());
}

TEST(FlowTest, RangeForReachingSerializationSinkFlags) {
    const auto findings = lint_source(
        "src/locble/serve/a.cpp",
        "std::unordered_map<int, double> m;\n"
        "std::string dump() {\n"
        "    std::string out;\n"
        "    for (const auto& e : m) {\n"
        "        out += to_json(e);\n"
        "    }\n"
        "    return out;\n"
        "}\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unordered");
    EXPECT_EQ(findings[0].line, 4);
    EXPECT_EQ(findings[0].function, "dump");
    EXPECT_NE(findings[0].note.find("to_json"), std::string::npos);
}

TEST(FlowTest, RangeForFloatAccumulationFlags) {
    const auto findings = lint_source(
        "src/locble/serve/a.cpp",
        "std::unordered_map<int, double> weights;\n"
        "double total() {\n"
        "    double sum = 0.0;\n"
        "    for (const auto& w : weights) {\n"
        "        sum += w.second;\n"
        "    }\n"
        "    return sum;\n"
        "}\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unordered");
    EXPECT_NE(findings[0].note.find("sum +="), std::string::npos);
}

TEST(FlowTest, BracelessBodyIsStillSeen) {
    const auto findings = lint_source(
        "src/locble/serve/a.cpp",
        "std::unordered_map<int, double> weights;\n"
        "double sum = 0.0;\n"
        "void total() {\n"
        "    for (const auto& w : weights) sum += w.second;\n"
        "}\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 4);
}

TEST(FlowTest, ClassicIteratorLoopWithSnapshotStreamFlags) {
    // `%.17g` inside a string literal in the body is the canonical-snapshot
    // sink; it must be found even though literals are stripped from code
    // lines.
    const auto findings = lint_source(
        "src/locble/serve/a.cpp",
        "std::unordered_set<int> ids;\n"
        "void emit(std::ostream& os) {\n"
        "    char buf[32];\n"
        "    for (auto it = ids.begin(); it != ids.end(); ++it) {\n"
        "        std::snprintf(buf, sizeof buf, \"%.17g\", double(*it));\n"
        "    }\n"
        "}\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unordered");
    EXPECT_EQ(findings[0].line, 4);
    EXPECT_NE(findings[0].note.find("%.17g"), std::string::npos);
}

TEST(FlowTest, KeyedLookupsPassClean) {
    EXPECT_TRUE(rules_hit("src/locble/serve/a.cpp",
                          "std::unordered_map<int, double> m;\n"
                          "double get(int k) {\n"
                          "    auto it = m.find(k);\n"
                          "    if (it == m.end()) return 0.0;\n"
                          "    return it->second + m.count(k) + m.at(k);\n"
                          "}\n")
                    .empty());
}

TEST(FlowTest, IterationWithoutSinkPassesClean) {
    // Collect-then-sort is the sanctioned idiom: the loop body itself
    // reaches no serialization or float sink.
    EXPECT_TRUE(rules_hit("src/locble/serve/a.cpp",
                          "std::unordered_map<int, double> m;\n"
                          "std::vector<int> keys() {\n"
                          "    std::vector<int> out;\n"
                          "    for (const auto& e : m) {\n"
                          "        out.push_back(e.first);\n"
                          "    }\n"
                          "    std::sort(out.begin(), out.end());\n"
                          "    return out;\n"
                          "}\n")
                    .empty());
}

TEST(FlowTest, AliasedUnorderedTypeIsTracked) {
    const auto findings = lint_source(
        "src/locble/serve/a.cpp",
        "using Table = std::unordered_map<int, double>;\n"
        "Table table;\n"
        "std::string dump() {\n"
        "    std::string out;\n"
        "    for (const auto& e : table) {\n"
        "        out += to_json(e);\n"
        "    }\n"
        "    return out;\n"
        "}\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 5);
}

TEST(FlowTest, AccumulateOverUnorderedRangeFlags) {
    const auto findings = lint_source(
        "src/locble/serve/a.cpp",
        "std::unordered_map<int, double> m;\n"
        "double total() {\n"
        "    return std::accumulate(m.begin(), m.end(), 0.0, add);\n"
        "}\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unordered");
    EXPECT_NE(findings[0].note.find("accumulate"), std::string::npos);
}

TEST(FlowTest, AllowPragmaSuppressesTheIteration) {
    EXPECT_TRUE(rules_hit("src/locble/serve/a.cpp",
                          "std::unordered_map<int, double> m;\n"
                          "double sum = 0.0;\n"
                          "void total() {\n"
                          "    // locble-lint: allow(unordered)\n"
                          "    for (const auto& w : m) sum += w.second;\n"
                          "}\n")
                    .empty());
}

TEST(FlowTest, MemberDeclaredInHeaderIsSeenAcrossFiles) {
    // The cross-file symbol pass: the member lives in the header, the
    // sink-reaching iteration in the .cpp. Only analyze() stitches them.
    const std::vector<SourceFile> files = {
        {"src/locble/serve/table.hpp",
         "struct Registry {\n"
         "    std::unordered_map<int, double> table_;\n"
         "    std::string dump() const;\n"
         "};\n"},
        {"src/locble/serve/table.cpp",
         "std::string Registry::dump() const {\n"
         "    std::string out;\n"
         "    for (const auto& e : table_) {\n"
         "        out += to_json(e);\n"
         "    }\n"
         "    return out;\n"
         "}\n"},
    };
    const auto result = analyze(files, AnalyzerOptions{});
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].rule, "unordered");
    EXPECT_EQ(result.findings[0].file, "src/locble/serve/table.cpp");
    EXPECT_EQ(result.findings[0].line, 3);
}

// --- include-graph layering -----------------------------------------------

FileIndex indexed(const std::string& path, const std::string& src) {
    return build_file_index(path, src);
}

TEST(LayeringTest, ModuleMapping) {
    EXPECT_EQ(module_of_path("src/locble/core/solver.cpp"), "core");
    EXPECT_EQ(module_of_path("src/locble/dsp/filter.hpp"), "dsp");
    // NOT under src/locble/ at the repo root: fixture trees under tests/
    // and bench/ files are outside the layering pass.
    EXPECT_EQ(module_of_path("tests/tools/fixtures/layering_bad/"
                             "src/locble/core/uses_serve.hpp"),
              "");
    EXPECT_EQ(module_of_path("bench/bench_solver.cpp"), "");
    EXPECT_EQ(module_of_include("locble/serve/service.hpp"), "serve");
    EXPECT_EQ(module_of_include("vector"), "");
}

TEST(LayeringTest, DocumentedTableIsClosedAndAcyclic) {
    const auto& dag = allowed_dependencies();
    // Closed: every dependency target is itself a documented module.
    for (const auto& [m, deps] : dag)
        for (const auto& d : deps)
            EXPECT_TRUE(dag.count(d) != 0) << m << " -> " << d;
    // Acyclic: repeatedly strip modules whose deps are all stripped.
    std::map<std::string, std::set<std::string>> left(dag.begin(), dag.end());
    while (!left.empty()) {
        bool stripped = false;
        for (auto it = left.begin(); it != left.end();) {
            bool free = true;
            for (const auto& d : it->second)
                if (left.count(d) != 0) free = false;
            if (free) {
                it = left.erase(it);
                stripped = true;
            } else {
                ++it;
            }
        }
        ASSERT_TRUE(stripped) << "cycle in allowed_dependencies()";
    }
}

TEST(LayeringTest, LegalEdgesProduceNoViolations) {
    const std::vector<FileIndex> files = {
        indexed("src/locble/dsp/filter.cpp",
                "#include \"locble/common/span.hpp\"\n"
                "#include \"locble/dsp/filter.hpp\"\n"
                "#include <vector>\n"),
        indexed("src/locble/core/solver.cpp",
                "#include \"locble/motion/stride.hpp\"\n"),
    };
    const auto g = check_layering(files);
    EXPECT_TRUE(g.violations.empty());
    EXPECT_TRUE(g.cycles.empty());
    // Self-includes and system headers produce no edges.
    ASSERT_EQ(g.edges.size(), 2u);
    EXPECT_EQ(g.edges[0], (std::pair<std::string, std::string>{"core", "motion"}));
    EXPECT_EQ(g.edges[1], (std::pair<std::string, std::string>{"dsp", "common"}));
}

TEST(LayeringTest, IllegalEdgeIsAViolationWithWitnessLine) {
    const std::vector<FileIndex> files = {
        indexed("src/locble/core/bad.cpp",
                "#include <vector>\n"
                "#include \"locble/serve/service.hpp\"\n"),
    };
    const auto g = check_layering(files);
    ASSERT_EQ(g.violations.size(), 1u);
    EXPECT_EQ(g.violations[0].rule, "layering");
    EXPECT_EQ(g.violations[0].file, "src/locble/core/bad.cpp");
    EXPECT_EQ(g.violations[0].line, 2);
    EXPECT_NE(g.violations[0].note.find("core -> serve"), std::string::npos);
}

TEST(LayeringTest, UnknownModuleIsAViolation) {
    const std::vector<FileIndex> files = {
        indexed("src/locble/newmod/x.cpp",
                "#include \"locble/common/span.hpp\"\n"),
    };
    const auto g = check_layering(files);
    ASSERT_EQ(g.violations.size(), 1u);
    EXPECT_NE(g.violations[0].note.find("not in the layering table"),
              std::string::npos);
}

TEST(LayeringTest, CycleIsDetectedAndDescribed) {
    const std::vector<FileIndex> files = {
        indexed("src/locble/core/a.hpp", "#include \"locble/motion/b.hpp\"\n"),
        indexed("src/locble/motion/b.hpp", "#include \"locble/core/a.hpp\"\n"),
    };
    const auto g = check_layering(files);
    ASSERT_EQ(g.cycles.size(), 1u);
    // motion -> core is also a table violation; the cycle adds its own.
    EXPECT_GE(g.violations.size(), 2u);
    EXPECT_NE(g.cycles[0].find("core"), std::string::npos);
    EXPECT_NE(g.cycles[0].find("motion"), std::string::npos);
}

TEST(LayeringTest, GraphDotMarksIllegalEdges) {
    const std::vector<FileIndex> files = {
        indexed("src/locble/dsp/f.cpp", "#include \"locble/common/s.hpp\"\n"),
        indexed("src/locble/core/bad.cpp",
                "#include \"locble/serve/service.hpp\"\n"),
    };
    const auto dot = graph_dot(check_layering(files));
    EXPECT_NE(dot.find("digraph locble_layering"), std::string::npos);
    EXPECT_NE(dot.find("\"dsp\" -> \"common\";"), std::string::npos);
    EXPECT_NE(dot.find("\"core\" -> \"serve\" [color=red, penwidth=2.0];"),
              std::string::npos);
}

TEST(LayeringTest, LayeringFindingsAreNeverBaselinable) {
    std::vector<Finding> findings(1);
    findings[0].rule = "layering";
    findings[0].file = "src/locble/core/bad.cpp";
    findings[0].excerpt = "#include \"locble/serve/service.hpp\"";
    assign_fingerprints(findings);
    std::vector<BaselineEntry> baseline(1);
    baseline[0].fingerprint = findings[0].fingerprint;
    std::vector<std::string> stale;
    apply_baseline(findings, baseline, stale);
    EXPECT_FALSE(findings[0].baselined);
    // The entry went unused, so it is reported stale.
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_EQ(stale[0], findings[0].fingerprint);
}

// --- reachability ---------------------------------------------------------

TEST(ReachabilityTest, CallGraphAndEntryPoints) {
    const std::vector<FileIndex> files = {
        indexed("src/locble/core/demo.cpp",
                "void helper() {\n"
                "    int x = 1;\n"
                "}\n"
                "void run() {\n"
                "    helper();\n"
                "}\n"
                "void orphan() {\n"
                "    int y = 2;\n"
                "}\n"),
    };
    const CallGraph g = build_call_graph(files);
    EXPECT_EQ(g.defined.count("helper"), 1u);
    EXPECT_EQ(g.defined.count("orphan"), 1u);
    const auto reached = reachable_functions(g);
    EXPECT_EQ(reached.count("run"), 1u);
    EXPECT_EQ(reached.count("helper"), 1u);
    EXPECT_EQ(reached.count("orphan"), 0u);
}

TEST(ReachabilityTest, UnreachableRandIsQuarantinedAsInfo) {
    const std::vector<SourceFile> files = {
        {"src/locble/core/demo.cpp",
         "void helper() {\n"
         "    int x = rand();\n"
         "}\n"
         "void run() {\n"
         "    helper();\n"
         "}\n"
         "void orphan() {\n"
         "    int y = rand();\n"
         "}\n"},
    };
    const auto result = analyze(files, AnalyzerOptions{});
    ASSERT_EQ(result.findings.size(), 2u);
    // helper is reachable from the run entry point: still gates.
    EXPECT_EQ(result.findings[0].line, 2);
    EXPECT_EQ(result.findings[0].surface, "deterministic");
    EXPECT_EQ(result.findings[0].severity, "error");
    // orphan is not reachable from any entry point: demoted to info/nd.
    EXPECT_EQ(result.findings[1].line, 8);
    EXPECT_EQ(result.findings[1].surface, "nd");
    EXPECT_EQ(result.findings[1].severity, "info");
    // Only the reachable finding gates.
    ASSERT_EQ(result.failing().size(), 1u);
    EXPECT_EQ(result.failing()[0]->line, 2);
}

TEST(ReachabilityTest, EntryPointsNameTheEpochStages) {
    // The serve epoch runs as stages over work lists; each stage is an
    // entry point, and names no function carries (the retired per-shard
    // pass among them) are not.
    for (const char* stage :
         {"begin_epoch", "end_epoch", "plan_epoch", "drain", "settle",
          "record_telemetry", "evict", "solve"})
        EXPECT_EQ(entry_point_names().count(stage), 1u) << stage;
    for (const char* gone :
         {"process_epoch", "swap_epoch", "run_trial", "run_trials", "simulate"})
        EXPECT_EQ(entry_point_names().count(gone), 0u) << gone;
}

TEST(ReachabilityTest, UndefinedEntryPointsAreReported) {
    const std::vector<SourceFile> files = {
        {"src/locble/core/demo.cpp",
         "void run() {\n"
         "    int x = 1;\n"
         "}\n"
         "void settle() {\n"
         "    int y = 2;\n"
         "}\n"},
    };
    const auto result = analyze(files, AnalyzerOptions{});
    const auto& undefined = result.undefined_entry_points;
    // Every entry-point name but the two defined ones, sorted.
    ASSERT_EQ(undefined.size(), entry_point_names().size() - 2);
    EXPECT_TRUE(std::is_sorted(undefined.begin(), undefined.end()));
    for (const std::string& name : undefined)
        EXPECT_EQ(entry_point_names().count(name), 1u) << name;
    EXPECT_EQ(std::count(undefined.begin(), undefined.end(), "run"), 0);
    EXPECT_EQ(std::count(undefined.begin(), undefined.end(), "settle"), 0);
    EXPECT_EQ(std::count(undefined.begin(), undefined.end(), "plan_epoch"), 1);
    EXPECT_NE(findings_json(result).find("\"undefined_entry_points\": [\""),
              std::string::npos);

    // Without the reachability pass nothing is reported.
    AnalyzerOptions off;
    off.reachability = false;
    EXPECT_TRUE(analyze(files, off).undefined_entry_points.empty());
}

TEST(ReachabilityTest, TestsAndBenchFindingsStayOnSurface) {
    const std::vector<SourceFile> files = {
        {"tests/core/test_demo.cpp",
         "void lonely_test_helper() {\n"
         "    int x = rand();\n"
         "}\n"},
    };
    const auto result = analyze(files, AnalyzerOptions{});
    ASSERT_EQ(result.findings.size(), 1u);
    // tests/ findings never get the nd demotion: a flaky test is flaky
    // whether or not the helper is linked into the trial surface.
    EXPECT_EQ(result.findings[0].surface, "deterministic");
    EXPECT_EQ(result.findings[0].severity, "error");
}

// --- fingerprints and the JSON baseline -----------------------------------

TEST(FingerprintTest, StableUnderLineShifts) {
    const auto before = lint_source("src/a.cpp",
                                    "void f() {\n"
                                    "    int x = rand();\n"
                                    "}\n");
    const auto after = lint_source("src/a.cpp",
                                   "// a new comment block\n"
                                   "#include <vector>\n"
                                   "\n"
                                   "void f() {\n"
                                   "    int unrelated = 0;\n"
                                   "    int x = rand();\n"
                                   "}\n");
    ASSERT_EQ(before.size(), 1u);
    ASSERT_EQ(after.size(), 1u);
    EXPECT_NE(before[0].line, after[0].line);
    EXPECT_EQ(before[0].fingerprint, after[0].fingerprint);
}

TEST(FingerprintTest, OrdinalsDistinguishIdenticalLines) {
    const auto findings = lint_source("src/a.cpp",
                                      "int a = rand();\n"
                                      "int a = rand();\n");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_NE(findings[0].fingerprint, findings[1].fingerprint);
    EXPECT_EQ(findings[0].fingerprint.size(), 16u);
}

TEST(FingerprintTest, WhitespaceChangesDoNotChurn) {
    const auto a = lint_source("src/a.cpp", "int x = rand();\n");
    const auto b = lint_source("src/a.cpp", "int  x   =  rand();\n");
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a[0].fingerprint, b[0].fingerprint);
}

TEST(BaselineTest, ParsesTheJsonSchema) {
    std::vector<BaselineEntry> entries;
    std::string error;
    ASSERT_TRUE(parse_baseline_json(
        "{\n"
        "  \"schema_version\": 1,\n"
        "  \"comment\": \"extra keys are skipped\",\n"
        "  \"findings\": [\n"
        "    {\"fingerprint\": \"0123456789abcdef\", \"rule\": \"rand\",\n"
        "     \"file\": \"src/a.cpp\", \"note\": \"legacy shim\"},\n"
        "    {\"fingerprint\": \"fedcba9876543210\"}\n"
        "  ]\n"
        "}\n",
        entries, error))
        << error;
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].fingerprint, "0123456789abcdef");
    EXPECT_EQ(entries[0].rule, "rand");
    EXPECT_EQ(entries[0].note, "legacy shim");
    EXPECT_EQ(entries[1].fingerprint, "fedcba9876543210");
}

TEST(BaselineTest, RejectsMalformedJsonAndMissingFingerprints) {
    std::vector<BaselineEntry> entries;
    std::string error;
    EXPECT_FALSE(parse_baseline_json("{\"findings\": [", entries, error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(parse_baseline_json(
        "{\"findings\": [{\"rule\": \"rand\"}]}", entries, error));
    EXPECT_NE(error.find("fingerprint"), std::string::npos);
}

TEST(BaselineTest, RoundTripsThroughBaselineJson) {
    std::vector<BaselineEntry> entries(1);
    entries[0].fingerprint = "00ff00ff00ff00ff";
    entries[0].rule = "wallclock";
    entries[0].file = "src/b.cpp";
    entries[0].note = "display \"only\" timer";
    std::vector<BaselineEntry> reparsed;
    std::string error;
    ASSERT_TRUE(parse_baseline_json(baseline_json(entries), reparsed, error))
        << error;
    ASSERT_EQ(reparsed.size(), 1u);
    EXPECT_EQ(reparsed[0].fingerprint, entries[0].fingerprint);
    EXPECT_EQ(reparsed[0].note, entries[0].note);
}

TEST(BaselineTest, MatchesByFingerprintAndReportsStale) {
    auto findings = lint_source("src/a.cpp",
                                "int x = rand();\n"
                                "volatile int v = 0;\n");
    ASSERT_EQ(findings.size(), 2u);
    std::vector<BaselineEntry> baseline(2);
    baseline[0].fingerprint = findings[0].fingerprint;  // matches the rand
    baseline[1].fingerprint = "deadbeefdeadbeef";       // matches nothing
    std::vector<std::string> stale;
    apply_baseline(findings, baseline, stale);
    EXPECT_TRUE(findings[0].baselined);
    EXPECT_FALSE(findings[1].baselined);
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_EQ(stale[0], "deadbeefdeadbeef");
}

TEST(BaselineTest, SurvivesLineShiftsEndToEnd) {
    // The acceptance property of the fingerprint baseline: baselining a
    // finding, then inserting lines above it, still suppresses it.
    const auto before = lint_source("src/a.cpp", "int x = rand();\n");
    ASSERT_EQ(before.size(), 1u);
    std::vector<BaselineEntry> baseline(1);
    baseline[0].fingerprint = before[0].fingerprint;

    auto after = lint_source("src/a.cpp",
                             "// three\n"
                             "// new\n"
                             "// lines\n"
                             "int x = rand();\n");
    ASSERT_EQ(after.size(), 1u);
    std::vector<std::string> stale;
    apply_baseline(after, baseline, stale);
    EXPECT_TRUE(after[0].baselined);
    EXPECT_TRUE(stale.empty());
}

// --- analyzer end-to-end --------------------------------------------------

TEST(AnalyzerTest, FindingsAreSortedAndReportIsWellFormed) {
    const std::vector<SourceFile> files = {
        {"src/locble/core/z.cpp", "int x = rand();\n"},
        {"src/locble/core/a.cpp", "volatile int v = 0;\n"},
    };
    const auto result = analyze(files, AnalyzerOptions{});
    ASSERT_EQ(result.findings.size(), 2u);
    EXPECT_EQ(result.findings[0].file, "src/locble/core/a.cpp");
    EXPECT_EQ(result.findings[1].file, "src/locble/core/z.cpp");
    EXPECT_EQ(result.files_scanned, 2u);

    const std::string json = findings_json(result);
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"tool\": \"determinism_lint\""), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"volatile\""), std::string::npos);
    EXPECT_NE(json.find("\"layering\""), std::string::npos);
    EXPECT_NE(json.find("\"summary\""), std::string::npos);
}

TEST(AnalyzerTest, LayeringViolationsSurfaceAsFailingFindings) {
    const std::vector<SourceFile> files = {
        {"src/locble/core/bad.cpp", "#include \"locble/serve/service.hpp\"\n"},
    };
    const auto result = analyze(files, AnalyzerOptions{});
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].rule, "layering");
    EXPECT_EQ(result.failing().size(), 1u);
    // --no-layering drops the pass entirely.
    AnalyzerOptions no_layering;
    no_layering.layering = false;
    EXPECT_TRUE(analyze(files, no_layering).findings.empty());
}

}  // namespace
}  // namespace locble::lint
