// Tests for tools/flb_analyze (FLB001-FLB009): fixture files with exact
// rule+line expectations, key stability, suppression/baseline semantics,
// output formats, and the real-tree cleanliness gate. Every fixture goes
// through the one analyzer, so each expectation lists all nine rules'
// findings on it. The FlbLintTest cases cover the token rules
// (FLB001-FLB006) and the `flb-lint:` allow pragmas.

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tools/flb_analyze/analyze.h"

namespace flb::analyze {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The one fixture driver: loads fixtures from `dir` by relative name and
// analyzes them as one translation set. The relative name becomes the
// input path, so layering fixtures under src/<layer>/ land in a real layer.
Report AnalyzeFixtures(const char* dir, const std::vector<std::string>& names,
                       const Options& opts = Options()) {
  std::vector<FileInput> files;
  for (const std::string& name : names) {
    files.push_back({name, ReadFileOrDie(std::string(dir) + "/" + name)});
  }
  return AnalyzeFiles(files, opts);
}

Report AnalyzeFixtures(const std::vector<std::string>& names,
                       const Options& opts = Options()) {
  return AnalyzeFixtures(FLB_ANALYZE_FIXTURE_DIR, names, opts);
}

Report LintFixture(const std::string& name) {
  return AnalyzeFixtures(FLB_LINT_FIXTURE_DIR, {name});
}

struct Expected {
  const char* rule;
  int line;
};

void ExpectFindings(const Report& report, const std::vector<Expected>& want) {
  ASSERT_EQ(report.findings.size(), want.size()) << [&] {
    std::ostringstream ss;
    for (const Finding& f : report.findings) {
      ss << "  " << f.rule << " " << f.file << ":" << f.line << "  "
         << f.message << "\n";
    }
    return ss.str();
  }();
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(report.findings[i].rule, want[i].rule)
        << "finding " << i << ": " << report.findings[i].message;
    EXPECT_EQ(report.findings[i].line, want[i].line)
        << "finding " << i << ": " << report.findings[i].message;
  }
}

std::string WriteTempFile(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out << body;
  return path;
}

Options CheckedInOptions() {
  Options opts;
  std::string error;
  EXPECT_TRUE(LoadExceptionsFile(
      std::string(FLB_SOURCE_ROOT) + "/tools/flb_analyze/layering_exceptions.txt",
      &opts.layering_exceptions, &error))
      << error;
  EXPECT_TRUE(LoadBaselineFile(
      std::string(FLB_SOURCE_ROOT) + "/tools/flb_analyze/analyze_baseline.txt",
      &opts.baseline, &error))
      << error;
  return opts;
}

TEST(FlbAnalyze, RuleTableIsStable) {
  const auto& rules = Rules();
  const std::vector<std::pair<std::string, std::string>> want = {
      {"FLB001", "wall-clock"},       {"FLB002", "entropy"},
      {"FLB003", "unordered-iter"},   {"FLB004", "mutex-annotation"},
      {"FLB005", "discarded-status"}, {"FLB006", "unbounded-retry"},
      {"FLB007", "lock-order"},       {"FLB008", "determinism-taint"},
      {"FLB009", "layering"}};
  ASSERT_EQ(rules.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(rules[i].id, want[i].first);
    EXPECT_EQ(rules[i].name, want[i].second);
    EXPECT_NE(std::string(rules[i].summary), "");
  }
}

TEST(FlbAnalyze, DeadlockCycleFixture) {
  Report report = AnalyzeFixtures({"deadlock_cycle.cc"});
  ExpectFindings(report, {{"FLB007", 9}, {"FLB004", 19}, {"FLB004", 20}});
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.key, "FLB007|cycle|Account::mu_a_+Account::mu_b_");
  EXPECT_NE(f.message.find("lock-order cycle"), std::string::npos);
  EXPECT_NE(f.message.find("Account::mu_a_"), std::string::npos);
  EXPECT_GE(report.lock_nodes, 2u);
  EXPECT_GE(report.lock_edges, 2u);
}

TEST(FlbAnalyze, DeadlockCallbackFixture) {
  Report report = AnalyzeFixtures({"deadlock_callback.cc"});
  ExpectFindings(report, {{"FLB007", 15}, {"FLB007", 19}, {"FLB004", 24}});
  // Direct recorder call while holding the component lock.
  EXPECT_EQ(report.findings[0].key,
            "FLB007|held-call|deadlock_callback.cc|Cache::Hit|Count|"
            "Cache::mu_");
  // Transitive: Miss() -> Note() -> recorder; witness names the hop.
  const Finding& via = report.findings[1];
  EXPECT_NE(via.key.find("Cache::Miss|Note"), std::string::npos);
  std::string witness;
  for (const std::string& hop : via.witness) witness += hop + "\n";
  EXPECT_NE(witness.find("Note"), std::string::npos) << witness;
}

TEST(FlbAnalyze, TaintHelperFixture) {
  Report report = AnalyzeFixtures({"taint_helper.cc"});
  ExpectFindings(report, {{"FLB008", 24}, {"FLB002", 28}, {"FLB008", 30}});
  // Wall clock reaches the sim-time charge through ProbeSeconds' return.
  EXPECT_NE(report.findings[0].key.find("charge"), std::string::npos);
  EXPECT_NE(report.findings[0].key.find("wall_clock"), std::string::npos);
  // Entropy reaches serialized bytes through Pack's parameter.
  EXPECT_NE(report.findings[2].key.find("serialize"), std::string::npos);
  EXPECT_NE(report.findings[2].key.find("entropy"), std::string::npos);
}

TEST(FlbAnalyze, LayeringUpwardFixture) {
  Report report = AnalyzeFixtures({"src/net/upward.cc"});
  ExpectFindings(report, {{"FLB009", 3}});
  EXPECT_EQ(report.findings[0].key,
            "FLB009|src/net/upward.cc|src/core/platform.h");
  // The downward include (line 2) is not flagged.
  EXPECT_GE(report.include_edges, 2u);
}

TEST(FlbAnalyze, LayeringExceptionSanctionsBackEdge) {
  Options opts;
  opts.layering_exceptions.push_back(
      {"src/net/upward.cc", "src/core", "fixture-sanctioned back-edge"});
  Report report = AnalyzeFixtures({"src/net/upward.cc"}, opts);
  ExpectFindings(report, {});

  // A wildcard `from` sanctions the same edge for every file.
  Options wild;
  wild.layering_exceptions.push_back({"*", "src/core", "fixture wildcard"});
  ExpectFindings(AnalyzeFixtures({"src/net/upward.cc"}, wild), {});
}

TEST(FlbAnalyze, CleanFixtureHasNoFindings) {
  Report report = AnalyzeFixtures({"clean.cc"});
  ExpectFindings(report, {});
  EXPECT_EQ(report.files_scanned, 1u);
  EXPECT_GE(report.functions_analyzed, 2u);
}

TEST(FlbAnalyze, BaselineSuppressesKnownFindingByKey) {
  Options opts;
  opts.baseline.insert("FLB007|cycle|Account::mu_a_+Account::mu_b_");
  Report report = AnalyzeFixtures({"deadlock_cycle.cc"}, opts);
  ExpectFindings(report, {{"FLB004", 19}, {"FLB004", 20}});
  EXPECT_EQ(report.baselined, 1u);
}

// Two locks nested in opposite orders; the members carry no annotation,
// so FLB004 reports both declarations (lines 12 and 13).
std::string CycleSource(const std::string& allow) {
  return "class A {\n"
         " public:\n"
         "  void X() {\n"
         "    common::MutexLock a(mu_a_);\n"
         "    common::MutexLock b(mu_b_);" +
         allow +
         "\n"
         "  }\n"
         "  void Y() {\n"
         "    common::MutexLock b(mu_b_);\n"
         "    common::MutexLock a(mu_a_);\n"
         "  }\n"
         " private:\n"
         "  common::Mutex mu_a_;\n"
         "  common::Mutex mu_b_;\n"
         "};\n";
}

TEST(FlbAnalyze, JustifiedInlineAllowSuppresses) {
  Report report = AnalyzeFiles(
      {{"allow_ok.cc",
        CycleSource("  // flb-lint: allow(FLB007) fixture pins this order")}},
      Options());
  ExpectFindings(report, {{"FLB004", 12}, {"FLB004", 13}});
  EXPECT_EQ(report.suppressed, 1u);
  EXPECT_EQ(report.unjustified_allows, 0u);
}

TEST(FlbAnalyze, BareAllowWithoutReasonDoesNotSuppress) {
  Report report = AnalyzeFiles(
      {{"allow_bare.cc", CycleSource("  // flb-lint: allow(FLB007)")}},
      Options());
  ExpectFindings(report, {{"FLB007", 5}, {"FLB004", 12}, {"FLB004", 13}});
  EXPECT_EQ(report.suppressed, 0u);
  EXPECT_EQ(report.unjustified_allows, 1u);
}

TEST(FlbAnalyze, ExceptionsFileParsesAndRequiresReason) {
  std::vector<LayerException> out;
  std::string error;
  ASSERT_TRUE(LoadExceptionsFile(
      std::string(FLB_SOURCE_ROOT) + "/tools/flb_analyze/layering_exceptions.txt",
      &out, &error))
      << error;
  ASSERT_GE(out.size(), 3u);
  for (const LayerException& e : out) {
    EXPECT_NE(e.from, "");
    EXPECT_NE(e.to_layer.find("src/"), std::string::npos);
    EXPECT_NE(e.reason, "") << e.from << " -> " << e.to_layer;
  }

  const std::string missing_reason =
      WriteTempFile("exceptions_bad.txt", "src/net/a.cc -> src/core\n");
  out.clear();
  EXPECT_FALSE(LoadExceptionsFile(missing_reason, &out, &error));
  EXPECT_NE(error, "");
}

TEST(FlbAnalyze, BaselineFileParsesAndRoundTrips) {
  std::set<std::string> keys;
  std::string error;
  ASSERT_TRUE(LoadBaselineFile(
      std::string(FLB_SOURCE_ROOT) + "/tools/flb_analyze/analyze_baseline.txt",
      &keys, &error))
      << error;
  for (const std::string& k : keys) {
    EXPECT_EQ(k.rfind("FLB", 0), 0u) << k;
  }

  // ReportToBaseline emits exactly the keys that silence the findings.
  Report dirty = AnalyzeFixtures({"deadlock_cycle.cc", "taint_helper.cc"});
  ASSERT_FALSE(dirty.findings.empty());
  const std::string path =
      WriteTempFile("roundtrip_baseline.txt", ReportToBaseline(dirty));
  Options opts;
  ASSERT_TRUE(LoadBaselineFile(path, &opts.baseline, &error)) << error;
  Report clean = AnalyzeFixtures({"deadlock_cycle.cc", "taint_helper.cc"}, opts);
  EXPECT_TRUE(clean.findings.empty());
  EXPECT_EQ(clean.baselined, dirty.findings.size());
}

// Every BenchJson row for `report`: the schema both fixtures share, plus
// one findings_by_rule row per rule with the count in `by_rule`.
void ExpectBenchJson(const Report& report,
                     const std::vector<std::pair<std::string, int>>& by_rule) {
  const std::string json = ReportToBenchJson(report);
  EXPECT_EQ(json.rfind("{", 0), 0u);
  EXPECT_NE(json.find("\"bench\":\"flb_analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\":\"flb.analyze.rules_run\",\"value\":9"),
            std::string::npos);
  EXPECT_NE(json.find("flb.analyze.files_scanned"), std::string::npos);
  EXPECT_NE(json.find("\"metric\":\"flb.analyze.findings\",\"value\":" +
                      std::to_string(report.findings.size())),
            std::string::npos);
  EXPECT_NE(json.find("\"metric\":\"flb.analyze.lock_edges\",\"value\":" +
                      std::to_string(report.lock_edges)),
            std::string::npos);
  for (const RuleInfo& rule : Rules()) {
    int want = 0;
    for (const auto& [id, count] : by_rule) {
      if (id == rule.id) want = count;
    }
    const std::string row = "\"metric\":\"flb.analyze.findings_by_rule." +
                            std::string(rule.id) +
                            "\",\"value\":" + std::to_string(want);
    EXPECT_NE(json.find(row), std::string::npos) << row;
  }
  EXPECT_NE(json.find("\"unit\":\"count\""), std::string::npos);
}

// A whole-program fixture: the lock graph's counters reach the summary.
TEST(FlbAnalyze, BenchJsonSummarySchema) {
  const Report report = AnalyzeFixtures({"deadlock_cycle.cc"});
  EXPECT_GE(report.lock_edges, 2u);
  ExpectBenchJson(report, {{"FLB007", 1}, {"FLB004", 2}});
}

TEST(FlbAnalyze, SarifOutputStructure) {
  Report report = AnalyzeFixtures({"deadlock_cycle.cc", "src/net/upward.cc"});
  ASSERT_EQ(report.findings.size(), 4u);
  const std::string sarif = ReportToSarif(report);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif"), std::string::npos);
  EXPECT_NE(sarif.find("\"flb_analyze\""), std::string::npos);
  // All nine rules are declared even when only some fire.
  for (const RuleInfo& rule : Rules()) {
    EXPECT_NE(sarif.find("{\"id\": \"" + std::string(rule.id) + "\""),
              std::string::npos)
        << rule.id;
  }
  EXPECT_NE(sarif.find("partialFingerprints"), std::string::npos);
  EXPECT_NE(sarif.find("flbAnalyzeKey/v1"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 9"), std::string::npos);
}

// The gate the CI lint job enforces: the real tree, analyzed with the
// checked-in exceptions and baseline, has zero new findings, every baseline
// entry still matches a live finding (no stale debt), and every allow that
// fires carries a reason.
TEST(FlbAnalyze, RealSourceTreeIsClean) {
  const Options opts = CheckedInOptions();
  Report report;
  std::string error;
  ASSERT_TRUE(AnalyzeTree(std::string(FLB_SOURCE_ROOT) + "/src", opts,
                          &report, &error))
      << error;
  EXPECT_GT(report.files_scanned, 50u);
  EXPECT_GT(report.functions_analyzed, 200u);
  for (const Finding& f : report.findings) {
    ADD_FAILURE() << f.rule << " " << f.file << ":" << f.line << "  "
                  << f.message << "\n  key: " << f.key;
  }
  EXPECT_EQ(report.baselined, opts.baseline.size())
      << "stale baseline: an accepted key no longer matches any finding — "
         "remove it from tools/flb_analyze/analyze_baseline.txt";
  EXPECT_EQ(report.unjustified_allows, 0u);
}

// ---- token rules (FLB001-FLB006) -------------------------------------------
// Each fixture under tests/lint_fixtures/ carries one deliberate violation
// per rule at a pinned line; clean.cc carries none.

// The token-rule fixtures report exactly the first six rows of the one
// table: no token check emits an ID the table lacks, and every token row
// has a fixture that trips it.
TEST(FlbLintTest, RuleTableIsStable) {
  std::set<std::string> reported;
  for (const char* fixture :
       {"wall_clock_violation.cc", "entropy_violation.cc",
        "unordered_iter_violation.cc", "mutex_annotation_violation.cc",
        "discarded_status_violation.cc", "unbounded_retry_violation.cc",
        "tuner_measurement_violation.cc", "clean.cc"}) {
    for (const Finding& f : LintFixture(fixture).findings) {
      reported.insert(f.rule);
    }
  }
  const auto& rules = Rules();
  ASSERT_EQ(rules.size(), 9u);
  std::set<std::string> token_rows;
  for (size_t i = 0; i < 6; ++i) token_rows.insert(rules[i].id);
  EXPECT_EQ(reported, token_rows);
}

// A token-rule fixture: its justified discard is counted as suppressed.
TEST(FlbLintTest, BenchJsonSummarySchema) {
  const Report report = LintFixture("discarded_status_violation.cc");
  ExpectBenchJson(report, {{"FLB005", 2}});
  EXPECT_NE(ReportToBenchJson(report).find(
                "\"metric\":\"flb.analyze.suppressed\",\"value\":1"),
            std::string::npos);
}

// The token rules hold on the real tree with no baseline at all: their
// debt is never accepted, only fixed or justified inline.
TEST(FlbLintTest, RealSourceTreeIsClean) {
  Options opts = CheckedInOptions();
  opts.baseline.clear();
  Report report;
  std::string error;
  ASSERT_TRUE(AnalyzeTree(std::string(FLB_SOURCE_ROOT) + "/src", opts,
                          &report, &error))
      << error;
  EXPECT_GT(report.files_scanned, 50u);
  for (const Finding& f : report.findings) {
    if (f.rule > "FLB006") continue;
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
}

TEST(FlbLintTest, WallClockFixture) {
  ExpectFindings(LintFixture("wall_clock_violation.cc"), {{"FLB001", 10}});
}

TEST(FlbLintTest, EntropyFixture) {
  ExpectFindings(LintFixture("entropy_violation.cc"), {{"FLB002", 8}});
}

TEST(FlbLintTest, UnorderedIterFixture) {
  ExpectFindings(LintFixture("unordered_iter_violation.cc"), {{"FLB003", 15}});

  // An unordered member declared in a header and iterated in its .cc is
  // the same violation: FLB003 resolves names across the translation set.
  const std::vector<FileInput> split = {
      {"reg.h",
       "#include <unordered_map>\n"
       "class Registry {\n"
       " public:\n"
       "  int Sum() const;\n"
       " private:\n"
       "  std::unordered_map<int, int> index_;\n"
       "};\n"},
      {"reg.cc",
       "#include \"reg.h\"\n"
       "int Registry::Sum() const {\n"
       "  int total = 0;\n"
       "  for (const auto& kv : index_) total += kv.second;\n"
       "  return total;\n"
       "}\n"}};
  const Report report = AnalyzeFiles(split, Options());
  ExpectFindings(report, {{"FLB003", 4}});
  EXPECT_EQ(report.findings[0].file, "reg.cc");
}

TEST(FlbLintTest, MutexAnnotationFixture) {
  ExpectFindings(LintFixture("mutex_annotation_violation.cc"),
                 {{"FLB004", 20}, {"FLB004", 32}});
}

TEST(FlbLintTest, DiscardedStatusFixture) {
  const Report report = LintFixture("discarded_status_violation.cc");
  ExpectFindings(report, {{"FLB005", 17}, {"FLB005", 18}});
  // The justified (void) discard on line 19 is counted, not reported.
  EXPECT_EQ(report.suppressed, 1u);
}

TEST(FlbLintTest, UnboundedRetryFixture) {
  // The two bounded loops in the fixture (attempt counter, deadline
  // predicate) must stay silent; only the budget-free spin reports.
  ExpectFindings(LintFixture("unbounded_retry_violation.cc"),
                 {{"FLB006", 19}});
}

TEST(FlbLintTest, TunerMeasurementFixture) {
  // A probe loop that picks among candidate configs: wall-clocked probe
  // measurement and entropy-seeded exploration both report.
  ExpectFindings(
      LintFixture("tuner_measurement_violation.cc"),
      {{"FLB002", 8}, {"FLB001", 14}, {"FLB001", 16}, {"FLB002", 22}});
}

// Audit: every allow pragma in the real tree carries a reason. The analyzer
// only counts an unjustified allow when its finding actually fires, so a
// bare "// flb-lint: allow(FLBnnn)" sitting on a clean line would rot
// silently — this textual sweep catches it at introduction time.
TEST(FlbLintTest, EveryAllowInTreeIsJustified) {
  namespace fs = std::filesystem;
  const std::string root(FLB_SOURCE_ROOT);
  size_t pragmas = 0;
  for (const char* dir : {"/src", "/tools", "/bench"}) {
    for (const auto& entry :
         fs::recursive_directory_iterator(root + dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::string line;
      int lineno = 0;
      while (std::getline(in, line)) {
        ++lineno;
        const size_t at = line.find("flb-lint: allow");
        if (at == std::string::npos) continue;
        ++pragmas;
        const size_t open = line.find('(', at);
        const size_t close =
            open == std::string::npos ? std::string::npos
                                      : line.find(')', open);
        std::string reason =
            close == std::string::npos ? "" : line.substr(close + 1);
        const size_t first = reason.find_first_not_of(" \t");
        reason = first == std::string::npos ? "" : reason.substr(first);
        EXPECT_FALSE(reason.empty())
            << entry.path().string() << ":" << lineno
            << " bare allow without a reason: " << line;
      }
    }
  }
  // The sweep must actually see the tree's known justified allows;
  // a zero count means the walk silently missed the sources.
  EXPECT_GT(pragmas, 0u);
}

TEST(FlbLintTest, CleanFixtureHasNoViolations) {
  const Report report = LintFixture("clean.cc");
  ExpectFindings(report, {});
  EXPECT_EQ(report.suppressed, 0u);
}

TEST(FlbLintTest, AllowWithoutReasonDoesNotSuppress) {
  const Report report = AnalyzeFiles(
      {{"unjustified.cc",
        "void Charged() {\n"
        "  int t = time(nullptr);  // flb-lint: allow(FLB001)\n"
        "  (void)t;\n"
        "}\n"}},
      Options());
  ExpectFindings(report, {{"FLB001", 2}});
  EXPECT_NE(report.findings[0].message.find("missing a justification"),
            std::string::npos);
  EXPECT_EQ(report.unjustified_allows, 1u);
  EXPECT_EQ(report.suppressed, 0u);
}

TEST(FlbLintTest, AllowNextLineSuppresses) {
  const Report report = AnalyzeFiles(
      {{"next_line.cc",
        "void Charged() {\n"
        "  // flb-lint: allow-next-line(FLB001) calibration-only wall read\n"
        "  int t = time(nullptr);\n"
        "  (void)t;\n"
        "}\n"}},
      Options());
  ExpectFindings(report, {});
  EXPECT_EQ(report.suppressed, 1u);
}

TEST(FlbLintTest, BannedNamesInsideCommentsAndStringsAreIgnored) {
  const Report report = AnalyzeFiles(
      {{"prose.cc",
        "// system_clock and rand() discussed in prose only.\n"
        "const char* kDoc = \"uses std::random_device internally\";\n"}},
      Options());
  ExpectFindings(report, {});
}

}  // namespace
}  // namespace flb::analyze
