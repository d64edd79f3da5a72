// flb_analyze CLI. See analyze.h for the rule table and the model.
//
// Usage:
//   flb_analyze [--root DIR] [--exceptions FILE] [--baseline FILE]
//               [--json PATH] [--sarif PATH] [--write-baseline PATH]
//               [--list-rules] [--quiet] [file...]
//
// With explicit files, analyzes exactly those as one translation set (the
// fixture-test entry point); otherwise walks --root (default: src).
// --write-baseline regenerates the reviewed baseline from the current
// findings (any --baseline is ignored for that run so accepted debt is
// not dropped). Exit codes: 0 clean, 1 new findings, 2 usage/IO error.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/flb_analyze/analyze.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--root DIR] [--exceptions FILE] [--baseline FILE] "
               "[--json PATH] [--sarif PATH] [--write-baseline PATH] "
               "[--list-rules] [--quiet] [file...]\n",
               argv0);
  return 2;
}

bool WriteFile(const std::string& path, const std::string& content,
               const char* what) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "flb_analyze: cannot write %s %s\n", what,
                 path.c_str());
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = "src";
  std::string json_path, sarif_path, baseline_out;
  bool quiet = false;
  std::vector<std::string> files;
  flb::analyze::Options options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::string error;
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      root = v;
    } else if (arg == "--exceptions") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (!flb::analyze::LoadExceptionsFile(v, &options.layering_exceptions,
                                            &error)) {
        std::fprintf(stderr, "flb_analyze: %s\n", error.c_str());
        return 2;
      }
    } else if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (!flb::analyze::LoadBaselineFile(v, &options.baseline, &error)) {
        std::fprintf(stderr, "flb_analyze: %s\n", error.c_str());
        return 2;
      }
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      json_path = v;
    } else if (arg == "--sarif") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      sarif_path = v;
    } else if (arg == "--write-baseline") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      baseline_out = v;
    } else if (arg == "--list-rules") {
      for (const flb::analyze::RuleInfo& rule : flb::analyze::Rules()) {
        std::printf("%s %-18s %s\n", rule.id, rule.name, rule.summary);
      }
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }

  // Regenerating the baseline must see *all* findings, including the ones
  // the stale baseline was hiding.
  if (!baseline_out.empty()) options.baseline.clear();

  flb::analyze::Report report;
  std::string error;
  if (!files.empty()) {
    std::vector<flb::analyze::FileInput> inputs;
    for (const std::string& path : files) {
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "flb_analyze: cannot read %s\n", path.c_str());
        return 2;
      }
      std::ostringstream content;
      content << in.rdbuf();
      inputs.push_back({path, content.str()});
    }
    report = flb::analyze::AnalyzeFiles(inputs, options);
  } else if (!flb::analyze::AnalyzeTree(root, options, &report, &error)) {
    std::fprintf(stderr, "flb_analyze: %s\n", error.c_str());
    return 2;
  }

  for (const flb::analyze::Finding& f : report.findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
    for (const std::string& w : f.witness) {
      std::fprintf(stderr, "    %s\n", w.c_str());
    }
  }
  if (!quiet) {
    std::printf(
        "flb_analyze: %llu file(s), %llu function(s), %zu finding(s), "
        "%llu baselined, %llu suppressed\n",
        static_cast<unsigned long long>(report.files_scanned),
        static_cast<unsigned long long>(report.functions_analyzed),
        report.findings.size(),
        static_cast<unsigned long long>(report.baselined),
        static_cast<unsigned long long>(report.suppressed));
  }
  if (!json_path.empty() &&
      !WriteFile(json_path, flb::analyze::ReportToBenchJson(report) + "\n",
                 "json")) {
    return 2;
  }
  if (!sarif_path.empty() &&
      !WriteFile(sarif_path, flb::analyze::ReportToSarif(report) + "\n",
                 "sarif")) {
    return 2;
  }
  if (!baseline_out.empty()) {
    if (!WriteFile(baseline_out, flb::analyze::ReportToBaseline(report),
                   "baseline")) {
      return 2;
    }
    return 0;  // regenerating the baseline accepts the findings by design
  }
  return report.findings.empty() ? 0 : 1;
}
