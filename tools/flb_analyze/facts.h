// Per-file facts for flb_analyze's interprocedural passes.
//
// A file's facts are everything the global analyses need: its token
// stream (which the token rules FLB001-FLB006 scan), the include list
// (FLB009), per-function lock acquisitions and call sites with the set of
// locks held (FLB007), and per-function taint atoms — sources appearing in
// expressions, sink call sites with the atoms feeding each argument, and
// the atoms flowing into the return value (FLB008). Extraction runs the
// tokenizer once, then the declaration parser, the per-function CFG, and a
// local union-only taint fixpoint over that one stream; nothing here looks
// at any other file.
//
// Atom vocabulary:
//   src:wall_clock | src:entropy | src:pointer_order | src:unordered_iter
//       a determinism-taint source appearing directly in the expression
//   call:<name>   value returned by a call to <name> (resolved globally)
//   param:<i>     value of the i-th declared parameter (0-based)
//   iter:<name>   element of a range-for over <name>; tainted iff <name>
//                 is declared as an unordered container anywhere in the
//                 translation set (resolved globally)

#ifndef FLB_TOOLS_FLB_ANALYZE_FACTS_H_
#define FLB_TOOLS_FLB_ANALYZE_FACTS_H_

#include <string>
#include <vector>

#include "tools/flb_analyze/parser.h"
#include "tools/flb_analyze/token.h"

namespace flb::analyze {

struct LockAcq {
  std::string lock;  // "Network::mu_", "Free::local_mu"
  int line = 0;
  std::vector<std::string> held;  // locks already held at this acquisition
};

struct CallSite {
  std::string callee;  // unqualified name as written
  int line = 0;
  std::string chain;  // lowercased receiver chain ("clock"/"metrics"/"")
  std::vector<std::string> held;  // locks held at the call
  std::vector<std::vector<std::string>> args;  // per-argument atoms
  // True when the call sits inside a lambda body: it runs whenever the
  // lambda runs (possibly on another thread, e.g. a spawned worker loop),
  // so lock-discipline passes must not treat it as executing under the
  // enclosing function's locks.
  bool deferred = false;
};

struct SinkSite {
  std::string kind;  // "charge" | "serialize" | "rng_seed" | "report"
  int line = 0;
  std::vector<std::string> atoms;  // union over the fed arguments
};

struct FnFacts {
  std::string qual_name;  // "Network::Send" / "Free"
  std::string class_name;
  int line = 0;
  std::vector<std::string> params;
  std::vector<LockAcq> acquisitions;
  std::vector<CallSite> calls;
  std::vector<SinkSite> sinks;
  std::vector<std::string> return_atoms;
};

struct FileFacts {
  std::string path;  // normalized ("src/..." when under a src tree)
  std::vector<Token> tokens;
  std::vector<IncludeDecl> includes;
  std::vector<FnFacts> functions;
  // Names declared with std::unordered_{map,set,...} in this file (feeds
  // the global unordered-name index that resolves iter:<name> atoms and
  // FLB003's iteration check).
  std::vector<std::string> unordered_decls;
  // Inline `// flb-lint: allow(FLB00x) reason` suppressions by line.
  SuppressionMap suppressions;
};

// One row of the determinism vocabulary: every name FLB001/FLB002 ban and
// FLB008 treats as a taint source.
struct SourceName {
  enum class Use {
    kName,      // any non-member mention: `steady_clock`, `mt19937`
    kFreeCall,  // a non-member call only, so a member or accessor named
                // `time`/`clock`/`random` stays clean
    kAnyCall,   // any call, member calls included: `timer.ElapsedSeconds()`
    kHeader,    // an `#include <...>` target (FLB001/FLB002 only)
  };
  const char* name;
  const char* source;  // "wall_clock" (FLB001) | "entropy" (FLB002)
  Use use;
  bool type = false;        // declaring a variable of it taints the variable
  bool taint_only = false;  // an FLB008 source the token rules leave alone
};

// The vocabulary row for an identifier (or, with `header`, an include
// target); nullptr when the name is not in the table.
const SourceName* FindSourceName(const std::string& name, bool header = false);

// Normalizes separators and strips any prefix before the last "src/"
// component so baselines are location-independent.
std::string NormalizePath(std::string path);

// Tokenizes, parses, and reduces one file to its facts.
FileFacts ExtractFacts(const std::string& path, const std::string& content);

}  // namespace flb::analyze

#endif  // FLB_TOOLS_FLB_ANALYZE_FACTS_H_
