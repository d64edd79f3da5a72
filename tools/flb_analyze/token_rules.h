// FLB001-FLB006, the token rules: checks that need only one file's token
// stream plus two tree-wide name indexes.
//
//   FLB001 wall-clock        wall-clock/time APIs in simulated paths
//   FLB002 entropy           unseeded randomness outside common::Rng
//   FLB003 unordered-iter    iteration over a name declared as a
//                            std::unordered_{map,set} anywhere in the tree
//   FLB004 mutex-annotation  mutex members without thread-safety annotations
//   FLB005 discarded-status  Status/Result<T> return values silently dropped
//   FLB006 unbounded-retry   transient-error retry loops with no budget
//
// They scan the same token stream the parser and facts extraction read,
// so each file is tokenized once. FLB005's index of Status/Result-returning
// names is built over every stream before any file is checked; FLB003
// resolves names through the unordered-declaration index FLB008 uses.

#ifndef FLB_TOOLS_FLB_ANALYZE_TOKEN_RULES_H_
#define FLB_TOOLS_FLB_ANALYZE_TOKEN_RULES_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "tools/flb_analyze/token.h"

namespace flb::analyze {

// Receives one finding: the line it is on, its rule ID and its message.
using TokenEmit =
    std::function<void(int line, const char* rule, std::string message)>;

class TokenRules {
 public:
  // `unordered` holds every name the tree declares with an unordered
  // container type.
  explicit TokenRules(const std::set<std::string>& unordered)
      : unordered_(unordered) {}

  // Pass 1, over every file: records which names are declared to return
  // Status or Result<T>, and which are also declared with another type.
  void Index(const std::vector<Token>& t);

  // Pass 2: checks one file.
  void Check(const std::vector<Token>& t, const TokenEmit& emit) const;

 private:
  const std::set<std::string>& unordered_;
  std::set<std::string> status_fns_;
  // Names also declared with a non-Status return type somewhere in the
  // tree; ambiguous (the index is name-based), so FLB005 skips them.
  std::set<std::string> non_status_decls_;
};

}  // namespace flb::analyze

#endif  // FLB_TOOLS_FLB_ANALYZE_TOKEN_RULES_H_
