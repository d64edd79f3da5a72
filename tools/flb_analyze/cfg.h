// Per-function control-flow graph over the shared token stream.
//
// Each function body is segmented into statements (token ranges) grouped
// into basic blocks with successor edges for if/else, while/for/do loops,
// switch, and return/break/continue. The taint pass iterates the statement
// set to a fixpoint (its transfer functions are union-only, so chaotic
// iteration over the blocks converges to the same answer as a worklist
// over the edges); the edges make the graph a genuine CFG for passes that
// need reachability. Statements containing nested braces (lambdas,
// brace-initializers, local structs) stay single statements.

#ifndef FLB_TOOLS_FLB_ANALYZE_CFG_H_
#define FLB_TOOLS_FLB_ANALYZE_CFG_H_

#include <cstddef>
#include <vector>

#include "tools/flb_analyze/token.h"

namespace flb::analyze {

struct Stmt {
  size_t begin = 0;  // token range [begin, end)
  size_t end = 0;
  int line = 0;
};

struct Block {
  std::vector<Stmt> stmts;
  std::vector<size_t> succs;
};

struct Cfg {
  std::vector<Block> blocks;
  size_t entry = 0;
  size_t exit = 0;

  // All statements in token order, across blocks (the iteration order the
  // fixpoint passes use).
  std::vector<Stmt> Statements() const;
};

// Builds the CFG for a body token range: `begin` is the index of the
// opening '{', `end` the index just past the matching '}'.
Cfg BuildCfg(const std::vector<Token>& tokens, size_t begin,
             size_t end);

}  // namespace flb::analyze

#endif  // FLB_TOOLS_FLB_ANALYZE_CFG_H_
