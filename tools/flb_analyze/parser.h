// Lightweight declaration/function-body parser for flb_analyze.
//
// Sits on the tokenizer (token.h) and recovers just enough structure
// for the interprocedural passes: the `#include` list, and every function
// *definition* with its qualified name, parameter names, and body token
// range. Namespaces, classes (including out-of-line `Class::Method`
// definitions), constructor member-initializer lists, template headers,
// and brace-initializers are handled; lambdas and local structs stay part
// of their enclosing function's body range (their calls are attributed to
// the enclosing function, which is the conservative choice for both the
// lock and the taint pass). No libclang, no preprocessor.

#ifndef FLB_TOOLS_FLB_ANALYZE_PARSER_H_
#define FLB_TOOLS_FLB_ANALYZE_PARSER_H_

#include <string>
#include <vector>

#include "tools/flb_analyze/token.h"

namespace flb::analyze {

struct IncludeDecl {
  std::string target;  // as written: "src/obs/metrics.h" or <vector>
  bool angled = false;
  int line = 0;
};

struct FunctionDecl {
  std::string name;        // unqualified: "Send"
  std::string class_name;  // enclosing class, or "" for free functions
  std::string qual_name;   // "Network::Send" / "Send"
  int line = 0;
  size_t body_begin = 0;  // token index of the '{' opening the body
  size_t body_end = 0;    // token index just past the matching '}'
  std::vector<std::string> params;  // declared names; "" when unnamed
};

struct ParsedFile {
  std::vector<IncludeDecl> includes;
  std::vector<FunctionDecl> functions;
};

ParsedFile ParseFile(const std::vector<Token>& tokens);

}  // namespace flb::analyze

#endif  // FLB_TOOLS_FLB_ANALYZE_PARSER_H_
