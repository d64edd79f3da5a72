#include "tools/flb_analyze/token_rules.h"

#include "tools/flb_analyze/facts.h"

namespace flb::analyze {

namespace {

constexpr const char* kWallClock = "FLB001";
constexpr const char* kEntropy = "FLB002";
constexpr const char* kUnorderedIter = "FLB003";
constexpr const char* kMutexAnnotation = "FLB004";
constexpr const char* kDiscardedStatus = "FLB005";
constexpr const char* kUnboundedRetry = "FLB006";

const std::set<std::string>& AnnotationMacros() {
  static const std::set<std::string> macros = {
      "FLB_GUARDED_BY",      "FLB_PT_GUARDED_BY", "FLB_REQUIRES",
      "FLB_ACQUIRE",         "FLB_RELEASE",       "FLB_TRY_ACQUIRE",
      "FLB_EXCLUDES",        "FLB_ACQUIRED_BEFORE",
      "FLB_ACQUIRED_AFTER"};
  return macros;
}

// Keywords that make the next `name(` a call, not a declaration.
const std::set<std::string>& StmtKeywords() {
  static const std::set<std::string> kw = {
      "return", "co_return", "co_await", "co_yield", "throw",
      "else",   "do",        "case",     "goto",     "new",
      "delete"};
  return kw;
}

// -- FLB001 / FLB002 ---------------------------------------------------------

void CheckWallClockAndEntropy(const std::vector<Token>& t,
                              const TokenEmit& emit) {
  for (size_t i = 0; i < t.size(); ++i) {
    // #include <header> bans.
    if (Is(t, i, "#") && Is(t, i + 1, "include") && Is(t, i + 2, "<")) {
      std::string header;
      for (size_t j = i + 3; j < t.size() && !Is(t, j, ">"); ++j) {
        header += t[j].text;
      }
      const SourceName* source = FindSourceName(header, /*header=*/true);
      if (source == nullptr) continue;
      if (std::string(source->source) == "wall_clock") {
        emit(t[i].line, kWallClock,
             "#include <" + header + ">: wall-clock APIs are banned in "
             "simulated paths (charge the SimClock; see common/timer.h)");
      } else {
        emit(t[i].line, kEntropy,
             "#include <" + header + ">: unseeded entropy is banned "
             "(derive randomness from common::Rng)");
      }
      continue;
    }
    if (!IsIdent(t, i)) continue;
    const std::string& id = t[i].text;
    const SourceName* source = FindSourceName(id);
    if (source == nullptr || source->taint_only) continue;
    const bool member_access =
        i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->");
    // `SimClock* clock() const` declares an accessor named clock — that is
    // declaration position (preceded by a type fragment), not a call to
    // the C library. Statement keywords (`return time(...)`) still count
    // as calls.
    const bool decl_position =
        i > 0 &&
        (t[i - 1].text == "*" || t[i - 1].text == "&" ||
         t[i - 1].text == ">" ||
         (IsIdent(t, i - 1) && StmtKeywords().count(t[i - 1].text) == 0));
    const bool free_call = Is(t, i + 1, "(") && !decl_position;
    if (member_access || (source->use == SourceName::Use::kFreeCall &&
                          !free_call)) {
      continue;
    }
    if (std::string(source->source) == "wall_clock") {
      emit(t[i].line, kWallClock,
           "wall-clock API '" + id + "' in a simulated path: charged time "
           "must come from the SimClock (wall timing belongs in "
           "common/timer.h)");
    } else {
      emit(t[i].line, kEntropy,
           "entropy source '" + id + "' outside common/rng: unseeded "
           "randomness breaks bit-identical replay (use common::Rng / "
           "Rng::ForStream)");
    }
  }
}

// -- FLB003 ------------------------------------------------------------------

void CheckUnorderedIteration(const std::vector<Token>& t,
                             const std::set<std::string>& unordered,
                             const TokenEmit& emit) {
  if (unordered.empty()) return;
  for (size_t i = 0; i < t.size(); ++i) {
    // Range-for whose range expression mentions an unordered name.
    if (IsIdent(t, i) && t[i].text == "for" && Is(t, i + 1, "(")) {
      const size_t past = SkipBalanced(t, i + 1, "(", ")");
      // Find the top-level ':' separating declaration from range.
      int depth = 0;
      size_t colon = 0;
      for (size_t j = i + 1; j + 1 < past; ++j) {
        if (t[j].text == "(" || t[j].text == "<" || t[j].text == "[") {
          ++depth;
        }
        if (t[j].text == ")" || t[j].text == ">" || t[j].text == "]") {
          --depth;
        }
        if (t[j].text == ":" && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      for (size_t j = colon + 1; j + 1 < past; ++j) {
        if (IsIdent(t, j) && unordered.count(t[j].text) != 0) {
          emit(t[i].line, kUnorderedIter,
               "iteration over unordered container '" + t[j].text +
                   "': traversal order is nondeterministic and must not "
                   "feed charged results or serialized messages (use "
                   "std::map, or copy + sort first)");
          break;
        }
      }
    }
    // Iterator-based traversal: name.begin() / name->cbegin().
    if (IsIdent(t, i) && unordered.count(t[i].text) != 0 &&
        (Is(t, i + 1, ".") || Is(t, i + 1, "->")) && IsIdent(t, i + 2) &&
        (t[i + 2].text == "begin" || t[i + 2].text == "cbegin" ||
         t[i + 2].text == "rbegin") &&
        Is(t, i + 3, "(")) {
      emit(t[i].line, kUnorderedIter,
           "iterator traversal of unordered container '" + t[i].text +
               "': traversal order is nondeterministic and must not feed "
               "charged results or serialized messages");
    }
  }
}

// -- FLB004 ------------------------------------------------------------------

void CheckMutexAnnotations(const std::vector<Token>& t,
                           const TokenEmit& emit) {
  // All names referenced inside FLB_* annotation macro arguments.
  std::set<std::string> annotated_names;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i) || AnnotationMacros().count(t[i].text) == 0 ||
        !Is(t, i + 1, "(")) {
      continue;
    }
    const size_t past = SkipBalanced(t, i + 1, "(", ")");
    for (size_t j = i + 2; j + 1 < past; ++j) {
      if (IsIdent(t, j)) annotated_names.insert(t[j].text);
    }
  }

  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i)) continue;
    const bool std_mutex =
        (t[i].text == "mutex" || t[i].text == "shared_mutex" ||
         t[i].text == "recursive_mutex" || t[i].text == "timed_mutex") &&
        i >= 2 && Is(t, i - 1, "::") && Is(t, i - 2, "std");
    const bool flb_mutex = t[i].text == "Mutex";
    if (!std_mutex && !flb_mutex) continue;
    // Member declaration: `<type> name_;` — the trailing-underscore
    // member naming convention is what distinguishes members from locals.
    if (!IsIdent(t, i + 1)) continue;
    const std::string& name = t[i + 1].text;
    if (name.empty() || name.back() != '_') continue;
    // An annotation macro directly on the declaration (lock ordering,
    // typically) also counts as "visible to the analysis".
    const bool decl_annotated =
        IsIdent(t, i + 2) && AnnotationMacros().count(t[i + 2].text) != 0;
    if (!(Is(t, i + 2, ";") || decl_annotated)) continue;
    if (std_mutex) {
      emit(t[i].line, kMutexAnnotation,
           "raw std::" + t[i].text + " member '" + name +
               "': use common::Mutex (src/common/mutex.h) so "
               "-Wthread-safety can see the capability");
      continue;
    }
    if (!decl_annotated && annotated_names.count(name) == 0) {
      emit(t[i].line, kMutexAnnotation,
           "mutex member '" + name +
               "' has no thread-safety annotation referencing it: add "
               "FLB_GUARDED_BY(" + name + ") to the state it protects "
               "(or FLB_REQUIRES/FLB_ACQUIRE on the functions that use "
               "it)");
    }
  }
}

// -- FLB005 ------------------------------------------------------------------

// Walks left over a `base::qualifier.member->` chain; returns the index
// of the token *before* the chain, or npos when the chain starts the
// token stream.
size_t ChainStart(const std::vector<Token>& t, size_t call) {
  size_t j = call;  // index of the called identifier
  while (j > 0) {
    const std::string& prev = t[j - 1].text;
    if (prev == "::" || prev == "." || prev == "->") {
      if (j >= 2 && (IsIdent(t, j - 2) || t[j - 2].text == ")")) {
        if (t[j - 2].text == ")") {
          // Balanced back-skip over a call in the chain: foo(x).Send();
          int depth = 0;
          size_t k = j - 2;
          for (;; --k) {
            if (t[k].text == ")") ++depth;
            if (t[k].text == "(" && --depth == 0) break;
            if (k == 0) return std::string::npos;
          }
          j = k > 0 && IsIdent(t, k - 1) ? k - 1 : k;
        } else {
          j -= 2;
        }
        continue;
      }
      return j >= 2 ? j - 2 : std::string::npos;
    }
    break;
  }
  return j == 0 ? std::string::npos : j - 1;
}

void CheckDiscardedStatus(const std::vector<Token>& t,
                          const std::set<std::string>& status_fns,
                          const std::set<std::string>& non_status_decls,
                          const TokenEmit& emit) {
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i) || !Is(t, i + 1, "(") ||
        status_fns.count(t[i].text) == 0 ||
        non_status_decls.count(t[i].text) != 0) {
      continue;
    }
    const size_t past = SkipBalanced(t, i + 1, "(", ")");
    if (!Is(t, past, ";")) continue;  // value is consumed or chained
    const size_t before = ChainStart(t, i);
    const bool at_start =
        before == std::string::npos || t[before].text == ";" ||
        t[before].text == "{" || t[before].text == "}" ||
        t[before].text == "else" || t[before].text == "do";
    const bool void_cast = before != std::string::npos && before >= 2 &&
                           t[before].text == ")" &&
                           Is(t, before - 1, "void") &&
                           Is(t, before - 2, "(");
    const bool after_paren = before != std::string::npos &&
                             t[before].text == ")" && !void_cast;
    if (void_cast) {
      emit(t[i].line, kDiscardedStatus,
           "Status/Result from '" + t[i].text + "' cast away with (void): "
           "handle the error or justify with "
           "`// flb-lint: allow(FLB005) <reason>`");
    } else if (at_start || after_paren) {
      // `after_paren` covers `if (cond) DoSend();`-style single-statement
      // bodies. A preceding identifier means this was a declaration
      // (`Status Send(...);`), not a call.
      emit(t[i].line, kDiscardedStatus,
           "return value of Status/Result-returning '" + t[i].text +
               "' is discarded: propagate with FLB_RETURN_IF_ERROR, "
               "handle it, or justify the discard");
    }
  }
}

// -- FLB006 ------------------------------------------------------------------

// True when `text` names a retry/deadline budget: a loop that spins on
// transient failures must bound itself by one of these.
bool IsBudgetIdent(const std::string& text) {
  const std::string lower = Lower(text);
  // The trigger identifiers themselves mention "deadline"; only a
  // non-trigger deadline reference (Deadline, run_deadline, CheckDeadline,
  // deadline->Check, ...) counts as consulting a budget.
  if (lower.find("deadline") != std::string::npos &&
      lower.find("exceeded") == std::string::npos) {
    return true;
  }
  return lower.find("attempt") != std::string::npos ||
         lower.find("retr") != std::string::npos ||  // retry, retries
         lower.find("tries") != std::string::npos ||
         lower.find("budget") != std::string::npos ||
         lower.find("remaining") != std::string::npos ||
         lower.find("expired") != std::string::npos ||
         lower.find("backoff") != std::string::npos;
}

void CheckUnboundedRetry(const std::vector<Token>& t, const TokenEmit& emit) {
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i)) continue;
    size_t body_begin = 0;  // first token of the loop body
    if ((t[i].text == "while" || t[i].text == "for") && Is(t, i + 1, "(")) {
      body_begin = SkipBalanced(t, i + 1, "(", ")");
    } else if (t[i].text == "do" && Is(t, i + 1, "{")) {
      body_begin = i + 1;
    } else {
      continue;
    }
    if (body_begin >= t.size()) continue;
    // Body = braced block when present, else the single statement.
    size_t body_end;
    if (Is(t, body_begin, "{")) {
      body_end = SkipBalanced(t, body_begin, "{", "}");
    } else {
      body_end = body_begin;
      while (body_end < t.size() && t[body_end].text != ";") ++body_end;
    }
    bool retries_transient = false;  // continue + IsUnavailable/-Deadline
    bool has_continue = false;
    bool has_budget = false;
    for (size_t j = i; j < body_end && j < t.size(); ++j) {
      if (!IsIdent(t, j)) continue;
      const std::string& text = t[j].text;
      if (text == "continue") has_continue = true;
      if (text == "IsUnavailable" || text == "IsDeadlineExceeded") {
        retries_transient = true;
      }
      if (IsBudgetIdent(text)) has_budget = true;
    }
    if (retries_transient && has_continue && !has_budget) {
      emit(t[i].line, kUnboundedRetry,
           "loop retries on kUnavailable/kDeadlineExceeded without "
           "consulting a budget: bound it with an attempt counter or a "
           "common::Deadline so a dead peer cannot spin forever");
    }
  }
}

}  // namespace

void TokenRules::Index(const std::vector<Token>& t) {
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i)) continue;
    size_t name = 0;
    if (t[i].text == "Status") {
      // `Status Foo(` — skip qualified uses like `Status::OK`.
      if (IsIdent(t, i + 1) && Is(t, i + 2, "(")) name = i + 1;
    } else if (t[i].text == "Result" && Is(t, i + 1, "<")) {
      const size_t past = SkipBalanced(t, i + 1, "<", ">");
      if (past < t.size() && IsIdent(t, past) && Is(t, past + 1, "(")) {
        name = past;
      }
    }
    if (name != 0 && t[name].text != "operator") {
      status_fns_.insert(t[name].text);
    }
    // `void RecordEvent(` — a declaration of the same name with some
    // other return type makes the name ambiguous across the tree, so
    // FLB005 must not flag calls to it. Statement keywords (`return Foo(`)
    // are calls, not declarations.
    if (t[i].text != "Status" && t[i].text != "Result" &&
        StmtKeywords().count(t[i].text) == 0 && IsIdent(t, i + 1) &&
        Is(t, i + 2, "(") && t[i + 1].text != "operator") {
      non_status_decls_.insert(t[i + 1].text);
    }
  }
}

void TokenRules::Check(const std::vector<Token>& t,
                       const TokenEmit& emit) const {
  CheckWallClockAndEntropy(t, emit);
  CheckUnorderedIteration(t, unordered_, emit);
  CheckMutexAnnotations(t, emit);
  CheckDiscardedStatus(t, status_fns_, non_status_decls_, emit);
  CheckUnboundedRetry(t, emit);
}

}  // namespace flb::analyze
