#include "tools/flb_analyze/token.h"

#include <algorithm>
#include <cctype>

namespace flb::analyze {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Parses "allow(FLB001,FLB005) reason" / "allow-next-line(FLB001) reason"
// from a comment body. Returns the target line (comment line or the next)
// or 0 when the comment is not a flb-lint directive.
int ParseDirective(const std::string& comment, int comment_line,
                   Suppression* out) {
  const size_t tag = comment.find("flb-lint:");
  if (tag == std::string::npos) return 0;
  size_t pos = comment.find_first_not_of(" \t", tag + 9);
  if (pos == std::string::npos) return 0;
  int target = comment_line;
  const std::string kNextLine = "allow-next-line(";
  const std::string kLine = "allow(";
  size_t open;
  if (comment.compare(pos, kNextLine.size(), kNextLine) == 0) {
    target = comment_line + 1;
    open = pos + kNextLine.size();
  } else if (comment.compare(pos, kLine.size(), kLine) == 0) {
    open = pos + kLine.size();
  } else {
    return 0;
  }
  const size_t close = comment.find(')', open);
  if (close == std::string::npos) return 0;
  std::string rule;
  for (size_t i = open; i <= close; ++i) {
    const char c = comment[i];
    if (c == ',' || c == ')') {
      if (!rule.empty()) out->rules.insert(rule);
      rule.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      rule += c;
    }
  }
  // The justification is whatever follows the rule list (":" optional).
  size_t reason = comment.find_first_not_of(" \t:", close + 1);
  out->justified = reason != std::string::npos;
  return target;
}

}  // namespace

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

bool Is(const std::vector<Token>& t, size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}

bool IsIdent(const std::vector<Token>& t, size_t i) {
  return i < t.size() && t[i].kind == Token::Kind::kIdent;
}

bool IsString(const std::vector<Token>& t, size_t i) {
  return i < t.size() && t[i].kind == Token::Kind::kString;
}

size_t SkipBalanced(const std::vector<Token>& t, size_t open,
                    const char* open_text, const char* close_text) {
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i].text == open_text) ++depth;
    if (t[i].text == close_text && --depth == 0) return i + 1;
    // Template-argument scans bail out on statement glue: a stray `<` was a
    // comparison, not a bracket.
    if (open_text[0] == '<' && (t[i].text == ";" || t[i].text == "{")) break;
  }
  return t.size();
}

void Tokenize(const std::string& src, std::vector<Token>* tokens,
              SuppressionMap* suppressions) {
  int line = 1;
  size_t i = 0;
  const size_t n = src.size();
  auto push = [&](Token::Kind kind, std::string text) {
    tokens->push_back(Token{kind, std::move(text), line});
  };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment (suppression directives live here).
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const size_t end = src.find('\n', i);
      const std::string body =
          src.substr(i + 2, (end == std::string::npos ? n : end) - i - 2);
      Suppression sup;
      if (const int target = ParseDirective(body, line, &sup)) {
        (*suppressions)[target] = sup;
      }
      i = end == std::string::npos ? n : end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      size_t j = i + 2;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
        if (src[j] == '\n') ++line;
        ++j;
      }
      Suppression sup;
      const std::string body = src.substr(i + 2, j - i - 2);
      if (const int target = ParseDirective(body, start_line, &sup)) {
        (*suppressions)[target] = sup;
      }
      i = j + 1 < n ? j + 2 : n;
      continue;
    }
    // Raw string literal R"delim(...)delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      size_t p = i + 2;
      std::string delim;
      while (p < n && src[p] != '(') delim += src[p++];
      const std::string closer = ")" + delim + "\"";
      size_t end = src.find(closer, p);
      if (end == std::string::npos) end = n;
      push(Token::Kind::kString,
           src.substr(p + 1, end > p + 1 ? end - p - 1 : 0));
      for (size_t j = i; j < std::min(end, n); ++j) {
        if (src[j] == '\n') ++line;
      }
      i = std::min(end + closer.size(), n);
      continue;
    }
    // String / char literal: emitted as a kString token carrying the
    // contents (quotes stripped) so `#include "..."` targets resolve.
    if (c == '"' || c == '\'') {
      size_t j = i + 1;
      std::string body;
      while (j < n && src[j] != c) {
        if (src[j] == '\\' && j + 1 < n) body += src[j++];
        body += src[j];
        ++j;
      }
      push(Token::Kind::kString, body);
      i = j + 1;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(src[j])) ++j;
      push(Token::Kind::kIdent, src.substr(i, j - i));
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && (IsIdentChar(src[j]) || src[j] == '.')) ++j;
      push(Token::Kind::kNumber, src.substr(i, j - i));
      i = j;
      continue;
    }
    // Multi-char punctuation the rules care about.
    static const char* kTwoChar[] = {"::", "->", "<<", ">>", "<=",
                                     ">=", "==", "!=", "&&", "||"};
    bool matched = false;
    for (const char* two : kTwoChar) {
      if (c == two[0] && i + 1 < n && src[i + 1] == two[1]) {
        push(Token::Kind::kPunct, two);
        i += 2;
        matched = true;
        break;
      }
    }
    if (!matched) {
      push(Token::Kind::kPunct, std::string(1, c));
      ++i;
    }
  }
}

}  // namespace flb::analyze
