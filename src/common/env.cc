#include "src/common/env.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "src/common/annotations.h"
#include "src/common/mutex.h"

namespace flb::common {

namespace {

// One warning per (variable, value, problem) for the process lifetime:
// knobs are read on every run, and repeating the same warning for every
// Platform::Run would drown the bench output.
struct WarnState {
  Mutex mu;
  std::set<std::string> seen FLB_GUARDED_BY(mu);
};

WarnState& warn_state() {
  static WarnState* state = new WarnState();
  return *state;
}

std::string AsciiLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

const char* Env::Raw(const char* name) { return std::getenv(name); }

std::string Env::Str(const char* name, const std::string& fallback) {
  const char* v = Raw(name);
  return v != nullptr ? std::string(v) : fallback;
}

bool Env::Flag(const char* name, bool fallback) {
  const char* v = Raw(name);
  if (v == nullptr) return fallback;
  const std::string lowered = AsciiLower(v);
  return !(lowered.empty() || lowered == "0" || lowered == "false" ||
           lowered == "off" || lowered == "no");
}

bool Env::ParseInt(const std::string& value, int* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) return false;
  if (parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

int Env::Int(const char* name, int fallback, int min, int max) {
  const char* v = Raw(name);
  if (v == nullptr) return fallback;
  int parsed = 0;
  if (!ParseInt(v, &parsed)) {
    WarnOnce(name, v, "is not an integer; using " + std::to_string(fallback));
    return fallback;
  }
  if (parsed < min) {
    WarnOnce(name, v, "is below " + std::to_string(min) + "; clamping");
    return min;
  }
  if (parsed > max) {
    WarnOnce(name, v, "is above " + std::to_string(max) + "; clamping");
    return max;
  }
  return parsed;
}

void Env::WarnOnce(const char* name, const std::string& value,
                   const std::string& what) {
  WarnState& state = warn_state();
  const std::string key = std::string(name) + "=" + value + "|" + what;
  {
    MutexLock lock(state.mu);
    if (!state.seen.insert(key).second) return;
  }
  std::fprintf(stderr, "[env] WARN: %s='%s' %s\n", name, value.c_str(),
               what.c_str());
}

}  // namespace flb::common
