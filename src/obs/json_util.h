// Minimal JSON serialization helpers shared by the obs exporters (trace
// events, metrics snapshots). Writing only — the obs layer never parses
// JSON; validation lives in tests and scripts/validate_obs_json.sh.

#ifndef FLB_OBS_JSON_UTIL_H_
#define FLB_OBS_JSON_UTIL_H_

#include <cmath>
#include <cstdio>
#include <string>

namespace flb::obs {

// Escapes a string for inclusion between JSON double quotes.
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  out += JsonEscape(s);
  out += '"';
  return out;
}

// JSON has no NaN/Inf literals; clamp them so exports always parse.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  // Shortest round-trippable form is overkill; %.12g keeps files compact
  // while preserving microsecond-scale timestamps over hour-scale traces.
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

inline std::string JsonNumber(uint64_t v) { return std::to_string(v); }
inline std::string JsonNumber(int64_t v) { return std::to_string(v); }
inline std::string JsonNumber(int v) { return std::to_string(v); }

}  // namespace flb::obs

#endif  // FLB_OBS_JSON_UTIL_H_
