#include "src/obs/prometheus.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace flb::obs {

namespace {

bool IsNameChar(char c, bool allow_colon) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         (allow_colon && c == ':');
}

std::string Sanitize(const std::string& name, bool allow_colon) {
  if (name.empty()) return "_";
  std::string out;
  out.reserve(name.size() + 1);
  // A name may not start with a digit; sanitizing keeps digits as they are.
  if (std::isdigit(static_cast<unsigned char>(name[0]))) out += '_';
  for (char c : name) {
    out += IsNameChar(c, allow_colon) ? c : '_';
  }
  return out;
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  return Sanitize(name, /*allow_colon=*/true);
}

std::string PrometheusLabelName(const std::string& name) {
  return Sanitize(name, /*allow_colon=*/false);
}

std::string PrometheusLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> ParseLabels(
    const std::string& labels) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t pos = 0;
  while (pos < labels.size()) {
    size_t comma = labels.find(',', pos);
    if (comma == std::string::npos) comma = labels.size();
    const std::string segment = labels.substr(pos, comma - pos);
    if (!segment.empty()) {
      const size_t eq = segment.find('=');
      if (eq == std::string::npos) {
        out.emplace_back("label", segment);
      } else {
        out.emplace_back(segment.substr(0, eq), segment.substr(eq + 1));
      }
    }
    pos = comma + 1;
  }
  return out;
}

std::string PrometheusLabelSet(const std::string& labels,
                               const std::string& extra_label,
                               const std::string& extra_value) {
  std::string body;
  for (const auto& [key, value] : ParseLabels(labels)) {
    if (!body.empty()) body += ",";
    body += PrometheusLabelName(key) + "=\"" + PrometheusLabelValue(value) +
            "\"";
  }
  if (!extra_label.empty()) {
    if (!body.empty()) body += ",";
    body += extra_label + "=\"" + extra_value + "\"";
  }
  return body.empty() ? "" : "{" + body + "}";
}

std::string PrometheusValue(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string RenderPrometheus(const std::vector<MetricValue>& metrics) {
  std::string out;
  out.reserve(metrics.size() * 64);
  std::string last_typed;  // sanitized name of the last # TYPE line
  for (const MetricValue& m : metrics) {
    const std::string name = PrometheusName(m.name);
    if (name != last_typed) {
      out += "# TYPE " + name + " " + MetricTypeName(m.type) + "\n";
      last_typed = name;
    }
    if (m.type != MetricType::kHistogram) {
      out += name + PrometheusLabelSet(m.labels) + " " +
             PrometheusValue(m.value) + "\n";
      continue;
    }
    // Histogram: cumulative buckets ending in an explicit +Inf (the sparse
    // registry snapshot omits empty buckets and may omit the overflow one;
    // Prometheus semantics require both).
    uint64_t cumulative = 0;
    bool saw_inf = false;
    for (const HistogramBucket& b : m.buckets) {
      cumulative += b.count;
      const bool inf = std::isinf(b.le);
      saw_inf = saw_inf || inf;
      out += name + "_bucket" +
             PrometheusLabelSet(m.labels, "le",
                                inf ? "+Inf" : PrometheusValue(b.le)) +
             " " + std::to_string(cumulative) + "\n";
    }
    if (!saw_inf) {
      out += name + "_bucket" + PrometheusLabelSet(m.labels, "le", "+Inf") +
             " " + std::to_string(m.count) + "\n";
    }
    out += name + "_sum" + PrometheusLabelSet(m.labels) + " " +
           PrometheusValue(m.value) + "\n";
    out += name + "_count" + PrometheusLabelSet(m.labels) + " " +
           std::to_string(m.count) + "\n";
  }
  return out;
}

}  // namespace flb::obs
