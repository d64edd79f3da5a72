#include "src/net/fault.h"

#include <algorithm>
#include <cstdlib>

namespace flb::net {

namespace {

std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\n");
  return s.substr(b, e - b + 1);
}

Result<double> ParseNumber(const std::string& s, const std::string& what) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("FaultPlan: bad number '" + s + "' in " +
                                   what);
  }
  return v;
}

Result<double> ParseProb(const std::string& s, const std::string& what) {
  FLB_ASSIGN_OR_RETURN(double v, ParseNumber(s, what));
  if (v < 0.0 || v > 1.0) {
    return Status::InvalidArgument("FaultPlan: " + what +
                                   " must be in [0,1], got " + s);
  }
  return v;
}

// Applies one k=v pair to a LinkFaults. Unknown key -> error.
Status ApplyLinkKey(LinkFaults* link, const std::string& key,
                    const std::string& value) {
  if (key == "drop") {
    FLB_ASSIGN_OR_RETURN(link->drop_prob, ParseProb(value, key));
  } else if (key == "dup") {
    FLB_ASSIGN_OR_RETURN(link->dup_prob, ParseProb(value, key));
  } else if (key == "reorder") {
    FLB_ASSIGN_OR_RETURN(link->reorder_prob, ParseProb(value, key));
  } else if (key == "corrupt") {
    FLB_ASSIGN_OR_RETURN(link->corrupt_prob, ParseProb(value, key));
  } else if (key == "delay") {
    FLB_ASSIGN_OR_RETURN(link->extra_delay_sec, ParseNumber(value, key));
  } else if (key == "jitter") {
    FLB_ASSIGN_OR_RETURN(link->jitter_sec, ParseNumber(value, key));
  } else {
    return Status::InvalidArgument("FaultPlan: unknown link key '" + key +
                                   "'");
  }
  return Status::OK();
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& raw : SplitOn(spec, ';')) {
    const std::string clause = Trim(raw);
    if (clause.empty()) continue;
    const size_t eq = clause.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("FaultPlan: clause '" + clause +
                                     "' is not key=value");
    }
    const std::string key = clause.substr(0, eq);
    const std::string value = clause.substr(eq + 1);
    if (key == "seed") {
      FLB_ASSIGN_OR_RETURN(double v, ParseNumber(value, key));
      plan.seed = static_cast<uint64_t>(v);
    } else if (key == "straggler") {
      // <party>:<factor>
      const size_t colon = value.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        return Status::InvalidArgument(
            "FaultPlan: straggler wants <party>:<factor>, got '" + value +
            "'");
      }
      FLB_ASSIGN_OR_RETURN(double factor,
                           ParseNumber(value.substr(colon + 1), key));
      if (factor < 1.0) {
        return Status::InvalidArgument(
            "FaultPlan: straggler factor must be >= 1");
      }
      plan.straggler_factor[value.substr(0, colon)] = factor;
    } else if (key == "crash") {
      // <party>@<t>[-<r>]
      const size_t at = value.rfind('@');
      if (at == std::string::npos || at == 0) {
        return Status::InvalidArgument(
            "FaultPlan: crash wants <party>@<t>[-<r>], got '" + value + "'");
      }
      Crash crash;
      crash.party = value.substr(0, at);
      const std::string times = value.substr(at + 1);
      const size_t dash = times.find('-');
      if (dash == std::string::npos) {
        FLB_ASSIGN_OR_RETURN(crash.at_sec, ParseNumber(times, key));
      } else {
        FLB_ASSIGN_OR_RETURN(crash.at_sec,
                             ParseNumber(times.substr(0, dash), key));
        FLB_ASSIGN_OR_RETURN(crash.recover_sec,
                             ParseNumber(times.substr(dash + 1), key));
        if (crash.recover_sec <= crash.at_sec) {
          return Status::InvalidArgument(
              "FaultPlan: crash recovery must follow the crash");
        }
      }
      plan.crashes.push_back(std::move(crash));
    } else if (key == "partition") {
      // <a>|<b>@<t1>-<t2>
      const size_t bar = value.find('|');
      const size_t at = value.rfind('@');
      if (bar == std::string::npos || at == std::string::npos || at < bar) {
        return Status::InvalidArgument(
            "FaultPlan: partition wants <a>|<b>@<t1>-<t2>, got '" + value +
            "'");
      }
      Partition part;
      part.a = value.substr(0, bar);
      part.b = value.substr(bar + 1, at - bar - 1);
      const std::string window = value.substr(at + 1);
      const size_t dash = window.find('-');
      if (dash == std::string::npos) {
        return Status::InvalidArgument(
            "FaultPlan: partition window wants <t1>-<t2>");
      }
      FLB_ASSIGN_OR_RETURN(part.start_sec,
                           ParseNumber(window.substr(0, dash), key));
      FLB_ASSIGN_OR_RETURN(part.end_sec,
                           ParseNumber(window.substr(dash + 1), key));
      if (part.end_sec <= part.start_sec) {
        return Status::InvalidArgument(
            "FaultPlan: partition window must have t2 > t1");
      }
      plan.partitions.push_back(std::move(part));
    } else if (key == "link") {
      // <from>><to>:k=v[,k=v...]
      const size_t gt = value.find('>');
      const size_t colon = value.find(':', gt == std::string::npos ? 0 : gt);
      if (gt == std::string::npos || colon == std::string::npos) {
        return Status::InvalidArgument(
            "FaultPlan: link wants <from>><to>:k=v[,k=v...], got '" + value +
            "'");
      }
      const std::string from = value.substr(0, gt);
      const std::string to = value.substr(gt + 1, colon - gt - 1);
      LinkFaults link;
      for (const std::string& kv : SplitOn(value.substr(colon + 1), ',')) {
        const size_t kveq = kv.find('=');
        if (kveq == std::string::npos) {
          return Status::InvalidArgument("FaultPlan: link entry '" + kv +
                                         "' is not key=value");
        }
        FLB_RETURN_IF_ERROR(ApplyLinkKey(&link, kv.substr(0, kveq),
                                         kv.substr(kveq + 1)));
      }
      plan.per_link[{from, to}] = link;
    } else {
      FLB_RETURN_IF_ERROR(ApplyLinkKey(&plan.default_link, key, value));
    }
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, SimClock* clock)
    : plan_(std::move(plan)), clock_(clock), rng_(plan_.seed) {}

double FaultInjector::Now() const {
  return clock_ != nullptr ? clock_->Now() : 0.0;
}

const LinkFaults& FaultInjector::FaultsFor(const std::string& from,
                                           const std::string& to) const {
  auto it = plan_.per_link.find({from, to});
  return it != plan_.per_link.end() ? it->second : plan_.default_link;
}

bool FaultInjector::IsCrashed(const std::string& party) const {
  const double now = Now();
  for (const Crash& crash : plan_.crashes) {
    if (crash.party != party) continue;
    if (now >= crash.at_sec &&
        (crash.recover_sec < 0 || now < crash.recover_sec)) {
      return true;
    }
  }
  return false;
}

double FaultInjector::CrashRecoverTime(const std::string& party) const {
  const double now = Now();
  for (const Crash& crash : plan_.crashes) {
    if (crash.party != party) continue;
    if (now >= crash.at_sec &&
        (crash.recover_sec < 0 || now < crash.recover_sec)) {
      return crash.recover_sec;
    }
  }
  return -1.0;
}

bool FaultInjector::LinkPartitioned(const std::string& a,
                                    const std::string& b) const {
  const double now = Now();
  for (const Partition& part : plan_.partitions) {
    const bool match = (part.a == a && part.b == b) ||
                       (part.a == b && part.b == a);
    if (match && now >= part.start_sec && now < part.end_sec) return true;
  }
  return false;
}

double FaultInjector::StragglerFactor(const std::string& party) const {
  auto it = plan_.straggler_factor.find(party);
  return it != plan_.straggler_factor.end() ? it->second : 1.0;
}

void FaultInjector::RecordFault(const char* kind, const std::string& from,
                                const std::string& to,
                                const std::string& topic) {
  obs::MetricsRegistry::Global().Count(
      "flb.fault.injected", 1,
      std::string("kind=") + kind + ",link=" + from + ">" + to);
  auto& rec = obs::TraceRecorder::Global();
  if (!rec.enabled()) return;
  rec.Instant(rec.RegisterTrack("faults", from + ">" + to),
              std::string("fault.") + kind, "fault", Now(),
              {obs::Arg("topic", topic)});
}

FaultInjector::Decision FaultInjector::OnSend(const std::string& from,
                                              const std::string& to,
                                              const std::string& topic,
                                              size_t payload_bytes) {
  Decision d;
  // Fault kinds injected by this decision, recorded to the observability
  // singletons only after mu_ is released (leaf-locking discipline: their
  // locks must never nest inside ours).
  const char* recorded[4] = {nullptr, nullptr, nullptr, nullptr};
  int num_recorded = 0;
  {
    common::MutexLock lock(mu_);
    stats_.decisions += 1;
    // Structural faults first: a crashed receiver or a partitioned link
    // swallows the message regardless of the probabilistic plan.
    if (IsCrashed(to) || IsCrashed(from)) {
      d.deliver = false;
      d.fault = "crash_drop";
      stats_.crash_drops += 1;
      recorded[num_recorded++] = d.fault;
    } else if (LinkPartitioned(from, to)) {
      d.deliver = false;
      d.fault = "partition_drop";
      stats_.partition_drops += 1;
      recorded[num_recorded++] = d.fault;
    } else {
      const LinkFaults& link = FaultsFor(from, to);
      // Deterministic draw order: drop, dup, reorder, corrupt, jitter.
      // Every probabilistic knob consumes its draw on every decision so
      // that enabling one fault class does not shift another class's
      // random sequence.
      const bool drop = rng_.NextBernoulli(link.drop_prob);
      const bool dup = rng_.NextBernoulli(link.dup_prob);
      const bool reorder = rng_.NextBernoulli(link.reorder_prob);
      const bool corrupt = rng_.NextBernoulli(link.corrupt_prob);
      const double jitter =
          link.jitter_sec > 0 ? rng_.NextDouble() * link.jitter_sec : 0.0;
      const uint64_t corrupt_bit =
          payload_bytes > 0 ? rng_.NextBelow(payload_bytes * 8) : 0;
      if (drop) {
        d.deliver = false;
        d.fault = "drop";
        stats_.drops += 1;
        recorded[num_recorded++] = d.fault;
      } else {
        if (dup) {
          d.duplicate = true;
          d.fault = "duplicate";
          stats_.duplicates += 1;
          recorded[num_recorded++] = "duplicate";
        }
        if (reorder) {
          d.reorder = true;
          if (d.fault == nullptr) d.fault = "reorder";
          stats_.reorders += 1;
          recorded[num_recorded++] = "reorder";
        }
        if (corrupt && payload_bytes > 0) {
          d.corrupt = true;
          d.corrupt_bit = corrupt_bit;
          if (d.fault == nullptr) d.fault = "corrupt";
          stats_.corruptions += 1;
          recorded[num_recorded++] = "corrupt";
        }
        d.extra_delay_sec = link.extra_delay_sec + jitter;
        if (d.extra_delay_sec > 0) {
          stats_.delays += 1;
          if (d.fault == nullptr) d.fault = "delay";
        }
      }
    }
  }
  for (int i = 0; i < num_recorded; ++i) {
    RecordFault(recorded[i], from, to, topic);
  }
  return d;
}

void FaultInjector::CollectMetrics(std::vector<obs::MetricValue>& out) const {
  common::MutexLock lock(mu_);
  auto counter = [&](const char* name, uint64_t value) {
    obs::MetricValue m;
    m.name = name;
    m.type = obs::MetricType::kCounter;
    m.value = static_cast<double>(value);
    out.push_back(std::move(m));
  };
  counter("flb.fault.decisions", stats_.decisions);
  counter("flb.fault.drops", stats_.drops);
  counter("flb.fault.duplicates", stats_.duplicates);
  counter("flb.fault.reorders", stats_.reorders);
  counter("flb.fault.corruptions", stats_.corruptions);
  counter("flb.fault.delays", stats_.delays);
  counter("flb.fault.partition_drops", stats_.partition_drops);
  counter("flb.fault.crash_drops", stats_.crash_drops);
}

}  // namespace flb::net
