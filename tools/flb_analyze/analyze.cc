#include "tools/flb_analyze/analyze.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "tools/flb_analyze/facts.h"
#include "tools/flb_analyze/token_rules.h"

namespace flb::analyze {

namespace {

std::vector<std::string> SplitChain(const std::string& chain) {
  std::vector<std::string> segs;
  std::string cur;
  for (char c : chain) {
    if (c == '.') {
      if (!cur.empty()) segs.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) segs.push_back(cur);
  return segs;
}

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

// ---------------------------------------------------------------------------
// FLB009: layer ranks.
// ---------------------------------------------------------------------------

// The architecture DAG, bottom-up. Same-rank siblings must not include
// each other either.
int LayerRank(const std::string& layer) {
  static const std::map<std::string, int> ranks = {
      {"src/common", 0}, {"src/mpint", 1},  {"src/crypto", 2},
      {"src/codec", 3},  {"src/gpusim", 3}, {"src/net", 3},
      {"src/ghe", 4},    {"src/core", 5},   {"src/fl", 6},
      {"src/obs", 7}};
  const auto it = ranks.find(layer);
  return it == ranks.end() ? -1 : it->second;
}

// "src/common/mutex.h" -> "src/common"; "" when not under a known layer.
std::string LayerOf(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return "";
  const size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  const std::string layer = path.substr(0, slash);
  return LayerRank(layer) >= 0 ? layer : "";
}

// ---------------------------------------------------------------------------
// FLB007: hazard-plane classification.
// ---------------------------------------------------------------------------

bool ChainHas(const std::string& chain, const char* what) {
  for (const std::string& seg : SplitChain(chain)) {
    if (seg.find(what) != std::string::npos) return true;
  }
  return false;
}

// Non-empty label when the call site directly enters the metrics/trace/
// clock/callback plane — the planes that must only ever be entered
// lock-free (the leaf-lock discipline, DESIGN.md section 6b).
std::string DirectHazard(const CallSite& c) {
  static const std::set<std::string> recorder_methods = {
      "Count", "Observe", "Span", "Instant", "Collect", "Record", "Emit",
      "Set",   "Push"};
  if (recorder_methods.count(c.callee) != 0) {
    for (const std::string& seg : SplitChain(c.chain)) {
      if (seg == "rec" || seg == "recorder" ||
          seg.find("metric") != std::string::npos ||
          seg.find("registry") != std::string::npos ||
          seg.find("record") != std::string::npos ||
          seg.find("trace") != std::string::npos) {
        return "recorder";
      }
    }
  }
  if (c.callee == "ChargeSpan" ||
      (c.callee == "Charge" && ChainHas(c.chain, "clock"))) {
    return "clock";
  }
  const std::string low = Lower(c.callee);
  if (low.find("callback") != std::string::npos || ChainHas(c.chain, "callback")) {
    return "callback";
  }
  return "";
}

// ---------------------------------------------------------------------------
// The analyzer.
// ---------------------------------------------------------------------------

class Analyzer {
 public:
  Analyzer(const std::vector<FileFacts>& facts, const Options& opts)
      : facts_(facts), opts_(opts) {
    for (size_t fi = 0; fi < facts_.size(); ++fi) {
      for (size_t gi = 0; gi < facts_[fi].functions.size(); ++gi) {
        const FnFacts& fn = facts_[fi].functions[gi];
        fns_.push_back(&fn);
        fn_file_.push_back(fi);
        const size_t sep = fn.qual_name.rfind("::");
        const std::string name =
            sep == std::string::npos ? fn.qual_name : fn.qual_name.substr(sep + 2);
        by_name_[name].push_back(fns_.size() - 1);
      }
      for (const std::string& name : facts_[fi].unordered_decls) {
        unordered_.insert(name);
      }
    }
  }

  Report Run() {
    report_.files_scanned = facts_.size();
    report_.functions_analyzed = fns_.size();
    TokenPass();
    Layering();
    Deadlock();
    Taint();
    Finish();
    return std::move(report_);
  }

 private:
  // Candidate callees for `callee` as called from function f: a same-class
  // method wins outright; otherwise a global name match is taken, unioned
  // conservatively by the callers. A plain call tolerates mild ambiguity
  // (<= 3 bodies); a receiver call (`obj->M()`) has a type we cannot see,
  // so only an unambiguous name (exactly one body) resolves.
  const std::vector<size_t>& Resolve(size_t f, const std::string& callee,
                                     bool has_receiver = false) {
    static const std::vector<size_t> empty;
    const std::string key = fns_[f]->class_name + "|" + callee +
                            (has_receiver ? "|r" : "");
    auto cached = resolve_memo_.find(key);
    if (cached != resolve_memo_.end()) return cached->second;
    std::vector<size_t> out;
    const auto it = by_name_.find(callee);
    if (it != by_name_.end()) {
      if (!fns_[f]->class_name.empty()) {
        for (size_t g : it->second) {
          if (fns_[g]->class_name == fns_[f]->class_name) out.push_back(g);
        }
      }
      const size_t limit = has_receiver ? 1 : 3;
      if (out.empty() && it->second.size() <= limit) out = it->second;
    }
    return resolve_memo_.emplace(key, std::move(out)).first->second;
  }

  const std::vector<size_t>& Resolve(size_t f, const CallSite& c) {
    return Resolve(f, c.callee, !c.chain.empty());
  }

  std::string FnLoc(size_t f) const {
    return fns_[f]->qual_name + " (" + facts_[fn_file_[f]].path + ":" +
           std::to_string(fns_[f]->line) + ")";
  }

  // ---- FLB001..FLB006 ------------------------------------------------

  // The token rules, over the token stream each file was tokenized into
  // once. FLB005's Status-name index spans every file before any file is
  // checked; FLB003 resolves names through the global unordered index.
  void TokenPass() {
    TokenRules rules(unordered_);
    for (const FileFacts& file : facts_) rules.Index(file.tokens);
    for (const FileFacts& file : facts_) {
      rules.Check(file.tokens, [&](int line, const char* rule,
                                   std::string message) {
        Finding f;
        f.rule = rule;
        f.file = file.path;
        f.line = line;
        f.key = f.rule + "|" + file.path + "|" + std::to_string(line);
        f.message = std::move(message);
        Emit(std::move(f));
      });
    }
  }

  // ---- FLB009 --------------------------------------------------------

  bool Excepted(const std::string& from, const std::string& to_layer) const {
    for (const LayerException& e : opts_.layering_exceptions) {
      const bool from_ok =
          e.from == "*" || e.from == from ||
          (from.size() > e.from.size() &&
           from.compare(from.size() - e.from.size(), e.from.size(), e.from) ==
               0 &&
           from[from.size() - e.from.size() - 1] == '/');
      if (from_ok && to_layer == e.to_layer) return true;
    }
    return false;
  }

  void Layering() {
    for (const FileFacts& file : facts_) {
      const std::string layer = LayerOf(file.path);
      for (const IncludeDecl& inc : file.includes) {
        if (!inc.angled) ++report_.include_edges;
        if (layer.empty() || inc.angled) continue;
        const std::string target_layer = LayerOf(inc.target);
        if (target_layer.empty() || target_layer == layer) continue;
        const int from_rank = LayerRank(layer);
        const int to_rank = LayerRank(target_layer);
        if (to_rank < from_rank) continue;  // downward: allowed
        if (Excepted(file.path, target_layer)) continue;
        Finding f;
        f.rule = "FLB009";
        f.file = file.path;
        f.line = inc.line;
        f.key = "FLB009|" + file.path + "|" + inc.target;
        f.message =
            file.path + " includes " + inc.target + ": layer " + layer +
            " (rank " + std::to_string(from_rank) + ") must not depend " +
            (to_rank == from_rank ? "on sibling layer " : "upward on ") +
            target_layer + " (rank " + std::to_string(to_rank) +
            "); add a sanctioned back-edge to the exceptions file or invert "
            "the dependency";
        Emit(std::move(f));
      }
    }
  }

  // ---- FLB007 --------------------------------------------------------

  struct EdgeW {
    size_t fn = 0;
    int line = 0;
    std::string note;
  };

  void Deadlock() {
    // Transitively acquired locks per function.
    std::vector<std::set<std::string>> acq(fns_.size());
    for (size_t f = 0; f < fns_.size(); ++f) {
      for (const LockAcq& a : fns_[f]->acquisitions) acq[f].insert(a.lock);
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (size_t f = 0; f < fns_.size(); ++f) {
        for (const CallSite& c : fns_[f]->calls) {
          if (c.deferred) continue;  // runs when the lambda runs, not here
          for (size_t g : Resolve(f, c)) {
            for (const std::string& l : acq[g]) {
              changed |= acq[f].insert(l).second;
            }
          }
        }
      }
    }

    // The lock-acquisition graph: edge h -> l when l is (transitively)
    // acquired while h is held.
    std::map<std::string, std::map<std::string, EdgeW>> graph;
    auto add_edge = [&](const std::string& h, const std::string& l, size_t f,
                        int line, std::string note) {
      graph[h].emplace(l, EdgeW{f, line, std::move(note)});
      graph[l];  // ensure the node exists
    };
    for (size_t f = 0; f < fns_.size(); ++f) {
      for (const LockAcq& a : fns_[f]->acquisitions) {
        graph[a.lock];
        for (const std::string& h : a.held) {
          add_edge(h, a.lock, f, a.line, "acquired in " + FnLoc(f));
        }
      }
      for (const CallSite& c : fns_[f]->calls) {
        if (c.held.empty() || c.deferred) continue;
        for (size_t g : Resolve(f, c)) {
          for (const std::string& l : acq[g]) {
            for (const std::string& h : c.held) {
              if (h == l) continue;  // re-entry via call: too coarse to flag
              add_edge(h, l, f, c.line,
                       "via call to " + fns_[g]->qual_name + " from " +
                           FnLoc(f));
            }
          }
        }
      }
    }
    report_.lock_nodes = graph.size();
    for (const auto& [node, succs] : graph) report_.lock_edges += succs.size();

    // Cycles: for every edge a->b, a path b ->* a closes a cycle. Each
    // distinct lock set is reported once, keyed independently of lines.
    std::set<std::string> seen;
    for (const auto& [a, succs] : graph) {
      for (const auto& [b, edge] : succs) {
        // Path b ->* a (inclusive); for a self-edge it is just {a}.
        const std::vector<std::string> path = FindPath(graph, b, a);
        if (path.empty()) continue;
        std::vector<std::string> cycle = {a};
        cycle.insert(cycle.end(), path.begin(), path.end());
        std::vector<std::string> canon = cycle;
        std::sort(canon.begin(), canon.end());
        canon.erase(std::unique(canon.begin(), canon.end()), canon.end());
        const std::string key = "FLB007|cycle|" + Join(canon, "+");
        if (!seen.insert(key).second) continue;
        Finding f;
        f.rule = "FLB007";
        f.file = facts_[fn_file_[edge.fn]].path;
        f.line = edge.line;
        f.key = key;
        f.message =
            canon.size() == 1
                ? "lock " + a + " is re-acquired while already held; " +
                      "common::Mutex is non-recursive, so this self-deadlocks"
                : "lock-order cycle: " + Join(cycle, " -> ") +
                      "; two threads interleaving these acquisitions deadlock";
        f.witness.push_back(a + " -> " + b + ": " + edge.note);
        for (size_t i = 1; i + 1 < cycle.size(); ++i) {
          const auto succ_it = graph.find(cycle[i]);
          if (succ_it == graph.end()) continue;
          const auto e = succ_it->second.find(cycle[i + 1]);
          if (e != succ_it->second.end()) {
            f.witness.push_back(cycle[i] + " -> " + cycle[i + 1] + ": " +
                                e->second.note);
          }
        }
        Emit(std::move(f));
      }
    }

    HazardCalls();
  }

  static std::vector<std::string> FindPath(
      const std::map<std::string, std::map<std::string, EdgeW>>& graph,
      const std::string& from, const std::string& to) {
    std::map<std::string, std::string> parent;
    std::deque<std::string> queue = {from};
    parent[from] = from;
    while (!queue.empty()) {
      const std::string cur = queue.front();
      queue.pop_front();
      if (cur == to) {
        std::vector<std::string> path;
        for (std::string p = cur;; p = parent[p]) {
          path.push_back(p);
          if (parent[p] == p) break;
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      const auto it = graph.find(cur);
      if (it == graph.end()) continue;
      for (const auto& [next, edge] : it->second) {
        if (parent.emplace(next, cur).second) queue.push_back(next);
      }
    }
    return {};
  }

  void HazardCalls() {
    // Which functions (transitively) enter a hazard plane, and via whom.
    struct Haz {
      std::string label;
      std::string target;  // direct hazard callee, for the witness
      size_t via = SIZE_MAX;
    };
    std::vector<Haz> haz(fns_.size());
    for (size_t f = 0; f < fns_.size(); ++f) {
      for (const CallSite& c : fns_[f]->calls) {
        if (c.deferred) continue;
        const std::string label = DirectHazard(c);
        if (!label.empty()) {
          haz[f] = Haz{label, c.callee + "()"};
          break;
        }
      }
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (size_t f = 0; f < fns_.size(); ++f) {
        if (!haz[f].label.empty()) continue;
        for (const CallSite& c : fns_[f]->calls) {
          if (c.deferred) continue;
          for (size_t g : Resolve(f, c)) {
            if (g != f && !haz[g].label.empty()) {
              haz[f] = Haz{haz[g].label, haz[g].target, g};
              changed = true;
              break;
            }
          }
          if (!haz[f].label.empty()) break;
        }
      }
    }

    for (size_t f = 0; f < fns_.size(); ++f) {
      for (const CallSite& c : fns_[f]->calls) {
        if (c.held.empty() || c.deferred) continue;
        const std::string direct = DirectHazard(c);
        std::string label = direct;
        std::vector<std::string> hops;
        if (label.empty()) {
          for (size_t g : Resolve(f, c)) {
            if (g == f || haz[g].label.empty()) continue;
            label = haz[g].label;
            // Reconstruct the call chain down to the direct hazard.
            size_t cur = g;
            for (int depth = 0; depth < 12; ++depth) {
              hops.push_back(FnLoc(cur));
              if (haz[cur].via == SIZE_MAX) break;
              cur = haz[cur].via;
            }
            hops.push_back(haz[cur].target);
            break;
          }
        }
        if (label.empty()) continue;
        Finding fd;
        fd.rule = "FLB007";
        fd.file = facts_[fn_file_[f]].path;
        fd.line = c.line;
        fd.key = "FLB007|held-call|" + fd.file + "|" + fns_[f]->qual_name +
                 "|" + c.callee + "|" + c.held.front();
        fd.message = fns_[f]->qual_name + " calls " + c.callee + " (" +
                     label + " plane) while holding " + Join(c.held, ", ") +
                     "; the " + label +
                     " plane takes its own lock and must stay a leaf — drop "
                     "the component lock first";
        fd.witness.push_back("holding " + Join(c.held, ", "));
        for (const std::string& hop : hops) {
          fd.witness.push_back("-> " + hop);
        }
        Emit(std::move(fd));
      }
    }
  }

  // ---- FLB008 --------------------------------------------------------

  // Root sources reached by one atom, resolving call returns and iter
  // names through the global indexes. `via` receives one witness line per
  // resolution hop for the first root found.
  void AtomRoots(size_t f, const std::string& atom,
                 std::vector<std::set<std::string>>& returns_roots,
                 std::set<std::string>* roots, std::vector<std::string>* via) {
    if (atom.rfind("src:", 0) == 0) {
      roots->insert(atom.substr(4));
      return;
    }
    if (atom.rfind("iter:", 0) == 0) {
      if (unordered_.count(atom.substr(5)) != 0) {
        roots->insert("unordered_iter");
        if (via != nullptr) {
          via->push_back("iterates unordered container '" + atom.substr(5) +
                         "'");
        }
      }
      return;
    }
    if (atom.rfind("call:", 0) == 0) {
      for (size_t g : Resolve(f, atom.substr(5))) {
        if (!returns_roots[g].empty()) {
          roots->insert(returns_roots[g].begin(), returns_roots[g].end());
          if (via != nullptr) {
            via->push_back("tainted return of " + FnLoc(g));
          }
        }
      }
    }
    // param:<i> atoms root nowhere here: the flow is reported at the call
    // site where a concrete source enters (sink_params below).
  }

  void Taint() {
    // Fixpoint 1: root sources flowing out of each function's return.
    std::vector<std::set<std::string>> returns_roots(fns_.size());
    for (bool changed = true; changed;) {
      changed = false;
      for (size_t f = 0; f < fns_.size(); ++f) {
        std::set<std::string> roots;
        for (const std::string& atom : fns_[f]->return_atoms) {
          AtomRoots(f, atom, returns_roots, &roots, nullptr);
        }
        for (const std::string& r : roots) {
          changed |= returns_roots[f].insert(r).second;
        }
      }
    }

    // Fixpoint 2: which parameters flow (transitively) into a sink.
    std::vector<std::map<size_t, std::string>> sink_params(fns_.size());
    for (size_t f = 0; f < fns_.size(); ++f) {
      for (const SinkSite& s : fns_[f]->sinks) {
        for (const std::string& atom : s.atoms) {
          if (atom.rfind("param:", 0) == 0) {
            const size_t idx = std::stoul(atom.substr(6));
            sink_params[f].emplace(idx, s.kind);
          }
        }
      }
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (size_t f = 0; f < fns_.size(); ++f) {
        for (const CallSite& c : fns_[f]->calls) {
          for (size_t g : Resolve(f, c)) {
            if (g == f) continue;
            for (const auto& [gidx, kind] : sink_params[g]) {
              if (gidx >= c.args.size()) continue;
              for (const std::string& atom : c.args[gidx]) {
                if (atom.rfind("param:", 0) == 0) {
                  const size_t fidx = std::stoul(atom.substr(6));
                  changed |= sink_params[f].emplace(fidx, kind).second;
                }
              }
            }
          }
        }
      }
    }

    // Findings at in-function sinks.
    for (size_t f = 0; f < fns_.size(); ++f) {
      for (const SinkSite& s : fns_[f]->sinks) {
        std::set<std::string> roots;
        std::vector<std::string> via;
        for (const std::string& atom : s.atoms) {
          AtomRoots(f, atom, returns_roots, &roots, &via);
        }
        EmitTaint(f, s.kind, s.line, roots, via, "");
      }
      // Findings at call sites whose argument feeds a sink downstream.
      for (const CallSite& c : fns_[f]->calls) {
        for (size_t g : Resolve(f, c)) {
          if (g == f) continue;
          for (const auto& [gidx, kind] : sink_params[g]) {
            if (gidx >= c.args.size()) continue;
            std::set<std::string> roots;
            std::vector<std::string> via;
            for (const std::string& atom : c.args[gidx]) {
              AtomRoots(f, atom, returns_roots, &roots, &via);
            }
            via.push_back("argument " + std::to_string(gidx) + " of " +
                          FnLoc(g) + " reaches its " + kind + " sink");
            EmitTaint(f, kind, c.line, roots, via, c.callee);
          }
          break;  // one resolution is enough for reporting
        }
      }
    }
  }

  void EmitTaint(size_t f, const std::string& kind, int line,
                 const std::set<std::string>& roots,
                 const std::vector<std::string>& via,
                 const std::string& callee) {
    static const std::map<std::string, std::string> sink_desc = {
        {"charge", "simulated-time charge"},
        {"serialize", "serialized message bytes"},
        {"rng_seed", "Rng seed"},
        {"report", "RunReport field"}};
    static const std::map<std::string, std::string> root_desc = {
        {"wall_clock", "wall-clock time"},
        {"entropy", "ambient entropy"},
        {"pointer_order", "pointer-derived ordering"},
        {"unordered_iter", "unordered-container iteration order"}};
    for (const std::string& root : roots) {
      Finding fd;
      fd.rule = "FLB008";
      fd.file = facts_[fn_file_[f]].path;
      fd.line = line;
      fd.key = "FLB008|" + fd.file + "|" + fns_[f]->qual_name + "|" + kind +
               "|" + root + (callee.empty() ? "" : "|" + callee);
      fd.message = fns_[f]->qual_name + ": " + root_desc.at(root) +
                   " flows into a " + sink_desc.at(kind) +
                   "; this breaks bit-identical reproducibility across "
                   "runs and thread counts";
      fd.witness = via;
      Emit(std::move(fd));
    }
  }

  // ---- emission ------------------------------------------------------

  void Emit(Finding f) {
    if (!keys_seen_.insert(f.key).second) return;
    // A justified inline allow at the finding line silences it; a bare
    // one is counted and named in the message.
    for (const FileFacts& file : facts_) {
      if (file.path != f.file) continue;
      const auto it = file.suppressions.find(f.line);
      if (it != file.suppressions.end() &&
          it->second.rules.count(f.rule) != 0) {
        if (it->second.justified) {
          ++report_.suppressed;
          return;
        }
        ++report_.unjustified_allows;
        f.message += " [allow() present but missing a justification]";
      }
      break;
    }
    if (opts_.baseline.count(f.key) != 0) {
      ++report_.baselined;
      return;
    }
    report_.findings.push_back(std::move(f));
  }

  void Finish() {
    std::sort(report_.findings.begin(), report_.findings.end(),
              [](const Finding& a, const Finding& b) {
                if (a.file != b.file) return a.file < b.file;
                if (a.line != b.line) return a.line < b.line;
                return a.key < b.key;
              });
  }

  const std::vector<FileFacts>& facts_;
  const Options& opts_;
  Report report_;
  std::vector<const FnFacts*> fns_;
  std::vector<size_t> fn_file_;
  std::map<std::string, std::vector<size_t>> by_name_;
  std::set<std::string> unordered_;
  std::map<std::string, std::vector<size_t>> resolve_memo_;
  std::set<std::string> keys_seen_;
};

std::string EscapeJson(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool ReadLines(const std::string& path, std::vector<std::string>* out,
               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r' ||
                             line.back() == '\t')) {
      line.pop_back();
    }
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    out->push_back(line.substr(start));
  }
  return true;
}

// Reads every *.h / *.cc / *.cpp under `root` (recursive, deterministic
// sorted order) into `out`.
bool ReadTree(const std::string& root, std::vector<FileInput>* out,
              std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    if (error != nullptr) *error = "not a directory: " + root;
    return false;
  }
  std::vector<std::string> paths;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) {
      if (error != nullptr) *error = "walk failed under " + root;
      return false;
    }
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".cc" || ext == ".cpp") {
      paths.push_back(it->path().string());
    }
  }
  std::sort(paths.begin(), paths.end());  // deterministic scan order

  out->reserve(out->size() + paths.size());
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      if (error != nullptr) *error = "cannot read " + path;
      return false;
    }
    std::ostringstream content;
    content << in.rdbuf();
    out->push_back(FileInput{path, content.str()});
  }
  return true;
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> rules = {
      {"FLB001", "wall-clock",
       "wall-clock/time APIs outside common/timer.h (simulated time must "
       "come from the SimClock)"},
      {"FLB002", "entropy",
       "unseeded randomness outside common/rng (breaks bit-identical "
       "replay)"},
      {"FLB003", "unordered-iter",
       "iteration over std::unordered_{map,set} (order nondeterminism in "
       "charged/serialized paths)"},
      {"FLB004", "mutex-annotation",
       "mutex members invisible to -Wthread-safety (raw std::mutex, or no "
       "FLB_* annotation references the mutex)"},
      {"FLB005", "discarded-status",
       "Status/Result<T> return values dropped without handling or an "
       "inline justification"},
      {"FLB006", "unbounded-retry",
       "retry loops on kUnavailable/kDeadlineExceeded that never consult "
       "an attempt counter or common::Deadline (can spin forever on a "
       "dead peer)"},
      {"FLB007", "lock-order",
       "cycles in the global lock-acquisition graph, and metrics/trace/"
       "clock/callback calls made while a component lock is held"},
      {"FLB008", "determinism-taint",
       "wall-clock, entropy, pointer-order, or unordered-iteration values "
       "flowing into sim-time charges, serialized bytes, Rng seeds, or "
       "RunReport fields"},
      {"FLB009", "layering",
       "includes that climb the architecture DAG (common -> mpint -> crypto "
       "-> {codec,gpusim,net} -> ghe -> core -> fl) without a sanctioned "
       "exception"},
  };
  return rules;
}

bool LoadExceptionsFile(const std::string& path,
                        std::vector<LayerException>* out, std::string* error) {
  std::vector<std::string> lines;
  if (!ReadLines(path, &lines, error)) return false;
  for (const std::string& line : lines) {
    const size_t arrow = line.find("->");
    const size_t dashes = line.find("--");
    if (arrow == std::string::npos || dashes == std::string::npos ||
        dashes <= arrow) {
      if (error != nullptr) {
        *error = path + ": malformed exception (want `<from> -> <layer> -- "
                        "<reason>`): " + line;
      }
      return false;
    }
    auto trim = [](std::string s) {
      const size_t b = s.find_first_not_of(" \t");
      const size_t e = s.find_last_not_of(" \t");
      return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
    };
    LayerException ex;
    ex.from = trim(line.substr(0, arrow));
    ex.to_layer = trim(line.substr(arrow + 2, dashes - arrow - 2));
    ex.reason = trim(line.substr(dashes + 2));
    if (ex.from.empty() || ex.to_layer.empty() || ex.reason.empty()) {
      if (error != nullptr) {
        *error = path + ": exception needs a from, a layer, and a reason: " +
                 line;
      }
      return false;
    }
    out->push_back(std::move(ex));
  }
  return true;
}

bool LoadBaselineFile(const std::string& path, std::set<std::string>* out,
                      std::string* error) {
  std::vector<std::string> lines;
  if (!ReadLines(path, &lines, error)) return false;
  out->insert(lines.begin(), lines.end());
  return true;
}

Report AnalyzeFiles(const std::vector<FileInput>& files, const Options& opts) {
  std::vector<FileFacts> facts;
  facts.reserve(files.size());
  for (const FileInput& f : files) {
    facts.push_back(ExtractFacts(f.path, f.content));
  }
  return Analyzer(facts, opts).Run();
}

bool AnalyzeTree(const std::string& root, const Options& opts,
                 Report* report, std::string* error) {
  std::vector<FileInput> files;
  if (!ReadTree(root, &files, error)) return false;
  *report = AnalyzeFiles(files, opts);
  return true;
}

std::string ReportToBenchJson(const Report& report) {
  std::map<std::string, uint64_t> by_rule;
  for (const RuleInfo& rule : Rules()) by_rule[rule.id] = 0;
  for (const Finding& f : report.findings) ++by_rule[f.rule];

  std::ostringstream out;
  out << "{\"bench\":\"flb_analyze\",\"results\":[";
  bool first = true;
  auto row = [&](const std::string& section, const std::string& metric,
                 uint64_t value) {
    out << (first ? "\n" : ",\n")
        << "{\"bench\":\"flb_analyze\",\"section\":\"" << section
        << "\",\"metric\":\"" << metric << "\",\"value\":" << value
        << ",\"unit\":\"count\"}";
    first = false;
  };
  row("analyze", "flb.analyze.rules_run", Rules().size());
  row("analyze", "flb.analyze.files_scanned", report.files_scanned);
  row("analyze", "flb.analyze.functions_analyzed", report.functions_analyzed);
  row("analyze", "flb.analyze.lock_nodes", report.lock_nodes);
  row("analyze", "flb.analyze.lock_edges", report.lock_edges);
  row("analyze", "flb.analyze.include_edges", report.include_edges);
  row("analyze", "flb.analyze.findings", report.findings.size());
  row("analyze", "flb.analyze.baselined", report.baselined);
  row("analyze", "flb.analyze.suppressed", report.suppressed);
  row("analyze", "flb.analyze.unjustified_allows", report.unjustified_allows);
  for (const auto& [rule, count] : by_rule) {
    row("rules", "flb.analyze.findings_by_rule." + rule, count);
  }
  out << "\n]}";
  return out.str();
}

std::string ReportToSarif(const Report& report) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [{\n"
      << "    \"tool\": {\"driver\": {\n"
      << "      \"name\": \"flb_analyze\",\n"
      << "      \"informationUri\": "
         "\"https://example.invalid/flbooster/tools/flb_analyze\",\n"
      << "      \"version\": \"1.0.0\",\n"
      << "      \"rules\": [";
  bool first = true;
  for (const RuleInfo& rule : Rules()) {
    out << (first ? "\n" : ",\n") << "        {\"id\": \"" << rule.id
        << "\", \"name\": \"" << EscapeJson(rule.name)
        << "\", \"shortDescription\": {\"text\": \""
        << EscapeJson(rule.summary) << "\"}}";
    first = false;
  }
  out << "\n      ]\n    }},\n    \"results\": [";
  first = true;
  for (const Finding& f : report.findings) {
    std::string text = f.message;
    for (const std::string& w : f.witness) text += "\n" + w;
    out << (first ? "\n" : ",\n") << "      {\"ruleId\": \"" << f.rule
        << "\", \"level\": \"error\", \"message\": {\"text\": \""
        << EscapeJson(text) << "\"}, \"locations\": [{\"physicalLocation\": "
        << "{\"artifactLocation\": {\"uri\": \"" << EscapeJson(f.file)
        << "\"}, \"region\": {\"startLine\": " << (f.line > 0 ? f.line : 1)
        << "}}}], \"partialFingerprints\": {\"flbAnalyzeKey/v1\": \""
        << EscapeJson(f.key) << "\"}}";
    first = false;
  }
  out << "\n    ]\n  }]\n}";
  return out.str();
}

std::string ReportToBaseline(const Report& report) {
  std::vector<std::string> keys;
  keys.reserve(report.findings.size());
  for (const Finding& f : report.findings) keys.push_back(f.key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::ostringstream out;
  out << "# flb_analyze baseline: accepted findings, one stable key per "
         "line.\n"
      << "# Regenerate with `flb_analyze --root src --write-baseline "
         "<this file>`\n"
      << "# after reviewing that every entry is known, accepted debt.\n";
  for (const std::string& k : keys) out << k << "\n";
  return out.str();
}

}  // namespace flb::analyze
