/// \file rules.cpp
/// \brief The five contract rules enforced by redmule-lint.
///
/// Each rule is the machine-checked form of a contract documented in
/// docs/ARCHITECTURE.md ("Enforced contracts" maps them one-to-one). Rules
/// work on blanked code text (never inside comments or string literals) and
/// report findings that are individually suppressible with
/// `// redmule-lint: allow(<rule>) reason` or an allowlist.conf entry.
#include <array>
#include <map>
#include <regex>
#include <set>

#include "lint.hpp"

namespace redmule::lintool {

namespace {

/// Whole-word search; returns the match offset or npos.
size_t find_word(const std::string& text, const std::string& word) {
  size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || (!std::isalnum(static_cast<unsigned char>(text[pos - 1])) &&
                                text[pos - 1] != '_');
    size_t end = pos + word.size();
    bool right_ok = end >= text.size() ||
                    (!std::isalnum(static_cast<unsigned char>(text[end])) &&
                     text[end] != '_');
    if (left_ok && right_ok) return pos;
    pos += 1;
  }
  return std::string::npos;
}

bool contains_word(const std::string& text, const std::string& word) {
  return find_word(text, word) != std::string::npos;
}

/// Scan forward from `open` (which must index a '(') to its matching ')'.
/// Returns npos when unbalanced.
size_t match_paren(const std::string& text, size_t open) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    else if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

size_t match_brace(const std::string& text, size_t open) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    else if (text[i] == '}' && --depth == 0) return i;
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// Rule 1: typed-errors.
// ---------------------------------------------------------------------------

class TypedErrorsRule final : public Rule {
 public:
  const char* name() const override { return "typed-errors"; }
  const char* description() const override {
    return "all failure paths in src/ throw the typed exceptions from "
           "common/check.hpp (redmule::Error and refinements) or the api:: "
           "taxonomy; raw std:: exceptions and bare `throw` are banned";
  }
  void check(const Repo&, const SourceFile& f, std::vector<Finding>* out) const override {
    if (f.module_name.empty()) return;
    static const std::regex kRawThrow(
        R"(\bthrow\s+(?:::\s*)?std\s*::\s*(runtime_error|logic_error|invalid_argument|out_of_range|domain_error|length_error|range_error|exception)\b)");
    static const std::regex kBareThrow(R"(\bthrow\s*;)");
    for (size_t i = 0; i < f.code_lines.size(); ++i) {
      std::smatch m;
      const std::string& line = f.code_lines[i];
      if (std::regex_search(line, m, kRawThrow))
        out->push_back({name(), f.path, static_cast<int>(i) + 1,
                        "raw `throw std::" + m[1].str() +
                            "`: failure paths must throw the typed errors from "
                            "common/check.hpp (redmule::Error / TimeoutError / "
                            "CapacityError) or api::TypedError so the service "
                            "can classify them by type"});
      if (std::regex_search(line, kBareThrow))
        out->push_back({name(), f.path, static_cast<int>(i) + 1,
                        "bare `throw`: rethrowing erases the throw site from the "
                        "failure contract; catch, wrap in a typed error, and "
                        "throw that instead"});
    }
  }
};

// ---------------------------------------------------------------------------
// Rule 2: determinism.
// ---------------------------------------------------------------------------

/// Modules whose code feeds simulated results, hashes, or committed bench
/// artifacts. serve/ and api/ are excluded: their wall-clock use (timers,
/// deadlines) is part of their contract and never reaches a result.
const std::set<std::string>& determinism_modules() {
  static const std::set<std::string> m = {"common", "core",  "fp16",      "isa",
                                          "mem",    "model", "sim",       "workloads",
                                          "cluster", "shard", "state"};
  return m;
}

class DeterminismRule final : public Rule {
 public:
  const char* name() const override { return "determinism"; }
  const char* description() const override {
    return "result-producing modules draw all randomness from the seeded "
           "common/rng surface and never read wall clocks or the environment; "
           "unordered-container iteration must not feed results or hashes "
           "(hash order is not part of the determinism contract)";
  }
  void check(const Repo& repo, const SourceFile& f, std::vector<Finding>* out) const override {
    if (!determinism_modules().count(f.module_name)) return;
    struct Banned {
      const char* pattern;
      const char* what;
    };
    // `[^\w.]` before the name: a member call on some other object
    // (`cfg.time(...)`) is not libc time(), but the `std::`-qualified form
    // must still match. `now()` is banned in every calling form -- wall
    // clocks are only ever reached as `Clock::now()`.
    static const std::array<Banned, 8> kBanned = {{
        {R"((^|[^\w.])rand\s*\()", "rand()"},
        {R"((^|[^\w.])srand\s*\()", "srand()"},
        {R"(\brandom_device\b)", "std::random_device"},
        {R"((^|[^\w.])time\s*\()", "time()"},
        {R"(\bnow\s*\()", "a wall-clock now()"},
        {R"((^|[^\w.])getenv\s*\()", "getenv()"},
        {R"(\brand_r\b)", "rand_r()"},
        {R"(\bdrand48\b)", "drand48()"},
    }};
    for (size_t i = 0; i < f.code_lines.size(); ++i) {
      const std::string& line = f.code_lines[i];
      for (const Banned& b : kBanned) {
        if (std::regex_search(line, std::regex(b.pattern)))
          out->push_back({name(), f.path, static_cast<int>(i) + 1,
                          std::string("nondeterministic source ") + b.what +
                              " in a result-producing module: use the seeded "
                              "common/rng surface (split_seed) instead, or "
                              "annotate a wall-deadline site with a reason"});
      }
    }
    check_unordered_iteration(repo, f, out);
  }

 private:
  /// Names declared with an unordered container in one file.
  static void collect_unordered_names(const SourceFile& f, std::set<std::string>* names) {
    static const std::regex kDecl(R"(\bunordered_(?:map|set|multimap|multiset)\s*<)");
    static const std::regex kName(R"(^\s*&?\s*(\w+)\s*(?:[;={(,]|$))");
    for (const std::string& line : f.code_lines) {
      std::smatch m;
      std::string rest = line;
      while (std::regex_search(rest, m, kDecl)) {
        // Balance the template angle brackets to find the declared name.
        size_t open = static_cast<size_t>(m.position(0)) + m.length(0) - 1;
        int depth = 0;
        size_t end = std::string::npos;
        for (size_t i = open; i < rest.size(); ++i) {
          if (rest[i] == '<') ++depth;
          else if (rest[i] == '>' && --depth == 0) {
            end = i;
            break;
          }
        }
        if (end == std::string::npos) break;  // declaration spans lines
        std::string after = rest.substr(end + 1);
        std::smatch nm;
        if (std::regex_search(after, nm, kName)) names->insert(nm[1].str());
        rest = after;
      }
    }
  }

  void check_unordered_iteration(const Repo& repo, const SourceFile& f,
                                 std::vector<Finding>* out) const {
    // Names visible to this file: its own declarations plus those of its
    // direct includes (members are typically declared in the header and
    // iterated in the matching .cpp). Deliberately not repo-wide: an
    // unrelated file's short local name must not taint this file's loops.
    std::set<std::string> names;
    collect_unordered_names(f, &names);
    for (const IncludeEdge& inc : f.includes) {
      const SourceFile* h = repo.find("src/" + inc.target);
      if (h) collect_unordered_names(*h, &names);
    }
    if (names.empty()) return;
    const std::string& text = f.code_text;
    size_t pos = 0;
    static const std::regex kFor(R"(\bfor\s*\()");
    std::smatch m;
    std::string rest = text;
    size_t base = 0;
    while (std::regex_search(rest, m, kFor)) {
      size_t open = base + static_cast<size_t>(m.position(0)) + m.length(0) - 1;
      size_t close = match_paren(text, open);
      if (close == std::string::npos) break;
      std::string head = text.substr(open + 1, close - open - 1);
      // Find a range-for ':' that is not part of '::'.
      size_t colon = std::string::npos;
      for (size_t i = 0; i < head.size(); ++i) {
        if (head[i] != ':') continue;
        if ((i + 1 < head.size() && head[i + 1] == ':') || (i > 0 && head[i - 1] == ':')) {
          ++i;
          continue;
        }
        colon = i;
        break;
      }
      if (colon != std::string::npos) {
        std::string range = head.substr(colon + 1);
        for (const std::string& n : names) {
          size_t w = find_word(range, n);
          if (w == std::string::npos) continue;
          // `signals_.at(key)` / `signals_[key]` iterate the mapped VALUE,
          // not the unordered container itself: skip element-access forms.
          size_t after = range.find_first_not_of(" \t", w + n.size());
          if (after != std::string::npos &&
              (range[after] == '[' ||
               range.compare(after, 4, ".at(") == 0 ||
               range.compare(after, 5, "->at(") == 0 ||
               range.compare(after, 6, ".find(") == 0))
            continue;
          {
            out->push_back(
                {name(), f.path, f.line_of(open),
                 "range-for over unordered container `" + n +
                     "`: iteration order is hash-order and may feed results or "
                     "hashes; iterate a sorted copy (or sort afterwards with a "
                     "total order), or annotate with a reason"});
            break;
          }
        }
      }
      base = close;
      pos = close;
      rest = text.substr(pos);
    }
  }
};

// ---------------------------------------------------------------------------
// Rule 3: layering.
// ---------------------------------------------------------------------------

/// The declared one-direction module map. An entry lists the modules a
/// module may directly #include (itself is always allowed). This is the
/// intended architecture from docs/ARCHITECTURE.md: common is the base;
/// sim's clocking/run-control infrastructure sits below the memory
/// and compute hierarchy; cluster composes the hardware; workloads lower
/// math onto it; api is the typed public surface; shard orchestrates
/// multi-cluster execution through api's pool engine; serve speaks only
/// api. Notable non-edges enforced here: core -> cluster, api -> sim (the
/// old CI grep), api -> shard (registration is shard-side), serve ->
/// anything but api/common.
const std::map<std::string, std::set<std::string>>& module_map() {
  static const std::map<std::string, std::set<std::string>> m = {
      {"common", {}},
      {"fp16", {"common"}},
      {"sim", {"common"}},
      {"mem", {"common", "sim"}},
      {"core", {"common", "fp16", "mem", "sim"}},
      {"isa", {"common", "fp16", "mem", "sim"}},
      {"model", {"common", "core"}},
      {"workloads", {"common", "core", "fp16"}},
      {"cluster", {"common", "core", "isa", "mem", "sim", "workloads"}},
      {"state", {"common", "core", "isa", "mem", "sim", "cluster"}},
      {"api", {"common", "core", "cluster", "workloads", "state"}},
      {"shard", {"common", "core", "cluster", "workloads", "api"}},
      {"serve", {"common", "api"}},
  };
  return m;
}

class LayeringRule final : public Rule {
 public:
  const char* name() const override { return "layering"; }
  const char* description() const override {
    return "every quoted #include under src/ must resolve and respect the "
           "declared one-direction module map (common -> {fp16,sim} -> mem -> "
           "{core,isa} -> cluster -> api -> serve; workloads between core and "
           "cluster); replaces the old `grep '#include \"sim/'` CI step with "
           "a complete include-graph check";
  }
  void check(const Repo& repo, const SourceFile& f, std::vector<Finding>* out) const override {
    if (f.module_name.empty()) return;
    const auto& map = module_map();
    auto self = map.find(f.module_name);
    if (self == map.end()) {
      out->push_back({name(), f.path, 1,
                      "module `" + f.module_name +
                          "` is not in the declared module map (tools/lint/"
                          "rules.cpp module_map); declare its allowed "
                          "dependencies before adding code to it"});
      return;
    }
    for (const IncludeEdge& inc : f.includes) {
      size_t slash = inc.target.find('/');
      if (slash == std::string::npos) continue;  // same-directory include
      std::string target_module = inc.target.substr(0, slash);
      if (!map.count(target_module)) continue;  // not a src module path
      if (!repo.include_resolves(inc.target)) {
        out->push_back({name(), f.path, inc.line,
                        "#include \"" + inc.target +
                            "\" does not resolve to a file under src/"});
        continue;
      }
      if (target_module == f.module_name) continue;
      if (!self->second.count(target_module))
        out->push_back({name(), f.path, inc.line,
                        "layering violation: module `" + f.module_name +
                            "` must not include `" + target_module +
                            "` (allowed: itself" + allowed_list(self->second) +
                            "); see the module map in docs/ARCHITECTURE.md"});
    }
  }

 private:
  static std::string allowed_list(const std::set<std::string>& allowed) {
    std::string s;
    for (const std::string& a : allowed) s += ", " + a;
    return s;
  }
};

// ---------------------------------------------------------------------------
// Rule 4: trust-boundary.
// ---------------------------------------------------------------------------

class TrustBoundaryRule final : public Rule {
 public:
  const char* name() const override { return "trust-boundary"; }
  const char* description() const override {
    return "in src/serve, any allocation sized from wire-derived bytes "
           "(Reader u8/u32/u64 accessors, memcpy'd length fields) must be "
           "preceded by a cap check against a kMax*/max_*_bytes bound -- "
           "cap-before-alloc at the trust boundary";
  }
  void check(const Repo&, const SourceFile& f, std::vector<Finding>* out) const override {
    if (f.module_name != "serve") return;

    // Taint: variables assigned from wire accessors or length memcpys.
    struct Taint {
      std::string var;
      int line;
    };
    std::vector<Taint> taints;
    static const std::regex kAccessor(
        R"(\b(\w+)\s*=\s*(?:\w+\s*(?:\.|->)\s*)?(?:u8|u16|u32|u64|i32|i64)\s*\(\s*\))");
    static const std::regex kMemcpy(R"(memcpy\s*\(\s*&\s*(\w+))");
    // Guard: a comparison of the tainted value against a declared cap.
    static const std::regex kCapWord(R"(\bk[A-Z]\w*\b|\bmax_\w+\b|\b\w*_cap\b)");
    std::map<std::string, std::vector<int>> guards;

    for (size_t i = 0; i < f.code_lines.size(); ++i) {
      const std::string& line = f.code_lines[i];
      std::smatch m;
      std::string rest = line;
      while (std::regex_search(rest, m, kAccessor)) {
        taints.push_back({m[1].str(), static_cast<int>(i) + 1});
        rest = m.suffix();
      }
      if (std::regex_search(line, m, kMemcpy))
        taints.push_back({m[1].str(), static_cast<int>(i) + 1});
      if ((line.find('<') != std::string::npos || line.find('>') != std::string::npos) &&
          std::regex_search(line, kCapWord)) {
        for (const Taint& t : taints)
          if (contains_word(line, t.var)) guards[t.var].push_back(static_cast<int>(i) + 1);
      }
    }
    if (taints.empty()) return;

    // Allocations whose size expression mentions a tainted variable.
    const std::string& text = f.code_text;
    static const std::regex kAlloc(
        R"((\.|->)\s*(resize|reserve|assign|append|insert)\s*\(|\bnew\s+[\w:]+(?:\s*<[^;\[]*>)?\s*\[|\bstd\s*::\s*(?:string|vector\s*<[^;(]*>)\s+\w+\s*\()");
    std::string rest = text;
    size_t base = 0;
    std::smatch m;
    while (std::regex_search(rest, m, kAlloc)) {
      size_t match_pos = base + static_cast<size_t>(m.position(0));
      size_t open = text.find_first_of("([", match_pos + m.length(0) - 1);
      std::string args;
      if (open != std::string::npos && text[open] == '(') {
        size_t close = match_paren(text, open);
        if (close != std::string::npos) args = text.substr(open, close - open + 1);
      } else if (open != std::string::npos) {
        size_t close = text.find(']', open);
        if (close != std::string::npos) args = text.substr(open, close - open + 1);
      }
      // The regex tail may already contain '(' -- recover the argument span
      // from the first paren/bracket at or after the match.
      size_t span_start = text.find_first_of("([", match_pos);
      if (span_start != std::string::npos && span_start < match_pos + m.length(0) + 2) {
        if (text[span_start] == '(') {
          size_t close = match_paren(text, span_start);
          if (close != std::string::npos)
            args = text.substr(span_start, close - span_start + 1);
        }
      }
      int alloc_line = f.line_of(match_pos);
      for (const Taint& t : taints) {
        if (t.line > alloc_line) continue;
        if (alloc_line - t.line > 60) continue;  // far outside any one function
        if (!contains_word(args, t.var)) continue;
        bool guarded = false;
        auto g = guards.find(t.var);
        if (g != guards.end())
          for (int gl : g->second)
            if (gl >= t.line && gl <= alloc_line) guarded = true;
        if (!guarded)
          out->push_back({name(), f.path, alloc_line,
                          "allocation sized from wire-derived `" + t.var +
                              "` (read at line " + std::to_string(t.line) +
                              ") without a preceding cap check: compare "
                              "against a kMax*/max_*_bytes bound before "
                              "allocating (cap-before-alloc)"});
      }
      base += static_cast<size_t>(m.position(0)) + m.length(0);
      rest = text.substr(base);
    }
  }
};

// ---------------------------------------------------------------------------
// Rule 5: clocking.
// ---------------------------------------------------------------------------

class ClockingRule final : public Rule {
 public:
  const char* name() const override { return "clocking"; }
  const char* description() const override {
    return "every direct subclass of sim::Clocked must override both reset() "
           "(reset-equals-constructed) and is_idle() (the idle-skip "
           "quiescence protocol) -- a module missing either silently breaks "
           "pooled reuse or the fast-forward path";
  }
  void check(const Repo&, const SourceFile& f, std::vector<Finding>* out) const override {
    if (f.module_name.empty()) return;
    const std::string& text = f.code_text;
    static const std::regex kClassHead(R"(\b(?:class|struct)\s+(\w+)\s*(?:final\s*)?:)");
    std::string rest = text;
    size_t base = 0;
    std::smatch m;
    while (std::regex_search(rest, m, kClassHead)) {
      size_t head_pos = base + static_cast<size_t>(m.position(0));
      size_t bases_begin = head_pos + m.length(0);
      size_t body_open = text.find_first_of("{;", bases_begin);
      if (body_open == std::string::npos) break;
      std::string bases = text.substr(bases_begin, body_open - bases_begin);
      std::string cls = m[1].str();
      if (text[body_open] == '{' && cls != "Clocked" && contains_word(bases, "Clocked")) {
        size_t body_close = match_brace(text, body_open);
        std::string body = body_close == std::string::npos
                               ? text.substr(body_open)
                               : text.substr(body_open, body_close - body_open + 1);
        static const std::regex kReset(R"(\breset\s*\()");
        static const std::regex kIsIdle(R"(\bis_idle\s*\()");
        std::string missing;
        if (!std::regex_search(body, kReset)) missing = "reset()";
        if (!std::regex_search(body, kIsIdle))
          missing += missing.empty() ? "is_idle()" : " and is_idle()";
        if (!missing.empty())
          out->push_back({name(), f.path, f.line_of(head_pos),
                          "Clocked subclass `" + cls + "` does not override " +
                              missing +
                              ": every clocked module must implement the "
                              "reset-equals-constructed contract and the "
                              "idle-skip quiescence protocol"});
      }
      base = head_pos + m.length(0);
      rest = text.substr(base);
    }
  }
};

}  // namespace

std::vector<const Rule*> all_rules() {
  static const TypedErrorsRule typed_errors;
  static const DeterminismRule determinism;
  static const LayeringRule layering;
  static const TrustBoundaryRule trust_boundary;
  static const ClockingRule clocking;
  return {&typed_errors, &determinism, &layering, &trust_boundary, &clocking};
}

}  // namespace redmule::lintool
