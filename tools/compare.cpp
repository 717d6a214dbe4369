#include "tools/compare.hpp"

#include <iomanip>
#include <ostream>
#include <utility>

namespace cfgx::tools {
namespace {

using obs::JsonValue;

const JsonValue* find_path(const JsonValue& root,
                           const std::vector<std::string>& path) {
  const JsonValue* node = &root;
  for (const std::string& key : path) {
    if (!node->is_object() || !node->has(key)) return nullptr;
    node = &node->at(key);
  }
  return node;
}

std::string join_path(const std::vector<std::string>& path) {
  std::string out;
  for (const std::string& key : path) {
    if (!out.empty()) out += '.';
    out += key;
  }
  return out;
}

class Comparer {
 public:
  Comparer(const JsonValue& baseline, const JsonValue& fresh, double tolerance,
           CompareReport& report)
      : baseline_(baseline), fresh_(fresh), tolerance_(tolerance),
        report_(report) {}

  void structure_failure(const std::string& name, const std::string& note) {
    MetricCheck check;
    check.name = name;
    check.status = CheckStatus::Structure;
    check.note = note;
    report_.checks.push_back(std::move(check));
  }

  // Reads the same numeric path from both documents; registers a
  // structure failure and returns false when either side lacks it.
  bool read_pair(const std::vector<std::string>& path, double& baseline_value,
                 double& fresh_value) {
    const JsonValue* b = find_path(baseline_, path);
    const JsonValue* f = find_path(fresh_, path);
    if (b == nullptr || f == nullptr ||
        b->kind != JsonValue::Kind::Number ||
        f->kind != JsonValue::Kind::Number) {
      structure_failure(join_path(path),
                        b == nullptr || b->kind != JsonValue::Kind::Number
                            ? "missing in baseline"
                            : "missing in fresh run");
      return false;
    }
    baseline_value = b->number_value;
    fresh_value = f->number_value;
    return true;
  }

  const JsonValue& baseline_;
  const JsonValue& fresh_;
  double tolerance_;
  CompareReport& report_;
};

// Cases are keyed by (name, n): the same kernel pair is measured at several
// problem sizes and each is its own trajectory.
std::string case_key(const JsonValue& v) {
  std::string key = v.at("name").string_value;
  if (v.has("n")) {
    key += "@n" +
           std::to_string(static_cast<long long>(v.at("n").number_value));
  }
  return key;
}

const JsonValue* find_case(Comparer& c, const JsonValue& fresh_cases,
                           const std::string& name) {
  for (const JsonValue& candidate : fresh_cases.items) {
    if (candidate.is_object() && candidate.has("name") &&
        case_key(candidate) == name) {
      return &candidate;
    }
  }
  c.structure_failure("cases." + name,
                      "case present in baseline, absent in fresh run");
  return nullptr;
}

void compare_kernels_v2(Comparer& c) {
  // Per-case numbers from different kernel ISAs are not comparable.
  const JsonValue* base_isa = find_path(c.baseline_, {"isa"});
  const JsonValue* fresh_isa = find_path(c.fresh_, {"isa"});
  if (base_isa == nullptr || fresh_isa == nullptr ||
      base_isa->string_value != fresh_isa->string_value) {
    c.structure_failure(
        "isa", "baseline and fresh run used different kernel ISAs — "
               "per-case numbers are not comparable");
    return;
  }
  const JsonValue* base_cases = find_path(c.baseline_, {"cases"});
  const JsonValue* fresh_cases = find_path(c.fresh_, {"cases"});
  if (base_cases == nullptr || !base_cases->is_array() ||
      fresh_cases == nullptr || !fresh_cases->is_array()) {
    c.structure_failure("cases", "missing cases array");
    return;
  }
  for (const JsonValue& base_case : base_cases->items) {
    if (!base_case.is_object() || !base_case.has("name")) continue;
    const std::string name = case_key(base_case);
    const JsonValue* fresh_case = find_case(c, *fresh_cases, name);
    if (fresh_case == nullptr) continue;
    // Per-case comparer rooted at the two case objects; its checks carry
    // the case-qualified name so the report stays readable.
    Comparer case_comparer(base_case, *fresh_case, c.tolerance_, c.report_);
    MetricCheck speedup;
    speedup.name = "cases." + name + ".speedup_mean";
    if (case_comparer.read_pair({"speedup_mean"}, speedup.baseline,
                                speedup.fresh)) {
      speedup.ratio =
          speedup.baseline > 0.0 ? speedup.fresh / speedup.baseline : 1.0;
      if (speedup.baseline > 0.0 &&
          speedup.fresh < speedup.baseline / c.tolerance_) {
        speedup.status = CheckStatus::Regressed;
        speedup.note = "speedup fell more than tolerance";
      }
      c.report_.checks.push_back(std::move(speedup));
    } else {
      c.report_.checks.back().name = std::move(speedup.name);
    }
    MetricCheck alloc;
    alloc.name = "cases." + name + ".workspace_after_loop.bytes_allocated_delta";
    if (case_comparer.read_pair({"workspace_after_loop",
                                 "bytes_allocated_delta"},
                                alloc.baseline, alloc.fresh)) {
      if (alloc.baseline == 0.0 && alloc.fresh != 0.0) {
        alloc.status = CheckStatus::Regressed;
        alloc.note = "zero-allocation invariant broken";
      }
      c.report_.checks.push_back(std::move(alloc));
    } else {
      c.report_.checks.back().name = std::move(alloc.name);
    }
  }
}

}  // namespace

bool CompareReport::ok() const {
  for (const MetricCheck& check : checks) {
    if (check.status != CheckStatus::Ok) return false;
  }
  return true;
}

std::size_t CompareReport::regressions() const {
  std::size_t n = 0;
  for (const MetricCheck& check : checks) {
    if (check.status == CheckStatus::Regressed) ++n;
  }
  return n;
}

std::size_t CompareReport::structure_failures() const {
  std::size_t n = 0;
  for (const MetricCheck& check : checks) {
    if (check.status == CheckStatus::Structure) ++n;
  }
  return n;
}

int CompareReport::exit_code() const {
  if (structure_failures() > 0) return 2;
  if (regressions() > 0) return 1;
  return 0;
}

CompareReport compare_bench_json(const JsonValue& baseline,
                                 const JsonValue& fresh, double tolerance) {
  CompareReport report;
  Comparer comparer(baseline, fresh, tolerance, report);
  if (!baseline.is_object() || !baseline.has("schema") ||
      !fresh.is_object() || !fresh.has("schema")) {
    comparer.structure_failure("schema", "missing schema field");
    return report;
  }
  const std::string& base_schema = baseline.at("schema").string_value;
  const std::string& fresh_schema = fresh.at("schema").string_value;
  if (base_schema != fresh_schema) {
    comparer.structure_failure(
        "schema", "schema drift: baseline " + base_schema + " vs fresh " +
                      fresh_schema);
    return report;
  }
  report.schema = base_schema;
  if (base_schema == "cfgx.bench.kernels.v2") {
    compare_kernels_v2(comparer);
  } else {
    comparer.structure_failure("schema", "unsupported schema " + base_schema);
  }
  return report;
}

void print_report(std::ostream& out, const CompareReport& report) {
  out << "schema: " << (report.schema.empty() ? "<none>" : report.schema)
      << "\n";
  for (const MetricCheck& check : report.checks) {
    const char* verdict = check.status == CheckStatus::Ok          ? "ok"
                          : check.status == CheckStatus::Regressed ? "REGRESSED"
                                                                   : "STRUCTURE";
    out << "  [" << verdict << "] " << check.name;
    if (check.status != CheckStatus::Structure) {
      out << ": baseline " << check.baseline << " fresh " << check.fresh;
      if (check.ratio != 0.0) {
        out << " (x" << std::setprecision(3) << check.ratio
            << std::setprecision(6) << ")";
      }
    }
    if (!check.note.empty()) out << " — " << check.note;
    out << "\n";
  }
  out << (report.ok() ? "PASS" : "FAIL") << ": " << report.checks.size()
      << " checks, " << report.regressions() << " regressions, "
      << report.structure_failures() << " structure failures\n";
}

}  // namespace cfgx::tools
