// Schema-aware bench-baseline differ (the library behind bench_compare).
//
// Compares a fresh bench JSON against a committed baseline and classifies
// every metric as ok / regressed, with a hard "structure" failure class
// for anything that makes the comparison meaningless (unknown or
// mismatched schema, a baseline case missing from the fresh run, ISA
// mismatch between kernels files). This is the CI gate that READS the
// committed BENCH_kernels.json instead of merely uploading it.
//
// Tolerance model: per-case speedups (vectorized vs scalar, blocked vs
// naive, measured on the same machine) are RATIO bands — a case regresses
// when fresh < baseline / tolerance. The zero-allocation invariant after a
// kernel loop is exact: noise cannot explain an allocation.
//
// Supported schema: cfgx.bench.kernels.v2 (bench/micro_kernels
// --kernels-baseline). Serving and graph-size performance is measured by
// cfgbench (BENCHMARK.json), and their exact invariants are ctests.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace cfgx::tools {

enum class CheckStatus { Ok, Regressed, Structure };

struct MetricCheck {
  std::string name;
  CheckStatus status = CheckStatus::Ok;
  double baseline = 0.0;
  double fresh = 0.0;
  // fresh/baseline for throughput-like, baseline-relative growth for
  // latency-like; 0 when not a ratio check.
  double ratio = 0.0;
  std::string note;
};

struct CompareReport {
  std::string schema;
  std::vector<MetricCheck> checks;

  bool ok() const;
  std::size_t regressions() const;
  std::size_t structure_failures() const;
  // 0 ok, 1 metric regression, 2 structure/schema drift.
  int exit_code() const;
};

// Both documents must carry the same supported "schema" field; anything
// else yields a report with a single Structure check. `tolerance` >= 1
// scales every ratio band (2.0 = fail only on >2x moves).
CompareReport compare_bench_json(const obs::JsonValue& baseline,
                                 const obs::JsonValue& fresh,
                                 double tolerance);

// Human-readable table of every check, one line each.
void print_report(std::ostream& out, const CompareReport& report);

}  // namespace cfgx::tools
