#include "tools/compare.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace cfgx::tools {
namespace {

using obs::JsonValue;

const char* kKernelsBaseline = R"({
  "schema": "cfgx.bench.kernels.v2",
  "isa": "avx2",
  "cases": [
    {"name": "matmul", "n": 64, "speedup_mean": 3.0,
     "workspace_after_loop": {"bytes_allocated_delta": 0}},
    {"name": "matmul", "n": 128, "speedup_mean": 3.5,
     "workspace_after_loop": {"bytes_allocated_delta": 0}}
  ]
})";

JsonValue parse(const std::string& text) { return JsonValue::parse(text); }

TEST(BenchCompareTest, SchemaDriftIsAStructureFailure) {
  JsonValue fresh = parse(kKernelsBaseline);
  fresh.members["schema"].string_value = "cfgx.bench.kernels.v3";
  const CompareReport report =
      compare_bench_json(parse(kKernelsBaseline), fresh, 2.0);
  EXPECT_EQ(report.exit_code(), 2);
  EXPECT_EQ(report.structure_failures(), 1u);

  JsonValue no_schema = parse(kKernelsBaseline);
  no_schema.members.erase("schema");
  EXPECT_EQ(compare_bench_json(parse(kKernelsBaseline), no_schema, 2.0)
                .exit_code(),
            2);
  EXPECT_EQ(
      compare_bench_json(parse(R"({"schema": "cfgx.bench.unknown.v9"})"),
                         parse(R"({"schema": "cfgx.bench.unknown.v9"})"), 2.0)
          .exit_code(),
      2);
}

TEST(BenchCompareTest, MissingMetricIsAStructureFailure) {
  JsonValue fresh = parse(kKernelsBaseline);
  fresh.members["cases"].items[0].members.erase("speedup_mean");
  EXPECT_EQ(compare_bench_json(parse(kKernelsBaseline), fresh, 2.0)
                .exit_code(),
            2);
}

TEST(BenchCompareTest, KernelCasesMatchByNameAndSize) {
  const JsonValue baseline = parse(kKernelsBaseline);
  EXPECT_EQ(compare_bench_json(baseline, baseline, 2.0).exit_code(), 0);

  // Slowing ONLY the n=128 case past tolerance trips exactly one check.
  JsonValue fresh = parse(kKernelsBaseline);
  fresh.members["cases"].items[1].members["speedup_mean"].number_value = 1.0;
  const CompareReport report = compare_bench_json(baseline, fresh, 2.0);
  EXPECT_EQ(report.exit_code(), 1);
  EXPECT_EQ(report.regressions(), 1u);
  bool found = false;
  for (const MetricCheck& check : report.checks) {
    if (check.status == CheckStatus::Regressed) {
      EXPECT_EQ(check.name, "cases.matmul@n128.speedup_mean");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchCompareTest, MissingKernelCaseIsAStructureFailure) {
  JsonValue fresh = parse(kKernelsBaseline);
  fresh.members["cases"].items.pop_back();
  EXPECT_EQ(compare_bench_json(parse(kKernelsBaseline), fresh, 2.0)
                .exit_code(),
            2);
}

TEST(BenchCompareTest, IsaMismatchIsAStructureFailure) {
  JsonValue fresh = parse(kKernelsBaseline);
  fresh.members["isa"].string_value = "scalar";
  const CompareReport report =
      compare_bench_json(parse(kKernelsBaseline), fresh, 2.0);
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(BenchCompareTest, KernelZeroAllocInvariantIsExact) {
  JsonValue fresh = parse(kKernelsBaseline);
  fresh.members["cases"]
      .items[0]
      .members["workspace_after_loop"]
      .members["bytes_allocated_delta"]
      .number_value = 1024.0;
  EXPECT_EQ(compare_bench_json(parse(kKernelsBaseline), fresh, 100.0)
                .exit_code(),
            1);
}

TEST(BenchCompareTest, StructureOutranksRegressionInExitCode) {
  JsonValue fresh = parse(kKernelsBaseline);
  JsonValue& first = fresh.members["cases"].items[0];
  first.members["speedup_mean"].number_value = 1.0;  // regression
  first.members.erase("workspace_after_loop");       // structure
  const CompareReport report =
      compare_bench_json(parse(kKernelsBaseline), fresh, 2.0);
  EXPECT_GE(report.regressions(), 1u);
  EXPECT_GE(report.structure_failures(), 1u);
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(BenchCompareTest, PrintReportListsEveryCheck) {
  const JsonValue doc = parse(kKernelsBaseline);
  const CompareReport report = compare_bench_json(doc, doc, 2.0);
  EXPECT_TRUE(report.ok());
  // Two checks per case: the speedup band and the zero-allocation delta.
  EXPECT_EQ(report.checks.size(), 4u);
  std::ostringstream out;
  print_report(out, report);
  const std::string text = out.str();
  EXPECT_NE(text.find("schema: cfgx.bench.kernels.v2"), std::string::npos);
  EXPECT_NE(text.find("cases.matmul@n64.speedup_mean"), std::string::npos);
  EXPECT_NE(
      text.find("cases.matmul@n128.workspace_after_loop.bytes_allocated_delta"),
      std::string::npos);
  EXPECT_NE(text.find("PASS"), std::string::npos);
}

}  // namespace
}  // namespace cfgx::tools
