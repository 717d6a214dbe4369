// bench_compare: gate a fresh bench JSON against a committed baseline.
//
//   bench_compare --baseline BENCH_kernels.json --fresh BENCH_kernels_ci.json
//                 --tolerance 2.0
//
// Exit codes: 0 all checks within tolerance, 1 at least one metric
// regression, 2 structure failure (schema drift, missing case, ISA
// mismatch) or unreadable input. CI runs this against the committed
// kernels baseline after regenerating the JSON on the runner.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "tools/compare.hpp"
#include "util/cli.hpp"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  cfgx::CliArgs args(argc, argv);
  const std::string baseline_path = args.get_string("baseline", "");
  const std::string fresh_path = args.get_string("fresh", "");
  const double tolerance = args.get_double("tolerance", 2.0);
  if (baseline_path.empty() || fresh_path.empty() || tolerance < 1.0) {
    std::cerr << "usage: bench_compare --baseline FILE --fresh FILE"
                 " [--tolerance RATIO>=1]\n";
    return 2;
  }

  std::string baseline_text;
  std::string fresh_text;
  if (!read_file(baseline_path, baseline_text)) {
    std::cerr << "bench_compare: cannot read baseline " << baseline_path
              << "\n";
    return 2;
  }
  if (!read_file(fresh_path, fresh_text)) {
    std::cerr << "bench_compare: cannot read fresh " << fresh_path << "\n";
    return 2;
  }

  cfgx::obs::JsonValue baseline;
  cfgx::obs::JsonValue fresh;
  try {
    baseline = cfgx::obs::JsonValue::parse(baseline_text);
    fresh = cfgx::obs::JsonValue::parse(fresh_text);
  } catch (const std::exception& e) {
    std::cerr << "bench_compare: JSON parse failure: " << e.what() << "\n";
    return 2;
  }

  const cfgx::tools::CompareReport report =
      cfgx::tools::compare_bench_json(baseline, fresh, tolerance);
  std::cout << "baseline: " << baseline_path << "\nfresh:    " << fresh_path
            << "\ntolerance: " << tolerance << "x\n";
  cfgx::tools::print_report(std::cout, report);
  return report.exit_code();
}
