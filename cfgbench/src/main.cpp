// cfgbench: the repository benchmark.
//
//   cfgbench --workload NAME --seed N --seconds S --trace 0|1
//            [--short] [--corrupt] [--trace-out PATH]
//
// Workloads: serve-small, explain-paper, serve-paper-reduced (see
// cfgbench/README.md for why each exists and what it measures).
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a separate traced run and writes its spans as a Chrome trace to
// --trace-out. The last line of standard output is the result:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// The exit code is 0 only when every output was correct.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "support.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "cfgbench: %s\nusage: cfgbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--short] [--corrupt] "
               "[--trace-out PATH]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  cfgbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--short") {
      options.short_mode = true;
    } else if (arg == "--corrupt") {
      options.corrupt = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--trace-out") {
      options.trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  cfgbench::Report report;
  try {
    if (options.workload == "serve-small") {
      cfgbench::run_serve_small(options, report);
    } else if (options.workload == "explain-paper") {
      cfgbench::run_explain_paper(options, report);
    } else if (options.workload == "serve-paper-reduced") {
      cfgbench::run_serve_paper_reduced(options, report);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cfgbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }

  if (options.trace && !options.trace_out.empty() &&
      !cfgbench::SpanRecorder::global().write_chrome_trace(options.trace_out)) {
    std::fprintf(stderr, "cfgbench: cannot write %s\n",
                 options.trace_out.c_str());
    return 1;
  }
  return report.print(options);
}
