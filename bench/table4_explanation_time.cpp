// Table IV: offline training time and mean +/- std wall-clock per single
// explanation for the four explainers.
//
// Absolute numbers are CPU-scale (the paper used a Xeon + P100 on graphs up
// to 7352 nodes); the reproduced *shape* is the ordering
// CFGExplainer < PGExplainer << GNNExplainer << SubgraphX and the fact that
// only CFGExplainer and PGExplainer pay an offline training phase.
#include <chrono>
#include <cstdio>

#include "common.hpp"
#include "graph/reduce.hpp"
#include "nn/simd.hpp"

using namespace cfgx;
using namespace cfgx::bench;

namespace {

// Phi inference wall-clock over the eval graphs at one precision. The
// manifest rows this feeds carry the active `simd_isa` config entry, so a
// scalar-forced run (--simd=scalar / CFGX_SIMD=scalar) is attributable
// next to the default-dispatch one.
DurationStats time_predictions(const GnnClassifier& gnn, BenchContext& ctx) {
  using clock = std::chrono::steady_clock;
  DurationStats stats;
  for (std::size_t index : ctx.eval_indices()) {
    const Acfg& graph = ctx.corpus().graph(index);
    const auto start = clock::now();
    const Prediction prediction = gnn.predict(graph);
    stats.add(std::chrono::duration<double>(clock::now() - start).count());
    (void)prediction;
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const BenchConfig config = BenchConfig::from_cli(args);
  RunReport report("table4_explanation_time", args, config);
  BenchContext ctx(config);

  std::vector<NamedEvaluation> evals;
  for (const std::string& name : BenchContext::paper_explainers()) {
    evals.push_back(ctx.evaluate(name));
  }

  std::printf("=== Table IV: explanation time ===\n");
  std::printf("(per-explanation stats over %zu graphs)\n\n",
              evals.front().evaluation.explain_time.count());

  TextTable table({"Explainer", "Offline Training Time",
                   "Avg Time per Explanation", "p95",
                   "Slowdown vs CFGExplainer"},
                  {Align::Left, Align::Right, Align::Right, Align::Right,
                   Align::Right});
  const double reference = evals.front().evaluation.explain_time.mean();
  for (const auto& eval : evals) {
    const DurationStats& stats = eval.evaluation.explain_time;
    std::string offline = eval.offline_training_seconds > 0.0
                              ? format_minutes(eval.offline_training_seconds)
                              : "-";
    const double p95 = stats.percentile(95.0);
    char p95_text[32];
    if (p95 >= 1.0) {
      std::snprintf(p95_text, sizeof p95_text, "%.2f s", p95);
    } else {
      std::snprintf(p95_text, sizeof p95_text, "%.2f ms", p95 * 1e3);
    }
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "x%.1f",
                  reference > 0 ? stats.mean() / reference : 0.0);
    table.add_row({eval.evaluation.explainer_name, std::move(offline),
                   stats.summary(), p95_text, ratio});

    report.add_timing("explain." + eval.evaluation.explainer_name, stats);
    if (eval.offline_training_seconds > 0.0) {
      report.add_result("offline_seconds." + eval.evaluation.explainer_name,
                        eval.offline_training_seconds);
    }
  }
  std::printf("%s\n", table.render().c_str());

  // Phi inference on the same eval set, recorded in the manifest with
  // per-ISA attribution (`simd_isa` + the timing).
  {
    const DurationStats stats = time_predictions(ctx.gnn(), ctx);
    report.add_timing("gnn_predict", stats);
    std::printf("Phi inference (%s kernels): %s per graph.\n",
                simd::isa_name(simd::dispatch()), stats.summary().c_str());
  }

  // Manifest attribution for paper-scale runs (`--nodes N`): alongside the
  // node_cap config entry, record how far the coarsener would shrink the
  // eval graphs — the reduce-then-explain speedup these timings leave on
  // the table (cfgbench's serve-paper-reduced workload measures it).
  {
    double ratio_sum = 0.0;
    std::size_t node_sum = 0;
    for (std::size_t index : ctx.eval_indices()) {
      const Acfg& graph = ctx.corpus().graph(index);
      ratio_sum += reduce_graph(graph).reduction_ratio();
      node_sum += graph.num_nodes();
    }
    const double count = static_cast<double>(ctx.eval_indices().size());
    report.add_result("eval.mean_nodes", static_cast<double>(node_sum) / count);
    report.add_result("eval.mean_reduction_ratio", ratio_sum / count);
  }

  std::printf("Paper (Table IV, 7352-node graphs, GPU): CFGExplainer 3.9 min,\n"
              "PGExplainer 6.4 min, GNNExplainer 42.8 min, SubgraphX 127.8 min\n"
              "per explanation; offline 2h11m (CFGX) and 2h46m (PGX).\n");
  return 0;
}
