// Ablation: sensitivity of CFGExplainer's interpretation stage to the user
// step size (Section IV discusses the trade-off: large steps -> coarse
// subgraphs, small steps -> more GNN re-embeddings per explanation).
#include <cstdio>

#include "common.hpp"
#include "core/interpreter.hpp"
#include "graph/ops.hpp"

using namespace cfgx;
using namespace cfgx::bench;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const BenchConfig bench_config = BenchConfig::from_cli(args);
  RunReport report("ablation_step_size", args, bench_config);
  BenchContext ctx(bench_config);

  CfgExplainer& explainer = ctx.cfg_explainer();
  const GnnClassifier& gnn = ctx.gnn();
  const Corpus& corpus = ctx.corpus();

  std::printf("=== Ablation: interpretation step size ===\n\n");

  TextTable table({"step size", "pruning iterations", "Acc@20%",
                   "AUC (own grid)", "time / explanation"},
                  {Align::Right, Align::Right, Align::Right, Align::Right,
                   Align::Right});

  for (unsigned step : {5u, 10u, 20u, 25u, 50u}) {
    Interpreter interpreter(explainer.model(), gnn);
    InterpretationConfig config;
    config.step_size_percent = step;

    DurationStats timing;
    std::vector<double> fractions;
    for (unsigned f = step; f <= 100; f += step) {
      fractions.push_back(static_cast<double>(f) / 100.0);
    }
    std::vector<double> correct(fractions.size(), 0.0);
    double acc20 = 0.0;
    std::size_t samples = 0;

    for (std::size_t index : ctx.eval_indices()) {
      const Acfg& graph = corpus.graph(index);
      Stopwatch watch;
      const Interpretation result = interpreter.interpret(graph, config);
      timing.add(watch.elapsed_seconds());
      ++samples;

      for (std::size_t g = 0; g < fractions.size(); ++g) {
        const std::size_t k =
            nodes_for_fraction(graph.num_nodes(), fractions[g]);
        std::vector<std::uint32_t> kept(
            result.ordered_nodes.begin(),
            result.ordered_nodes.begin() + static_cast<std::ptrdiff_t>(k));
        const Prediction prediction = gnn.predict(masked_subgraph(graph, kept));
        if (static_cast<int>(prediction.predicted_class) == graph.label()) {
          correct[g] += 1.0;
        }
      }
      const std::size_t k20 = nodes_for_fraction(graph.num_nodes(), 0.2);
      std::vector<std::uint32_t> kept20(
          result.ordered_nodes.begin(),
          result.ordered_nodes.begin() + static_cast<std::ptrdiff_t>(k20));
      if (static_cast<int>(
              gnn.predict(masked_subgraph(graph, kept20)).predicted_class) ==
          graph.label()) {
        acc20 += 1.0;
      }
    }

    for (double& c : correct) c /= static_cast<double>(samples);
    acc20 /= static_cast<double>(samples);
    const double auc = curve_auc(fractions, correct);

    table.add_row({std::to_string(step) + "%", std::to_string(100 / step),
                   format_fixed(acc20, 3), format_fixed(auc, 3),
                   timing.summary()});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: smaller steps re-score more often (higher cost, finer\n"
      "ordering); very large steps prune half the graph on stale scores.\n");
  return 0;
}
