// Ablation: where does CFGExplainer's signal come from?
//
//   * CFGExplainer        — full method (score sparsity + checkpoint selection)
//   * CFGX-NoSparsity     — Algorithm 1 exactly as printed (no L1 on Psi)
//   * CFGX-NoValidation   — sparsity but last-epoch weights (no selection)
//   * Degree              — keep the highest-degree blocks
//   * Random              — seeded random ordering
//
// Reports AUC, top-10%/20% accuracy and plant recovery for each variant.
#include <cstdio>

#include "common.hpp"

using namespace cfgx;
using namespace cfgx::bench;

namespace {

ExplainerEvaluation evaluate_variant(BenchContext& ctx, Explainer& explainer) {
  EvaluationConfig config;
  config.step_size_percent = ctx.config().step_size_percent;
  return evaluate_explainer(explainer, ctx.gnn(), ctx.corpus(),
                            ctx.eval_indices(), config);
}

CfgExplainer make_variant(BenchContext& ctx, double sparsity,
                          double validation_fraction) {
  ExplainerTrainConfig train_config;
  train_config.epochs = ctx.config().explainer_epochs;
  train_config.score_sparsity_weight = sparsity;
  train_config.validation_fraction = validation_fraction;
  CfgExplainer variant(ctx.gnn(), train_config);
  variant.fit(ctx.corpus(), ctx.split().train);
  return variant;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const BenchConfig bench_config = BenchConfig::from_cli(args);
  RunReport report("ablation_scoring", args, bench_config);
  BenchContext ctx(bench_config);

  std::printf("=== Ablation: scoring components of CFGExplainer ===\n\n");

  std::vector<std::pair<std::string, ExplainerEvaluation>> results;

  results.emplace_back("CFGExplainer (full)",
                       ctx.evaluate("CFGExplainer").evaluation);

  std::fprintf(stderr, "[bench] training no-sparsity variant...\n");
  CfgExplainer no_sparsity = make_variant(ctx, 0.0, 0.15);
  results.emplace_back("CFGX-NoSparsity", evaluate_variant(ctx, no_sparsity));

  std::fprintf(stderr, "[bench] training no-validation variant...\n");
  CfgExplainer no_validation =
      make_variant(ctx, ctx.config().score_sparsity, 0.0);
  results.emplace_back("CFGX-NoValidation", evaluate_variant(ctx, no_validation));

  DegreeExplainer degree;
  results.emplace_back("Degree", evaluate_variant(ctx, degree));
  RandomExplainer random(17);
  results.emplace_back("Random", evaluate_variant(ctx, random));

  TextTable table({"Variant", "AUC", "Acc@10%", "Acc@20%", "Plant precision",
                   "Plant recall"},
                  {Align::Left, Align::Right, Align::Right, Align::Right,
                   Align::Right, Align::Right});
  for (const auto& [name, eval] : results) {
    table.add_row({name, format_fixed(eval.average_auc),
                   format_fixed(eval.average_accuracy_at(0.1)),
                   format_fixed(eval.average_accuracy_at(0.2)),
                   format_fixed(eval.plant_precision),
                   format_fixed(eval.plant_recall)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "Reading: the full method should dominate; dropping the sparsity\n"
      "penalty lets Psi saturate at 1 (arbitrary top-of-ranking), and\n"
      "dropping checkpoint selection exposes late-training co-adaptation.\n");
  return 0;
}
