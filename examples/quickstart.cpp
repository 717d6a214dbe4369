// Quickstart: the whole CFGExplainer pipeline in one file.
//
//   1. generate a small synthetic malware ACFG corpus (12 families)
//   2. train the GNN classifier Phi
//   3. train CFGExplainer's Theta = {Theta_s, Theta_c} (Algorithm 1)
//   4. interpret one malware graph (Algorithm 2) and print the top blocks
//
// Run:  ./quickstart [--samples 12] [--gnn-epochs 30] [--exp-epochs 120]

#include <cstdio>

#include "core/interpreter.hpp"
#include "core/trainer.hpp"
#include "dataset/corpus.hpp"
#include "gnn/trainer.hpp"
#include "graph/ops.hpp"
#include "isa/patterns.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

using namespace cfgx;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  set_default_log_level(LogLevel::Info);

  // 1. Corpus ---------------------------------------------------------
  CorpusConfig corpus_config;
  corpus_config.samples_per_family =
      static_cast<std::size_t>(args.get_int("samples", 12));
  corpus_config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2022));
  const Corpus corpus = generate_corpus(corpus_config);
  const Split split = stratified_split(corpus, 0.75, 41);
  std::printf("corpus: %zu graphs (%zu train / %zu test)\n", corpus.size(),
              split.train.size(), split.test.size());

  // 2. GNN classifier Phi ---------------------------------------------
  Rng rng(7);
  GnnClassifier gnn(GnnConfig{}, rng);
  GnnTrainConfig gnn_config;
  gnn_config.epochs = static_cast<std::size_t>(args.get_int("gnn-epochs", 30));
  const GnnTrainResult gnn_result = train_gnn(gnn, corpus, split.train, gnn_config);
  const double test_accuracy =
      evaluate_gnn(gnn, corpus, split.test).accuracy();
  std::printf("GNN: train accuracy %.3f, test accuracy %.3f\n",
              gnn_result.final_train_accuracy, test_accuracy);

  // 3. CFGExplainer initial learning stage (Algorithm 1) ---------------
  Rng theta_rng(21);
  ExplainerModelConfig model_config;
  model_config.embedding_dim = gnn.config().embedding_dim();
  model_config.num_classes = gnn.config().num_classes;
  ExplainerModel theta(model_config, theta_rng);

  ExplainerTrainConfig exp_config;
  exp_config.epochs = static_cast<std::size_t>(args.get_int("exp-epochs", 400));
  const ExplainerTrainResult exp_result =
      train_explainer(theta, gnn, corpus, split.train, exp_config);
  std::printf("CFGExplainer: final loss %.4f, surrogate fidelity %.3f\n",
              exp_result.epoch_losses.back(), exp_result.surrogate_fidelity);

  // 4. Interpret one malware graph (Algorithm 2) -----------------------
  const std::size_t target_index = split.test.front();
  const Acfg& graph = corpus.graph(target_index);
  Interpreter interpreter(theta, gnn);
  const Interpretation interpretation = interpreter.interpret(graph);

  std::printf("\nsample #%zu (%s): %u nodes, %zu edges\n", target_index,
              graph.family().c_str(), graph.num_nodes(), graph.num_edges());
  std::printf("most important blocks: ");
  for (std::size_t i = 0; i < 8 && i < interpretation.ordered_nodes.size(); ++i) {
    std::printf("%u ", interpretation.ordered_nodes[i]);
  }
  std::printf("\n");

  // How well does the top-20%% subgraph classify?
  const auto top20 = interpretation.subgraph_nodes.size() > 1
                         ? interpretation.subgraph_nodes[1]
                         : interpretation.subgraph_nodes[0];
  const Prediction pruned_prediction =
      gnn.predict(masked_subgraph(graph, top20));
  std::printf("top-20%% subgraph (%zu nodes) predicted as %s (true: %s)\n",
              top20.size(),
              to_string(family_from_label(
                  static_cast<int>(pruned_prediction.predicted_class))),
              graph.family().c_str());

  // Malware patterns inside the top-20%% blocks (Table V style).
  const GeneratedSample sample = regenerate_sample(corpus, target_index);
  const LiftedCfg cfg = lift_program(sample.program);
  const PatternReport report = analyze_blocks(cfg, top20);
  std::printf("patterns in top-20%% blocks:\n");
  for (const auto& [pattern, count] : report.pattern_counts) {
    std::printf("  %-26s x%zu   e.g. %s\n", to_string(pattern), count,
                report.examples.at(pattern).c_str());
  }
  return 0;
}
