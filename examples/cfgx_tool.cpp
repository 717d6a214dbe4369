// cfgx — command-line front end over the library's artifact formats.
//
//   cfgx generate --out corpus.bin [--samples 40] [--seed 2022]
//   cfgx train-gnn --corpus corpus.bin --out gnn.bin [--epochs 250]
//   cfgx train-explainer --corpus corpus.bin --gnn gnn.bin --out theta.bin
//   cfgx explain --corpus corpus.bin --gnn gnn.bin --theta theta.bin
//                --index 3 [--dot explanation.dot] [--step 10]
//   cfgx eval --corpus corpus.bin --gnn gnn.bin --theta theta.bin
//
// Every artifact is a self-describing binary file (magic + schema), so the
// steps can run in separate processes / on separate days — the workflow a
// malware-analysis team would actually operate.

#include <cstdio>
#include <string>

#include "core/interpreter.hpp"
#include "core/trainer.hpp"
#include "dataset/corpus.hpp"
#include "explain/evaluate.hpp"
#include "explain/cfg_explainer.hpp"
#include "explain/baselines.hpp"
#include "gnn/trainer.hpp"
#include "graph/dot.hpp"
#include "graph/ops.hpp"
#include "graph/serialize.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace cfgx;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cfgx <generate|train-gnn|train-explainer|explain|eval> "
               "[flags]\n"
               "  generate        --out F [--samples N] [--seed S]\n"
               "  train-gnn       --corpus F --out F [--epochs N]\n"
               "  train-explainer --corpus F --gnn F --out F [--epochs N]\n"
               "  explain         --corpus F --gnn F --theta F --index I\n"
               "                  [--dot F] [--step P] [--top-frac X]\n"
               "  eval            --corpus F --gnn F --theta F [--step P]\n");
  return 2;
}

std::string require_flag(const CliArgs& args, const std::string& name) {
  const std::string value = args.get_string(name, "");
  if (value.empty()) {
    throw std::invalid_argument("missing required flag --" + name);
  }
  return value;
}

// The corpus file stores only graphs; splits are re-derived from flags so
// that every stage agrees on them.
struct LoadedCorpus {
  Corpus corpus;
  Split split;
};

LoadedCorpus load_corpus(const CliArgs& args) {
  const std::string path = require_flag(args, "corpus");
  std::vector<Acfg> graphs = load_acfg_collection_file(path);
  // Seeds are unknown for a file loaded from disk; regeneration-dependent
  // features (Table V listings) are not available through the CLI.
  std::vector<std::uint64_t> seeds(graphs.size(), 0);
  CorpusConfig config;
  config.samples_per_family =
      graphs.empty() ? 0 : graphs.size() / kFamilyCount;
  Corpus corpus(std::move(graphs), std::move(seeds), config);
  Split split = stratified_split(
      corpus, args.get_double("train-fraction", 0.75),
      static_cast<std::uint64_t>(args.get_int("split-seed", 41)));
  return {std::move(corpus), std::move(split)};
}

int cmd_generate(const CliArgs& args) {
  CorpusConfig config;
  config.samples_per_family =
      static_cast<std::size_t>(args.get_int("samples", 40));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2022));
  const Corpus corpus = generate_corpus(config);
  const std::string out = require_flag(args, "out");
  save_acfg_collection_file(out, corpus.graphs());
  std::printf("wrote %zu graphs (%zu families) to %s\n", corpus.size(),
              kFamilyCount, out.c_str());
  return 0;
}

int cmd_train_gnn(const CliArgs& args) {
  const LoadedCorpus data = load_corpus(args);
  Rng rng(static_cast<std::uint64_t>(args.get_int("init-seed", 7)));
  GnnClassifier gnn(GnnConfig{}, rng);
  GnnTrainConfig config;
  config.epochs = static_cast<std::size_t>(args.get_int("epochs", 250));
  const auto result = train_gnn(gnn, data.corpus, data.split.train, config);
  const double test_accuracy =
      evaluate_gnn(gnn, data.corpus, data.split.test).accuracy();
  const std::string out = require_flag(args, "out");
  gnn.save_file(out);
  std::printf("GNN trained: train %.3f / test %.3f -> %s\n",
              result.final_train_accuracy, test_accuracy, out.c_str());
  return 0;
}

int cmd_train_explainer(const CliArgs& args) {
  const LoadedCorpus data = load_corpus(args);
  const GnnClassifier gnn =
      GnnClassifier::load_file(require_flag(args, "gnn"));
  Rng rng(static_cast<std::uint64_t>(args.get_int("init-seed", 99)));
  ExplainerModelConfig model_config;
  model_config.embedding_dim = gnn.config().embedding_dim();
  model_config.num_classes = gnn.config().num_classes;
  ExplainerModel theta(model_config, rng);
  ExplainerTrainConfig config;
  config.epochs = static_cast<std::size_t>(args.get_int("epochs", 3000));
  const auto result =
      train_explainer(theta, gnn, data.corpus, data.split.train, config);
  const std::string out = require_flag(args, "out");
  theta.save_file(out);
  std::printf("CFGExplainer trained: surrogate fidelity %.3f, best checkpoint "
              "epoch %zu (val retention %.3f) -> %s\n",
              result.surrogate_fidelity, result.best_checkpoint_epoch,
              result.best_validation_retention, out.c_str());
  return 0;
}

int cmd_explain(const CliArgs& args) {
  const LoadedCorpus data = load_corpus(args);
  const GnnClassifier gnn =
      GnnClassifier::load_file(require_flag(args, "gnn"));
  ExplainerModel theta =
      ExplainerModel::load_file(require_flag(args, "theta"));

  const auto index = static_cast<std::size_t>(args.get_int("index", 0));
  if (index >= data.corpus.size()) {
    std::fprintf(stderr, "--index out of range (corpus has %zu graphs)\n",
                 data.corpus.size());
    return 1;
  }
  const Acfg& graph = data.corpus.graph(index);

  const Prediction prediction = gnn.predict(graph);
  std::printf("graph #%zu (%s): GNN predicts %s (%.1f%%)\n", index,
              graph.family().c_str(),
              to_string(family_from_label(
                  static_cast<int>(prediction.predicted_class))),
              100.0 * prediction.confidence());

  Interpreter interpreter(theta, gnn);
  InterpretationConfig config;
  config.step_size_percent =
      static_cast<unsigned>(args.get_int("step", 10));
  const Interpretation result = interpreter.interpret(graph, config);

  const double top_fraction = args.get_double("top-frac", 0.2);
  const std::size_t k = nodes_for_fraction(graph.num_nodes(), top_fraction);
  std::printf("top %.0f%% nodes (most important first):", top_fraction * 100);
  for (std::size_t i = 0; i < k; ++i) {
    std::printf(" %u", result.ordered_nodes[i]);
  }
  std::printf("\n");

  const std::string dot_path = args.get_string("dot", "");
  if (!dot_path.empty()) {
    DotOptions options;
    options.highlighted_nodes.assign(
        result.ordered_nodes.begin(),
        result.ordered_nodes.begin() + static_cast<std::ptrdiff_t>(k));
    options.graph_name = "explanation_" + std::to_string(index);
    write_dot_file(dot_path, graph, options);
    std::printf("wrote highlighted CFG to %s (render with `dot -Tsvg`)\n",
                dot_path.c_str());
  }
  return 0;
}

int cmd_eval(const CliArgs& args) {
  const LoadedCorpus data = load_corpus(args);
  const GnnClassifier gnn =
      GnnClassifier::load_file(require_flag(args, "gnn"));

  ExplainerTrainConfig unused_train;
  CfgExplainer explainer(gnn, unused_train);
  explainer.load_model_file(require_flag(args, "theta"));

  EvaluationConfig config;
  config.step_size_percent =
      static_cast<unsigned>(args.get_int("step", 10));
  const auto eval = evaluate_explainer(explainer, gnn, data.corpus,
                                       data.split.test, config);
  RandomExplainer random(17);
  const auto baseline = evaluate_explainer(random, gnn, data.corpus,
                                           data.split.test, config);

  TextTable table({"metric", "CFGExplainer", "Random"},
                  {Align::Left, Align::Right, Align::Right});
  table.add_row({"AUC", format_fixed(eval.average_auc),
                 format_fixed(baseline.average_auc)});
  table.add_row({"Acc@10%", format_fixed(eval.average_accuracy_at(0.1)),
                 format_fixed(baseline.average_accuracy_at(0.1))});
  table.add_row({"Acc@20%", format_fixed(eval.average_accuracy_at(0.2)),
                 format_fixed(baseline.average_accuracy_at(0.2))});
  table.add_row({"plant recall", format_fixed(eval.plant_recall),
                 format_fixed(baseline.plant_recall)});
  table.add_row({"time/explanation", eval.explain_time.summary(),
                 baseline.explain_time.summary()});
  std::printf("%s", table.render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_default_log_level(LogLevel::Warn);
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const CliArgs args(argc - 1, argv + 1);
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "train-gnn") return cmd_train_gnn(args);
    if (command == "train-explainer") return cmd_train_explainer(args);
    if (command == "explain") return cmd_explain(args);
    if (command == "eval") return cmd_eval(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cfgx %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  return usage();
}
