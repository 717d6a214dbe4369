// Side-by-side comparison of all four explainers on a single malware
// sample: node rankings, agreement between methods, per-size retention of
// the GNN's prediction, and wall-clock cost — a miniature of the paper's
// quantitative evaluation for one graph.
//
// Run:  ./explainer_comparison [--family Rbot] [--samples 24]

#include <algorithm>
#include <cstdio>
#include <set>

#include "explain/baselines.hpp"
#include "explain/cfg_explainer.hpp"
#include "explain/gnnexplainer.hpp"
#include "explain/pgexplainer.hpp"
#include "explain/subgraphx.hpp"
#include "gnn/trainer.hpp"
#include "graph/ops.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace cfgx;

namespace {

double jaccard(const std::vector<std::uint32_t>& a,
               const std::vector<std::uint32_t>& b) {
  const std::set<std::uint32_t> sa(a.begin(), a.end());
  std::size_t shared = 0;
  for (std::uint32_t v : b) {
    if (sa.count(v)) ++shared;
  }
  const std::size_t unioned = sa.size() + b.size() - shared;
  return unioned == 0 ? 0.0 : static_cast<double>(shared) / unioned;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  set_default_log_level(LogLevel::Warn);

  const Family family = family_from_string(args.get_string("family", "Rbot"));

  CorpusConfig corpus_config;
  corpus_config.samples_per_family =
      static_cast<std::size_t>(args.get_int("samples", 24));
  const Corpus corpus = generate_corpus(corpus_config);
  const Split split = stratified_split(corpus, 0.75, 41);

  std::printf("training GNN + offline explainers...\n");
  Rng rng(7);
  GnnClassifier gnn(GnnConfig{}, rng);
  GnnTrainConfig gnn_config;
  gnn_config.epochs = 200;
  train_gnn(gnn, corpus, split.train, gnn_config);

  ExplainerTrainConfig cfg_train;
  cfg_train.epochs = static_cast<std::size_t>(args.get_int("exp-epochs", 2000));
  CfgExplainer cfg_explainer(gnn, cfg_train);
  cfg_explainer.fit(corpus, split.train);

  PgExplainerConfig pg_config;
  pg_config.epochs = 8;
  PgExplainer pg_explainer(gnn, pg_config);
  pg_explainer.fit(corpus, split.train);

  GnnExplainerConfig gx_config;
  gx_config.iterations = 80;
  GnnExplainer gnn_explainer(gnn, gx_config);

  SubgraphXConfig sx_config;
  sx_config.mcts_iterations = 30;
  SubgraphX subgraphx(gnn, sx_config);

  // Pick a test graph of the requested family.
  const Acfg* graph = nullptr;
  for (std::size_t index : split.test) {
    if (corpus.graph(index).label() == family_label(family)) {
      graph = &corpus.graph(index);
      break;
    }
  }
  if (graph == nullptr) {
    std::fprintf(stderr, "no test sample of family %s\n", to_string(family));
    return 1;
  }

  std::printf("\nsample: %s, %u nodes, %zu edges; GNN says %s\n\n",
              graph->family().c_str(), graph->num_nodes(), graph->num_edges(),
              to_string(family_from_label(static_cast<int>(
                  gnn.predict(*graph).predicted_class))));

  struct Entry {
    std::string name;
    NodeRanking ranking;
    double seconds;
  };
  std::vector<Entry> entries;
  const auto run = [&](Explainer& explainer) {
    Stopwatch watch;
    NodeRanking ranking = explainer.explain(*graph);
    entries.push_back({explainer.name(), std::move(ranking),
                       watch.elapsed_seconds()});
  };
  run(cfg_explainer);
  run(gnn_explainer);
  run(subgraphx);
  run(pg_explainer);

  // Per-size retention of the GNN's prediction.
  const auto truth = static_cast<int>(graph->label());
  TextTable retention({"size", entries[0].name, entries[1].name,
                       entries[2].name, entries[3].name},
                      std::vector<Align>(5, Align::Right));
  for (unsigned size = 10; size <= 100; size += 10) {
    std::vector<std::string> row{std::to_string(size) + "%"};
    for (const Entry& entry : entries) {
      const auto kept = entry.ranking.top_fraction(size / 100.0);
      const Prediction p = gnn.predict(masked_subgraph(*graph, kept));
      row.push_back(static_cast<int>(p.predicted_class) == truth ? "hit"
                                                                 : "miss");
    }
    retention.add_row(std::move(row));
  }
  std::printf("prediction retention by kept-node fraction:\n%s\n",
              retention.render().c_str());

  // Top-10 node agreement (Jaccard of the top-20% sets).
  std::printf("top-20%% subgraph agreement (Jaccard):\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      std::printf("  %-13s vs %-13s %.2f\n", entries[i].name.c_str(),
                  entries[j].name.c_str(),
                  jaccard(entries[i].ranking.top_fraction(0.2),
                          entries[j].ranking.top_fraction(0.2)));
    }
  }

  std::printf("\nwall-clock per explanation:\n");
  for (const Entry& entry : entries) {
    std::printf("  %-13s %.1f ms\n", entry.name.c_str(), entry.seconds * 1e3);
  }
  std::printf("\nplanted malicious nodes found in each top-20%% set "
              "(of %zu planted):\n",
              graph->planted_nodes().size());
  for (const Entry& entry : entries) {
    const auto top = entry.ranking.top_fraction(0.2);
    const std::set<std::uint32_t> kept(top.begin(), top.end());
    std::size_t hits = 0;
    for (std::uint32_t planted : graph->planted_nodes()) {
      if (kept.count(planted)) ++hits;
    }
    std::printf("  %-13s %zu\n", entry.name.c_str(), hits);
  }
  return 0;
}
