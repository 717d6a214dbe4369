// Contract and behaviour tests for all four explainers plus the trivial
// baselines, sharing one lightly-trained GNN fixture.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "explain/baselines.hpp"
#include "explain/cfg_explainer.hpp"
#include "explain/gnnexplainer.hpp"
#include "explain/pgexplainer.hpp"
#include "explain/subgraphx.hpp"
#include "gnn/trainer.hpp"

namespace cfgx {
namespace {

class ExplainerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CorpusConfig corpus_config;
    corpus_config.samples_per_family = 3;
    corpus_config.seed = 21;
    corpus_ = new Corpus(generate_corpus(corpus_config));
    split_ = new Split(stratified_split(*corpus_, 2.0 / 3.0, 9));

    GnnConfig gnn_config;
    gnn_config.gcn_dims = {12, 10};
    Rng rng(4);
    gnn_ = new GnnClassifier(gnn_config, rng);
    GnnTrainConfig config;
    config.epochs = 20;
    train_gnn(*gnn_, *corpus_, split_->train, config);
  }

  static void TearDownTestSuite() {
    delete corpus_;
    delete split_;
    delete gnn_;
    corpus_ = nullptr;
    split_ = nullptr;
    gnn_ = nullptr;
  }

  static const Acfg& sample_graph() { return corpus_->graph(split_->test[0]); }

  static void expect_valid_ranking(const NodeRanking& ranking,
                                   const Acfg& graph) {
    EXPECT_EQ(ranking.order.size(), graph.num_nodes());
    std::set<std::uint32_t> unique(ranking.order.begin(), ranking.order.end());
    EXPECT_EQ(unique.size(), graph.num_nodes());
    for (std::uint32_t v : ranking.order) EXPECT_LT(v, graph.num_nodes());
  }

  static Corpus* corpus_;
  static Split* split_;
  static GnnClassifier* gnn_;
};

Corpus* ExplainerFixture::corpus_ = nullptr;
Split* ExplainerFixture::split_ = nullptr;
GnnClassifier* ExplainerFixture::gnn_ = nullptr;

// ---------- CFGExplainer adapter ----------

TEST_F(ExplainerFixture, CfgExplainerRequiresFit) {
  CfgExplainer explainer(*gnn_);
  EXPECT_FALSE(explainer.fitted());
  EXPECT_THROW(explainer.explain(sample_graph()), std::logic_error);
}

TEST_F(ExplainerFixture, CfgExplainerProducesValidRanking) {
  ExplainerTrainConfig train_config;
  train_config.epochs = 40;
  CfgExplainer explainer(*gnn_, train_config);
  explainer.fit(*corpus_, split_->train);
  EXPECT_TRUE(explainer.fitted());
  EXPECT_GT(explainer.train_result().epoch_losses.size(), 0u);
  const NodeRanking ranking = explainer.explain(sample_graph());
  expect_valid_ranking(ranking, sample_graph());
}

TEST_F(ExplainerFixture, CfgExplainerInterpretExposesSubgraphs) {
  ExplainerTrainConfig train_config;
  train_config.epochs = 20;
  CfgExplainer explainer(*gnn_, train_config);
  explainer.fit(*corpus_, split_->train);
  const Interpretation interpretation = explainer.interpret(sample_graph());
  EXPECT_EQ(interpretation.subgraph_nodes.size(), 10u);
}

TEST_F(ExplainerFixture, CfgExplainerName) {
  CfgExplainer explainer(*gnn_);
  EXPECT_EQ(explainer.name(), "CFGExplainer");
}

// ---------- GNNExplainer ----------

TEST_F(ExplainerFixture, GnnExplainerProducesValidRanking) {
  GnnExplainerConfig config;
  config.iterations = 15;  // keep the test fast
  GnnExplainer explainer(*gnn_, config);
  const NodeRanking ranking = explainer.explain(sample_graph());
  expect_valid_ranking(ranking, sample_graph());
  EXPECT_EQ(explainer.last_edge_scores().size(), sample_graph().num_edges());
}

TEST_F(ExplainerFixture, GnnExplainerEdgeScoresAreProbabilities) {
  GnnExplainerConfig config;
  config.iterations = 10;
  GnnExplainer explainer(*gnn_, config);
  explainer.explain(sample_graph());
  for (double score : explainer.last_edge_scores()) {
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
}

TEST_F(ExplainerFixture, GnnExplainerIsDeterministic) {
  GnnExplainerConfig config;
  config.iterations = 10;
  GnnExplainer a(*gnn_, config), b(*gnn_, config);
  EXPECT_EQ(a.explain(sample_graph()).order, b.explain(sample_graph()).order);
}

TEST_F(ExplainerFixture, GnnExplainerHandlesEdgelessGraph) {
  Acfg isolated(4);
  isolated.set_label(0);
  GnnExplainer explainer(*gnn_);
  const NodeRanking ranking = explainer.explain(isolated);
  expect_valid_ranking(ranking, isolated);
}

TEST_F(ExplainerFixture, GnnExplainerSizeRegularizerShrinksMask) {
  // With a crushing size penalty the optimized gates must end lower than
  // with no penalty.
  GnnExplainerConfig open_config;
  open_config.iterations = 40;
  open_config.size_weight = 0.0;
  open_config.entropy_weight = 0.0;
  GnnExplainer open_mask(*gnn_, open_config);
  open_mask.explain(sample_graph());
  double open_mean = 0.0;
  for (double s : open_mask.last_edge_scores()) open_mean += s;
  open_mean /= static_cast<double>(open_mask.last_edge_scores().size());

  GnnExplainerConfig tight_config = open_config;
  tight_config.size_weight = 2.0;
  GnnExplainer tight_mask(*gnn_, tight_config);
  tight_mask.explain(sample_graph());
  double tight_mean = 0.0;
  for (double s : tight_mask.last_edge_scores()) tight_mean += s;
  tight_mean /= static_cast<double>(tight_mask.last_edge_scores().size());

  EXPECT_LT(tight_mean, open_mean);
}

// ---------- PGExplainer ----------

TEST_F(ExplainerFixture, PgExplainerRequiresFit) {
  PgExplainer explainer(*gnn_);
  EXPECT_FALSE(explainer.fitted());
  EXPECT_THROW(explainer.explain(sample_graph()), std::logic_error);
}

TEST_F(ExplainerFixture, PgExplainerProducesValidRanking) {
  PgExplainerConfig config;
  config.epochs = 3;
  PgExplainer explainer(*gnn_, config);
  explainer.fit(*corpus_, split_->train);
  EXPECT_TRUE(explainer.fitted());
  const NodeRanking ranking = explainer.explain(sample_graph());
  expect_valid_ranking(ranking, sample_graph());
}

TEST_F(ExplainerFixture, PgExplainerEdgeScoresAreProbabilities) {
  PgExplainerConfig config;
  config.epochs = 2;
  PgExplainer explainer(*gnn_, config);
  explainer.fit(*corpus_, split_->train);
  const auto scores = explainer.edge_scores(sample_graph());
  EXPECT_EQ(scores.size(), sample_graph().num_edges());
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(ExplainerFixture, PgExplainerExplainIsDeterministicAfterFit) {
  PgExplainerConfig config;
  config.epochs = 2;
  PgExplainer explainer(*gnn_, config);
  explainer.fit(*corpus_, split_->train);
  EXPECT_EQ(explainer.explain(sample_graph()).order,
            explainer.explain(sample_graph()).order);
}

// ---------- SubgraphX ----------

TEST_F(ExplainerFixture, SubgraphXProducesValidRanking) {
  SubgraphXConfig config;
  config.mcts_iterations = 5;
  config.shapley_samples = 2;
  SubgraphX explainer(*gnn_, config);
  const NodeRanking ranking = explainer.explain(sample_graph());
  expect_valid_ranking(ranking, sample_graph());
  EXPECT_GT(explainer.last_gnn_evaluations(), 10u);
}

TEST_F(ExplainerFixture, SubgraphXIsDeterministic) {
  SubgraphXConfig config;
  config.mcts_iterations = 4;
  config.shapley_samples = 2;
  SubgraphX a(*gnn_, config), b(*gnn_, config);
  EXPECT_EQ(a.explain(sample_graph()).order, b.explain(sample_graph()).order);
}

TEST_F(ExplainerFixture, SubgraphXEmptyGraphThrows) {
  SubgraphX explainer(*gnn_);
  EXPECT_THROW(explainer.explain(Acfg(0)), std::invalid_argument);
}

TEST_F(ExplainerFixture, SubgraphXConfigValidation) {
  SubgraphXConfig config;
  config.prune_fraction = 0.0;
  EXPECT_THROW(SubgraphX(*gnn_, config), std::invalid_argument);
}

TEST_F(ExplainerFixture, SubgraphXMoreIterationsMoreEvaluations) {
  SubgraphXConfig small_config;
  small_config.mcts_iterations = 3;
  small_config.shapley_samples = 2;
  SubgraphX small(*gnn_, small_config);
  small.explain(sample_graph());

  SubgraphXConfig big_config = small_config;
  big_config.mcts_iterations = 12;
  SubgraphX big(*gnn_, big_config);
  big.explain(sample_graph());

  EXPECT_GT(big.last_gnn_evaluations(), small.last_gnn_evaluations());
}


TEST_F(ExplainerFixture, GnnExplainerFeatureMaskProducesFeatureScores) {
  GnnExplainerConfig config;
  config.iterations = 20;
  config.learn_feature_mask = true;
  GnnExplainer explainer(*gnn_, config);
  const NodeRanking ranking = explainer.explain(sample_graph());
  expect_valid_ranking(ranking, sample_graph());
  const auto& feature_scores = explainer.last_feature_scores();
  ASSERT_EQ(feature_scores.size(), kAcfgFeatureCount);
  for (double s : feature_scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(ExplainerFixture, GnnExplainerFeatureMaskOffByDefault) {
  GnnExplainerConfig config;
  config.iterations = 5;
  GnnExplainer explainer(*gnn_, config);
  explainer.explain(sample_graph());
  EXPECT_TRUE(explainer.last_feature_scores().empty());
}

TEST_F(ExplainerFixture, GnnExplainerFeatureMaskDeterministic) {
  GnnExplainerConfig config;
  config.iterations = 10;
  config.learn_feature_mask = true;
  GnnExplainer a(*gnn_, config), b(*gnn_, config);
  a.explain(sample_graph());
  b.explain(sample_graph());
  EXPECT_EQ(a.last_feature_scores(), b.last_feature_scores());
}

// ---------- trivial baselines ----------

TEST_F(ExplainerFixture, RandomExplainerValidAndSeedStable) {
  RandomExplainer explainer(5);
  const NodeRanking a = explainer.explain(sample_graph());
  expect_valid_ranking(a, sample_graph());
  RandomExplainer again(5);
  EXPECT_EQ(a.order, again.explain(sample_graph()).order);
  RandomExplainer other(6);
  EXPECT_NE(a.order, other.explain(sample_graph()).order);
}

TEST_F(ExplainerFixture, DegreeExplainerRanksHubsFirst) {
  Acfg star(5);
  star.add_edge(0, 1, EdgeKind::Flow);
  star.add_edge(0, 2, EdgeKind::Flow);
  star.add_edge(0, 3, EdgeKind::Flow);
  star.add_edge(4, 0, EdgeKind::Call);
  star.set_label(0);
  DegreeExplainer explainer;
  const NodeRanking ranking = explainer.explain(star);
  EXPECT_EQ(ranking.order[0], 0u);  // hub has degree 4
}

TEST_F(ExplainerFixture, ExplainerNamesAreDistinct) {
  GnnExplainer gx(*gnn_);
  PgExplainer pg(*gnn_);
  SubgraphX sx(*gnn_);
  RandomExplainer rnd;
  DegreeExplainer deg;
  const std::set<std::string> names{gx.name(), pg.name(), sx.name(),
                                    rnd.name(), deg.name()};
  EXPECT_EQ(names.size(), 5u);
}

}  // namespace
}  // namespace cfgx
