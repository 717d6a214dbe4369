#include "explain/evaluate.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "explain/baselines.hpp"
#include "gnn/trainer.hpp"
#include "graph/ops.hpp"
#include "support/dense_oracle.hpp"

namespace cfgx {
namespace {

class EvaluateFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CorpusConfig corpus_config;
    corpus_config.samples_per_family = 3;
    corpus_config.seed = 33;
    corpus_ = new Corpus(generate_corpus(corpus_config));
    split_ = new Split(stratified_split(*corpus_, 2.0 / 3.0, 2));

    GnnConfig gnn_config;
    gnn_config.gcn_dims = {12, 10};
    Rng rng(8);
    gnn_ = new GnnClassifier(gnn_config, rng);
    GnnTrainConfig config;
    config.epochs = 25;
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

  static Corpus* corpus_;
  static Split* split_;
  static GnnClassifier* gnn_;
};

Corpus* EvaluateFixture::corpus_ = nullptr;
Split* EvaluateFixture::split_ = nullptr;
GnnClassifier* EvaluateFixture::gnn_ = nullptr;

TEST_F(EvaluateFixture, CurvesCoverEveryFamilyInTheEvalSet) {
  RandomExplainer explainer(1);
  const auto eval =
      evaluate_explainer(explainer, *gnn_, *corpus_, split_->test);
  EXPECT_EQ(eval.per_family.size(), kFamilyCount);
  for (const FamilyCurve& curve : eval.per_family) {
    EXPECT_EQ(curve.fractions.size(), 10u);
    EXPECT_EQ(curve.accuracies.size(), 10u);
    EXPECT_EQ(curve.sample_count, 1u);  // 1 test graph per family here
  }
  EXPECT_EQ(eval.explain_time.count(), split_->test.size());
}

TEST_F(EvaluateFixture, AccuraciesAreProbabilities) {
  RandomExplainer explainer(2);
  const auto eval =
      evaluate_explainer(explainer, *gnn_, *corpus_, split_->test);
  for (const FamilyCurve& curve : eval.per_family) {
    for (double acc : curve.accuracies) {
      EXPECT_GE(acc, 0.0);
      EXPECT_LE(acc, 1.0);
    }
    EXPECT_GE(curve.auc, 0.0);
    EXPECT_LE(curve.auc, 1.0);
  }
  EXPECT_GE(eval.average_auc, 0.0);
  EXPECT_LE(eval.average_auc, 1.0);
}

TEST_F(EvaluateFixture, FullSubgraphMatchesFullGraphAccuracy) {
  // At 100% kept nodes the masked graph IS the original graph, so the
  // average accuracy at fraction 1.0 must equal full_graph_accuracy.
  RandomExplainer explainer(3);
  const auto eval =
      evaluate_explainer(explainer, *gnn_, *corpus_, split_->test);

  double per_family_full = 0.0;
  for (const FamilyCurve& curve : eval.per_family) {
    per_family_full += curve.accuracies.back();
  }
  per_family_full /= static_cast<double>(eval.per_family.size());

  const double full = full_graph_accuracy(*gnn_, *corpus_, split_->test);
  EXPECT_NEAR(per_family_full, full, 1e-9);
  EXPECT_NEAR(eval.average_accuracy_at(1.0), full, 1e-9);
}

TEST_F(EvaluateFixture, FidelityMinusIsConsistent) {
  RandomExplainer explainer(4);
  const auto eval =
      evaluate_explainer(explainer, *gnn_, *corpus_, split_->test);
  EXPECT_NEAR(eval.fidelity_minus(0.2),
              eval.average_accuracy_at(1.0) - eval.average_accuracy_at(0.2),
              1e-12);
}

TEST_F(EvaluateFixture, PlantMetricsAreBounded) {
  RandomExplainer explainer(5);
  const auto eval =
      evaluate_explainer(explainer, *gnn_, *corpus_, split_->test);
  EXPECT_GE(eval.plant_precision, 0.0);
  EXPECT_LE(eval.plant_precision, 1.0);
  EXPECT_GE(eval.plant_recall, 0.0);
  EXPECT_LE(eval.plant_recall, 1.0);
}

TEST_F(EvaluateFixture, BadStepSizeThrows) {
  RandomExplainer explainer(6);
  EvaluationConfig config;
  config.step_size_percent = 30;
  EXPECT_THROW(
      evaluate_explainer(explainer, *gnn_, *corpus_, split_->test, config),
      std::invalid_argument);
}

TEST_F(EvaluateFixture, EmptyEvalSetThrows) {
  RandomExplainer explainer(7);
  EXPECT_THROW(evaluate_explainer(explainer, *gnn_, *corpus_, {}),
               std::invalid_argument);
}

TEST_F(EvaluateFixture, CoarserStepGivesFewerGridPoints) {
  RandomExplainer explainer(8);
  EvaluationConfig config;
  config.step_size_percent = 25;
  const auto eval =
      evaluate_explainer(explainer, *gnn_, *corpus_, split_->test, config);
  for (const FamilyCurve& curve : eval.per_family) {
    EXPECT_EQ(curve.fractions.size(), 4u);
  }
}

TEST_F(EvaluateFixture, AccuracyAtPicksNearestGridPoint) {
  FamilyCurve curve;
  curve.fractions = {0.25, 0.5, 0.75, 1.0};
  curve.accuracies = {0.1, 0.2, 0.3, 0.4};
  EXPECT_DOUBLE_EQ(curve.accuracy_at(0.5), 0.2);
  EXPECT_DOUBLE_EQ(curve.accuracy_at(0.55), 0.2);
  EXPECT_DOUBLE_EQ(curve.accuracy_at(0.95), 0.4);
  // Both endpoints are valid requests (0 snaps to the smallest grid point).
  EXPECT_DOUBLE_EQ(curve.accuracy_at(0.0), 0.1);
  EXPECT_DOUBLE_EQ(curve.accuracy_at(1.0), 0.4);
}

TEST_F(EvaluateFixture, AccuracyAtEmptyCurveThrows) {
  const FamilyCurve curve;
  EXPECT_THROW(curve.accuracy_at(0.5), std::logic_error);
}

TEST_F(EvaluateFixture, AccuracyAtMisalignedCurveThrows) {
  FamilyCurve curve;
  curve.fractions = {0.5, 1.0};
  curve.accuracies = {0.2};
  EXPECT_THROW(curve.accuracy_at(0.5), std::logic_error);
}

TEST_F(EvaluateFixture, AccuracyAtOutOfRangeFractionThrows) {
  FamilyCurve curve;
  curve.fractions = {0.5, 1.0};
  curve.accuracies = {0.2, 0.4};
  EXPECT_THROW(curve.accuracy_at(-0.1), std::invalid_argument);
  EXPECT_THROW(curve.accuracy_at(1.1), std::invalid_argument);
  EXPECT_THROW(curve.accuracy_at(std::nan("")), std::invalid_argument);
}

TEST_F(EvaluateFixture, ComplementAccuracyMatchesManualComplementMasking) {
  // Drive one graph through evaluate_explainer and recompute the fidelity+
  // complement prediction by hand: accuracy over a singleton eval set is
  // exactly the 0/1 correctness of the complement-masked prediction.
  DegreeExplainer explainer;
  const std::vector<std::size_t> single = {split_->test.front()};
  const auto eval = evaluate_explainer(explainer, *gnn_, *corpus_, single);

  const Acfg& graph = corpus_->graph(single.front());
  const auto top20 = explainer.explain(graph).top_fraction(0.2);
  std::vector<char> in_top(graph.num_nodes(), 0);
  for (std::uint32_t v : top20) in_top[v] = 1;
  std::vector<std::uint32_t> complement;
  for (std::uint32_t v = 0; v < graph.num_nodes(); ++v) {
    if (!in_top[v]) complement.push_back(v);
  }
  const MaskedGraph masked =
      keep_only(dense_adjacency(graph), graph.features(), complement);
  const Prediction prediction =
      predict_masked(*gnn_, masked.adjacency, masked.features);
  const double expected =
      static_cast<int>(prediction.predicted_class) == graph.label() ? 1.0
                                                                    : 0.0;
  EXPECT_DOUBLE_EQ(eval.complement_accuracy_at_20, expected);
}

TEST_F(EvaluateFixture, ExplainerNameRecorded) {
  RandomExplainer explainer(9);
  const auto eval =
      evaluate_explainer(explainer, *gnn_, *corpus_, split_->test);
  EXPECT_EQ(eval.explainer_name, "Random");
}

TEST_F(EvaluateFixture, FullGraphAccuracyEmptySetIsZero) {
  EXPECT_DOUBLE_EQ(full_graph_accuracy(*gnn_, *corpus_, {}), 0.0);
}

TEST_F(EvaluateFixture, SparsityAtTwentyIsAroundPointEight) {
  RandomExplainer explainer(10);
  const auto eval =
      evaluate_explainer(explainer, *gnn_, *corpus_, split_->test);
  // top_fraction uses ceil, so sparsity is slightly below 0.8 on average.
  EXPECT_GT(eval.sparsity_at_20, 0.7);
  EXPECT_LT(eval.sparsity_at_20, 0.82);
}

TEST_F(EvaluateFixture, FidelityPlusBoundedAndConsistent) {
  RandomExplainer explainer(11);
  const auto eval =
      evaluate_explainer(explainer, *gnn_, *corpus_, split_->test);
  EXPECT_GE(eval.complement_accuracy_at_20, 0.0);
  EXPECT_LE(eval.complement_accuracy_at_20, 1.0);
  const double full = eval.average_accuracy_at(1.0);
  EXPECT_NEAR(eval.fidelity_plus(full),
              full - eval.complement_accuracy_at_20, 1e-12);
}

TEST_F(EvaluateFixture, FidelityPlusCanBeDisabled) {
  RandomExplainer explainer(12);
  EvaluationConfig config;
  config.measure_fidelity_plus = false;
  const auto eval =
      evaluate_explainer(explainer, *gnn_, *corpus_, split_->test, config);
  EXPECT_DOUBLE_EQ(eval.complement_accuracy_at_20, 0.0);
  // Sparsity is still measured (no extra GNN cost).
  EXPECT_GT(eval.sparsity_at_20, 0.0);
}

}  // namespace
}  // namespace cfgx
