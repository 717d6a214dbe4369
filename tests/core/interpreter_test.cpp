// Tests for the interpretation stage (Algorithm 2).
#include "core/interpreter.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include <set>

#include "dataset/generator.hpp"
#include "graph/ops.hpp"
#include "support/dense_oracle.hpp"

namespace cfgx {
namespace {

// The interpreter only needs *a* GNN and *a* scorer; untrained instances
// exercise every algorithmic invariant.
class InterpreterTest : public ::testing::Test {
 protected:
  InterpreterTest()
      : rng_(42),
        gnn_([this] {
          GnnConfig config;
          config.gcn_dims = {10, 8};
          return GnnClassifier(config, rng_);
        }()),
        model_([this] {
          ExplainerModelConfig config;
          config.embedding_dim = 8;
          config.num_classes = kFamilyCount;
          return ExplainerModel(config, rng_);
        }()),
        graph_(generate_acfg(Family::Rbot, rng_)) {}

  Rng rng_;
  GnnClassifier gnn_;
  ExplainerModel model_;
  Acfg graph_;
};

TEST_F(InterpreterTest, OrderingIsAPermutationOfAllNodes) {
  Interpreter interpreter(model_, gnn_);
  const Interpretation result = interpreter.interpret(graph_);
  EXPECT_EQ(result.ordered_nodes.size(), graph_.num_nodes());
  std::set<std::uint32_t> unique(result.ordered_nodes.begin(),
                                 result.ordered_nodes.end());
  EXPECT_EQ(unique.size(), graph_.num_nodes());
}

TEST_F(InterpreterTest, SubgraphCountMatchesStepSize) {
  Interpreter interpreter(model_, gnn_);
  InterpretationConfig config;
  config.step_size_percent = 10;
  const Interpretation result = interpreter.interpret(graph_, config);
  EXPECT_EQ(result.subgraph_nodes.size(), 10u);
}

TEST_F(InterpreterTest, SubgraphSizesFollowTheGrid) {
  Interpreter interpreter(model_, gnn_);
  const Interpretation result = interpreter.interpret(graph_);
  const double n = graph_.num_nodes();
  for (std::size_t k = 0; k < result.subgraph_nodes.size(); ++k) {
    const double expected = std::round(n * static_cast<double>(k + 1) / 10.0);
    EXPECT_NEAR(static_cast<double>(result.subgraph_nodes[k].size()), expected,
                1.0)
        << "subgraph " << k;
  }
  // The last snapshot is the full graph.
  EXPECT_EQ(result.subgraph_nodes.back().size(), graph_.num_nodes());
}

TEST_F(InterpreterTest, SubgraphsAreNested) {
  Interpreter interpreter(model_, gnn_);
  const Interpretation result = interpreter.interpret(graph_);
  for (std::size_t k = 1; k < result.subgraph_nodes.size(); ++k) {
    std::set<std::uint32_t> larger(result.subgraph_nodes[k].begin(),
                                   result.subgraph_nodes[k].end());
    for (std::uint32_t v : result.subgraph_nodes[k - 1]) {
      EXPECT_TRUE(larger.count(v)) << "node " << v << " lost at level " << k;
    }
  }
}

TEST_F(InterpreterTest, SmallestSubgraphIsPrefixOfOrdering) {
  Interpreter interpreter(model_, gnn_);
  const Interpretation result = interpreter.interpret(graph_);
  const auto& smallest = result.subgraph_nodes.front();
  std::set<std::uint32_t> prefix(
      result.ordered_nodes.begin(),
      result.ordered_nodes.begin() +
          static_cast<std::ptrdiff_t>(smallest.size()));
  for (std::uint32_t v : smallest) {
    EXPECT_TRUE(prefix.count(v));
  }
}

TEST_F(InterpreterTest, SubgraphNodeSetsMaskTheRest) {
  // Rebuilding a retained subgraph from its node set leaves every dropped
  // node without edges and features (Algorithm 2 lines 17-18).
  Interpreter interpreter(model_, gnn_);
  const Interpretation result = interpreter.interpret(graph_);
  for (std::size_t k = 0; k < result.subgraph_nodes.size(); ++k) {
    const MaskedGraph masked = keep_only(dense_adjacency(graph_),
                                         graph_.features(),
                                         result.subgraph_nodes[k]);
    const Acfg sub = masked_subgraph(graph_, result.subgraph_nodes[k]);
    EXPECT_EQ(dense_adjacency(sub), masked.adjacency) << "level " << k;
    EXPECT_EQ(sub.features(), masked.features) << "level " << k;
    std::set<std::uint32_t> kept(result.subgraph_nodes[k].begin(),
                                 result.subgraph_nodes[k].end());
    for (std::uint32_t v = 0; v < graph_.num_nodes(); ++v) {
      if (!kept.count(v)) {
        EXPECT_TRUE(node_is_masked(masked.adjacency, v))
            << "level " << k << " node " << v << " should be masked";
      }
    }
  }
}

TEST_F(InterpreterTest, StepSizeValidation) {
  Interpreter interpreter(model_, gnn_);
  InterpretationConfig config;
  config.step_size_percent = 0;
  EXPECT_THROW(interpreter.interpret(graph_, config), std::invalid_argument);
  config.step_size_percent = 30;  // does not divide 100
  EXPECT_THROW(interpreter.interpret(graph_, config), std::invalid_argument);
  config.step_size_percent = 101;
  EXPECT_THROW(interpreter.interpret(graph_, config), std::invalid_argument);
}

TEST_F(InterpreterTest, EmptyGraphThrows) {
  Interpreter interpreter(model_, gnn_);
  EXPECT_THROW(interpreter.interpret(Acfg(0)), std::invalid_argument);
}

TEST_F(InterpreterTest, SingleNodeGraph) {
  Acfg one(1);
  one.set_label(0);
  Interpreter interpreter(model_, gnn_);
  const Interpretation result = interpreter.interpret(one);
  ASSERT_EQ(result.ordered_nodes.size(), 1u);
  EXPECT_EQ(result.ordered_nodes[0], 0u);
  EXPECT_EQ(result.subgraph_nodes.back().size(), 1u);
}

TEST_F(InterpreterTest, DeterministicAcrossCalls) {
  Interpreter interpreter(model_, gnn_);
  const Interpretation a = interpreter.interpret(graph_);
  const Interpretation b = interpreter.interpret(graph_);
  EXPECT_EQ(a.ordered_nodes, b.ordered_nodes);
}

class InterpreterStepSize : public ::testing::TestWithParam<unsigned> {};

TEST_P(InterpreterStepSize, GridSizesForEveryDivisorStep) {
  Rng rng(7);
  GnnConfig gnn_config;
  gnn_config.gcn_dims = {8, 6};
  GnnClassifier gnn(gnn_config, rng);
  ExplainerModelConfig model_config;
  model_config.embedding_dim = 6;
  model_config.num_classes = kFamilyCount;
  ExplainerModel model(model_config, rng);
  const Acfg graph = generate_acfg(Family::Zbot, rng);

  Interpreter interpreter(model, gnn);
  InterpretationConfig config;
  config.step_size_percent = GetParam();
  const Interpretation result = interpreter.interpret(graph, config);
  EXPECT_EQ(result.subgraph_nodes.size(), 100u / GetParam());
  EXPECT_EQ(result.ordered_nodes.size(), graph.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(Steps, InterpreterStepSize,
                         ::testing::Values(5u, 10u, 20u, 25u, 50u, 100u));

TEST(InterpreterReadouts, WorksWithSortPoolClassifier) {
  // CFGExplainer's interpretation must function unchanged under the
  // DGCNN-style SortPool readout (model-agnosticism at the unit level).
  Rng rng(91);
  GnnConfig gnn_config;
  gnn_config.gcn_dims = {10, 8};
  gnn_config.readout = ReadoutKind::SortPool;
  gnn_config.sortpool_k = 6;
  GnnClassifier gnn(gnn_config, rng);
  ExplainerModelConfig model_config;
  model_config.embedding_dim = 8;
  model_config.num_classes = kFamilyCount;
  ExplainerModel theta(model_config, rng);
  const Acfg graph = generate_acfg(Family::Swizzor, rng);

  Interpreter interpreter(theta, gnn);
  const Interpretation result = interpreter.interpret(graph);
  EXPECT_EQ(result.ordered_nodes.size(), graph.num_nodes());
  std::set<std::uint32_t> unique(result.ordered_nodes.begin(),
                                 result.ordered_nodes.end());
  EXPECT_EQ(unique.size(), graph.num_nodes());
}

}  // namespace
}  // namespace cfgx
