#include "graph/acfg.hpp"
#include "support/dense_oracle.hpp"

#include <gtest/gtest.h>

namespace cfgx {
namespace {

TEST(AcfgTest, ConstructionInitializesFeatures) {
  Acfg graph(5);
  EXPECT_EQ(graph.num_nodes(), 5u);
  EXPECT_EQ(graph.num_edges(), 0u);
  EXPECT_EQ(graph.feature_count(), kAcfgFeatureCount);
  EXPECT_DOUBLE_EQ(graph.features().sum(), 0.0);
}

TEST(AcfgTest, AddEdgeAndQuery) {
  Acfg graph(3);
  graph.add_edge(0, 1, EdgeKind::Flow);
  graph.add_edge(1, 2, EdgeKind::Call);
  EXPECT_EQ(graph.num_edges(), 2u);
  EXPECT_TRUE(graph.has_edge(0, 1));
  EXPECT_TRUE(graph.has_edge(1, 2));
  EXPECT_FALSE(graph.has_edge(2, 0));
}

TEST(AcfgTest, EdgeOutOfRangeThrows) {
  Acfg graph(2);
  EXPECT_THROW(graph.add_edge(0, 2, EdgeKind::Flow), std::out_of_range);
  EXPECT_THROW(graph.add_edge(5, 0, EdgeKind::Flow), std::out_of_range);
}

TEST(AcfgTest, DuplicateEdgeThrows) {
  Acfg graph(2);
  graph.add_edge(0, 1, EdgeKind::Flow);
  EXPECT_THROW(graph.add_edge(0, 1, EdgeKind::Flow), std::invalid_argument);
  // A different kind between the same endpoints is allowed.
  EXPECT_NO_THROW(graph.add_edge(0, 1, EdgeKind::Call));
}

TEST(AcfgTest, EdgeWeightsMatchPaper) {
  EXPECT_DOUBLE_EQ((Edge{0, 1, EdgeKind::Flow}.weight()), 1.0);
  EXPECT_DOUBLE_EQ((Edge{0, 1, EdgeKind::Call}.weight()), 2.0);
}

TEST(AcfgTest, DenseAdjacencyWeights) {
  Acfg graph(3);
  graph.add_edge(0, 1, EdgeKind::Flow);
  graph.add_edge(1, 2, EdgeKind::Call);
  const Matrix a = dense_adjacency(graph);
  EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.0);
}

TEST(AcfgTest, CallDominatesFlowInDenseAdjacency) {
  Acfg graph(2);
  graph.add_edge(0, 1, EdgeKind::Flow);
  graph.add_edge(0, 1, EdgeKind::Call);
  EXPECT_DOUBLE_EQ(dense_adjacency(graph)(0, 1), 2.0);
}

TEST(AcfgTest, Degrees) {
  Acfg graph(4);
  graph.add_edge(0, 1, EdgeKind::Flow);
  graph.add_edge(0, 2, EdgeKind::Flow);
  graph.add_edge(3, 0, EdgeKind::Call);
  const auto out = graph.out_degrees();
  const auto in = graph.in_degrees();
  EXPECT_EQ(out[0], 2u);
  EXPECT_EQ(out[3], 1u);
  EXPECT_EQ(in[0], 1u);
  EXPECT_EQ(in[1], 1u);
  EXPECT_EQ(in[3], 0u);
}

TEST(AcfgTest, PlantedNodesDedupAndValidate) {
  Acfg graph(3);
  graph.mark_planted(1);
  graph.mark_planted(1);
  graph.mark_planted(2);
  EXPECT_EQ(graph.planted_nodes().size(), 2u);
  EXPECT_THROW(graph.mark_planted(3), std::out_of_range);
}

TEST(AcfgTest, LabelAndFamily) {
  Acfg graph(1);
  EXPECT_EQ(graph.label(), -1);
  graph.set_label(4);
  graph.set_family("Lmir");
  EXPECT_EQ(graph.label(), 4);
  EXPECT_EQ(graph.family(), "Lmir");
}

TEST(AcfgTest, ValidatePassesOnConsistentGraph) {
  Acfg graph(2);
  graph.add_edge(0, 1, EdgeKind::Flow);
  graph.mark_planted(0);
  EXPECT_NO_THROW(graph.validate());
}

TEST(GraphStatsTest, CountsAndMeans) {
  Acfg graph(4);
  graph.add_edge(0, 1, EdgeKind::Flow);
  graph.add_edge(0, 2, EdgeKind::Call);
  const GraphStats stats = compute_stats(graph);
  EXPECT_EQ(stats.num_nodes, 4u);
  EXPECT_EQ(stats.num_edges, 2u);
  EXPECT_EQ(stats.num_call_edges, 1u);
  EXPECT_EQ(stats.max_out_degree, 2u);
  EXPECT_DOUBLE_EQ(stats.mean_out_degree, 0.5);
  EXPECT_EQ(stats.isolated_nodes, 1u);  // node 3
}

TEST(GraphStatsTest, EmptyGraph) {
  const GraphStats stats = compute_stats(Acfg(0));
  EXPECT_EQ(stats.num_nodes, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_out_degree, 0.0);
}

}  // namespace
}  // namespace cfgx
