#include "graph/ops.hpp"

#include <gtest/gtest.h>

#include "isa/features.hpp"
#include "isa/lifter.hpp"
#include "support/dense_oracle.hpp"
#include "util/rng.hpp"

namespace cfgx {
namespace {

Matrix triangle_adjacency() {
  // 0 -> 1 (flow), 1 -> 2 (call), 2 -> 0 (flow)
  Acfg graph(3);
  graph.add_edge(0, 1, EdgeKind::Flow);
  graph.add_edge(1, 2, EdgeKind::Call);
  graph.add_edge(2, 0, EdgeKind::Flow);
  return dense_adjacency(graph);
}

TEST(NormalizedAdjacencyTest, IsSymmetric) {
  const Matrix a_hat = normalized_adjacency(triangle_adjacency());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(a_hat(i, j), a_hat(j, i), 1e-12);
    }
  }
}

TEST(NormalizedAdjacencyTest, ActiveNodesHaveSelfLoops) {
  const Matrix a_hat = normalized_adjacency(triangle_adjacency());
  for (std::size_t i = 0; i < 3; ++i) EXPECT_GT(a_hat(i, i), 0.0);
}

TEST(NormalizedAdjacencyTest, MaskedNodeRowIsZero) {
  Matrix a = triangle_adjacency();
  Matrix x(3, 2, 1.0);
  mask_node(a, x, 1);
  const Matrix a_hat = normalized_adjacency(a);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(a_hat(1, j), 0.0);
    EXPECT_DOUBLE_EQ(a_hat(j, 1), 0.0);
  }
  // Masked node gets no self-loop either (pruned == padded).
  EXPECT_DOUBLE_EQ(a_hat(1, 1), 0.0);
}

TEST(NormalizedAdjacencyTest, SingleActiveEdgePairNormalizesToDoublyStochasticish) {
  // Two nodes with one edge: degrees are equal, rows sum to 1.
  Matrix a(2, 2);
  a(0, 1) = 1.0;
  const Matrix a_hat = normalized_adjacency(a);
  EXPECT_NEAR(a_hat(0, 0) + a_hat(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(a_hat(1, 0) + a_hat(1, 1), 1.0, 1e-12);
}

TEST(NormalizedAdjacencyTest, CallWeightInfluencesNormalization) {
  Matrix flow(2, 2), call(2, 2);
  flow(0, 1) = 1.0;
  call(0, 1) = 2.0;
  const Matrix h_flow = normalized_adjacency(flow);
  const Matrix h_call = normalized_adjacency(call);
  // Heavier edge -> relatively smaller self-loop share.
  EXPECT_LT(h_call(0, 0), h_flow(0, 0));
  EXPECT_GT(h_call(0, 1), 0.0);
}

TEST(NormalizedAdjacencyTest, ExportsInverseSqrtDegrees) {
  std::vector<double> inv_sqrt;
  const Matrix a_hat = normalized_adjacency(triangle_adjacency(), inv_sqrt);
  ASSERT_EQ(inv_sqrt.size(), 3u);
  for (double v : inv_sqrt) EXPECT_GT(v, 0.0);
  // Reconstruct one entry: a_hat(0,1) = c0*c1*(S+I)(0,1).
  const Matrix a = triangle_adjacency();
  const double s01 = a(0, 1) + a(1, 0);
  EXPECT_NEAR(a_hat(0, 1), inv_sqrt[0] * inv_sqrt[1] * s01, 1e-12);
}

TEST(NormalizedAdjacencyTest, NonSquareThrows) {
  EXPECT_THROW(normalized_adjacency(Matrix(2, 3)), std::invalid_argument);
}

TEST(NormalizedAdjacencyCsrTest, MatchesDenseBitForBit) {
  Rng rng(9);
  Matrix a(24, 24);
  for (std::size_t i = 0; i < 24; ++i) {
    for (std::size_t j = 0; j < 24; ++j) {
      if (i != j && rng.bernoulli(0.08)) a(i, j) = 1.0;
    }
  }
  std::vector<double> inv_dense, inv_csr;
  const Matrix dense = normalized_adjacency(a, inv_dense);
  const CsrMatrix csr = normalized_adjacency_csr(a, inv_csr);
  EXPECT_EQ(csr.to_dense(), dense);  // identical values, zeros dropped
  EXPECT_EQ(inv_csr, inv_dense);
  EXPECT_LT(csr.density(), 0.5);
}

TEST(NormalizedAdjacencyCsrTest, MaskedNodeHasEmptyRow) {
  Matrix a = triangle_adjacency();
  Matrix x(3, 4, 1.0);
  mask_node(a, x, 1);
  const CsrMatrix csr = normalized_adjacency_csr(a, &x);
  EXPECT_EQ(csr.row_ptr()[2] - csr.row_ptr()[1], 0u);  // node 1 stores nothing
}

TEST(MaskNodeTest, ZeroesRowColumnAndFeatures) {
  Matrix a = triangle_adjacency();
  Matrix x(3, 4, 2.0);
  mask_node(a, x, 2);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(a(2, j), 0.0);
    EXPECT_DOUBLE_EQ(a(j, 2), 0.0);
  }
  for (std::size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(x(2, c), 0.0);
  // Other entries untouched.
  EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(x(0, 0), 2.0);
}

TEST(MaskNodeTest, OutOfRangeThrows) {
  Matrix a(3, 3);
  Matrix x(3, 2);
  EXPECT_THROW(mask_node(a, x, 3), std::out_of_range);
  Matrix bad_x(2, 2);
  EXPECT_THROW(mask_node(a, bad_x, 0), std::invalid_argument);
}

TEST(NodeIsMaskedTest, DetectsMaskedNodes) {
  Matrix a = triangle_adjacency();
  Matrix x(3, 1);
  EXPECT_FALSE(node_is_masked(a, 0));
  mask_node(a, x, 0);
  EXPECT_TRUE(node_is_masked(a, 0));
}

TEST(KeepOnlyTest, PreservesShapeMasksComplement) {
  const Matrix a = triangle_adjacency();
  const Matrix x(3, 2, 1.0);
  const MaskedGraph masked = keep_only(a, x, {0, 1});
  EXPECT_EQ(masked.adjacency.rows(), 3u);
  EXPECT_TRUE(node_is_masked(masked.adjacency, 2));
  EXPECT_DOUBLE_EQ(masked.adjacency(0, 1), 1.0);   // kept edge
  EXPECT_DOUBLE_EQ(masked.adjacency(1, 2), 0.0);   // edge into masked node
  EXPECT_DOUBLE_EQ(masked.features(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(masked.features(0, 0), 1.0);
}

TEST(KeepOnlyTest, KeepAllIsIdentity) {
  const Matrix a = triangle_adjacency();
  const Matrix x(3, 2, 1.0);
  const MaskedGraph masked = keep_only(a, x, {0, 1, 2});
  EXPECT_EQ(masked.adjacency, a);
  EXPECT_EQ(masked.features, x);
}

TEST(KeepOnlyTest, OutOfRangeThrows) {
  const Matrix a(2, 2);
  const Matrix x(2, 1);
  EXPECT_THROW(keep_only(a, x, {5}), std::out_of_range);
}

TEST(TopKNodesTest, OrdersByScoreDescending) {
  const auto top = top_k_nodes({0.1, 0.9, 0.5}, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 0u);
}

TEST(TopKNodesTest, TiesBrokenByLowerIndex) {
  const auto top = top_k_nodes({0.5, 0.5, 0.5}, 2);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);
}

TEST(TopKNodesTest, KTooLargeThrows) {
  EXPECT_THROW(top_k_nodes({0.1}, 2), std::invalid_argument);
}

TEST(NodesForFractionTest, CeilAndClamp) {
  EXPECT_EQ(nodes_for_fraction(10, 0.1), 1u);
  EXPECT_EQ(nodes_for_fraction(10, 0.25), 3u);   // ceil(2.5)
  EXPECT_EQ(nodes_for_fraction(10, 1.0), 10u);
  EXPECT_EQ(nodes_for_fraction(3, 0.01), 1u);    // at least one node
  EXPECT_EQ(nodes_for_fraction(0, 0.5), 0u);
}

TEST(NodesForFractionTest, BadFractionThrows) {
  EXPECT_THROW(nodes_for_fraction(10, -0.1), std::invalid_argument);
  EXPECT_THROW(nodes_for_fraction(10, 1.1), std::invalid_argument);
}

Acfg chain_graph(std::uint32_t nodes, std::size_t feature_count, double fill) {
  Acfg graph(nodes, feature_count);
  for (std::uint32_t i = 0; i + 1 < nodes; ++i) {
    graph.add_edge(i, i + 1, EdgeKind::Flow);
  }
  for (std::size_t i = 0; i < graph.features().size(); ++i) {
    graph.features().data()[i] = fill + static_cast<double>(i) * 0.01;
  }
  return graph;
}

TEST(BatchNormalizedGraphsTest, BlocksMatchPerGraphNormalization) {
  const Acfg g0 = chain_graph(4, 3, 0.5);
  const Acfg g1 = chain_graph(7, 3, -0.25);
  const GraphBatch batch = batch_normalized_graphs({&g0, &g1});

  ASSERT_EQ(batch.num_graphs(), 2u);
  EXPECT_EQ(batch.a_hat.matrix().rows(), 11u);
  EXPECT_EQ(batch.features.rows(), 11u);
  EXPECT_EQ(batch.features.cols(), 3u);
  ASSERT_EQ(batch.inv_sqrt_degree.size(), 11u);

  const std::vector<const Acfg*> graphs = {&g0, &g1};
  for (std::size_t k = 0; k < graphs.size(); ++k) {
    const Matrix adjacency = dense_adjacency(*graphs[k]);
    std::vector<double> inv_sqrt;
    const CsrMatrix expected =
        normalized_adjacency_csr(adjacency, inv_sqrt, &graphs[k]->features());
    const BatchedCsr::Range& range = batch.range(k);
    ASSERT_EQ(range.size(), graphs[k]->num_nodes());

    const Matrix expected_dense = expected.to_dense();
    const Matrix batch_dense = batch.a_hat.matrix().to_dense();
    for (std::size_t i = 0; i < range.size(); ++i) {
      for (std::size_t j = 0; j < range.size(); ++j) {
        EXPECT_EQ(batch_dense(range.begin + i, range.begin + j),
                  expected_dense(i, j));
      }
      EXPECT_EQ(batch.inv_sqrt_degree[range.begin + i], inv_sqrt[i]);
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(batch.features(range.begin + i, c),
                  graphs[k]->features()(i, c));
      }
    }
    EXPECT_EQ(batch.active_counts[k],
              count_active_nodes(adjacency, graphs[k]->features()));
  }
}

TEST(BatchNormalizedGraphsTest, ActiveCountsSkipPaddedNodes) {
  // Two trailing nodes with no edges and zero features are inactive.
  Acfg graph(5, 2);
  graph.add_edge(0, 1, EdgeKind::Flow);
  graph.features()(0, 0) = 1.0;
  graph.features()(1, 1) = 1.0;
  graph.features()(2, 0) = 3.0;  // isolated but feature-active
  const GraphBatch batch = batch_normalized_graphs({&graph});
  ASSERT_EQ(batch.active_counts.size(), 1u);
  EXPECT_EQ(batch.active_counts[0], 3u);
  EXPECT_EQ(batch.inv_sqrt_degree[3], 0.0);
  EXPECT_EQ(batch.inv_sqrt_degree[4], 0.0);
}

TEST(BatchNormalizedGraphsTest, EmptyAndInvalidInputs) {
  const GraphBatch empty = batch_normalized_graphs({});
  EXPECT_EQ(empty.num_graphs(), 0u);

  const Acfg narrow(2, 2);
  const Acfg wide(2, 3);
  EXPECT_THROW(batch_normalized_graphs({&narrow, &wide}),
               std::invalid_argument);
  EXPECT_THROW(batch_normalized_graphs({&narrow, nullptr}),
               std::invalid_argument);
}

// --- edge gates (MaskedNormalizedAdjacency::scale_edges) ---

// `call L` with `L:` as the next block: the lifter keeps both the Call and
// the Flow (return-site) edge between the same two blocks.
Acfg call_to_next_block_graph() {
  ProgramBuilder b;
  b.emit(Opcode::Cmp, Operand::make_reg(Register::Eax), Operand::make_imm(0));
  b.jcc(Opcode::Je, "tail");    // block 0
  b.emit(Opcode::Nop);
  b.call_label("next");         // block 1: call + return site both -> 2
  b.label("next");
  b.emit(Opcode::Nop);          // block 2
  b.label("tail");
  b.ret();                      // block 3
  const Program program = b.build();
  Acfg graph = to_acfg(lift_program(program));
  for (std::size_t i = 0; i < graph.features().size(); ++i) {
    graph.features().data()[i] = 1.0 + static_cast<double>(i % 5);
  }
  return graph;
}

bool same_values(const MaskedNormalizedAdjacency& a, const CsrMatrix& b) {
  return a.a_hat().row_ptr() == b.row_ptr() &&
         a.a_hat().col_idx() == b.col_idx() &&
         a.a_hat().values() == b.values();
}

TEST(EdgeGates, LiftedCallToNextBlockAtAllOnesEqualsUngated) {
  const Acfg graph = call_to_next_block_graph();
  std::size_t call = graph.num_edges(), flow = graph.num_edges();
  for (std::size_t e = 0; e < graph.num_edges(); ++e) {
    const Edge& edge = graph.edges()[e];
    if (edge.src != 1 || edge.dst != 2) continue;
    (edge.kind == EdgeKind::Call ? call : flow) = e;
  }
  ASSERT_LT(call, graph.num_edges());
  ASSERT_LT(flow, graph.num_edges());

  const MaskedNormalizedAdjacency ungated(graph);
  MaskedNormalizedAdjacency gated(graph);
  gated.scale_edges(std::vector<double>(graph.num_edges(), 1.0),
                    graph.features());
  EXPECT_TRUE(same_values(gated, ungated.a_hat()));
  EXPECT_EQ(gated.inv_sqrt_degree(), ungated.inv_sqrt_degree());
  const FrozenNormalization dense =
      frozen_normalization(dense_adjacency(graph), graph.features());
  EXPECT_TRUE(same_values(gated, dense.a_hat));

  // The pair's value is the call edge's 2.0, so only the call edge's gate
  // gets a gradient.
  EXPECT_EQ(gated.edge_slot(call), gated.edge_slot(flow));
  std::vector<double> grad(gated.a_hat().nnz(), 0.0);
  grad[gated.edge_slot(call)] = 0.25;
  const std::vector<double> edge_grad = gated.edge_gradient(grad);
  EXPECT_EQ(edge_grad[call], 0.25 * kEdgeCallWeight);
  EXPECT_EQ(edge_grad[flow], 0.0);
}

TEST(EdgeGates, CoincidentPairTakesTheMaxAndItsEdgeGetsTheGradient) {
  const Acfg graph = call_to_next_block_graph();
  std::size_t call = 0, flow = 0;
  for (std::size_t e = 0; e < graph.num_edges(); ++e) {
    const Edge& edge = graph.edges()[e];
    if (edge.src == 1 && edge.dst == 2) {
      (edge.kind == EdgeKind::Call ? call : flow) = e;
    }
  }
  // {call gate, flow gate, edge expected to set the pair}.
  struct Case {
    double call_gate, flow_gate;
    std::size_t setter;
  };
  for (const Case& c : {Case{0.9, 0.3, call}, Case{0.2, 0.9, flow},
                        Case{0.5, 1.0, call},  // tie: 2 * 0.5 == 1 * 1.0
                        Case{0.0, 0.0, call}}) {
    std::vector<double> gates(graph.num_edges(), 0.75);
    gates[call] = c.call_gate;
    gates[flow] = c.flow_gate;
    MaskedNormalizedAdjacency gated(graph);
    gated.scale_edges(gates, graph.features());
    const FrozenNormalization dense = frozen_normalization(
        dense_adjacency(graph, gates), graph.features());
    // A zero gate keeps its slot (holding 0.0), which the dense form drops.
    EXPECT_EQ(gated.a_hat().to_dense(), dense.a_hat.to_dense()) << c.call_gate;
    EXPECT_EQ(gated.inv_sqrt_degree(), dense.inv_sqrt_degree) << c.call_gate;

    const std::vector<double> grad(gated.a_hat().nnz(), 1.0);
    const std::vector<double> edge_grad = gated.edge_gradient(grad);
    const std::size_t other = c.setter == call ? flow : call;
    EXPECT_EQ(edge_grad[c.setter], graph.edges()[c.setter].weight())
        << c.call_gate;
    EXPECT_EQ(edge_grad[other], 0.0) << c.call_gate;
  }
}

TEST(EdgeGates, ZeroGateKeepsItsSlotAndSizesAreChecked) {
  const Acfg graph = call_to_next_block_graph();
  const MaskedNormalizedAdjacency ungated(graph);
  MaskedNormalizedAdjacency gated(graph);
  gated.scale_edges(std::vector<double>(graph.num_edges(), 0.0),
                    graph.features());
  EXPECT_EQ(gated.a_hat().col_idx(), ungated.a_hat().col_idx());
  EXPECT_THROW(gated.scale_edges({}, graph.features()), std::invalid_argument);
  EXPECT_THROW(gated.edge_gradient({}), std::invalid_argument);
}

}  // namespace
}  // namespace cfgx
