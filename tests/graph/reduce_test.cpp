// Unit tests for the CFG coarsening subsystem (graph/reduce.hpp): pass
// semantics, projection bookkeeping, merge rules, and the edge-list helpers
// (set_edges, masked_subgraph, count_active_nodes, the Acfg-direct
// MaskedNormalizedAdjacency constructor) the reduction work rides on.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "dataset/generator.hpp"
#include "graph/ops.hpp"
#include "graph/reduce.hpp"
#include "support/dense_oracle.hpp"
#include "util/rng.hpp"

namespace cfgx {
namespace {

// A graph whose every block carries distinctive (non-NOP) features, so only
// structural passes fire.
Acfg chain_graph(std::uint32_t n) {
  Acfg g(n);
  std::vector<Edge> edges;
  for (std::uint32_t v = 0; v + 1 < n; ++v) {
    edges.push_back(Edge{v, v + 1, EdgeKind::Flow});
  }
  g.set_edges(std::move(edges));
  for (std::uint32_t v = 0; v < n; ++v) {
    g.features()(v, 4) = 1.0 + v;   // #arithmetic: blocks are not NOP-like
    g.features()(v, 9) = 2.0 + v;   // #total instructions
    g.features()(v, 10) = v % 3;    // #offspring
  }
  g.set_label(1);
  g.set_family("Bagle");
  return g;
}

TEST(ReduceGraph, LinearChainCollapsesToOneSuperBlock) {
  const Acfg g = chain_graph(5);
  const ReducedGraph r = reduce_graph(g);
  r.projection.validate();

  ASSERT_EQ(r.graph.num_nodes(), 1u);
  EXPECT_EQ(r.graph.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(r.reduction_ratio(), 0.2);
  ASSERT_EQ(r.projection.members.size(), 1u);
  EXPECT_EQ(r.projection.members[0],
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));

  // Sum rule on instruction counts, Max on #offspring.
  EXPECT_DOUBLE_EQ(r.graph.features()(0, 4), 1 + 2 + 3 + 4 + 5);
  EXPECT_DOUBLE_EQ(r.graph.features()(0, 9), 2 + 3 + 4 + 5 + 6);
  EXPECT_DOUBLE_EQ(r.graph.features()(0, 10), 2.0);

  // Metadata carried over.
  EXPECT_EQ(r.graph.label(), 1);
  EXPECT_EQ(r.graph.family(), "Bagle");
}

TEST(ReduceGraph, DiamondDrainsIntoItsHead) {
  // if/else diamond: 0 -> {1,2} -> 3. The branch pass folds both arms into
  // the head, which leaves the chain 0 -> 3; the whole single-entry
  // single-exit region is one super-block at the fixpoint.
  Acfg g(4);
  g.set_edges({Edge{0, 1, EdgeKind::Flow}, Edge{0, 2, EdgeKind::Flow},
               Edge{1, 3, EdgeKind::Flow}, Edge{2, 3, EdgeKind::Flow}});
  for (std::uint32_t v = 0; v < 4; ++v) g.features()(v, 4) = 1.0;
  const ReducedGraph r = reduce_graph(g);
  r.projection.validate();
  ASSERT_EQ(r.graph.num_nodes(), 1u);
  EXPECT_EQ(r.graph.num_edges(), 0u);
  EXPECT_EQ(r.projection.members[0], (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(r.graph.features()(0, 4), 4.0);
  EXPECT_DOUBLE_EQ(r.reduction_ratio(), 0.25);
}

TEST(ReduceGraph, DiamondCollapseCanBeDisabled) {
  Acfg g(4);
  g.set_edges({Edge{0, 1, EdgeKind::Flow}, Edge{0, 2, EdgeKind::Flow},
               Edge{1, 3, EdgeKind::Flow}, Edge{2, 3, EdgeKind::Flow}});
  for (std::uint32_t v = 0; v < 4; ++v) g.features()(v, 4) = 1.0;
  ReduceConfig config;
  config.collapse_branch_diamonds = false;
  const ReducedGraph r = reduce_graph(g, config);
  r.projection.validate();
  EXPECT_EQ(r.graph.num_nodes(), 4u);
  EXPECT_EQ(r.graph.num_edges(), 4u);
  EXPECT_DOUBLE_EQ(r.reduction_ratio(), 1.0);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(ReduceGraph, TriangleArmFoldsIntoHeadAndSharedJoinSurvives) {
  // if-without-else: 0 -> {1,2} with 1 -> 2, plus an outside predecessor
  // 3 -> 2 that pins the join. Only the arm merges into the head.
  Acfg g(4);
  g.set_edges({Edge{0, 1, EdgeKind::Flow}, Edge{0, 2, EdgeKind::Flow},
               Edge{1, 2, EdgeKind::Flow}, Edge{3, 2, EdgeKind::Flow}});
  for (std::uint32_t v = 0; v < 4; ++v) g.features()(v, 4) = 1.0;
  const ReducedGraph r = reduce_graph(g);
  r.projection.validate();
  ASSERT_EQ(r.graph.num_nodes(), 3u);
  EXPECT_EQ(r.projection.members[0], (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(r.projection.super_of[2], 1u);
  EXPECT_EQ(r.projection.super_of[3], 2u);
  // The two parallel paths 0->2 and 0->1->2 fuse into one Flow edge.
  EXPECT_EQ(r.graph.edges(),
            (std::vector<Edge>{Edge{0, 1, EdgeKind::Flow},
                               Edge{2, 1, EdgeKind::Flow}}));
}

TEST(ReduceGraph, BranchArmsWithExtraPredecessorsSurvive) {
  // Diamond 0 -> {1,2} -> 3 where arm 1 has a second predecessor 4: no arm
  // is single-entry any more, so the branch stays (and nothing else fires).
  Acfg g(5);
  g.set_edges({Edge{0, 1, EdgeKind::Flow}, Edge{0, 2, EdgeKind::Flow},
               Edge{1, 3, EdgeKind::Flow}, Edge{2, 3, EdgeKind::Flow},
               Edge{4, 1, EdgeKind::Flow}});
  for (std::uint32_t v = 0; v < 5; ++v) g.features()(v, 4) = 1.0;
  const ReducedGraph r = reduce_graph(g);
  r.projection.validate();
  EXPECT_EQ(r.graph.num_nodes(), 5u);
  EXPECT_DOUBLE_EQ(r.reduction_ratio(), 1.0);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(ReduceGraph, BranchArmsWithCallEdgesSurvive) {
  // Arm 1 calls out (1 -call-> 4): it is not pure straight-line code, so
  // the diamond must not fold it away.
  Acfg g(5);
  g.set_edges({Edge{0, 1, EdgeKind::Flow}, Edge{0, 2, EdgeKind::Flow},
               Edge{1, 3, EdgeKind::Flow}, Edge{1, 4, EdgeKind::Call},
               Edge{2, 3, EdgeKind::Flow}});
  for (std::uint32_t v = 0; v < 5; ++v) g.features()(v, 4) = 1.0;
  const ReducedGraph r = reduce_graph(g);
  r.projection.validate();
  EXPECT_EQ(r.graph.num_nodes(), 5u);
  EXPECT_DOUBLE_EQ(r.reduction_ratio(), 1.0);
}

TEST(ReduceGraph, NestedDiamondsDrainOverRounds) {
  // Outer diamond whose true arm is itself a diamond:
  //   0 -> {1, 5}; inner 1 -> {2,3} -> 4; 4 -> 6; 5 -> 6.
  // Round by round the inner diamond becomes a chain, the chain becomes a
  // single arm, and the outer diamond collapses: one super at fixpoint.
  Acfg g(7);
  g.set_edges({Edge{0, 1, EdgeKind::Flow}, Edge{0, 5, EdgeKind::Flow},
               Edge{1, 2, EdgeKind::Flow}, Edge{1, 3, EdgeKind::Flow},
               Edge{2, 4, EdgeKind::Flow}, Edge{3, 4, EdgeKind::Flow},
               Edge{4, 6, EdgeKind::Flow}, Edge{5, 6, EdgeKind::Flow}});
  for (std::uint32_t v = 0; v < 7; ++v) g.features()(v, 4) = 1.0;
  const ReducedGraph r = reduce_graph(g);
  r.projection.validate();
  ASSERT_EQ(r.graph.num_nodes(), 1u);
  EXPECT_EQ(r.projection.members[0],
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_DOUBLE_EQ(r.graph.features()(0, 4), 7.0);
}

TEST(ReduceGraph, CallEdgesAreNeverCollapsed) {
  // 0 -call-> 1 -flow-> 2: only the flow pair merges.
  Acfg g(3);
  g.set_edges({Edge{0, 1, EdgeKind::Call}, Edge{1, 2, EdgeKind::Flow}});
  for (std::uint32_t v = 0; v < 3; ++v) g.features()(v, 4) = 1.0;
  const ReducedGraph r = reduce_graph(g);
  r.projection.validate();
  ASSERT_EQ(r.graph.num_nodes(), 2u);
  ASSERT_EQ(r.graph.num_edges(), 1u);
  EXPECT_EQ(r.graph.edges()[0].kind, EdgeKind::Call);
  EXPECT_EQ(r.projection.members[1], (std::vector<std::uint32_t>{1, 2}));
}

TEST(ReduceGraph, SelfLoopBlocksAreNeverMerged) {
  // 0 -> 1 -> 1 (explicit self-loop, a Bagle motif) -> 2. The self-loop
  // pins node 1: 0 cannot absorb it (1's in-list is {0,1}), and 1 cannot
  // absorb 2 (1's out-list is {1,2}).
  Acfg g(3);
  g.set_edges({Edge{0, 1, EdgeKind::Flow}, Edge{1, 1, EdgeKind::Flow},
               Edge{1, 2, EdgeKind::Flow}});
  for (std::uint32_t v = 0; v < 3; ++v) g.features()(v, 4) = 1.0;
  const ReducedGraph r = reduce_graph(g);
  r.projection.validate();
  EXPECT_EQ(r.graph.num_nodes(), 3u);
  bool has_self_loop = false;
  for (const Edge& e : r.graph.edges()) has_self_loop |= e.src == e.dst;
  EXPECT_TRUE(has_self_loop);
}

TEST(ReduceGraph, NopSledFoldsIntoItsSuccessor) {
  // 0 (NOP sled) -> 1 (real code), with 2 -> 1 and 3 -> 1 keeping 1 a join
  // point both before AND after the sled fold, so the chain pass can never
  // fire; only the sled pass can fold 0 into 1.
  Acfg g(4);
  g.set_edges({Edge{0, 1, EdgeKind::Flow}, Edge{2, 1, EdgeKind::Flow},
               Edge{3, 1, EdgeKind::Flow}});
  g.features()(0, 6) = 4.0;   // #mov only — semantic NOP
  g.features()(0, 9) = 4.0;   // #total instructions
  g.features()(0, 11) = 4.0;  // #instructions in vertex
  g.features()(1, 3) = 2.0;   // real code: calls
  g.features()(1, 9) = 5.0;
  g.features()(2, 4) = 1.0;
  g.features()(2, 9) = 1.0;
  g.features()(3, 4) = 1.0;
  g.features()(3, 9) = 1.0;
  const ReducedGraph r = reduce_graph(g);
  r.projection.validate();
  ASSERT_EQ(r.graph.num_nodes(), 3u);
  // Supers are renumbered by smallest member: super 0 = {0, 1}.
  EXPECT_EQ(r.projection.members[0], (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(r.projection.super_of[2], 1u);
  EXPECT_EQ(r.projection.super_of[3], 2u);
  // The sled's mov/total counts land on the code it pads.
  EXPECT_DOUBLE_EQ(r.graph.features()(0, 6), 4.0);
  EXPECT_DOUBLE_EQ(r.graph.features()(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(r.graph.features()(0, 9), 9.0);
}

TEST(ReduceGraph, NopLikePredicate) {
  std::vector<double> f(kAcfgFeatureCount, 0.0);
  EXPECT_FALSE(NopSledCollapse::nop_like(f));  // zero instructions
  f[9] = 3.0;
  f[6] = 3.0;
  EXPECT_TRUE(NopSledCollapse::nop_like(f));
  f[4] = 1.0;  // one arithmetic instruction disqualifies
  EXPECT_FALSE(NopSledCollapse::nop_like(f));
  EXPECT_FALSE(NopSledCollapse::nop_like(std::vector<double>(4, 0.0)));
}

TEST(ReduceGraph, ReduceOfReducedIsFixpoint) {
  const ReducedGraph once = reduce_graph(chain_graph(12));
  const ReducedGraph twice = reduce_graph(once.graph);
  EXPECT_EQ(twice.graph.num_nodes(), once.graph.num_nodes());
  EXPECT_EQ(twice.rounds, 0u);
  EXPECT_DOUBLE_EQ(twice.reduction_ratio(), 1.0);
}

TEST(ReduceGraph, MaxRoundsBoundsTheWork) {
  ReduceConfig config;
  config.max_rounds = 1;
  const ReducedGraph r = reduce_graph(chain_graph(8), config);
  EXPECT_EQ(r.rounds, 1u);
  // One round of the chain pass already drains a pure chain.
  EXPECT_EQ(r.graph.num_nodes(), 1u);
}

TEST(ReduceGraph, DisabledPassesAreIdentity) {
  ReduceConfig config;
  config.collapse_linear_chains = false;
  config.collapse_nop_sleds = false;
  const ReducedGraph r = reduce_graph(chain_graph(6), config);
  EXPECT_EQ(r.graph.num_nodes(), 6u);
  EXPECT_DOUBLE_EQ(r.reduction_ratio(), 1.0);
  for (std::size_t s = 0; s < r.projection.members.size(); ++s) {
    EXPECT_EQ(r.projection.members[s],
              std::vector<std::uint32_t>{static_cast<std::uint32_t>(s)});
  }
}

TEST(ReduceGraph, MergeRuleMismatchThrows) {
  ReduceConfig config;
  config.merge_rules.assign(5, MergeRule::Sum);  // graph has 12 columns
  EXPECT_THROW(reduce_graph(chain_graph(3), config), std::invalid_argument);
}

TEST(ReduceGraph, CountRuleRecordsAbsorbedBlocks) {
  ReduceConfig config;
  config.merge_rules = default_acfg_merge_rules();
  config.merge_rules[11] = MergeRule::Count;
  const ReducedGraph r = reduce_graph(chain_graph(4), config);
  ASSERT_EQ(r.graph.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(r.graph.features()(0, 11), 4.0);
}

TEST(ReduceGraph, InstructionShareWeighting) {
  ReduceConfig config;
  config.weighting = ProjectionWeighting::InstructionShare;
  const Acfg g = chain_graph(2);  // totals 2.0 and 3.0
  const ReducedGraph r = reduce_graph(g, config);
  r.projection.validate();
  ASSERT_EQ(r.projection.weights.size(), 1u);
  EXPECT_DOUBLE_EQ(r.projection.weights[0][0], 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(r.projection.weights[0][1], 3.0 / 5.0);
}

TEST(ReduceGraph, PlantedNodesMarkTheirSupers) {
  Acfg g = chain_graph(4);
  g.mark_planted(2);
  const ReducedGraph r = reduce_graph(g);
  ASSERT_EQ(r.graph.num_nodes(), 1u);
  EXPECT_EQ(r.graph.planted_nodes(), std::vector<std::uint32_t>{0});
}

TEST(ReduceGraph, EmptyGraph) {
  const ReducedGraph r = reduce_graph(Acfg(0));
  EXPECT_EQ(r.graph.num_nodes(), 0u);
  EXPECT_DOUBLE_EQ(r.reduction_ratio(), 1.0);
  r.projection.validate();
}

// ---------- NodeProjection ----------

TEST(NodeProjection, ProjectScoresConservesMass) {
  const ReducedGraph r = reduce_graph(chain_graph(6));
  std::vector<double> reduced_scores(r.projection.reduced_nodes(), 0.0);
  for (std::size_t s = 0; s < reduced_scores.size(); ++s) {
    reduced_scores[s] = 1.0 + static_cast<double>(s);
  }
  const auto projected = r.projection.project_scores(reduced_scores);
  ASSERT_EQ(projected.size(), 6u);
  const double mass_in =
      std::accumulate(reduced_scores.begin(), reduced_scores.end(), 0.0);
  const double mass_out = std::accumulate(projected.begin(), projected.end(), 0.0);
  EXPECT_NEAR(mass_in, mass_out, 1e-12);
}

TEST(NodeProjection, ExpandOrderCoversEveryOriginalNodeOnce) {
  Acfg g = chain_graph(5);
  // Break the chain at 2 so two supers survive: {0,1,2} and {3,4}? No:
  // 2 -> 3 edge removed leaves chains 0-1-2 and 3-4.
  g.set_edges({Edge{0, 1, EdgeKind::Flow}, Edge{1, 2, EdgeKind::Flow},
               Edge{3, 4, EdgeKind::Flow}});
  const ReducedGraph r = reduce_graph(g);
  ASSERT_EQ(r.projection.reduced_nodes(), 2u);
  const auto expanded = r.projection.expand_order({1, 0});
  EXPECT_EQ(expanded, (std::vector<std::uint32_t>{3, 4, 0, 1, 2}));
  EXPECT_THROW(r.projection.expand_order({5}), std::out_of_range);
}

TEST(NodeProjection, ProjectScoresRejectsWrongSize) {
  const ReducedGraph r = reduce_graph(chain_graph(4));
  EXPECT_THROW(r.projection.project_scores({1.0, 2.0}), std::invalid_argument);
}

// ---------- edge-list helpers the reduction rides on ----------

TEST(SetEdges, ValidatesAndPreservesOrder) {
  Acfg g(3);
  const std::vector<Edge> edges{Edge{2, 0, EdgeKind::Flow},
                                Edge{0, 1, EdgeKind::Call}};
  g.set_edges(edges);
  EXPECT_EQ(g.edges(), edges);  // given order, not sorted
  EXPECT_THROW(g.set_edges({Edge{0, 3, EdgeKind::Flow}}), std::out_of_range);
  EXPECT_THROW(g.set_edges({Edge{0, 1, EdgeKind::Flow},
                            Edge{0, 1, EdgeKind::Flow}}),
               std::invalid_argument);
}

TEST(MaskedSubgraph, MatchesKeepOnlyEntryForEntry) {
  Acfg g(4);
  g.set_edges({Edge{0, 1, EdgeKind::Flow}, Edge{1, 2, EdgeKind::Call},
               Edge{2, 3, EdgeKind::Flow}, Edge{3, 0, EdgeKind::Flow}});
  for (std::uint32_t v = 0; v < 4; ++v) g.features()(v, 0) = 1.0 + v;
  g.set_label(2);
  g.mark_planted(1);
  g.mark_planted(3);

  const std::vector<std::uint32_t> kept{0, 1};
  const Acfg sub = masked_subgraph(g, kept);
  const MaskedGraph reference =
      keep_only(dense_adjacency(g), g.features(), kept);

  EXPECT_EQ(sub.num_nodes(), g.num_nodes());
  const Matrix sub_adj = dense_adjacency(sub);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(sub_adj(i, j), reference.adjacency(i, j)) << i << "," << j;
    }
    for (std::size_t c = 0; c < g.feature_count(); ++c) {
      EXPECT_EQ(sub.features()(i, c), reference.features(i, c));
    }
  }
  EXPECT_EQ(sub.label(), 2);
  EXPECT_EQ(sub.planted_nodes(), std::vector<std::uint32_t>{1});
  EXPECT_THROW(masked_subgraph(g, {7}), std::out_of_range);
}

TEST(CountActiveNodes, EdgeListFormMatchesDense) {
  Acfg g(5);
  g.set_edges({Edge{0, 1, EdgeKind::Flow}});
  g.features()(3, 2) = 1.0;  // feature-only activity
  // Nodes 2 and 4 are fully inactive.
  EXPECT_EQ(count_active_nodes(g), 3u);
  EXPECT_EQ(count_active_nodes(g),
            count_active_nodes(dense_adjacency(g), g.features()));
}

TEST(MaskedNormalizedAdjacency, AcfgConstructorIsBitIdenticalToDense) {
  Acfg g(6);
  // Coincident Flow+Call pair exercises the call-dominates-flow max rule;
  // a self-loop exercises the diagonal merge.
  g.set_edges({Edge{0, 1, EdgeKind::Flow}, Edge{0, 1, EdgeKind::Call},
               Edge{1, 2, EdgeKind::Flow}, Edge{2, 2, EdgeKind::Flow},
               Edge{4, 3, EdgeKind::Call}, Edge{3, 4, EdgeKind::Flow}});
  g.features()(5, 1) = 2.0;  // feature-only active node
  const MaskedNormalizedAdjacency sparse(g);
  const FrozenNormalization dense =
      frozen_normalization(dense_adjacency(g), g.features());

  ASSERT_EQ(sparse.a_hat().row_ptr(), dense.a_hat.row_ptr());
  ASSERT_EQ(sparse.a_hat().col_idx(), dense.a_hat.col_idx());
  const auto& sv = sparse.a_hat().values();
  const auto& dv = dense.a_hat.values();
  ASSERT_EQ(sv.size(), dv.size());
  for (std::size_t p = 0; p < sv.size(); ++p) {
    EXPECT_EQ(sv[p], dv[p]) << "value index " << p;
  }
  EXPECT_EQ(sparse.inv_sqrt_degree(), dense.inv_sqrt_degree);
}

// Seeded paper-scale graphs reduce to exact, known sizes. The seeds are a
// pure function of (n, rep): `Rng(0x5ca11 * (n + 1) + rep)`, family
// `rep % (kFamilyCount - 1)`, three graphs per requested size. Any change
// to the generator or to a coarsening pass shows up here as a different
// node count, and the per-size mean ratio is pinned bit for bit.
TEST(ReduceGraph, SeededPaperScaleGraphsReduceToExactSizes) {
  struct Point {
    std::size_t requested;
    std::array<std::pair<std::size_t, std::size_t>, 3> sizes;
    double mean_ratio;
  };
  const std::array<Point, 4> points = {{
      {256, {{{625, 361}, {334, 199}, {330, 195}}}, 0.58810582471420803},
      {1024, {{{1077, 645}, {1095, 645}, {1208, 659}}}, 0.57781889702892686},
      {4096, {{{4165, 2371}, {4158, 2331}, {4854, 2877}}}, 0.57419360447478984},
      {7352, {{{7494, 4245}, {11602, 6817}, {7359, 4287}}}, 0.57885874937680548},
  }};
  for (const Point& point : points) {
    GeneratorConfig config;
    config.target_blocks = point.requested;
    double ratio_sum = 0.0;
    for (std::size_t rep = 0; rep < point.sizes.size(); ++rep) {
      const Family family = static_cast<Family>(rep % (kFamilyCount - 1));
      Rng rng(0x5ca11u * (point.requested + 1) + rep);
      const Acfg graph = generate_acfg(family, rng, config);
      const ReducedGraph reduced = reduce_graph(graph);
      EXPECT_EQ(graph.num_nodes(), point.sizes[rep].first)
          << "n=" << point.requested << " rep=" << rep;
      EXPECT_EQ(reduced.graph.num_nodes(), point.sizes[rep].second)
          << "n=" << point.requested << " rep=" << rep;
      ratio_sum += reduced.reduction_ratio();
    }
    EXPECT_EQ(ratio_sum / static_cast<double>(point.sizes.size()),
              point.mean_ratio)
        << "n=" << point.requested;
  }
}

}  // namespace
}  // namespace cfgx
