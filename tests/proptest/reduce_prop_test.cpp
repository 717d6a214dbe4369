// Property suites for the CFG coarsening subsystem (graph/reduce.hpp) and
// the sparse graph paths it rides on.
//
// Structural invariants (arbitrary random graphs, negative features
// included):
//  * the recorded NodeProjection is a partition of the original node set
//    with per-super weights summing to 1;
//  * projected score mass is conserved;
//  * reducing a reduced graph is a fixpoint (no further merges).
//
// Metamorphic invariant (realistic corpus graphs — integer features, so
// Sum-merged columns are exact and the comparison can be bitwise):
//  * coarsen(permute(G)) == permute(coarsen(G)) as labeled partitions:
//    the member sets correspond through the permutation and corresponding
//    super-blocks carry identical feature rows.
//
// Differential oracles for the edge-list fast paths:
//  * MaskedNormalizedAdjacency(graph) is bit-identical to the dense
//    constructor;
//  * predict(masked_subgraph(G, kept)) is bit-identical to the dense
//    keep_only + predict_masked pipeline;
//  * count_active_nodes(G) matches the dense count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <vector>

#include "gnn/classifier.hpp"
#include "graph/ops.hpp"
#include "graph/reduce.hpp"
#include "proptest/generators.hpp"
#include "proptest/proptest.hpp"
#include "support/dense_oracle.hpp"

namespace cfgx {
namespace {

std::vector<std::uint32_t> random_permutation(std::uint32_t n, Rng& rng) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::uint32_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.uniform_index(i)]);
  }
  return perm;
}

Acfg permute_acfg(const Acfg& graph, const std::vector<std::uint32_t>& perm) {
  Acfg out(graph.num_nodes(), graph.feature_count());
  std::vector<Edge> edges;
  edges.reserve(graph.num_edges());
  for (const Edge& e : graph.edges()) {
    edges.push_back(Edge{perm[e.src], perm[e.dst], e.kind});
  }
  out.set_edges(std::move(edges));
  for (std::uint32_t v = 0; v < graph.num_nodes(); ++v) {
    for (std::size_t f = 0; f < graph.feature_count(); ++f) {
      out.features()(perm[v], f) = graph.features()(v, f);
    }
  }
  out.set_label(graph.label());
  out.set_family(graph.family());
  for (std::uint32_t p : graph.planted_nodes()) out.mark_planted(perm[p]);
  return out;
}

TEST(ReduceProperties, ProjectionIsAPartition) {
  CHECK_PROPERTY(
      "reduce_graph projection partitions the original nodes",
      proptest::acfgs(32, 0.12),
      [](const Acfg& graph) {
        const ReducedGraph r = reduce_graph(graph);
        r.projection.validate();  // throws on any partition violation
        return r.projection.original_nodes() == graph.num_nodes() &&
               r.projection.reduced_nodes() == r.graph.num_nodes() &&
               r.graph.num_nodes() <= graph.num_nodes();
      },
      {.iterations = 120});
}

TEST(ReduceProperties, ProjectedScoreMassIsConserved) {
  CHECK_PROPERTY(
      "sum(project_scores(s)) == sum(s)",
      proptest::pairs(proptest::acfgs(24, 0.15),
                      proptest::integers(1, 1 << 20)),
      [](const std::pair<Acfg, std::int64_t>& c) {
        ReduceConfig config;
        // Exercise both weightings.
        config.weighting = (c.second & 1) != 0
                               ? ProjectionWeighting::InstructionShare
                               : ProjectionWeighting::Uniform;
        const ReducedGraph r = reduce_graph(c.first, config);
        Rng rng(static_cast<std::uint64_t>(c.second));
        std::vector<double> scores(r.projection.reduced_nodes());
        for (double& s : scores) s = rng.uniform() * 10.0;
        const auto projected = r.projection.project_scores(scores);
        const double in =
            std::accumulate(scores.begin(), scores.end(), 0.0);
        const double out =
            std::accumulate(projected.begin(), projected.end(), 0.0);
        return std::abs(in - out) <= 1e-9 * std::max(1.0, std::abs(in));
      },
      {.iterations = 100});
}

TEST(ReduceProperties, ReduceOfReducedIsFixpoint) {
  CHECK_PROPERTY(
      "reduce(reduce(G).graph) performs no further merges",
      proptest::acfgs(32, 0.12),
      [](const Acfg& graph) {
        const ReducedGraph once = reduce_graph(graph);
        const ReducedGraph twice = reduce_graph(once.graph);
        return twice.graph.num_nodes() == once.graph.num_nodes() &&
               twice.rounds == 0;
      },
      {.iterations = 80});
}

// Canonical form of a reduction for cross-permutation comparison: the
// member sets (mapped to a common id space) with their feature rows.
std::map<std::vector<std::uint32_t>, std::vector<double>> partition_signature(
    const ReducedGraph& r, const std::vector<std::uint32_t>& to_common) {
  std::map<std::vector<std::uint32_t>, std::vector<double>> sig;
  for (std::size_t s = 0; s < r.projection.members.size(); ++s) {
    std::vector<std::uint32_t> key;
    key.reserve(r.projection.members[s].size());
    for (const std::uint32_t v : r.projection.members[s]) {
      key.push_back(to_common[v]);
    }
    std::sort(key.begin(), key.end());
    std::vector<double> row(r.graph.feature_count());
    for (std::size_t c = 0; c < row.size(); ++c) {
      row[c] = r.graph.features()(static_cast<std::uint32_t>(s), c);
    }
    sig.emplace(std::move(key), std::move(row));
  }
  return sig;
}

TEST(ReduceProperties, CoarsenCommutesWithRelabeling) {
  // Realistic corpus graphs: integer features make Sum merges exact, so
  // corresponding supers must match bit for bit.
  GeneratorConfig small;
  small.min_benign_functions = 1;
  small.max_benign_functions = 2;
  small.min_motif_repeats = 1;
  small.max_motif_repeats = 2;
  CHECK_PROPERTY(
      "coarsen(pi(G)) == pi(coarsen(G)) as labeled partitions",
      proptest::pairs(proptest::family_acfgs(small),
                      proptest::integers(1, 1 << 20)),
      [](const std::pair<Acfg, std::int64_t>& c) {
        const Acfg& graph = c.first;
        Rng perm_rng(static_cast<std::uint64_t>(c.second));
        const auto perm = random_permutation(graph.num_nodes(), perm_rng);
        const Acfg permuted = permute_acfg(graph, perm);

        const ReducedGraph base = reduce_graph(graph);
        const ReducedGraph image = reduce_graph(permuted);

        // Common id space: original ids of G. base members map through the
        // identity; image members pull back through the permutation.
        std::vector<std::uint32_t> identity(graph.num_nodes());
        std::iota(identity.begin(), identity.end(), 0u);
        std::vector<std::uint32_t> inverse(perm.size());
        for (std::uint32_t v = 0; v < perm.size(); ++v) inverse[perm[v]] = v;

        return partition_signature(base, identity) ==
               partition_signature(image, inverse);
      },
      {.iterations = 25});
}

// ---------- differential oracles for the sparse fast paths ----------

TEST(SparsePathProperties, AcfgConstructorMatchesDenseBitwise) {
  CHECK_PROPERTY(
      "MaskedNormalizedAdjacency(G) == MaskedNormalizedAdjacency(dense(G))",
      proptest::acfgs(24, 0.2),
      [](const Acfg& graph) {
        const MaskedNormalizedAdjacency sparse(graph);
        const FrozenNormalization dense =
            frozen_normalization(dense_adjacency(graph), graph.features());
        return sparse.a_hat().row_ptr() == dense.a_hat.row_ptr() &&
               sparse.a_hat().col_idx() == dense.a_hat.col_idx() &&
               sparse.a_hat().values() == dense.a_hat.values() &&
               sparse.inv_sqrt_degree() == dense.inv_sqrt_degree;
      },
      {.iterations = 150});
}

TEST(SparsePathProperties, CountActiveNodesMatchesDense) {
  CHECK_PROPERTY(
      "count_active_nodes(G) == count_active_nodes(dense(G), X)",
      proptest::acfgs(24, 0.15),
      [](const Acfg& graph) {
        return count_active_nodes(graph) ==
               count_active_nodes(dense_adjacency(graph), graph.features());
      },
      {.iterations = 150});
}

TEST(SparsePathProperties, MaskedSubgraphPredictMatchesDenseMaskedPredict) {
  Rng init(2024);
  GnnConfig config;
  config.gcn_dims = {10, 8};
  const GnnClassifier gnn(config, init);
  CHECK_PROPERTY(
      "predict(masked_subgraph(G, kept)) == predict_masked(keep_only(...))",
      proptest::pairs(proptest::acfgs(20, 0.2),
                      proptest::integers(0, 1 << 20)),
      [&gnn](const std::pair<Acfg, std::int64_t>& c) {
        const Acfg& graph = c.first;
        Rng rng(static_cast<std::uint64_t>(c.second) + 1);
        std::vector<std::uint32_t> kept;
        for (std::uint32_t v = 0; v < graph.num_nodes(); ++v) {
          if (rng.bernoulli(0.6)) kept.push_back(v);
        }
        const MaskedGraph dense =
            keep_only(dense_adjacency(graph), graph.features(), kept);
        const Prediction a = gnn.predict(masked_subgraph(graph, kept));
        const Prediction b = predict_masked(gnn, dense.adjacency, dense.features);
        return a.predicted_class == b.predicted_class &&
               a.probabilities.rows() == b.probabilities.rows() &&
               a.probabilities.cols() == b.probabilities.cols() &&
               [&] {
                 for (std::size_t i = 0; i < a.probabilities.rows(); ++i) {
                   for (std::size_t j = 0; j < a.probabilities.cols(); ++j) {
                     if (a.probabilities(i, j) != b.probabilities(i, j)) {
                       return false;
                     }
                   }
                 }
                 return true;
               }();
      },
      {.iterations = 60});
}

}  // namespace
}  // namespace cfgx
