// Metamorphic explainer oracles: relabeling the nodes of a graph must not
// change what any explainer + the frozen GNN say about it.
//
// Two tiers of invariant (DESIGN.md "Testing strategy"):
//
//  * Pull-back invariance (all four explainers): explain the permuted graph,
//    map the resulting node sets back through the inverse permutation, and
//    the masked GNN predictions at every step-size grid point must match the
//    predictions on the permuted graph — masking commutes with relabeling no
//    matter how the explainer chose its ranking.
//  * Score equivariance (the score-deterministic explainers, CFGExplainer
//    and PGExplainer): the score vectors themselves must permute with the
//    nodes/edges, and CFGExplainer's Interpretation::ordered_nodes must be
//    the permuted image of the original ordering.
//
// GNNExplainer and SubgraphX are deliberately held only to the pull-back
// tier: their internal randomness is coupled to node/edge indices (mask
// initialization order, MCTS expansion), so exact ranking equivariance is
// not a property they promise.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "explain/cfg_explainer.hpp"
#include "explain/gnnexplainer.hpp"
#include "explain/pgexplainer.hpp"
#include "explain/subgraphx.hpp"
#include "gnn/trainer.hpp"
#include "graph/ops.hpp"
#include "proptest/generators.hpp"
#include "proptest/proptest.hpp"
#include "support/dense_oracle.hpp"

namespace cfgx {
namespace {

// perm[old_id] = new_id.
std::vector<std::uint32_t> random_permutation(std::uint32_t n, Rng& rng) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::uint32_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.uniform_index(i)]);
  }
  return perm;
}

std::vector<std::uint32_t> invert(const std::vector<std::uint32_t>& perm) {
  std::vector<std::uint32_t> inverse(perm.size());
  for (std::uint32_t v = 0; v < perm.size(); ++v) inverse[perm[v]] = v;
  return inverse;
}

Acfg permute_acfg(const Acfg& graph, const std::vector<std::uint32_t>& perm) {
  Acfg out(graph.num_nodes(), graph.feature_count());
  for (const Edge& e : graph.edges()) {
    out.add_edge(perm[e.src], perm[e.dst], e.kind);
  }
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

// A (graph index, permutation seed) pair drawn per property iteration.
using Case = std::pair<std::int64_t, std::int64_t>;

class MetamorphicTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Miniature but genuinely trained pipeline: the invariants hold for any
    // weights, so small dims + few epochs keep this suite tier-1 fast.
    CorpusConfig corpus_config;
    corpus_config.samples_per_family = 4;
    corpus_config.seed = 2023;
    corpus_ = new Corpus(generate_corpus(corpus_config));

    std::vector<std::size_t> all(corpus_->size());
    std::iota(all.begin(), all.end(), 0u);

    Rng rng(17);
    GnnConfig gnn_config;
    gnn_config.gcn_dims = {16, 12, 8};
    gnn_ = new GnnClassifier(gnn_config, rng);
    GnnTrainConfig gnn_train;
    gnn_train.epochs = 40;
    train_gnn(*gnn_, *corpus_, all, gnn_train);

    ExplainerTrainConfig exp_train;
    exp_train.epochs = 200;
    exp_train.validation_fraction = 0.0;  // no checkpoint search needed
    cfg_explainer_ = new CfgExplainer(*gnn_, exp_train);
    cfg_explainer_->fit(*corpus_, all);

    PgExplainerConfig pg_config;
    pg_config.epochs = 6;
    pg_explainer_ = new PgExplainer(*gnn_, pg_config);
    pg_explainer_->fit(*corpus_, all);
  }

  static void TearDownTestSuite() {
    delete pg_explainer_;
    delete cfg_explainer_;
    delete gnn_;
    delete corpus_;
    pg_explainer_ = nullptr;
    cfg_explainer_ = nullptr;
    gnn_ = nullptr;
    corpus_ = nullptr;
  }

  static proptest::Gen<Case> cases() {
    return proptest::pairs(
        proptest::integers(0, static_cast<std::int64_t>(corpus_->size()) - 1),
        proptest::integers(1, 1 << 20));
  }

  // The universal tier: for every step-size grid point, the prediction on
  // the permuted graph masked by the permuted-graph ranking must equal the
  // prediction on the original graph masked by the pulled-back node set.
  static bool pull_back_invariant(Explainer& explainer, const Case& c) {
    const Acfg& graph = corpus_->graph(static_cast<std::size_t>(c.first));
    Rng perm_rng(static_cast<std::uint64_t>(c.second));
    const auto perm = random_permutation(graph.num_nodes(), perm_rng);
    const auto inverse = invert(perm);
    const Acfg permuted = permute_acfg(graph, perm);

    const NodeRanking ranking = explainer.explain(permuted);
    if (ranking.order.size() != graph.num_nodes()) return false;
    // The ranking must be a total ordering of the permuted graph's nodes.
    std::vector<char> seen(graph.num_nodes(), 0);
    for (std::uint32_t v : ranking.order) {
      if (v >= graph.num_nodes() || seen[v]) return false;
      seen[v] = 1;
    }

    const Matrix adjacency = dense_adjacency(graph);
    const Matrix permuted_adjacency = dense_adjacency(permuted);
    for (double fraction : {0.1, 0.2, 0.5, 1.0}) {
      const auto kept = ranking.top_fraction(fraction);
      std::vector<std::uint32_t> pulled_back;
      pulled_back.reserve(kept.size());
      for (std::uint32_t v : kept) pulled_back.push_back(inverse[v]);

      const MaskedGraph masked_permuted =
          keep_only(permuted_adjacency, permuted.features(), kept);
      const MaskedGraph masked_original =
          keep_only(adjacency, graph.features(), pulled_back);
      const Prediction on_permuted = predict_masked(
          *gnn_, masked_permuted.adjacency, masked_permuted.features);
      const Prediction on_original = predict_masked(
          *gnn_, masked_original.adjacency, masked_original.features);
      if (on_permuted.predicted_class != on_original.predicted_class) {
        return false;
      }
      if (!approx_equal(on_permuted.probabilities, on_original.probabilities,
                        1e-9)) {
        return false;
      }
    }
    return true;
  }

  static Corpus* corpus_;
  static GnnClassifier* gnn_;
  static CfgExplainer* cfg_explainer_;
  static PgExplainer* pg_explainer_;
};

Corpus* MetamorphicTest::corpus_ = nullptr;
GnnClassifier* MetamorphicTest::gnn_ = nullptr;
CfgExplainer* MetamorphicTest::cfg_explainer_ = nullptr;
PgExplainer* MetamorphicTest::pg_explainer_ = nullptr;

TEST_F(MetamorphicTest, GnnPredictionIsPermutationInvariant) {
  CHECK_PROPERTY(
      "predict(pi(G)) == predict(G)", cases(), [](const Case& c) {
        const Acfg& graph = corpus_->graph(static_cast<std::size_t>(c.first));
        Rng perm_rng(static_cast<std::uint64_t>(c.second));
        const auto perm = random_permutation(graph.num_nodes(), perm_rng);
        const Acfg permuted = permute_acfg(graph, perm);
        const Prediction a = gnn_->predict(graph);
        const Prediction b = gnn_->predict(permuted);
        return a.predicted_class == b.predicted_class &&
               approx_equal(a.probabilities, b.probabilities, 1e-9);
      },
      {.iterations = 30});
}

TEST_F(MetamorphicTest, CfgExplainerSatisfiesPullBackInvariance) {
  CHECK_PROPERTY(
      "CFGExplainer pull-back invariance", cases(),
      [](const Case& c) { return pull_back_invariant(*cfg_explainer_, c); },
      {.iterations = 10});
}

TEST_F(MetamorphicTest, GnnExplainerSatisfiesPullBackInvariance) {
  GnnExplainerConfig config;
  config.iterations = 25;  // enough optimization to be non-trivial
  GnnExplainer explainer(*gnn_, config);
  CHECK_PROPERTY(
      "GNNExplainer pull-back invariance", cases(),
      [&explainer](const Case& c) { return pull_back_invariant(explainer, c); },
      {.iterations = 6});
}

TEST_F(MetamorphicTest, PgExplainerSatisfiesPullBackInvariance) {
  CHECK_PROPERTY(
      "PGExplainer pull-back invariance", cases(),
      [](const Case& c) { return pull_back_invariant(*pg_explainer_, c); },
      {.iterations = 10});
}

TEST_F(MetamorphicTest, SubgraphXSatisfiesPullBackInvariance) {
  SubgraphXConfig config;
  config.mcts_iterations = 8;
  config.shapley_samples = 2;
  SubgraphX explainer(*gnn_, config);
  CHECK_PROPERTY(
      "SubgraphX pull-back invariance", cases(),
      [&explainer](const Case& c) { return pull_back_invariant(explainer, c); },
      {.iterations = 6});
}

// Tier two: CFGExplainer's node scores are a deterministic function of the
// embeddings, so they must permute with the nodes (up to FP summation
// noise from the reordered sparse accumulations).
TEST_F(MetamorphicTest, CfgExplainerScoresArePermutationEquivariant) {
  CHECK_PROPERTY(
      "Theta_s(pi(G))[pi(v)] == Theta_s(G)[v]", cases(),
      [](const Case& c) {
        const Acfg& graph = corpus_->graph(static_cast<std::size_t>(c.first));
        Rng perm_rng(static_cast<std::uint64_t>(c.second));
        const auto perm = random_permutation(graph.num_nodes(), perm_rng);
        const Acfg permuted = permute_acfg(graph, perm);

        const ExplainerModel& model = cfg_explainer_->model();
        const Matrix scores = model.score_nodes(
            dense_embed(*gnn_, dense_adjacency(graph), graph.features()));
        const Matrix permuted_scores = model.score_nodes(
            dense_embed(*gnn_, dense_adjacency(permuted), permuted.features()));
        for (std::uint32_t v = 0; v < graph.num_nodes(); ++v) {
          if (std::abs(permuted_scores(perm[v], 0) - scores(v, 0)) > 1e-9) {
            return false;
          }
        }
        return true;
      },
      {.iterations = 20});
}

TEST_F(MetamorphicTest, PgExplainerEdgeScoresArePermutationEquivariant) {
  // permute_acfg inserts edges in the original edge-list order, so edge i
  // of pi(G) is the image of edge i of G and the score vectors must agree
  // elementwise.
  CHECK_PROPERTY(
      "PGExplainer edge scores are relabeling-equivariant", cases(),
      [](const Case& c) {
        const Acfg& graph = corpus_->graph(static_cast<std::size_t>(c.first));
        Rng perm_rng(static_cast<std::uint64_t>(c.second));
        const auto perm = random_permutation(graph.num_nodes(), perm_rng);
        const Acfg permuted = permute_acfg(graph, perm);

        const auto scores = pg_explainer_->edge_scores(graph);
        const auto permuted_scores = pg_explainer_->edge_scores(permuted);
        if (scores.size() != permuted_scores.size()) return false;
        for (std::size_t e = 0; e < scores.size(); ++e) {
          if (std::abs(scores[e] - permuted_scores[e]) > 1e-9) return false;
        }
        return true;
      },
      {.iterations = 20});
}

// The headline equivariance from the issue: Algorithm 2's importance
// ordering follows the relabeling, ordered_nodes[i] of pi(G) ==
// pi(ordered_nodes[i] of G) at every position.
//
// Ties are the only legitimate escape: when two surviving nodes carry
// bit-equal scores at some pruning stage (saturated sigmoids on the
// trained model, or ReLU-collapsed embeddings on a random one), the
// index tie-break picks permutation-dependent victims. So each case first
// scans every stage's score vector — reconstructed through the same
// keep_only masking the interpreter applies — and only tie-free cases are
// held to strict equivariance; a counter asserts the guard doesn't make
// the property vacuous.
TEST(MetamorphicOrdering, InterpretationIsPermutationEquivariantWithoutTies) {
  Rng init(913);
  GnnConfig gnn_config;
  gnn_config.gcn_dims = {10, 8};
  GnnClassifier gnn(gnn_config, init);
  ExplainerModelConfig model_config;
  model_config.embedding_dim = 8;
  model_config.num_classes = kFamilyCount;
  ExplainerModel theta(model_config, init);
  Interpreter interpreter(theta, gnn);

  std::size_t checked = 0;
  std::size_t skipped_for_ties = 0;
  const auto stage_has_tie = [&](const Acfg& graph,
                                 const Interpretation& base) {
    const Matrix adjacency = dense_adjacency(graph);
    for (const auto& kept : base.subgraph_nodes) {
      const MaskedGraph masked = keep_only(adjacency, graph.features(), kept);
      const Matrix scores =
          theta.score_nodes(dense_embed(gnn, masked.adjacency, masked.features));
      for (std::size_t i = 0; i < kept.size(); ++i) {
        for (std::size_t j = i + 1; j < kept.size(); ++j) {
          if (std::abs(scores(kept[i], 0) - scores(kept[j], 0)) < 1e-9) {
            return true;
          }
        }
      }
    }
    return false;
  };

  CHECK_PROPERTY(
      "interpret(pi(G)).ordered_nodes == pi(interpret(G).ordered_nodes)",
      proptest::pairs(proptest::acfgs(20, 0.2), proptest::integers(1, 1 << 20)),
      [&](const std::pair<Acfg, std::int64_t>& c) {
        const Acfg& graph = c.first;
        Rng perm_rng(static_cast<std::uint64_t>(c.second));
        const auto perm = random_permutation(graph.num_nodes(), perm_rng);
        const Acfg permuted = permute_acfg(graph, perm);

        const Interpretation base = interpreter.interpret(graph);
        if (stage_has_tie(graph, base)) {
          ++skipped_for_ties;
          return true;  // tie-break order is legitimately index-dependent
        }
        ++checked;
        const Interpretation image =
            interpreter.interpret(permuted);
        if (base.ordered_nodes.size() != image.ordered_nodes.size()) {
          return false;
        }
        for (std::size_t i = 0; i < base.ordered_nodes.size(); ++i) {
          if (image.ordered_nodes[i] != perm[base.ordered_nodes[i]]) {
            return false;
          }
        }
        return true;
      },
      {.iterations = 25});
  // The tie guard must stay the exception, not the rule.
  EXPECT_GE(checked, skipped_for_ties) << "tie guard made the check vacuous";
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace cfgx
