// Differential batching oracle: block-diagonal batched inference must be
// BIT-identical to per-graph classifier inference. The serving engine
// packs K normalized adjacencies into one BatchedCsr and runs a single
// forward pass; these properties pin down that a graph's embeddings and
// logits do not depend on which batch it rode in — for the singleton
// batch, the smallest real batch, and a 17-graph batch of ragged node
// counts, over both batch-preparation paths (batch_normalized_graphs and
// the engine's MaskedNormalizedAdjacency-frozen CSRs).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "gnn/classifier.hpp"
#include "graph/ops.hpp"
#include "nn/sparse.hpp"
#include "proptest/generators.hpp"
#include "proptest/proptest.hpp"
#include "support/dense_oracle.hpp"
#include "util/rng.hpp"

namespace cfgx {
namespace {

using proptest::Gen;

bool bit_identical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

Matrix slice_rows(const Matrix& m, const BatchedCsr::Range& range) {
  Matrix out(range.size(), m.cols());
  for (std::size_t r = 0; r < range.size(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out(r, c) = m(range.begin + r, c);
    }
  }
  return out;
}

struct BatchCase {
  std::vector<Acfg> graphs;
};

std::string debug_string(const BatchCase& value) {
  std::string out =
      "batch of " + std::to_string(value.graphs.size()) + ", node counts:";
  for (const Acfg& graph : value.graphs) {
    out += " " + std::to_string(graph.num_nodes());
  }
  return out;
}

Gen<BatchCase> batch_cases() {
  Gen<BatchCase> gen;
  gen.generate = [graph_gen = proptest::acfgs(20, 0.2)](Rng& rng) {
    // The mandated batch sizes: singleton, smallest real batch, and one
    // larger than any dispatch chunk — node counts ragged throughout.
    static constexpr std::size_t kBatchSizes[] = {1, 2, 17};
    const std::size_t count = kBatchSizes[rng.uniform_index(3)];
    BatchCase out;
    out.graphs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      out.graphs.push_back(graph_gen.generate(rng));
    }
    return out;
  };
  return gen;
}

// One classifier for every property; inference is const. The scaler is
// fitted so the batched path exercises feature scaling like production.
class BatchedInferenceOracle : public ::testing::Test {
 protected:
  BatchedInferenceOracle() : rng_(2718), gnn_(make_config(), rng_) {
    CorpusConfig corpus_config;
    corpus_config.samples_per_family = 1;
    corpus_config.seed = 5;
    const Corpus corpus = generate_corpus(corpus_config);
    std::vector<std::size_t> all(corpus.size());
    std::iota(all.begin(), all.end(), 0u);
    FeatureScaler scaler;
    scaler.fit(corpus, all);
    gnn_.set_scaler(scaler);
  }

  static GnnConfig make_config() {
    GnnConfig config;
    config.gcn_dims = {10, 7};
    return config;
  }

  // Shared check: embeddings computed through ONE batched forward over
  // `batched` + `inv_sqrt` + `stacked` must slice back to each graph's
  // per-graph embed()/class_logits() bits.
  bool batched_matches_per_graph(const BatchCase& c, const BatchedCsr& batched,
                                 const std::vector<double>& inv_sqrt,
                                 const Matrix& stacked,
                                 const std::vector<std::size_t>& active) {
    Matrix embeddings;
    gnn_.embed_into(batched.matrix(), inv_sqrt, stacked, embeddings);
    for (std::size_t k = 0; k < c.graphs.size(); ++k) {
      const Acfg& graph = c.graphs[k];
      const Matrix adjacency = dense_adjacency(graph);
      const Matrix expected = dense_embed(gnn_, adjacency, graph.features());
      const Matrix slice = slice_rows(embeddings, batched.range(k));
      if (!bit_identical(slice, expected)) return false;
      const Matrix expected_logits = gnn_.class_logits(
          expected, count_active_nodes(adjacency, graph.features()));
      if (!bit_identical(gnn_.class_logits(slice, active[k]),
                         expected_logits)) {
        return false;
      }
    }
    return true;
  }

  Rng rng_;
  GnnClassifier gnn_;
};

TEST_F(BatchedInferenceOracle, GraphBatchInferenceBitIdenticalToPerGraph) {
  CHECK_PROPERTY(
      "batch_normalized_graphs + one embed_into == per-graph embed/logits",
      batch_cases(), [&](const BatchCase& c) {
        std::vector<const Acfg*> ptrs;
        for (const Acfg& graph : c.graphs) ptrs.push_back(&graph);
        const GraphBatch batch = batch_normalized_graphs(ptrs);
        return batched_matches_per_graph(c, batch.a_hat,
                                         batch.inv_sqrt_degree, batch.features,
                                         batch.active_counts);
      },
      {.iterations = 25});
}

TEST_F(BatchedInferenceOracle, FrozenCsrBatchInferenceBitIdenticalToPerGraph) {
  CHECK_PROPERTY(
      "concat of MaskedNormalizedAdjacency CSRs == per-graph embed/logits",
      batch_cases(), [&](const BatchCase& c) {
        // The serving engine's prepare path: per-graph frozen-structure
        // CSRs (the form the Algorithm-2 interpreter prunes in place).
        std::vector<MaskedNormalizedAdjacency> frozen;
        frozen.reserve(c.graphs.size());
        std::vector<const CsrMatrix*> blocks;
        std::vector<double> inv_sqrt;
        std::vector<std::size_t> active;
        std::size_t total_nodes = 0;
        for (const Acfg& graph : c.graphs) {
          frozen.emplace_back(graph);
          blocks.push_back(&frozen.back().a_hat());
          std::size_t graph_active = 0;
          for (double v : frozen.back().inv_sqrt_degree()) {
            if (v != 0.0) ++graph_active;
          }
          active.push_back(graph_active);
          inv_sqrt.insert(inv_sqrt.end(),
                          frozen.back().inv_sqrt_degree().begin(),
                          frozen.back().inv_sqrt_degree().end());
          total_nodes += graph.num_nodes();
        }
        const BatchedCsr batched = BatchedCsr::concat(blocks);

        Matrix stacked(total_nodes, gnn_.config().feature_dim);
        std::size_t row_base = 0;
        for (const Acfg& graph : c.graphs) {
          for (std::size_t r = 0; r < graph.features().rows(); ++r) {
            for (std::size_t col = 0; col < graph.features().cols(); ++col) {
              stacked(row_base + r, col) = graph.features()(r, col);
            }
          }
          row_base += graph.num_nodes();
        }
        return batched_matches_per_graph(c, batched, inv_sqrt, stacked,
                                         active);
      },
      {.iterations = 25});
}

}  // namespace
}  // namespace cfgx
