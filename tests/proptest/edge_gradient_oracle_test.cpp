// Sparse-vs-dense oracle for the edge-mask gradient (DESIGN.md decision 4).
//
// GNNExplainer and PGExplainer gate every edge of the frozen CSR
// (MaskedNormalizedAdjacency::scale_edges), run GnnClassifier::
// forward_cached on it and read backward_cached's dLoss/dA at the stored
// slots — an SDDMM per layer instead of an N x N product. The reference is
// the dense path kept in support/dense_oracle: the gated N x N adjacency
// (max of w_e * gate_e per ordered pair), its dense normalization and the
// dense GCN forward/backward. Every stored slot must equal the dense entry
// bit for bit, the logits must match bitwise, and each edge's chained
// gradient must be the dense entry times its weight when the edge sets its
// pair's value (ties to the call edge), 0.0 otherwise.
//
// Covered: random gates, gates of exactly 0.0, 0.5 and 1.0 (ties between
// a call edge and its flow twin), isolated nodes (with and without
// features), self-loops and coincident call+flow pairs; scalar and AVX2;
// with and without a kernel pool.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "dataset/families.hpp"
#include "gnn/classifier.hpp"
#include "graph/ops.hpp"
#include "nn/loss.hpp"
#include "nn/simd.hpp"
#include "proptest/generators.hpp"
#include "proptest/proptest.hpp"
#include "support/dense_oracle.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cfgx {
namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool bit_identical(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<simd::Isa> host_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::Scalar};
  if (simd::avx2_supported()) isas.push_back(simd::Isa::Avx2);
  return isas;
}

struct GateCase {
  Acfg graph;
  std::vector<double> gates;  // one per edge
  std::size_t target = 0;
};

std::string debug_string(const GateCase& value) {
  std::string gates;
  for (double g : value.gates) gates += std::to_string(g) + " ";
  return debug_string(value.graph) + "\ngates = [" + gates +
         "]\ntarget = " + std::to_string(value.target);
}

proptest::Gen<GateCase> gate_cases() {
  proptest::Gen<GateCase> gen;
  gen.generate = [](Rng& rng) {
    GateCase c;
    c.graph = proptest::acfgs(14, 0.2).generate(rng);
    // Coincident call+flow pairs on some edges.
    std::vector<Edge> edges = c.graph.edges();
    for (const Edge& e : c.graph.edges()) {
      if (rng.bernoulli(0.2)) {
        edges.push_back(Edge{e.src, e.dst,
                             e.kind == EdgeKind::Call ? EdgeKind::Flow
                                                      : EdgeKind::Call});
      }
    }
    c.graph.set_edges(std::move(edges));
    // Zero feature rows: an edgeless one is an inactive (padded) node.
    Matrix& features = c.graph.features();
    for (std::size_t i = 0; i < features.rows(); ++i) {
      if (!rng.bernoulli(0.25)) continue;
      for (std::size_t f = 0; f < features.cols(); ++f) features(i, f) = 0.0;
    }
    for (std::size_t e = 0; e < c.graph.num_edges(); ++e) {
      switch (rng.uniform_index(6)) {
        case 0:
          c.gates.push_back(0.0);
          break;
        case 1:
          c.gates.push_back(1.0);
          break;
        case 2:  // a call edge at 0.5 ties a flow edge at 1.0
          c.gates.push_back(0.5);
          break;
        default:
          c.gates.push_back(rng.uniform(0.0, 1.0));
      }
    }
    c.target = rng.uniform_index(kFamilyCount);
    return c;
  };
  return gen;
}

// True when edge e sets its ordered pair's gated value: the max of
// w * gate over the pair's edges, ties to the call edge.
bool sets_pair(const GateCase& c, std::size_t e) {
  const auto& edges = c.graph.edges();
  const double v = edges[e].weight() * c.gates[e];
  for (std::size_t o = 0; o < edges.size(); ++o) {
    if (o == e || edges[o].src != edges[e].src || edges[o].dst != edges[e].dst) {
      continue;
    }
    const double w = edges[o].weight() * c.gates[o];
    if (w > v || (w == v && edges[o].kind == EdgeKind::Call)) return false;
  }
  return true;
}

TEST(EdgeGradientOracle, SlotGradientsMatchDenseBackwardBitwise) {
  Rng init(77);
  GnnConfig config;
  config.gcn_dims = {10, 8, 6};
  GnnClassifier gnn(config, init);
  ThreadPool pool(3);

  CHECK_PROPERTY(
      "backward_cached grad at every stored slot == dense dL/dA entry",
      gate_cases(),
      [&](const GateCase& c) {
        const Matrix& features = c.graph.features();
        const Matrix gated = dense_adjacency(c.graph, c.gates);
        for (const simd::Isa isa : host_isas()) {
          simd::ScopedIsa scoped(isa);
          for (ThreadPool* kernel_pool : {static_cast<ThreadPool*>(nullptr),
                                          &pool}) {
            gnn.set_kernel_pool(kernel_pool);
            MaskedNormalizedAdjacency masked(c.graph);
            masked.scale_edges(c.gates, features);
            gnn.zero_grad();
            const Matrix logits = gnn.forward_cached(
                masked.a_hat(), masked.inv_sqrt_degree(), features);
            const LossResult loss = softmax_cross_entropy(logits, {c.target});
            const auto backward = gnn.backward_cached(loss.grad, true);
            gnn.set_kernel_pool(nullptr);

            const DenseBackward dense =
                dense_backward_reference(gnn, gated, features, c.target);
            if (!bit_identical(logits, dense.logits)) return false;

            const CsrMatrix& a_hat = masked.a_hat();
            if (backward.grad_adjacency.size() != a_hat.nnz()) return false;
            for (std::size_t i = 0; i < a_hat.rows(); ++i) {
              for (std::size_t p = a_hat.row_ptr()[i];
                   p < a_hat.row_ptr()[i + 1]; ++p) {
                if (!same_bits(backward.grad_adjacency[p],
                               dense.grad_adjacency(i, a_hat.col_idx()[p]))) {
                  return false;
                }
              }
            }

            const std::vector<double> edge_grad =
                masked.edge_gradient(backward.grad_adjacency);
            const auto& edges = c.graph.edges();
            for (std::size_t e = 0; e < edges.size(); ++e) {
              const double expected =
                  sets_pair(c, e)
                      ? dense.grad_adjacency(edges[e].src, edges[e].dst) *
                            edges[e].weight()
                      : 0.0;
              if (!same_bits(edge_grad[e], expected)) return false;
            }
          }
        }
        return true;
      },
      {.iterations = 40});
}

}  // namespace
}  // namespace cfgx
