// Differential oracles for the zero-allocation hot path: the blocked
// matmul microkernel and every `_into` kernel must be BIT-identical to the
// naive i-k-j reference on random shapes; the incremental CSR masking of
// Algorithm 2 must reproduce the densify-and-renormalize reference after
// arbitrary prune sequences; and repeated interpret() calls recycling the
// thread-local Workspace must stay deterministic and allocation-free.
//
// The bitwise-vs-naive-reference oracles force the SCALAR ISA (ScopedIsa):
// only the scalar blocked kernel promises bit-equality with the reference.
// The AVX2-vs-scalar relationship (FMA-contracted, bounded) is pinned by
// simd_oracle_test.cpp. Every cross-VARIANT oracle below runs under the
// dispatched default on purpose — those identities must hold per ISA.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "core/explainer_model.hpp"
#include "core/interpreter.hpp"
#include "dataset/generator.hpp"
#include "gnn/classifier.hpp"
#include "graph/ops.hpp"
#include "nn/simd.hpp"
#include "nn/sparse.hpp"
#include "nn/workspace.hpp"
#include "obs/metrics.hpp"
#include "proptest/generators.hpp"
#include "proptest/proptest.hpp"
#include "support/dense_oracle.hpp"
#include "util/thread_pool.hpp"

namespace cfgx {
namespace {

using proptest::check_property;
using proptest::debug_string;
using proptest::Gen;

bool bit_identical(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// The naive reference, driven through the kept oracle entry point.
Matrix reference_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  detail::matmul_reference_rows(a, b, out, 0, a.rows());
  return out;
}

struct MatmulCase {
  Matrix a;
  Matrix b;
};

std::string debug_string(const MatmulCase& value) {
  return "A = " + debug_string(value.a) + "\nB = " + debug_string(value.b);
}

// Shapes biased toward the blocking boundaries (kBlockK = 64): dims are
// drawn from [1, max_dim] with occasional degenerate 1-row/1-col extremes,
// so tall, wide, and tile-remainder cases all occur.
Gen<MatmulCase> matmul_cases(std::size_t max_dim) {
  Gen<MatmulCase> gen;
  gen.generate = [max_dim](Rng& rng) {
    const auto dim = [&](void) -> std::size_t {
      if (rng.bernoulli(0.15)) return 1;  // degenerate edge
      return 1 + rng.uniform_index(max_dim);
    };
    const std::size_t m = dim();
    const std::size_t k = dim();
    const std::size_t n = dim();
    const double density = rng.uniform(0.05, 1.0);
    MatmulCase out{Matrix(m, k), Matrix(k, n)};
    for (std::size_t i = 0; i < out.a.size(); ++i) {
      out.a.data()[i] = rng.bernoulli(density) ? rng.uniform(-2.0, 2.0) : 0.0;
    }
    for (std::size_t i = 0; i < out.b.size(); ++i) {
      out.b.data()[i] = rng.uniform(-2.0, 2.0);
    }
    return out;
  };
  return gen;
}

TEST(IntoKernelsOracle, BlockedMatmulBitIdenticalToNaiveReference) {
  simd::ScopedIsa force_scalar(simd::Isa::Scalar);
  Matrix out;  // reused across iterations: dirty-destination path included
  CHECK_PROPERTY(
      "blocked matmul_into == naive i-k-j reference, bitwise",
      matmul_cases(90),
      [&](const MatmulCase& c) {
        const Matrix expected = reference_matmul(c.a, c.b);
        matmul_into(c.a, c.b, out);
        if (!bit_identical(out, expected)) return false;
        return bit_identical(matmul(c.a, c.b), expected);
      },
      {.iterations = 40});
}

TEST(IntoKernelsOracle, TransposeAndSparseIntoKernelsBitIdenticalToWrappers) {
  ThreadPool pool(4);
  Matrix out(3, 3, 99.0);  // starts dirty on purpose
  CHECK_PROPERTY(
      "_into variants == value-returning wrappers, bitwise", matmul_cases(32),
      [&](const MatmulCase& c) {
        matmul_transpose_a_into(c.a, c.a, out);
        if (!bit_identical(out, matmul_transpose_a(c.a, c.a))) return false;
        matmul_transpose_b_into(c.b, c.b, out);
        if (!bit_identical(out, matmul_transpose_b(c.b, c.b))) return false;

        const CsrMatrix csr = CsrMatrix::from_dense(c.a);
        spmm_into(csr, c.b, out, nullptr);
        if (!bit_identical(out, spmm(csr, c.b))) return false;
        spmm_into(csr, c.b, out, &pool);
        if (!bit_identical(out, spmm(csr, c.b))) return false;

        Matrix rhs(c.a.rows(), c.b.cols());
        for (std::size_t i = 0; i < rhs.size(); ++i) {
          rhs.data()[i] = c.b.data()[i % c.b.size()];
        }
        spmm_transpose_a_into(csr, rhs, out, &pool);
        return bit_identical(out, spmm_transpose_a(csr, rhs));
      },
      {.iterations = 40});
}

// Fixed shapes that straddle the kBlockK = 64 / kBlockN = 256 tile edges
// and the 2-row / 4-column unroll remainders.
TEST(IntoKernelsOracle, BlockBoundaryShapesMatchReference) {
  simd::ScopedIsa force_scalar(simd::Isa::Scalar);
  Rng rng(2026);
  const std::size_t shapes[][3] = {{1, 64, 256},  {2, 65, 257}, {3, 128, 1},
                                   {130, 3, 300}, {5, 1, 5},    {64, 64, 64},
                                   {67, 129, 9}};
  for (const auto& s : shapes) {
    Matrix a(s[0], s[1]), b(s[1], s[2]);
    for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.uniform(-1, 1);
    for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.uniform(-1, 1);
    Matrix out;
    matmul_into(a, b, out);
    EXPECT_TRUE(bit_identical(out, reference_matmul(a, b)))
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

// Random prune schedule for the incremental CSR: victims in random order,
// refresh() at random points (so the dirty set spans multiple prunes).
struct MaskingCase {
  Acfg graph;
  std::vector<std::uint32_t> victims;  // prune order, possibly partial
  std::uint64_t refresh_seed = 0;
};

std::string debug_string(const MaskingCase& value) {
  std::string order;
  for (std::uint32_t v : value.victims) order += std::to_string(v) + " ";
  return debug_string(value.graph) + "\nvictims = [" + order + "]";
}

Gen<MaskingCase> masking_cases() {
  Gen<MaskingCase> gen;
  gen.generate = [](Rng& rng) {
    MaskingCase out{proptest::acfgs(16, 0.25)
                        .generate(rng),
                    {},
                    rng()};
    const std::uint32_t n = out.graph.num_nodes();
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    for (std::uint32_t i = n; i > 1; --i) {  // Fisher-Yates
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    const std::size_t count = rng.uniform_index(n + 1);  // may prune nothing
    out.victims.assign(order.begin(), order.begin() + count);
    return out;
  };
  return gen;
}

TEST(IntoKernelsOracle, IncrementalMaskingBitIdenticalToDenseRenormalize) {
  CHECK_PROPERTY(
      "MaskedNormalizedAdjacency == densify+renormalize after random prunes",
      masking_cases(),
      [](const MaskingCase& c) {
        Matrix adjacency = dense_adjacency(c.graph);
        Matrix features = c.graph.features();
        MaskedNormalizedAdjacency masked(c.graph);
        Rng refresh_rng(c.refresh_seed);

        const auto agrees = [&]() {
          std::vector<double> inv_ref;
          const CsrMatrix reference =
              normalized_adjacency_csr(adjacency, inv_ref, &features);
          if (!bit_identical(inv_ref, masked.inv_sqrt_degree())) return false;
          // Structures differ (the incremental form keeps zeroed slots), so
          // compare densified values and the spmm results they produce.
          if (!bit_identical(masked.a_hat().to_dense(), reference.to_dense())) {
            return false;
          }
          Matrix h(adjacency.rows(), 3);
          Rng h_rng(7);
          for (std::size_t i = 0; i < h.size(); ++i) {
            h.data()[i] = h_rng.uniform(-1.0, 1.0);
          }
          return bit_identical(spmm(masked.a_hat(), h), spmm(reference, h));
        };

        if (!agrees()) return false;  // construction must match
        for (const std::uint32_t victim : c.victims) {
          mask_node(adjacency, features, victim);
          masked.prune(victim);
          if (refresh_rng.bernoulli(0.5)) {
            masked.refresh();
            if (!agrees()) return false;
          }
        }
        masked.refresh();
        return agrees();
      },
      {.iterations = 30});
}

bool interpretations_equal(const Interpretation& a, const Interpretation& b) {
  if (a.ordered_nodes != b.ordered_nodes) return false;
  return a.subgraph_nodes == b.subgraph_nodes;
}

// The seed implementation of Algorithm 2 (per-iteration densify +
// re-normalize + value-returning kernels), kept verbatim as the oracle the
// workspace-backed interpreter must reproduce node for node.
Interpretation dense_reference_interpret(const GnnClassifier& gnn,
                                         ExplainerModel& model,
                                         const Acfg& graph,
                                         const InterpretationConfig& config) {
  const unsigned step = config.step_size_percent;
  const std::uint32_t n_real = graph.num_nodes();
  Matrix adjacency = dense_adjacency(graph);
  Matrix features = graph.features();

  Interpretation result;
  result.step_size_percent = step;
  std::vector<std::uint32_t> remaining(n_real);
  for (std::uint32_t i = 0; i < n_real; ++i) remaining[i] = i;
  std::vector<std::uint32_t> removal_order;

  const unsigned iterations = 100 / step;
  for (unsigned it = 0; it < iterations; ++it) {
    result.subgraph_nodes.push_back(remaining);
    const Matrix embeddings = dense_embed(gnn, adjacency, features);
    const Matrix scores = model.score_nodes(embeddings);
    const auto target_remaining = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(n_real) * (100 - (it + 1) * step) + 50) /
        100);
    const std::size_t n_step =
        remaining.size() > target_remaining ? remaining.size() - target_remaining
                                            : 0;
    for (std::size_t k = 0; k < n_step; ++k) {
      std::size_t min_pos = 0;
      double min_score = std::numeric_limits<double>::infinity();
      for (std::size_t pos = 0; pos < remaining.size(); ++pos) {
        const double score = scores(remaining[pos], 0);
        if (score < min_score) {
          min_score = score;
          min_pos = pos;
        }
      }
      const std::uint32_t victim = remaining[min_pos];
      remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(min_pos));
      removal_order.push_back(victim);
      mask_node(adjacency, features, victim);
    }
  }
  result.ordered_nodes.assign(remaining.begin(), remaining.end());
  for (auto it = removal_order.rbegin(); it != removal_order.rend(); ++it) {
    result.ordered_nodes.push_back(*it);
  }
  std::reverse(result.subgraph_nodes.begin(), result.subgraph_nodes.end());
  return result;
}

class InterpreterEquivalence : public ::testing::Test {
 protected:
  InterpreterEquivalence()
      : rng_(99),
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
        }()) {}

  Rng rng_;
  GnnClassifier gnn_;
  ExplainerModel model_;
};

TEST_F(InterpreterEquivalence, MatchesSeedDensePathOnRandomGraphs) {
  Interpreter interpreter(model_, gnn_);
  CHECK_PROPERTY(
      "incremental-CSR interpret == seed dense interpret",
      proptest::acfgs(20, 0.2),
      [&](const Acfg& graph) {
        InterpretationConfig config;
        config.step_size_percent = 20;
        const Interpretation fast = interpreter.interpret(graph, config);
        const Interpretation reference =
            dense_reference_interpret(gnn_, model_, graph, config);
        return interpretations_equal(fast, reference);
      },
      {.iterations = 15});
}

TEST_F(InterpreterEquivalence, RepeatedInterpretIsDeterministicAndAllocFree) {
  const bool saved = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto& allocated =
      obs::MetricsRegistry::global().counter("workspace.bytes_allocated");

  Rng graph_rng(1234);
  const Acfg graph = generate_acfg(Family::Rbot, graph_rng);
  Interpreter interpreter(model_, gnn_);
  const Interpretation first = interpreter.interpret(graph);
  interpreter.interpret(graph);  // warm the thread-local pool

  const std::uint64_t allocated_before = allocated.value();
  for (int round = 0; round < 3; ++round) {
    const Interpretation repeat = interpreter.interpret(graph);
    EXPECT_TRUE(interpretations_equal(first, repeat)) << "round " << round;
  }
  // Steady state: every scratch request is served from pooled capacity.
  EXPECT_EQ(allocated.value(), allocated_before);

  obs::set_metrics_enabled(saved);
}

}  // namespace
}  // namespace cfgx
