// Differential kernel oracles: the dense reference kernels, the CSR sparse
// kernels, and the thread-pool kernels must agree on random sparsity
// patterns, and the analytic gradients of randomly configured
// GcnLayer/ExplainerModel stacks must match central finite differences.
#include <gtest/gtest.h>

#include <cmath>

#include "core/explainer_model.hpp"
#include "gnn/gcn.hpp"
#include "nn/gradcheck.hpp"
#include "nn/sparse.hpp"
#include "proptest/generators.hpp"
#include "proptest/proptest.hpp"
#include "support/gcn_reference.hpp"
#include "util/thread_pool.hpp"

namespace cfgx {
namespace {

using proptest::check_property;
using proptest::debug_string;
using proptest::Gen;

// A multiplication problem: a sparse-ish left operand and a dense right
// operand with matching inner dimension.
struct MatmulCase {
  Matrix a;
  Matrix b;
};

std::string debug_string(const MatmulCase& value) {
  return "A = " + debug_string(value.a) + "\nB = " + debug_string(value.b);
}

Gen<MatmulCase> matmul_cases(std::size_t max_dim) {
  Gen<MatmulCase> gen;
  gen.generate = [max_dim](Rng& rng) {
    const std::size_t m = 1 + rng.uniform_index(max_dim);
    const std::size_t k = 1 + rng.uniform_index(max_dim);
    const std::size_t n = 1 + rng.uniform_index(max_dim);
    // Random sparsity between fully dense and ~95% zeros — the CFG regime.
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

TEST(KernelsOracle, DenseSparseAndParallelMatmulAgree) {
  ThreadPool pool(4);
  CHECK_PROPERTY(
      "matmul == spmm (serial and pooled) over random sparsity",
      matmul_cases(24), [&pool](const MatmulCase& c) {
        const Matrix dense = matmul(c.a, c.b);
        const CsrMatrix csr = CsrMatrix::from_dense(c.a);
        const Matrix sparse_serial = spmm(csr, c.b);
        const Matrix sparse_parallel = spmm(csr, c.b, &pool);
        return approx_equal(dense, sparse_serial, 1e-12) &&
               approx_equal(dense, sparse_parallel, 1e-12);
      });
}

TEST(KernelsOracle, TransposedSparseKernelMatchesDenseReference) {
  ThreadPool pool(4);
  CHECK_PROPERTY(
      "spmm_transpose_a == matmul_transpose_a over random sparsity",
      matmul_cases(24), [&pool](const MatmulCase& c) {
        // Inner dimension for A^T * B is A's rows: re-pair shapes by
        // multiplying A^T with a compatible slice of B.
        Matrix rhs(c.a.rows(), c.b.cols());
        for (std::size_t i = 0; i < rhs.size(); ++i) {
          rhs.data()[i] = c.b.data()[i % c.b.size()];
        }
        const Matrix dense = matmul_transpose_a(c.a, rhs);
        const CsrMatrix csr = CsrMatrix::from_dense(c.a);
        return approx_equal(dense, spmm_transpose_a(csr, rhs), 1e-12) &&
               approx_equal(dense, spmm_transpose_a(csr, rhs, &pool), 1e-12);
      });
}

TEST(KernelsOracle, CsrRoundTripIsIdentity) {
  CHECK_PROPERTY("CsrMatrix::from_dense . to_dense == id",
                 proptest::matrices(24, 24, 3.0), [](const Matrix& m) {
                   return CsrMatrix::from_dense(m).to_dense() == m;
                 });
}

// Random GCN layer configuration driven through check_gradient_against: the
// analytic input gradient of a GcnLayer stack (GcnLayer::backward over the
// unfused reference forward) must match central finite differences of the
// scalarized output.
struct GcnStackCase {
  Matrix a_hat;     // normalized propagation matrix stand-in
  Matrix features;  // input H
  std::vector<std::size_t> dims;
  std::uint64_t init_seed = 0;
};

std::string debug_string(const GcnStackCase& value) {
  std::string dims;
  for (std::size_t d : value.dims) dims += std::to_string(d) + " ";
  return "dims = [" + dims + "], seed = " + std::to_string(value.init_seed) +
         "\nA_hat = " + debug_string(value.a_hat) +
         "\nH = " + debug_string(value.features);
}

Gen<GcnStackCase> gcn_stack_cases() {
  Gen<GcnStackCase> gen;
  gen.generate = [](Rng& rng) {
    GcnStackCase out;
    const std::size_t nodes = 2 + rng.uniform_index(5);
    const std::size_t in_dim = 2 + rng.uniform_index(4);
    out.a_hat = Matrix(nodes, nodes);
    for (std::size_t i = 0; i < out.a_hat.size(); ++i) {
      out.a_hat.data()[i] = rng.bernoulli(0.4) ? rng.uniform(0.0, 1.0) : 0.0;
    }
    out.features = Matrix(nodes, in_dim);
    for (std::size_t i = 0; i < out.features.size(); ++i) {
      out.features.data()[i] = rng.uniform(-1.0, 1.0);
    }
    const std::size_t layers = 1 + rng.uniform_index(3);
    out.dims.push_back(in_dim);
    for (std::size_t l = 0; l < layers; ++l) {
      out.dims.push_back(2 + rng.uniform_index(4));
    }
    out.init_seed = rng();
    return out;
  };
  return gen;
}

TEST(KernelsOracle, GcnLayerStackGradientsMatchFiniteDifferences) {
  CHECK_PROPERTY(
      "GcnLayer stack input gradient vs central differences",
      gcn_stack_cases(),
      [](const GcnStackCase& c) {
        Rng init(c.init_seed);
        std::vector<GcnLayer> layers;
        for (std::size_t l = 0; l + 1 < c.dims.size(); ++l) {
          layers.emplace_back(c.dims[l], c.dims[l + 1], init);
        }
        // Scalarize with fixed pseudo-random weights to exercise the full
        // Jacobian, as in check_input_gradient.
        Rng weight_rng(c.init_seed ^ 0xabcdef);
        Matrix weights(c.a_hat.rows(), c.dims.back());
        for (std::size_t i = 0; i < weights.size(); ++i) {
          weights.data()[i] = weight_rng.uniform(-1.0, 1.0);
        }

        Matrix features = c.features;
        const CsrMatrix a_hat = CsrMatrix::from_dense(c.a_hat);
        const auto loss_of = [&]() {
          Matrix h = features;
          for (GcnLayer& layer : layers) {
            h = reference_gcn_forward(layer, a_hat, h).out;
          }
          return h.hadamard(weights).sum();
        };

        // Analytic: the reference forward once, then GcnLayer::backward of
        // the scalarization weights through its traces.
        for (GcnLayer& layer : layers) layer.zero_grad();
        std::vector<GcnLayerTrace> traces;
        Matrix h = features;
        for (GcnLayer& layer : layers) {
          traces.push_back(reference_gcn_forward(layer, a_hat, h));
          h = traces.back().out;
        }
        Matrix grad = weights;
        for (std::size_t l = layers.size(); l-- > 0;) {
          grad = layers[l].backward(grad, a_hat, traces[l].h, traces[l].hw,
                                    traces[l].out);
        }

        const GradCheckResult result =
            check_gradient_against(features, grad, loss_of, 1e-6);
        return result.passed(1e-4);
      },
      {.iterations = 40});
}

// ExplainerModel joint pass: dLoss/dEmbeddings of the full Theta_s ->
// weighting -> Theta_c chain vs finite differences of the NLL loss.
TEST(KernelsOracle, ExplainerModelJointGradientsMatchFiniteDifferences) {
  const auto gen =
      proptest::pairs(proptest::sizes(2, 6), proptest::integers(1, 1 << 20));
  CHECK_PROPERTY(
      "ExplainerModel parameter gradients vs central differences", gen,
      [](const std::pair<std::size_t, std::int64_t>& c) {
        const std::size_t nodes = c.first;
        Rng rng(static_cast<std::uint64_t>(c.second));
        ExplainerModelConfig config;
        config.embedding_dim = 2 + rng.uniform_index(4);
        config.scorer_dims = {4, 1};
        config.surrogate_dims = {5, 3};
        config.num_classes = 2 + rng.uniform_index(4);
        ExplainerModel model(config, rng);

        Matrix embeddings(nodes, config.embedding_dim);
        for (std::size_t i = 0; i < embeddings.size(); ++i) {
          embeddings.data()[i] = rng.uniform(-1.0, 1.0);
        }
        const std::size_t target = rng.uniform_index(config.num_classes);

        const auto loss_of = [&]() {
          ExplainerModel probe = model.clone();
          const auto out = probe.joint_forward(embeddings);
          return -std::log(out.probabilities(0, target) + 1e-20);
        };

        // Analytic gradient w.r.t. a probe parameter (first scorer weight).
        ExplainerModel subject = model.clone();
        subject.zero_grad();
        const auto out = subject.joint_forward(embeddings);
        Matrix grad_probs(1, config.num_classes);
        grad_probs(0, target) = -1.0 / (out.probabilities(0, target) + 1e-20);
        subject.joint_backward(grad_probs);

        // Compare on every parameter of the joint model.
        auto params = subject.parameters();
        auto model_params = model.parameters();
        for (std::size_t k = 0; k < params.size(); ++k) {
          const GradCheckResult result = check_gradient_against(
              model_params[k]->value, params[k]->grad, loss_of, 1e-6);
          if (!result.passed(1e-3)) return false;
        }
        return true;
      },
      {.iterations = 15});
}

}  // namespace
}  // namespace cfgx
