#include "gnn/gcn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/ops.hpp"
#include "nn/gradcheck.hpp"
#include "nn/sparse.hpp"
#include "support/dense_oracle.hpp"
#include "util/thread_pool.hpp"

namespace cfgx {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

Matrix random_a_hat(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  // Ring backbone keeps every node active: an isolated node would sit at
  // the ReLU kink (preactivation exactly 0 with zero bias), where finite
  // differences are undefined.
  for (std::size_t i = 0; i < n; ++i) a(i, (i + 1) % n) = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.3)) a(i, j) = 1.0;
    }
  }
  return normalized_adjacency(a);
}

double scalarize(const Matrix& out, const Matrix& w) {
  double acc = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) acc += out.data()[i] * w.data()[i];
  return acc;
}

TEST(GcnLayerTest, InferMatchesForward) {
  Rng rng(1);
  GcnLayer layer(4, 3, rng);
  const CsrMatrix a_hat = CsrMatrix::from_dense(random_a_hat(5, rng));
  const Matrix h = random_matrix(5, 4, rng);
  EXPECT_TRUE(approx_equal(layer.infer(a_hat, h), layer.forward(a_hat, h), 1e-12));
}

TEST(GcnLayerTest, OutputIsNonNegative) {
  Rng rng(2);
  GcnLayer layer(4, 6, rng);
  const Matrix out = layer.forward(CsrMatrix::from_dense(random_a_hat(7, rng)),
                                   random_matrix(7, 4, rng));
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_GE(out.data()[i], 0.0);
}

TEST(GcnLayerTest, IsolatedNodeRowProducesBiasOnlyOutput) {
  Rng rng(3);
  GcnLayer layer(2, 2, rng);
  Matrix a_hat(3, 3);          // node 2 fully masked (zero row/col)
  a_hat(0, 0) = a_hat(1, 1) = 0.5;
  a_hat(0, 1) = a_hat(1, 0) = 0.5;
  const Matrix h = random_matrix(3, 2, rng);
  const Matrix out = layer.forward(CsrMatrix::from_dense(a_hat), h);
  // Row 2: ReLU(0 + b).
  for (std::size_t c = 0; c < 2; ++c) {
    const double expected = std::max(0.0, layer.parameters()[1]->value(0, c));
    EXPECT_NEAR(out(2, c), expected, 1e-12);
  }
}

TEST(GcnLayerTest, InputGradientMatchesNumeric) {
  Rng rng(4);
  GcnLayer layer(3, 4, rng);
  const CsrMatrix a_hat = CsrMatrix::from_dense(random_a_hat(5, rng));
  Matrix h = random_matrix(5, 3, rng);
  const Matrix w = random_matrix(5, 4, rng);

  layer.zero_grad();
  layer.forward(a_hat, h);
  const Matrix analytic = layer.backward(w);
  const auto result = check_gradient_against(
      h, analytic, [&] { return scalarize(layer.infer(a_hat, h), w); });
  EXPECT_TRUE(result.passed(1e-5)) << result.max_rel_error;
}

TEST(GcnLayerTest, WeightGradientsMatchNumeric) {
  Rng rng(5);
  GcnLayer layer(3, 2, rng);
  const CsrMatrix a_hat = CsrMatrix::from_dense(random_a_hat(4, rng));
  const Matrix h = random_matrix(4, 3, rng);
  const Matrix w = random_matrix(4, 2, rng);

  layer.zero_grad();
  layer.forward(a_hat, h);
  layer.backward(w);

  for (Parameter* param : layer.parameters()) {
    const Matrix analytic = param->grad;
    const auto result = check_gradient_against(
        param->value, analytic,
        [&] { return scalarize(layer.infer(a_hat, h), w); });
    EXPECT_TRUE(result.passed(1e-5))
        << param->name << " rel err " << result.max_rel_error;
  }
}

TEST(GcnLayerTest, AdjacencyGradientMatchesNumeric) {
  Rng rng(6);
  GcnLayer layer(3, 2, rng);
  Matrix a_hat = random_a_hat(4, rng);
  const Matrix h = random_matrix(4, 3, rng);
  const Matrix w = random_matrix(4, 2, rng);

  // Every entry stored, so the per-slot gradient covers all of A_hat.
  layer.zero_grad();
  layer.forward(full_csr(a_hat), h);
  std::vector<double> grad_slots(16, 0.0);
  layer.backward(w, &grad_slots);
  Matrix grad_a(4, 4);
  std::copy(grad_slots.begin(), grad_slots.end(), grad_a.data());

  const auto result = check_gradient_against(
      a_hat, grad_a, [&] { return scalarize(dense_infer(layer, a_hat, h), w); });
  EXPECT_TRUE(result.passed(1e-5)) << result.max_rel_error;
}

TEST(GcnLayerTest, GradientsAccumulate) {
  Rng rng(7);
  GcnLayer layer(2, 2, rng);
  const CsrMatrix a_hat = CsrMatrix::from_dense(random_a_hat(3, rng));
  const Matrix h = random_matrix(3, 2, rng);
  const Matrix w(3, 2, 1.0);

  layer.zero_grad();
  layer.forward(a_hat, h);
  layer.backward(w);
  const Matrix once = layer.parameters()[0]->grad;
  layer.forward(a_hat, h);
  layer.backward(w);
  EXPECT_TRUE(approx_equal(layer.parameters()[0]->grad, once * 2.0, 1e-10));
}

// --- CSR path: must reproduce the dense reference (support/dense_oracle) ---

TEST(GcnLayerCsrTest, InferMatchesDenseReference) {
  Rng rng(20);
  GcnLayer layer(4, 3, rng);
  const Matrix a_hat = random_a_hat(6, rng);
  const Matrix h = random_matrix(6, 4, rng);
  const CsrMatrix a_csr = CsrMatrix::from_dense(a_hat);
  EXPECT_TRUE(
      approx_equal(layer.infer(a_csr, h), dense_infer(layer, a_hat, h), 1e-12));
}

TEST(GcnLayerCsrTest, InferWithPoolMatchesDenseReference) {
  Rng rng(21);
  ThreadPool pool(4);
  GcnLayer layer(4, 5, rng);
  const Matrix a_hat = random_a_hat(32, rng);
  const Matrix h = random_matrix(32, 4, rng);
  const CsrMatrix a_csr = CsrMatrix::from_dense(a_hat);
  EXPECT_EQ(layer.infer(a_csr, h, &pool), layer.infer(a_csr, h));
  EXPECT_TRUE(approx_equal(layer.infer(a_csr, h, &pool),
                           dense_infer(layer, a_hat, h), 1e-12));
}

TEST(GcnLayerCsrTest, ForwardBackwardMatchesDensePath) {
  Rng rng(22);
  GcnLayer dense_layer(3, 4, rng);
  Rng rng2(22);
  GcnLayer csr_layer(3, 4, rng2);  // identical weights (same seed)

  Rng data_rng(23);
  const Matrix a_hat = random_a_hat(7, data_rng);
  const Matrix h = random_matrix(7, 3, data_rng);
  const Matrix w = random_matrix(7, 4, data_rng);
  const CsrMatrix a_csr = CsrMatrix::from_dense(a_hat);
  const CsrMatrix a_full = full_csr(a_hat);  // the dense operation sequence

  EXPECT_TRUE(approx_equal(dense_layer.forward(a_full, h),
                           csr_layer.forward(a_csr, h), 1e-12));

  std::vector<double> grad_a_dense(a_full.nnz(), 0.0);
  std::vector<double> grad_a_csr(a_csr.nnz(), 0.0);
  const Matrix grad_h_dense = dense_layer.backward(w, &grad_a_dense);
  const Matrix grad_h_csr = csr_layer.backward(w, &grad_a_csr);
  EXPECT_TRUE(approx_equal(grad_h_dense, grad_h_csr, 1e-12));
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t p = a_csr.row_ptr()[i]; p < a_csr.row_ptr()[i + 1]; ++p) {
      EXPECT_NEAR(grad_a_csr[p], grad_a_dense[i * 7 + a_csr.col_idx()[p]],
                  1e-12);
    }
  }
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(approx_equal(dense_layer.parameters()[p]->grad,
                             csr_layer.parameters()[p]->grad, 1e-12));
  }
}

// Gradcheck straight through the CSR-backed layer: the analytic gradients
// of the sparse kernels against central finite differences of the sparse
// forward itself (not just agreement with the dense path).
TEST(GcnLayerCsrTest, GradientsMatchNumericThroughCsrPath) {
  Rng rng(24);
  GcnLayer layer(3, 4, rng);
  const Matrix a_hat = random_a_hat(5, rng);
  const CsrMatrix a_csr = CsrMatrix::from_dense(a_hat);
  Matrix h = random_matrix(5, 3, rng);
  const Matrix w = random_matrix(5, 4, rng);

  layer.zero_grad();
  layer.forward(a_csr, h);
  const Matrix analytic = layer.backward(w);
  const auto input_check = check_gradient_against(
      h, analytic, [&] { return scalarize(layer.infer(a_csr, h), w); });
  EXPECT_TRUE(input_check.passed(1e-5)) << input_check.max_rel_error;

  for (Parameter* param : layer.parameters()) {
    const auto param_check = check_gradient_against(
        param->value, param->grad,
        [&] { return scalarize(layer.infer(a_csr, h), w); });
    EXPECT_TRUE(param_check.passed(1e-5))
        << param->name << " rel err " << param_check.max_rel_error;
  }
}

TEST(GcnLayerTest, DimensionsExposed) {
  Rng rng(8);
  GcnLayer layer(12, 64, rng);
  EXPECT_EQ(layer.in_features(), 12u);
  EXPECT_EQ(layer.out_features(), 64u);
}

}  // namespace
}  // namespace cfgx
