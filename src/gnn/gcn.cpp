#include "gnn/gcn.hpp"

#include <bit>
#include <cstdint>

#include "nn/workspace.hpp"
#include "util/thread_pool.hpp"

namespace cfgx {
namespace {

// The GCN clamp x < 0 -> +0.0. It clamps strictly negative values only and
// keeps -0.0 and NaN as-is, unlike std::max(0.0, x); the layer tests and
// the fused oracle pin this. Written as a bit mask: the signs of GCN
// pre-activations are close to random, so a branch would mispredict about
// every other element.
double clamp_negative(double x) {
  const std::uint64_t negative = x < 0.0 ? ~std::uint64_t{0} : 0;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) & ~negative);
}

}  // namespace

GcnLayer::GcnLayer(std::size_t in_features, std::size_t out_features, Rng& rng,
                   std::string name)
    : weight_(name + ".W", glorot_uniform(in_features, out_features, rng)),
      bias_(name + ".b", Matrix(1, out_features)) {}

void GcnLayer::combine_rows(const Matrix& h, Matrix& out,
                            std::size_t rows) const {
  detail::matmul_rows_dispatch(h, weight_.value, out, 0, rows);
}

void GcnLayer::finish_row(double* row) const {
  const double* bias = bias_.value.data();
  const std::size_t cols = out_features();
  for (std::size_t c = 0; c < cols; ++c) {
    row[c] = clamp_negative(row[c] + bias[c]);
  }
}

Matrix GcnLayer::backward(const Matrix& grad_output, const CsrMatrix& a_hat,
                          const Matrix& h, const Matrix& hw, const Matrix& out,
                          ThreadPool* pool, std::vector<double>* grad_a_hat) {
  // dP = dZ .* 1[P > 0] = dZ .* 1[Z > 0]
  Matrix grad_pre = grad_output;
  for (std::size_t i = 0; i < grad_pre.size(); ++i) {
    if (out.data()[i] <= 0.0) grad_pre.data()[i] = 0.0;
  }

  bias_.grad += grad_pre.col_sums();

  // d(HW) = A_hat^T dP;  dW = H^T d(HW);  dH = d(HW) W^T;
  // dA = dP (HW)^T at the stored entries of A_hat.
  // Gradients accumulate (+=) into Parameter::grad, so products that feed an
  // accumulation are computed into workspace scratch first.
  Workspace& workspace = Workspace::local();
  Workspace::Lease grad_hw = workspace.acquire(0, 0);
  spmm_transpose_a_into(a_hat, grad_pre, grad_hw.get(), pool);
  Workspace::Lease scratch = workspace.acquire(0, 0);
  matmul_transpose_a_into(h, grad_hw.get(), scratch.get());
  weight_.grad += scratch.get();
  if (grad_a_hat != nullptr) {
    sddmm_accumulate(a_hat, grad_pre, hw, *grad_a_hat, pool);
  }
  return matmul_transpose_b(grad_hw.get(), weight_.value);
}

}  // namespace cfgx
