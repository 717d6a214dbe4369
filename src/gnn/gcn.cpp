#include "gnn/gcn.hpp"

#include <bit>
#include <cstdint>

#include "nn/workspace.hpp"
#include "util/thread_pool.hpp"

namespace cfgx {
namespace {

void add_bias_rows_inplace(Matrix& m, const Matrix& bias) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) += bias(0, c);
  }
}

// The GCN clamp x < 0 -> +0.0. It clamps strictly negative values only and
// keeps -0.0 and NaN as-is, unlike std::max(0.0, x); the layer tests and
// the fused oracle pin this. Written as a bit mask: the signs of GCN
// pre-activations are close to random, so a branch would mispredict about
// every other element.
double clamp_negative(double x) {
  const std::uint64_t negative = x < 0.0 ? ~std::uint64_t{0} : 0;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) & ~negative);
}

void relu_inplace(Matrix& m) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = clamp_negative(m.data()[i]);
  }
}

Matrix relu(Matrix m) {
  relu_inplace(m);
  return m;
}

}  // namespace

GcnLayer::GcnLayer(std::size_t in_features, std::size_t out_features, Rng& rng,
                   std::string name)
    : weight_(name + ".W", glorot_uniform(in_features, out_features, rng)),
      bias_(name + ".b", Matrix(1, out_features)) {}

Matrix GcnLayer::infer(const CsrMatrix& a_hat, const Matrix& h,
                       ThreadPool* pool) const {
  Matrix out;
  infer_into(a_hat, h, out, pool);
  return out;
}

void GcnLayer::infer_into(const CsrMatrix& a_hat, const Matrix& h, Matrix& out,
                          ThreadPool* pool) const {
  Workspace::Lease hw = Workspace::local().acquire(h.rows(), out_features());
  matmul_into(h, weight_.value, hw.get());
  spmm_into(a_hat, hw.get(), out, pool);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    finish_row(out.data() + r * out.cols());
  }
}

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

Matrix GcnLayer::forward(const CsrMatrix& a_hat, const Matrix& h,
                         ThreadPool* pool) {
  cached_a_csr_ = a_hat;
  cached_pool_ = pool;
  cached_h_ = h;
  matmul_into(h, weight_.value, cached_hw_);
  spmm_into(cached_a_csr_, cached_hw_, cached_preactivation_, pool);
  add_bias_rows_inplace(cached_preactivation_, bias_.value);
  return relu(cached_preactivation_);
}

Matrix GcnLayer::backward(const Matrix& grad_output,
                          std::vector<double>* grad_a_hat) {
  // dP = dZ .* 1[P > 0]
  Matrix grad_pre = grad_output;
  for (std::size_t i = 0; i < grad_pre.size(); ++i) {
    if (cached_preactivation_.data()[i] <= 0.0) grad_pre.data()[i] = 0.0;
  }

  bias_.grad += grad_pre.col_sums();

  // d(HW) = A_hat^T dP;  dW = H^T d(HW);  dH = d(HW) W^T;
  // dA = dP (HW)^T at the stored entries of A_hat.
  // Gradients accumulate (+=) into Parameter::grad, so products that feed an
  // accumulation are computed into workspace scratch first.
  Workspace& workspace = Workspace::local();
  Workspace::Lease grad_hw = workspace.acquire(0, 0);
  spmm_transpose_a_into(cached_a_csr_, grad_pre, grad_hw.get(), cached_pool_);
  Workspace::Lease scratch = workspace.acquire(0, 0);
  matmul_transpose_a_into(cached_h_, grad_hw.get(), scratch.get());
  weight_.grad += scratch.get();
  if (grad_a_hat != nullptr) {
    sddmm_accumulate(cached_a_csr_, grad_pre, cached_hw_, *grad_a_hat,
                     cached_pool_);
  }
  return matmul_transpose_b(grad_hw.get(), weight_.value);
}

}  // namespace cfgx
