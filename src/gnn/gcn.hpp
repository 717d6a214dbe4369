// Graph Convolutional Network layer (Kipf & Welling style), the building
// block of the paper's embedding component Phi_e (three GCN layers with
// ReLU activations, Section V-A).
//
// Forward: Z = ReLU(A_hat * H * W + b), with A_hat the normalized adjacency
// from graph/ops.hpp.
//
// Two execution paths, both over A_hat in CSR form (CFG adjacencies are
// >95% zeros; the dense N x N reference lives in the test oracles):
//   * infer(...) const      — cache-free, safe to call concurrently
//   * forward(...)/backward — cached training path; backward can also
//     return dLoss/dA_hat at the stored entries of A_hat, which GNNExplainer
//     and PGExplainer need to optimize edge masks through the GNN.
// Both take an optional ThreadPool whose workers split the output rows;
// results are identical to the serial run to the last bit.
#pragma once

#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "nn/matrix.hpp"
#include "nn/sparse.hpp"

namespace cfgx {

class ThreadPool;

class GcnLayer {
 public:
  GcnLayer(std::size_t in_features, std::size_t out_features, Rng& rng,
           std::string name = "gcn");

  std::size_t in_features() const { return weight_.value.rows(); }
  std::size_t out_features() const { return weight_.value.cols(); }

  // Cache-free inference.
  Matrix infer(const CsrMatrix& a_hat, const Matrix& h,
               ThreadPool* pool = nullptr) const;

  // Destination-passing inference: writes ReLU(A_hat H W + b) into `out`
  // (reshaped, capacity-reusing) with the H*W intermediate held in a
  // Workspace scratch buffer — zero allocations in steady state. `out`
  // must not alias `h`. Bit-identical to the value-returning overloads.
  void infer_into(const CsrMatrix& a_hat, const Matrix& h, Matrix& out,
                  ThreadPool* pool = nullptr) const;

  // The two per-row stages, for callers that run the layer a tile of rows
  // at a time (GnnClassifier::embed_into):
  //   combine_rows: rows [0, rows) of `out` (zero-filled, out_features()
  //     columns) become those rows of h * W, on the same row kernel as
  //     infer_into.
  //   finish_row: one aggregated row (A_hat H W)_i gets + b and the GCN
  //     clamp x < 0 -> 0, which keeps -0.0 and NaN (unlike the Theta_s
  //     ReLU, which maps both to +0.0).
  void combine_rows(const Matrix& h, Matrix& out, std::size_t rows) const;
  void finish_row(double* row) const;

  // Cached training forward; caches A_hat so backward() runs on it too.
  Matrix forward(const CsrMatrix& a_hat, const Matrix& h,
                 ThreadPool* pool = nullptr);

  // Backward from dLoss/dZ. Accumulates dW, db; returns dLoss/dH.
  // When grad_a_hat != nullptr, also accumulates dLoss/dA_hat at the
  // stored entries of the cached A_hat into it (one entry per stored
  // value, in value order): the SDDMM dP * (HW)^T sampled at the
  // structure, each entry bit-identical to the dense product's.
  Matrix backward(const Matrix& grad_output,
                  std::vector<double>* grad_a_hat = nullptr);

  std::vector<Parameter*> parameters() { return {&weight_, &bias_}; }
  void zero_grad() {
    weight_.zero_grad();
    bias_.zero_grad();
  }

 private:
  Parameter weight_;
  Parameter bias_;
  // Caches for backward.
  CsrMatrix cached_a_csr_;
  ThreadPool* cached_pool_ = nullptr;
  Matrix cached_h_;
  Matrix cached_hw_;             // H * W
  Matrix cached_preactivation_;  // A_hat * H * W + b
};

}  // namespace cfgx
