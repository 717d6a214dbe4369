// Graph Convolutional Network layer (Kipf & Welling style), the building
// block of the paper's embedding component Phi_e (three GCN layers with
// ReLU activations, Section V-A).
//
// Forward: Z = ReLU(A_hat * H * W + b), with A_hat the normalized adjacency
// from graph/ops.hpp in CSR form (CFG adjacencies are >95% zeros).
//
// The layer holds its parameters and nothing else. GnnClassifier runs the
// forward a tile of rows at a time through combine_rows and finish_row
// (DESIGN.md decision 18), for inference and training alike, and keeps what
// backward() reads. backward() can also return dLoss/dA_hat at the stored
// entries of A_hat, which GNNExplainer and PGExplainer need to optimize
// edge masks through the GNN.
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

  // The two per-row stages of the forward:
  //   combine_rows: rows [0, rows) of `out` (zero-filled, out_features()
  //     columns) become those rows of h * W, on the ISA-dispatched matmul
  //     row kernel.
  //   finish_row: one aggregated row (A_hat H W)_i gets + b and the GCN
  //     clamp x < 0 -> 0, which keeps -0.0 and NaN (unlike the Theta_s
  //     ReLU, which maps both to +0.0).
  void combine_rows(const Matrix& h, Matrix& out, std::size_t rows) const;
  void finish_row(double* row) const;

  // Backward from dLoss/dZ of a forward over `a_hat` that read `h`,
  // computed `hw` = h * W and produced `out` = Z. Accumulates dW, db;
  // returns dLoss/dH. The ReLU mask is out <= 0: the clamp maps exactly the
  // pre-activations P <= 0 to a Z <= 0 (P < 0 to +0, and -0 stays -0), so
  // it is the mask P <= 0 read from the output. The pool splits the spmm
  // rows. When grad_a_hat != nullptr, also accumulates dLoss/dA_hat at the
  // stored entries of a_hat into it (one entry per stored value, in value
  // order): the SDDMM dP * (HW)^T sampled at the structure, each entry
  // bit-identical to the dense product's.
  Matrix backward(const Matrix& grad_output, const CsrMatrix& a_hat,
                  const Matrix& h, const Matrix& hw, const Matrix& out,
                  ThreadPool* pool = nullptr,
                  std::vector<double>* grad_a_hat = nullptr);

  std::vector<Parameter*> parameters() { return {&weight_, &bias_}; }
  void zero_grad() {
    weight_.zero_grad();
    bias_.zero_grad();
  }

 private:
  Parameter weight_;
  Parameter bias_;
};

}  // namespace cfgx
