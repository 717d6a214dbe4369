// The unfused GCN path, kept as the reference for the fused row-tiled pass
// that GnnClassifier runs for inference and training alike (DESIGN.md
// decision 18). Per layer it runs H*W, the spmm aggregate, + b and the GCN
// clamp as whole-matrix passes, holding every dead row at +0.0 in each
// result (the fused pass never computes those rows). Its backward masks by
// the pre-activation P <= 0, where GcnLayer::backward reads the output.
#pragma once

#include <cstddef>
#include <vector>

#include "gnn/classifier.hpp"
#include "gnn/gcn.hpp"
#include "nn/matrix.hpp"
#include "nn/sparse.hpp"

namespace cfgx {

class ThreadPool;

// What one layer's forward leaves for its backward.
struct GcnLayerTrace {
  Matrix h;    // input H
  Matrix hw;   // H * W
  Matrix pre;  // A_hat * H * W + b
  Matrix out;  // the GCN clamp of pre: x < 0 -> +0.0, -0.0 and NaN kept
};

// One layer over `a_hat`. Rows with dead[i] != 0 are +0.0 in every matrix
// of the trace, its input copy included; an empty `dead` marks none.
GcnLayerTrace reference_gcn_forward(const GcnLayer& layer,
                                    const CsrMatrix& a_hat, const Matrix& h,
                                    const std::vector<char>& dead = {},
                                    ThreadPool* pool = nullptr);

// Backward from dLoss/dZ through `trace`: accumulates into the layer's
// parameter gradients, returns dLoss/dH and, when grad_a_hat != nullptr,
// accumulates dLoss/dA_hat at the stored entries of a_hat into it.
Matrix reference_gcn_backward(GcnLayer& layer, const CsrMatrix& a_hat,
                              const GcnLayerTrace& trace,
                              const Matrix& grad_output,
                              ThreadPool* pool = nullptr,
                              std::vector<double>* grad_a_hat = nullptr);

// GnnClassifier::forward_cached + backward_cached of `model` (either
// readout) on the reference layers, starting from zero gradients. The
// model itself is left untouched.
struct ReferenceStep {
  Matrix logits;
  std::vector<Matrix> grads;  // one per GnnClassifier::parameters() entry
  std::vector<double> grad_adjacency;  // empty unless requested
  Matrix grad_scaled_features;
};
ReferenceStep reference_training_step(GnnClassifier& model,
                                      const CsrMatrix& a_hat,
                                      const std::vector<double>& inv_sqrt,
                                      const Matrix& raw_features,
                                      const Matrix& grad_logits,
                                      bool want_adjacency_grad,
                                      ThreadPool* pool = nullptr);

}  // namespace cfgx
