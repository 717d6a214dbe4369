// Dense N x N reference implementations of the adjacency pipeline, kept as
// test oracles only (DESIGN.md decision 9). The library runs every
// consumer on the edge list -> frozen CSR path of graph/ops.hpp; these are
// the straightforward dense versions the bit-identity tests compare it
// against: the weighted adjacency A in {0,1,2}^(N x N), its normalization,
// the node-masking helpers of Algorithm 2, the dense-input GNN entry
// points and the dense GCN forward/backward with its N x N edge gradient.
#pragma once

#include <cstdint>
#include <vector>

#include "gnn/classifier.hpp"
#include "gnn/gcn.hpp"
#include "graph/acfg.hpp"
#include "nn/matrix.hpp"
#include "nn/sparse.hpp"

namespace cfgx {

// Dense weighted adjacency: A(src, dst) = w_e * gate_e maximized over the
// edges of each ordered pair (a call edge dominates a coincident flow
// edge). No gates = every gate 1.0.
Matrix dense_adjacency(const Acfg& graph);
Matrix dense_adjacency(const Acfg& graph, const std::vector<double>& gates);

// A_hat = D^{-1/2} (S + I) D^{-1/2}, S = A + A^T, with the self-loop policy
// of graph/ops.hpp (active = non-zero S entry or, when `features` is given,
// a non-zero feature row). Optionally exports d^{-1/2} (0 when inactive).
Matrix normalized_adjacency(const Matrix& adjacency,
                            const Matrix* features = nullptr);
Matrix normalized_adjacency(const Matrix& adjacency,
                            std::vector<double>& inv_sqrt_degree,
                            const Matrix* features = nullptr);

// CsrMatrix::from_dense of the above (structural zeros dropped).
CsrMatrix normalized_adjacency_csr(const Matrix& adjacency,
                                   const Matrix* features = nullptr);
CsrMatrix normalized_adjacency_csr(const Matrix& adjacency,
                                   std::vector<double>& inv_sqrt_degree,
                                   const Matrix* features = nullptr);

// The dense normalization stored at MaskedNormalizedAdjacency's frozen
// structure (every non-zero of S = A + A^T plus the full diagonal), with
// its d^{-1/2}: what the CSR path must reproduce bit for bit.
struct FrozenNormalization {
  CsrMatrix a_hat;
  std::vector<double> inv_sqrt_degree;
};
FrozenNormalization frozen_normalization(const Matrix& adjacency,
                                         const Matrix& features);

// Every entry of `dense` stored, zeros included: the dense matrix in CSR
// form, so spmm over it runs the dense product's operation sequence and a
// per-slot gradient over it is the full N x N gradient (slot i * cols + j).
CsrMatrix full_csr(const Matrix& dense);

// Active nodes under the self-loop policy.
std::size_t count_active_nodes(const Matrix& adjacency, const Matrix& features);

// Zeroes row + column `node` of the adjacency and the node's feature row
// (Algorithm 2 lines 17-18 plus DESIGN decision 3).
void mask_node(Matrix& adjacency, Matrix& features, std::uint32_t node);

// (A, X) with every node NOT in `kept` masked out; shapes preserved.
struct MaskedGraph {
  Matrix adjacency;
  Matrix features;
};
MaskedGraph keep_only(const Matrix& adjacency, const Matrix& features,
                      const std::vector<std::uint32_t>& kept);

// True when row `node` and column `node` of `adjacency` are entirely zero.
bool node_is_masked(const Matrix& adjacency, std::uint32_t node);

// GnnClassifier entry points on a dense adjacency + RAW features.
Matrix dense_embed(const GnnClassifier& model, const Matrix& adjacency,
                   const Matrix& raw_features);
Prediction predict_masked(const GnnClassifier& model, const Matrix& adjacency,
                          const Matrix& raw_features);
Matrix forward_cached_dense(GnnClassifier& model, const Matrix& adjacency,
                            const Matrix& raw_features);

// ReLU(A_hat H W + b) with a dense A_hat and the GCN clamp (x < 0 -> +0.0,
// keeping -0.0 and NaN).
Matrix dense_infer(const GcnLayer& layer, const Matrix& a_hat, const Matrix& h);

// Dense GCN forward + backward of the (MeanPool) classifier on a dense
// adjacency, loss = softmax cross-entropy against `target`: the logits and
// dLoss/dA (N x N) with degrees held constant, c_i c_j (G_ij + G_ji) where
// G = sum over layers of dP (HW)^T. The reference for
// GnnClassifier::backward_cached's per-slot edge gradient.
struct DenseBackward {
  Matrix logits;
  Matrix grad_adjacency;
};
DenseBackward dense_backward_reference(GnnClassifier& model,
                                       const Matrix& adjacency,
                                       const Matrix& raw_features,
                                       std::size_t target);

}  // namespace cfgx
