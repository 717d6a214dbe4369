// The CFGExplainer deep-learning model Theta = {Theta_s, Theta_c}
// (paper Section IV, Figure 1).
//
//   Theta_s (node scorer): dense 64 -> ReLU -> dense 32 -> ReLU -> dense 1
//       -> sigmoid, applied per node embedding, producing Psi in [0,1]^N.
//   Theta_c (surrogate classifier): dense 64 -> ReLU -> dense 32 -> ReLU ->
//       dense 16 -> ReLU -> dense num_classes applied ROW-WISE to the
//       score-weighted embeddings (dense layers over the [N, f] matrix, the
//       natural reading of the paper's architecture), then the mean node
//       logit is softmaxed into the graph-level distribution Y.
//
// The coupling Z_weighted[j,:] = Psi_j * Z[j,:] ties the scores to the
// embeddings: when Theta_c learns to classify from Z_weighted, Theta_s is
// forced to assign high scores to the node embeddings that matter
// (Section IV-A). joint_backward() implements exactly that chain rule.
//
// Pooling note: the paper leaves Theta_c's reduction over N nodes implicit;
// we mean-pool the weighted embeddings before the MLP (DESIGN.md, matching
// the Phi_c readout convention), with the denominator fixed at the graph's
// node count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace cfgx {

struct ExplainerModelConfig {
  std::size_t embedding_dim = 32;         // f — must match Phi_e's output
  std::vector<std::size_t> scorer_dims = {64, 32, 1};     // paper Section V-A
  std::vector<std::size_t> surrogate_dims = {64, 32, 16};  // + final -> classes
  std::size_t num_classes = 12;
};

class ExplainerModel {
 public:
  ExplainerModel(ExplainerModelConfig config, Rng& rng);

  const ExplainerModelConfig& config() const noexcept { return config_; }

  // --- Theta_s ---

  // Node scores Psi [N, 1] from embeddings Z [N, f]: the inference pass,
  // const and cache-free. One model may serve concurrent calls from many
  // threads, and a call between joint_forward() and joint_backward() leaves
  // the gradients unchanged. Bit-identical to joint_forward(z).scores.
  Matrix score_nodes(const Matrix& embeddings) const;

  // Destination-passing variant; steady-state calls allocate nothing.
  // Theta_s is row-wise, so it runs only over the non-zero rows of Z plus
  // the first all-zero row, whose score every other all-zero row (every
  // node Algorithm 2 has pruned) shares (DESIGN.md decision 17). The whole
  // MLP runs on one tile of those rows at a time (decision 18). `out` must
  // not alias `embeddings`.
  void score_nodes_into(const Matrix& embeddings, Matrix& out) const;

  // --- joint training pass ---

  struct JointForward {
    Matrix scores;         // Psi [N, 1]
    Matrix probabilities;  // Y   [1, num_classes]
  };

  // Cached forward through Theta_s, the weighting, and Theta_c.
  JointForward joint_forward(const Matrix& embeddings);

  // Backward from dLoss/dY. Accumulates gradients in BOTH sub-networks
  // (the paper's joint training, Algorithm 1 line 15).
  // `score_l1_grad` adds a constant dLoss/dPsi_j to every node score — the
  // gradient of an L1 sparsity penalty on Psi. Without it the NLL objective
  // admits the degenerate solution Psi == 1 (keep everything), which leaves
  // the ranking among top nodes arbitrary; a small penalty keeps scores in
  // the informative region (documented deviation, DESIGN.md).
  void joint_backward(const Matrix& grad_probabilities,
                      double score_l1_grad = 0.0);

  std::vector<Parameter*> parameters();
  void zero_grad();

  // Input conditioning: embeddings are divided by this scale before either
  // network sees them. The trainer sets it to the RMS of the training
  // embeddings so Theta is invariant to the GNN's embedding magnitude
  // (different classifiers/corpora produce wildly different scales).
  void set_embedding_scale(double scale);
  double embedding_scale() const noexcept { return embedding_scale_; }

  // Deep copy: an independent model to train further. Inference needs no
  // copy; share one const model instead.
  ExplainerModel clone() const;

  // Checkpointing (config + weights).
  void save(std::ostream& out) const;
  static ExplainerModel load(std::istream& in);
  void save_file(const std::string& path) const;
  static ExplainerModel load_file(const std::string& path);

 private:
  Matrix pool(const Matrix& weighted) const;

  Matrix conditioned(const Matrix& embeddings) const;

  ExplainerModelConfig config_;
  double embedding_scale_ = 1.0;
  Sequential scorer_;     // Theta_s
  Sequential surrogate_;  // Theta_c: row-wise MLP -> per-node class logits
  SoftmaxRows softmax_;   // over the mean-pooled node logits

  // Caches for joint_backward.
  Matrix cached_embeddings_;
  Matrix cached_scores_;
  Matrix cached_weighted_;
};

}  // namespace cfgx
