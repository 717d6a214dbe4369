// The GNN malware classifier Phi = {Phi_e, Phi_c} of Section V-A.
//
//   Phi_e: feature scaling -> stacked GCN layers (paper: 1024/512/128;
//          default here: 64/48/32, CPU scale) -> node embeddings Z.
//   Phi_c: mean-pool over the graph's (fixed) node count -> dense layer ->
//          class logits over the 12 ACFG families.
//
// Phi_c pools over the ACTIVE nodes (nodes with an incident edge or a
// non-zero feature row): a masked subgraph's prediction is driven by the
// content of its surviving blocks, so Algorithm-2 pruning degrades the
// prediction through information loss, not through dilution toward the
// bias prior (DESIGN.md decision 2).
//
// Thread-safety: the const inference methods (embed, class_logits, predict)
// do not mutate state and may run concurrently. The cached
// training path (forward_cached/backward_cached) is single-threaded; use
// clone() to hand each worker its own instance when explainers need
// gradients in parallel.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "gnn/gcn.hpp"
#include "graph/acfg.hpp"
#include "nn/layers.hpp"
#include "nn/matrix.hpp"

namespace cfgx {

// Phi_c readout family. MeanPool is the default reproduction; SortPool is
// the DGCNN-style readout of MAGIC (Yan et al., DSN'19), the classifier the
// paper actually explains: the top-k nodes by embedding magnitude are
// concatenated into a fixed-size vector before the dense layer. Having both
// lets the ablation bench demonstrate CFGExplainer's model-agnosticism.
enum class ReadoutKind : std::uint8_t { MeanPool = 0, SortPool = 1 };

struct GnnConfig {
  std::size_t feature_dim = kAcfgFeatureCount;
  std::vector<std::size_t> gcn_dims = {64, 48, 32};  // paper: {1024, 512, 128}
  std::size_t num_classes = kFamilyCount;
  ReadoutKind readout = ReadoutKind::MeanPool;
  std::size_t sortpool_k = 16;  // nodes kept by SortPool

  std::size_t embedding_dim() const { return gcn_dims.back(); }
};

struct Prediction {
  std::size_t predicted_class = 0;
  Matrix probabilities;  // [1, num_classes]
  double confidence() const { return probabilities(0, predicted_class); }
};

class ThreadPool;

class GnnClassifier {
 public:
  GnnClassifier(GnnConfig config, Rng& rng);

  const GnnConfig& config() const noexcept { return config_; }

  // Optional thread pool for the sparse/dense kernels inside embed() and
  // the cached training path; embed_into splits each pass's tiles across
  // it. Row-partitioned work keeps results identical to the serial run.
  // Not owned; not copied by clone()/save(). The pool may be the same one
  // driving explain_batch — a reentrant parallel_for from a worker runs
  // inline.
  void set_kernel_pool(ThreadPool* pool) noexcept { kernel_pool_ = pool; }
  ThreadPool* kernel_pool() const noexcept { return kernel_pool_; }

  void set_scaler(FeatureScaler scaler) { scaler_ = std::move(scaler); }
  const FeatureScaler& scaler() const noexcept { return scaler_; }

  // --- inference (const) ---

  // Node embeddings Z of a graph (RAW features; the scaler is applied when
  // fitted, the adjacency normalized internally). Rows of inactive
  // (pruned/padded) nodes are zeroed so they contribute nothing downstream.
  Matrix embed(const Acfg& graph) const;

  // Destination-passing embed for callers that already hold the normalized
  // CSR adjacency and its d^{-1/2} vector (the incremental Algorithm-2
  // masking path rebuilds neither per iteration). Computes live rows only
  // (inv_sqrt != 0): one combine of the first layer over the gathered,
  // scaled live rows, then one fused pass per layer over tiles of them
  // (aggregate, + b, clamp, next layer's combine; DESIGN.md decision 18).
  // Dead rows of `out` are +0.0. Steady-state calls allocate nothing.
  // `out` must not alias `raw_features`. Throws std::invalid_argument on a
  // node-count or feature-width mismatch.
  void embed_into(const CsrMatrix& a_hat, const std::vector<double>& inv_sqrt,
                  const Matrix& raw_features, Matrix& out) const;

  // Class logits from embeddings: mean over the ACTIVE nodes + dense.
  // `active_count` is the number of active nodes (see
  // count_active_nodes); pass 0 to infer it as the number of non-zero
  // embedding rows (exact whenever embed() produced the matrix).
  Matrix class_logits(const Matrix& embeddings,
                      std::size_t active_count = 0) const;

  // Prediction for a graph; for a masked variant, pass
  // masked_subgraph(graph, kept) (graph/ops.hpp).
  Prediction predict(const Acfg& graph) const;

  // --- cached training / gradient path ---

  // Forward with caches over the same (a_hat, inv_sqrt, raw_features)
  // triple as embed_into — a MaskedNormalizedAdjacency's a_hat() and
  // inv_sqrt_degree() — on the same fused pass, which also keeps each
  // layer's input and H*W rows for backward_cached. A_hat is copied, so it
  // may change after the call. Const inference calls may run between this
  // and backward_cached without changing the gradients. Returns logits
  // [1, num_classes].
  Matrix forward_cached(const CsrMatrix& a_hat,
                        const std::vector<double>& inv_sqrt,
                        const Matrix& raw_features);

  struct BackwardResult {
    // dLoss/dA (raw adjacency) at each stored entry of the forward's A_hat,
    // in value order, with degrees held constant; empty unless requested.
    // A_hat's structure must be symmetric (every MaskedNormalizedAdjacency
    // is).
    std::vector<double> grad_adjacency;
    // dLoss/dX_scaled: gradient w.r.t. the (scaler-transformed) input
    // features — always produced (it falls out of the layer chain). Chain
    // through the scaler via dX_raw = dX_scaled / stddev when needed.
    Matrix grad_scaled_features;
  };

  // Backward from dLoss/dLogits. Accumulates parameter gradients; when
  // want_adjacency_grad is set, also returns dLoss/dA where the
  // normalization coefficients are treated as constants (DESIGN.md
  // decision 4): c_i c_j (G_ij + G_ji), G = dLoss/dA_hat summed over the
  // layers, each entry bit-identical to the dense N x N computation.
  BackwardResult backward_cached(const Matrix& grad_logits,
                                 bool want_adjacency_grad = false);

  std::vector<Parameter*> parameters();
  void zero_grad();

  // Deep copy (weights + scaler); used for per-thread explainer instances.
  GnnClassifier clone() const;

  // Checkpointing: weights + scaler + config dims.
  void save(std::ostream& out) const;
  static GnnClassifier load(std::istream& in);
  void save_file(const std::string& path) const;
  static GnnClassifier load_file(const std::string& path);

 private:
  GnnClassifier() = default;  // for load()/clone()

  // What backward_cached reads of the last forward_cached: per GCN layer s
  // its input rows h[s] (the scaled features for s = 0) and its product
  // hw[s] = h[s] * W_s; h[L] is the embeddings. Dead rows hold +0.0.
  struct TrainingCache {
    std::vector<Matrix> h;
    std::vector<Matrix> hw;
  };

  // The body of embed_into (same contract). With a cache, its h[0..L-1]
  // and hw[0..L-1] are filled too, and `out` must be cache->h[L].
  void fused_embed(const CsrMatrix& a_hat, const std::vector<double>& inv_sqrt,
                   const Matrix& raw_features, Matrix& out,
                   TrainingCache* cache) const;

  Matrix pool(const Matrix& embeddings, std::size_t active_count) const;
  // SortPool selection: active node indices ordered by descending embedding
  // row sum (ties by index), truncated to sortpool_k.
  std::vector<std::size_t> sortpool_selection(
      const Matrix& embeddings, const std::vector<char>* active) const;
  Matrix readout_input(const Matrix& embeddings, std::size_t active_count,
                       const std::vector<char>* active,
                       std::vector<std::size_t>* selection_out) const;

  GnnConfig config_;
  FeatureScaler scaler_;
  std::vector<GcnLayer> gcn_layers_;
  std::unique_ptr<Dense> readout_;

  ThreadPool* kernel_pool_ = nullptr;

  // Training caches. Every backward kernel that consumes A_hat is sparse.
  CsrMatrix cached_a_hat_;
  std::vector<double> cached_inv_sqrt_;  // d^{-1/2}, for the dA chain
  TrainingCache cache_;
  std::vector<std::size_t> cached_selection_;  // SortPool permutation
  std::vector<char> cached_active_;
  std::size_t cached_active_count_ = 0;
  std::size_t cached_num_nodes_ = 0;
};

}  // namespace cfgx
