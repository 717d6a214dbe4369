// Graph operations shared by the GNN and every explainer: adjacency
// normalization (edge list -> frozen CSR), the node-masking semantics of
// the paper's Algorithm 2, edge gating, and subgraph extraction.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/acfg.hpp"
#include "nn/matrix.hpp"
#include "nn/sparse.hpp"

namespace cfgx {

// GCN propagation matrix: A_hat = D^{-1/2} (S + I) D^{-1/2} where
// S = A + A^T symmetrizes the directed weighted adjacency (call edges keep
// their weight 2) and D is the degree of (S + I). It exists only in the
// frozen CSR form below; the dense N x N reference lives in the test
// oracles (DESIGN.md decision 9).
//
// Self-loop policy ("pruned == padded", DESIGN.md decision 3): a node
// receives its self-loop when it is *active* — it has an incident edge of
// non-zero weight or a non-zero feature row. A pruned or padded node (no
// such edge AND zero features) gets no self-loop and contributes nothing;
// a surviving node whose neighbours were all pruned keeps its self-loop,
// so its block features still reach the readout — matching the paper's
// fixed-N padded GCN, where every real node carries a self-loop even if
// the explainer disconnected it.
//
// MaskedNormalizedAdjacency holds A_hat for the Algorithm-2 pruning loop
// and for the edge-mask explainers. Construction is O(E log E) from the
// edge list; each prune() + refresh() then costs O(edges incident to the
// touched nodes), and scale_edges() re-gates every edge in O(N + E).
//
// The CSR structure is frozen at construction: every (src, dst) and
// (dst, src) pair of an edge plus the full diagonal (the self-loop slot).
// Pruning or gating zeroes *values* in place — structural entries holding
// 0.0 contribute nothing against finite operands, so spmm over this matrix
// is bit-identical to spmm over a CSR that dropped them (see the
// structural-zero discussion in nn/sparse.hpp).
//
// Values are bit-identical to the dense reference (the test oracle that
// builds S, sums each row in column order and scales every entry):
//   * the directed weight of a pair is the max of its edges' weights — a
//     call edge dominates a coincident flow edge, the paper's single-valued
//     A[i][j] in {0,1,2};
//   * s uses the dense operand order A(i,j) + A(j,i), a missing side being
//     a literal 0.0;
//   * degrees sum the stored entries in ascending column order, with the
//     self-loop joining the diagonal weight in the dense path's single
//     `s_ii + 1.0` add — exact versus the dense full-row sum because every
//     skipped entry is a true zero and all weights are non-negative;
//   * every value uses the dense association v = s * (c_i * c_j);
//   * pruning never updates algebraically: degrees of touched nodes are
//     RE-SUMMED over their row (FP addition is not invertible, so
//     subtracting a pruned edge's weight would drift).
class MaskedNormalizedAdjacency {
 public:
  // Normalizes the graph as given: every edge at its full weight, activity
  // judged on graph.features().
  explicit MaskedNormalizedAdjacency(const Acfg& graph);

  // Marks `node` pruned: zeroes its symmetrized edge weights (both
  // orientations) and its feature-activity bit, and queues the node and
  // its structural neighbours for renormalization. No-op if already pruned.
  // Call refresh() before reading a_hat()/inv_sqrt_degree().
  void prune(std::uint32_t node);

  // Recomputes activity, degree, d^{-1/2} and normalized values for every
  // node touched since the last refresh. Cost tracks surviving edges.
  void refresh();

  // Re-normalizes the whole graph with edge e's weight scaled by scale[e]
  // (one entry per graph.edges() entry — the edge-mask gates of
  // GNNExplainer and PGExplainer), starting over from the constructor's
  // edge weights: prunes are undone. The directed weight of a pair is
  // max_e w_e * scale[e] over its edges, and activity is judged on these
  // gated values and `features` (the features the forward pass sees),
  // exactly as the dense path judges a gated adjacency. A scale that
  // underflows to 0.0 keeps its slot, holding 0.0. Throws
  // std::invalid_argument on a size mismatch.
  void scale_edges(const std::vector<double>& scale, const Matrix& features);

  // Chains a gradient over the stored values of a_hat() — the
  // GnnClassifier::BackwardResult::grad_adjacency of a forward on it — to
  // the edges: entry e is dL/dA(src, dst) * w_e when edge e sets its pair's
  // value under the last scale_edges() (ties go to the call edge), and 0.0
  // for an edge its pair's other edge overrides. The product with
  // d scale_e / d(mask logit) is left to the caller.
  std::vector<double> edge_gradient(
      const std::vector<double>& grad_adjacency) const;

  const CsrMatrix& a_hat() const noexcept { return a_hat_; }
  const std::vector<double>& inv_sqrt_degree() const noexcept {
    return inv_sqrt_;
  }
  bool alive(std::uint32_t node) const { return alive_.at(node) != 0; }
  std::size_t num_nodes() const noexcept { return alive_.size(); }
  // Nodes queued for the next refresh() (exposed for tests/metrics).
  std::size_t pending_dirty() const noexcept { return dirty_.size(); }
  // Index in a_hat().values() of edge e's (src, dst) entry.
  std::size_t edge_slot(std::size_t e) const { return edge_slot_.at(e); }

 private:
  void mark_dirty(std::uint32_t node);

  CsrMatrix a_hat_;
  // Per edge: its (src, dst) slot, its weight w_e, and whether it set its
  // pair's value at the last scale_edges().
  std::vector<std::size_t> edge_slot_;
  std::vector<double> edge_weight_;
  std::vector<char> edge_sets_pair_;
  // Symmetrized weights A_ij + A_ji parallel to a_hat_'s values; the
  // diagonal slot stores 2*A_ii WITHOUT the self-loop (activity decides the
  // +1.0 at refresh time). Zeroed as nodes are pruned; rewritten only by
  // scale_edges().
  std::vector<double> s_edge_;
  std::vector<std::size_t> mirror_;  // index of the transposed entry
  std::vector<char> alive_;
  std::vector<char> feature_active_;  // non-zero feature row AND alive
  std::vector<char> active_;          // self-loop policy flag
  std::vector<double> inv_sqrt_;
  std::vector<std::uint32_t> dirty_;
  std::vector<char> is_dirty_;
};

// Number of *active* nodes under the self-loop policy above: nodes with an
// incident edge or a non-zero feature row. Pruned and padded nodes are
// inactive. The classifier's readout pools over this count. O(N + E).
std::size_t count_active_nodes(const Acfg& graph);

// Batched normalized inputs for K graphs, ready for one shared forward
// pass: the per-graph normalized adjacencies concatenated block-diagonally
// (BatchedCsr), the RAW feature rows stacked in the same row order, the
// d^{-1/2} factors concatenated, and the per-graph active-node counts for
// the readout. embed_into over (a_hat.matrix(), inv_sqrt_degree, features)
// computes all K graphs' embeddings at once, bit-identically to K separate
// calls (see the bit-identity argument on BatchedCsr); slicing row range
// a_hat.range(k) out of the result recovers graph k's embeddings exactly.
struct GraphBatch {
  BatchedCsr a_hat;
  Matrix features;                         // (sum N_k) x feature_count, raw
  std::vector<double> inv_sqrt_degree;     // size sum N_k; 0 for inactive
  std::vector<std::size_t> active_counts;  // per graph, for class_logits

  std::size_t num_graphs() const noexcept { return a_hat.num_blocks(); }
  const BatchedCsr::Range& range(std::size_t k) const { return a_hat.range(k); }
};

// Builds a GraphBatch from K graphs (normalizes each adjacency with the
// feature-aware self-loop policy). Graphs must share a feature_count;
// throws std::invalid_argument on a mismatch or a null pointer. K = 0
// yields an empty batch.
GraphBatch batch_normalized_graphs(const std::vector<const Acfg*>& graphs);

// The graph with every node NOT in `kept` masked out (Algorithm 2 lines
// 17-18 plus the feature zeroing of DESIGN decision 3): same node count
// (masked, not compacted, matching the paper's fixed input-size evaluation
// of subgraphs), only edges with BOTH endpoints kept (input order
// preserved), feature rows of dropped nodes zeroed, label/family carried
// over. predict() on it is bit-identical to the dense oracle that zeroes
// the dropped rows and columns of the N x N adjacency, at O(N·F + E).
// Throws on an out-of-range kept id.
Acfg masked_subgraph(const Acfg& graph, const std::vector<std::uint32_t>& kept);

// Given node scores (higher = more important) over `num_nodes` real nodes,
// returns the indices of the `k` top-scoring nodes (ties broken by lower
// index for determinism).
std::vector<std::uint32_t> top_k_nodes(const std::vector<double>& scores,
                                       std::size_t k);

// ceil(fraction * num_nodes), clamped to [1, num_nodes] for num_nodes > 0.
std::size_t nodes_for_fraction(std::uint32_t num_nodes, double fraction);

}  // namespace cfgx
