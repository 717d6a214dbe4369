#include "graph/ops.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace cfgx {

MaskedNormalizedAdjacency::MaskedNormalizedAdjacency(const Acfg& graph) {
  const std::size_t n = graph.num_nodes();
  const auto& edges = graph.edges();

  // Frozen structure: per row, the diagonal plus the far end of every
  // incident edge (both orientations), sorted and deduplicated.
  std::vector<std::size_t> row_ptr(n + 1, 0);
  for (const Edge& e : edges) {
    ++row_ptr[e.src + 1];
    ++row_ptr[e.dst + 1];
  }
  for (std::size_t i = 0; i < n; ++i) row_ptr[i + 1] += row_ptr[i] + 1;
  std::vector<std::uint32_t> col_idx(row_ptr[n]);
  std::vector<std::size_t> fill(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    col_idx[fill[i]++] = static_cast<std::uint32_t>(i);
  }
  for (const Edge& e : edges) {
    col_idx[fill[e.src]++] = e.dst;
    col_idx[fill[e.dst]++] = e.src;
  }
  std::size_t kept = 0;
  for (std::size_t i = 0, begin = 0; i < n; ++i) {
    const std::size_t end = row_ptr[i + 1];
    std::sort(col_idx.begin() + static_cast<std::ptrdiff_t>(begin),
              col_idx.begin() + static_cast<std::ptrdiff_t>(end));
    row_ptr[i] = kept;
    for (std::size_t p = begin; p < end; ++p) {
      if (p == begin || col_idx[p] != col_idx[p - 1]) {
        col_idx[kept++] = col_idx[p];
      }
    }
    begin = end;
  }
  row_ptr[n] = kept;
  col_idx.resize(kept);

  edge_slot_.reserve(edges.size());
  edge_weight_.reserve(edges.size());
  for (const Edge& e : edges) {
    const auto row_begin =
        col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[e.src]);
    const auto row_end =
        col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[e.src + 1]);
    edge_slot_.push_back(static_cast<std::size_t>(
        std::lower_bound(row_begin, row_end, e.dst) - col_idx.begin()));
    edge_weight_.push_back(e.weight());
  }
  a_hat_ = CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                     std::vector<double>(kept, 0.0));
  mirror_ = transpose_slots(a_hat_);
  active_.assign(n, 0);
  inv_sqrt_.assign(n, 0.0);
  is_dirty_.assign(n, 0);
  scale_edges(std::vector<double>(edges.size(), 1.0), graph.features());
}

void MaskedNormalizedAdjacency::scale_edges(const std::vector<double>& scale,
                                            const Matrix& features) {
  const std::size_t n = a_hat_.rows();
  if (scale.size() != edge_slot_.size() || features.rows() != n) {
    throw std::invalid_argument(
        "MaskedNormalizedAdjacency::scale_edges: need one scale per edge "
        "and one feature row per node");
  }
  // Directed weight per slot: the max of its edges' gated weights, ties to
  // the heavier (call) edge.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::size_t nnz = a_hat_.nnz();
  std::vector<double> directed(nnz, 0.0);
  std::vector<std::size_t> setter(nnz, kNone);
  for (std::size_t e = 0; e < edge_slot_.size(); ++e) {
    const double v = edge_weight_[e] * scale[e];
    const std::size_t p = edge_slot_[e];
    const std::size_t q = setter[p];
    if (q == kNone || v > directed[p] ||
        (v == directed[p] && edge_weight_[e] > edge_weight_[q])) {
      directed[p] = v;
      setter[p] = e;
    }
  }
  edge_sets_pair_.resize(edge_slot_.size());
  for (std::size_t e = 0; e < edge_slot_.size(); ++e) {
    edge_sets_pair_[e] = setter[edge_slot_[e]] == e ? 1 : 0;
  }
  s_edge_.resize(nnz);
  for (std::size_t p = 0; p < nnz; ++p) {
    s_edge_[p] = directed[p] + directed[mirror_[p]];
  }

  // Every node is renormalized; refresh() judges activity on the gated s
  // and the feature rows, as the dense path does.
  alive_.assign(n, 1);
  feature_active_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = features.data() + i * features.cols();
    feature_active_[i] = std::any_of(row, row + features.cols(),
                                     [](double v) { return v != 0.0; });
    mark_dirty(static_cast<std::uint32_t>(i));
  }
  refresh();
}

std::vector<double> MaskedNormalizedAdjacency::edge_gradient(
    const std::vector<double>& grad_adjacency) const {
  if (grad_adjacency.size() != a_hat_.nnz()) {
    throw std::invalid_argument(
        "MaskedNormalizedAdjacency::edge_gradient: need one entry per "
        "stored value");
  }
  std::vector<double> grad(edge_slot_.size(), 0.0);
  for (std::size_t e = 0; e < grad.size(); ++e) {
    if (edge_sets_pair_[e]) {
      grad[e] = grad_adjacency[edge_slot_[e]] * edge_weight_[e];
    }
  }
  return grad;
}

void MaskedNormalizedAdjacency::mark_dirty(std::uint32_t node) {
  if (!is_dirty_[node]) {
    is_dirty_[node] = 1;
    dirty_.push_back(node);
  }
}

void MaskedNormalizedAdjacency::prune(std::uint32_t node) {
  if (node >= alive_.size()) {
    throw std::out_of_range("MaskedNormalizedAdjacency::prune: out of range");
  }
  if (!alive_[node]) return;
  alive_[node] = 0;
  feature_active_[node] = 0;
  mark_dirty(node);
  const auto& row_ptr = a_hat_.row_ptr();
  const auto& col_idx = a_hat_.col_idx();
  for (std::size_t p = row_ptr[node]; p < row_ptr[node + 1]; ++p) {
    if (s_edge_[p] != 0.0) {
      mark_dirty(col_idx[p]);
      s_edge_[p] = 0.0;
      s_edge_[mirror_[p]] = 0.0;
    }
  }
}

void MaskedNormalizedAdjacency::refresh() {
  const auto& row_ptr = a_hat_.row_ptr();
  const auto& col_idx = a_hat_.col_idx();

  // Pass 1: activity, degree, d^{-1/2} for every touched node. All
  // inv_sqrt_ updates land before any value uses them (pass 2).
  for (const std::uint32_t d : dirty_) {
    bool act = feature_active_[d] != 0;
    for (std::size_t p = row_ptr[d]; p < row_ptr[d + 1] && !act; ++p) {
      if (s_edge_[p] != 0.0) act = true;
    }
    active_[d] = act ? 1 : 0;
    double degree = 0.0;
    for (std::size_t p = row_ptr[d]; p < row_ptr[d + 1]; ++p) {
      double term = s_edge_[p];
      // The self-loop joins the diagonal weight in ONE add, matching the
      // dense path's `s(i, i) += 1.0` before its row sum.
      if (col_idx[p] == d && act) term = s_edge_[p] + 1.0;
      degree += term;
    }
    inv_sqrt_[d] = degree > 0.0 ? 1.0 / std::sqrt(degree) : 0.0;
  }

  // Pass 2: renormalize every entry in a touched row plus its mirror.
  // s and c_i*c_j are both symmetric bitwise, so the mirror gets the same
  // value; entries with two dirty endpoints are written twice, idempotently.
  auto& values = a_hat_.values_mut();
  for (const std::uint32_t d : dirty_) {
    const double cd = inv_sqrt_[d];
    for (std::size_t p = row_ptr[d]; p < row_ptr[d + 1]; ++p) {
      const std::uint32_t j = col_idx[p];
      double sv = s_edge_[p];
      if (j == d && active_[d]) sv += 1.0;
      const double v = sv * (cd * inv_sqrt_[j]);
      values[p] = v;
      values[mirror_[p]] = v;
    }
    is_dirty_[d] = 0;
  }
  dirty_.clear();
}

std::size_t count_active_nodes(const Acfg& graph) {
  const std::size_t n = graph.num_nodes();
  std::vector<char> active(n, 0);
  for (const Edge& e : graph.edges()) {
    active[e.src] = 1;
    active[e.dst] = 1;
  }
  const Matrix& features = graph.features();
  for (std::size_t i = 0; i < n; ++i) {
    if (active[i]) continue;
    for (std::size_t c = 0; c < features.cols(); ++c) {
      if (features(i, c) != 0.0) {
        active[i] = 1;
        break;
      }
    }
  }
  std::size_t count = 0;
  for (char a : active) count += a != 0;
  return count;
}

Acfg masked_subgraph(const Acfg& graph,
                     const std::vector<std::uint32_t>& kept) {
  const std::uint32_t n = graph.num_nodes();
  std::vector<char> keep(n, 0);
  for (std::uint32_t node : kept) {
    if (node >= n) {
      throw std::out_of_range("masked_subgraph: node out of range");
    }
    keep[node] = 1;
  }

  Acfg out(n, graph.feature_count());
  std::vector<Edge> edges;
  edges.reserve(graph.num_edges());
  for (const Edge& e : graph.edges()) {
    if (keep[e.src] && keep[e.dst]) edges.push_back(e);
  }
  out.set_edges(std::move(edges));

  const Matrix& features = graph.features();
  Matrix& out_features = out.features();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    for (std::size_t c = 0; c < features.cols(); ++c) {
      out_features(i, c) = features(i, c);
    }
  }
  out.set_label(graph.label());
  out.set_family(graph.family());
  for (std::uint32_t node : graph.planted_nodes()) {
    if (keep[node]) out.mark_planted(node);
  }
  return out;
}

GraphBatch batch_normalized_graphs(const std::vector<const Acfg*>& graphs) {
  GraphBatch batch;
  if (graphs.empty()) return batch;

  std::size_t feature_count = 0;
  std::size_t total_nodes = 0;
  for (std::size_t k = 0; k < graphs.size(); ++k) {
    if (graphs[k] == nullptr) {
      throw std::invalid_argument(
          "batch_normalized_graphs: null graph at index " + std::to_string(k));
    }
    if (k == 0) {
      feature_count = graphs[k]->feature_count();
    } else if (graphs[k]->feature_count() != feature_count) {
      throw std::invalid_argument(
          "batch_normalized_graphs: feature_count mismatch (" +
          std::to_string(graphs[k]->feature_count()) + " vs " +
          std::to_string(feature_count) + " at index " + std::to_string(k) +
          ")");
    }
    total_nodes += graphs[k]->num_nodes();
  }

  std::vector<MaskedNormalizedAdjacency> frozen;
  frozen.reserve(graphs.size());
  batch.features = Matrix(total_nodes, feature_count);
  batch.inv_sqrt_degree.reserve(total_nodes);
  batch.active_counts.reserve(graphs.size());

  std::size_t row_base = 0;
  for (const Acfg* graph : graphs) {
    const std::vector<double>& inv_sqrt =
        frozen.emplace_back(*graph).inv_sqrt_degree();

    // inv_sqrt is non-zero exactly for active nodes, so its non-zero count
    // IS count_active_nodes(*graph).
    std::size_t active = 0;
    for (double v : inv_sqrt) {
      if (v != 0.0) ++active;
    }
    batch.active_counts.push_back(active);
    batch.inv_sqrt_degree.insert(batch.inv_sqrt_degree.end(),
                                 inv_sqrt.begin(), inv_sqrt.end());

    const Matrix& feats = graph->features();
    for (std::size_t r = 0; r < feats.rows(); ++r) {
      for (std::size_t c = 0; c < feature_count; ++c) {
        batch.features(row_base + r, c) = feats(r, c);
      }
    }
    row_base += graph->num_nodes();
  }

  std::vector<const CsrMatrix*> ptrs;
  ptrs.reserve(frozen.size());
  for (const MaskedNormalizedAdjacency& f : frozen) ptrs.push_back(&f.a_hat());
  batch.a_hat = BatchedCsr::concat(ptrs);
  return batch;
}

std::vector<std::uint32_t> top_k_nodes(const std::vector<double>& scores,
                                       std::size_t k) {
  if (k > scores.size()) throw std::invalid_argument("top_k_nodes: k > node count");
  std::vector<std::uint32_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return scores[a] > scores[b];
                   });
  order.resize(k);
  return order;
}

std::size_t nodes_for_fraction(std::uint32_t num_nodes, double fraction) {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("nodes_for_fraction: fraction outside [0,1]");
  }
  if (num_nodes == 0) return 0;
  const auto k = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(num_nodes)));
  return std::clamp<std::size_t>(k, 1, num_nodes);
}

}  // namespace cfgx
