// Attributed Control Flow Graph (ACFG) — the data model of Section II-A.
//
// A node is a basic block; a directed edge carries weight 1 for fall-through
// and jump edges, and weight 2 for call edges (the paper's weighted
// adjacency A in {0,1,2}^(N x N)). Node attributes are the 12 Table-I block
// features.
//
// Storage is sparse (edge list + dense feature matrix). The GNN and every
// explainer read the edge list through the frozen CSR normalization of
// graph/ops.hpp, so no N x N adjacency is ever built — the paper's
// 7352x7352 matrix would take 432 MB per copy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/matrix.hpp"

namespace cfgx {

// The number of Table-I block features.
inline constexpr std::size_t kAcfgFeatureCount = 12;

// Adjacency weights (paper Section II-A).
inline constexpr double kEdgeFlowWeight = 1.0;  // fall-through or jump
inline constexpr double kEdgeCallWeight = 2.0;  // call

enum class EdgeKind : std::uint8_t { Flow = 1, Call = 2 };

struct Edge {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  EdgeKind kind = EdgeKind::Flow;

  double weight() const noexcept {
    return kind == EdgeKind::Call ? kEdgeCallWeight : kEdgeFlowWeight;
  }

  bool operator==(const Edge&) const = default;
};

class Acfg {
 public:
  Acfg() = default;

  // Creates a graph with `num_nodes` nodes and zeroed features.
  Acfg(std::uint32_t num_nodes, std::size_t feature_count = kAcfgFeatureCount);

  std::uint32_t num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_edges() const noexcept { return edges_.size(); }
  std::size_t feature_count() const noexcept { return features_.cols(); }

  // Adds a directed edge; throws on out-of-range endpoints. Parallel edges
  // of the same kind are rejected (the adjacency is a set of weights, not a
  // multiset).
  void add_edge(std::uint32_t src, std::uint32_t dst, EdgeKind kind);
  bool has_edge(std::uint32_t src, std::uint32_t dst) const noexcept;

  // Bulk edge install replacing any existing edges: same validation as
  // add_edge (in-range endpoints, no duplicate (src, dst, kind) triples)
  // but O(E log E) instead of add_edge's O(E^2) incremental scan — the
  // difference between milliseconds and seconds at paper-scale node
  // counts. Edges are stored in the order given (edges() preserves it).
  void set_edges(std::vector<Edge> edges);

  const std::vector<Edge>& edges() const noexcept { return edges_; }

  Matrix& features() noexcept { return features_; }
  const Matrix& features() const noexcept { return features_; }

  int label() const noexcept { return label_; }
  void set_label(int label) noexcept { label_ = label; }

  const std::string& family() const noexcept { return family_; }
  void set_family(std::string family) { family_ = std::move(family); }

  // Ground-truth "planted malicious" node ids recorded by the synthetic
  // corpus generator; empty for real-world graphs. Enables the
  // plant-recovery metric (DESIGN.md section 1).
  const std::vector<std::uint32_t>& planted_nodes() const noexcept {
    return planted_nodes_;
  }
  void mark_planted(std::uint32_t node);

  // Out-degree counting each edge once regardless of weight (the Table-I
  // "#offspring" feature).
  std::vector<std::uint32_t> out_degrees() const;
  std::vector<std::uint32_t> in_degrees() const;

  // Throws std::logic_error when internal invariants are broken (edge
  // endpoints in range, feature row count matches node count).
  void validate() const;

  bool operator==(const Acfg&) const = default;

 private:
  std::uint32_t num_nodes_ = 0;
  std::vector<Edge> edges_;
  Matrix features_;
  int label_ = -1;
  std::string family_;
  std::vector<std::uint32_t> planted_nodes_;
};

// Summary statistics used by dataset reports and tests.
struct GraphStats {
  std::uint32_t num_nodes = 0;
  std::size_t num_edges = 0;
  std::size_t num_call_edges = 0;
  double mean_out_degree = 0.0;
  std::uint32_t max_out_degree = 0;
  std::size_t isolated_nodes = 0;
};

GraphStats compute_stats(const Acfg& graph);

}  // namespace cfgx
