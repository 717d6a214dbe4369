#include "graph/acfg.hpp"

#include <algorithm>
#include <stdexcept>

namespace cfgx {

Acfg::Acfg(std::uint32_t num_nodes, std::size_t feature_count)
    : num_nodes_(num_nodes), features_(num_nodes, feature_count) {}

void Acfg::add_edge(std::uint32_t src, std::uint32_t dst, EdgeKind kind) {
  if (src >= num_nodes_ || dst >= num_nodes_) {
    throw std::out_of_range("Acfg::add_edge: endpoint out of range");
  }
  for (const Edge& e : edges_) {
    if (e.src == src && e.dst == dst && e.kind == kind) {
      throw std::invalid_argument("Acfg::add_edge: duplicate edge");
    }
  }
  edges_.push_back(Edge{src, dst, kind});
}

void Acfg::set_edges(std::vector<Edge> edges) {
  for (const Edge& e : edges) {
    if (e.src >= num_nodes_ || e.dst >= num_nodes_) {
      throw std::out_of_range("Acfg::set_edges: endpoint out of range");
    }
  }
  std::vector<Edge> sorted = edges;
  std::sort(sorted.begin(), sorted.end(), [](const Edge& a, const Edge& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.dst != b.dst) return a.dst < b.dst;
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  });
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("Acfg::set_edges: duplicate edge");
  }
  edges_ = std::move(edges);
}

bool Acfg::has_edge(std::uint32_t src, std::uint32_t dst) const noexcept {
  return std::any_of(edges_.begin(), edges_.end(), [&](const Edge& e) {
    return e.src == src && e.dst == dst;
  });
}

void Acfg::mark_planted(std::uint32_t node) {
  if (node >= num_nodes_) {
    throw std::out_of_range("Acfg::mark_planted: node out of range");
  }
  if (std::find(planted_nodes_.begin(), planted_nodes_.end(), node) ==
      planted_nodes_.end()) {
    planted_nodes_.push_back(node);
  }
}

std::vector<std::uint32_t> Acfg::out_degrees() const {
  std::vector<std::uint32_t> degrees(num_nodes_, 0);
  for (const Edge& e : edges_) ++degrees[e.src];
  return degrees;
}

std::vector<std::uint32_t> Acfg::in_degrees() const {
  std::vector<std::uint32_t> degrees(num_nodes_, 0);
  for (const Edge& e : edges_) ++degrees[e.dst];
  return degrees;
}

void Acfg::validate() const {
  if (features_.rows() != num_nodes_) {
    throw std::logic_error("Acfg: feature row count != node count");
  }
  for (const Edge& e : edges_) {
    if (e.src >= num_nodes_ || e.dst >= num_nodes_) {
      throw std::logic_error("Acfg: edge endpoint out of range");
    }
  }
  for (std::uint32_t node : planted_nodes_) {
    if (node >= num_nodes_) {
      throw std::logic_error("Acfg: planted node out of range");
    }
  }
}

GraphStats compute_stats(const Acfg& graph) {
  GraphStats stats;
  stats.num_nodes = graph.num_nodes();
  stats.num_edges = graph.num_edges();
  for (const Edge& e : graph.edges()) {
    if (e.kind == EdgeKind::Call) ++stats.num_call_edges;
  }
  const auto out = graph.out_degrees();
  const auto in = graph.in_degrees();
  double total = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    total += out[i];
    stats.max_out_degree = std::max(stats.max_out_degree, out[i]);
    if (out[i] == 0 && in[i] == 0) ++stats.isolated_nodes;
  }
  stats.mean_out_degree =
      stats.num_nodes == 0 ? 0.0 : total / static_cast<double>(stats.num_nodes);
  return stats;
}

}  // namespace cfgx
