#include "explain/subgraphx.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "graph/ops.hpp"
#include "obs/trace.hpp"

namespace cfgx {
namespace {

using NodeSet = std::vector<std::uint32_t>;  // kept sorted

// Search-tree node: a subgraph state plus MCTS statistics.
struct TreeNode {
  NodeSet remaining;
  std::size_t visits = 0;
  double total_reward = 0.0;
  bool fully_expanded = false;
  // (chunk removed, child index) pairs.
  std::vector<std::pair<NodeSet, std::size_t>> children;

  double mean_reward() const {
    return visits == 0 ? 0.0 : total_reward / static_cast<double>(visits);
  }
};

class Search {
 public:
  Search(const GnnClassifier& gnn, const Acfg& graph,
         const SubgraphXConfig& config)
      : gnn_(gnn),
        graph_(graph),
        config_(config),
        rng_(config.seed ^
             (graph.num_nodes() * 0x9e3779b97f4a7c15ULL) ^
             graph.num_edges()) {
    // Target class: the GNN's prediction on the full graph.
    target_class_ = gnn_.predict(graph_).predicted_class;
    ++evaluations_;

    const auto n = graph.num_nodes();
    min_size_ = std::max<std::size_t>(1, nodes_for_fraction(n, config.min_fraction));
    chunk_size_ =
        std::max<std::size_t>(1, nodes_for_fraction(n, config.prune_fraction));

    NodeSet all(n);
    for (std::uint32_t i = 0; i < n; ++i) all[i] = i;
    TreeNode root;
    root.remaining = std::move(all);
    nodes_.push_back(std::move(root));
  }

  std::size_t evaluations() const { return evaluations_; }

  NodeRanking run() {
    for (std::size_t it = 0; it < config_.mcts_iterations; ++it) simulate();
    return extract_ranking();
  }

 private:
  bool terminal(const TreeNode& node) const {
    return node.remaining.size() <= min_size_;
  }

  // P(target | keep set) via the frozen GNN.
  double value_of(const NodeSet& kept) {
    ++evaluations_;
    return gnn_.predict(masked_subgraph(graph_, kept))
        .probabilities(0, target_class_);
  }

  // Monte-Carlo Shapley reward of a subgraph: marginal contribution of the
  // kept set over random coalitions of the pruned complement.
  double shapley_reward(const NodeSet& kept) {
    NodeSet complement;
    complement.reserve(graph_.num_nodes() - kept.size());
    std::size_t k = 0;
    for (std::uint32_t v = 0; v < graph_.num_nodes(); ++v) {
      if (k < kept.size() && kept[k] == v) {
        ++k;
      } else {
        complement.push_back(v);
      }
    }

    double reward = 0.0;
    for (std::size_t t = 0; t < config_.shapley_samples; ++t) {
      NodeSet coalition;
      for (std::uint32_t v : complement) {
        if (rng_.bernoulli(0.5)) coalition.push_back(v);
      }
      NodeSet with = coalition;
      with.insert(with.end(), kept.begin(), kept.end());
      std::sort(with.begin(), with.end());
      const double v_with = value_of(with);
      const double v_without = coalition.empty() ? 0.0 : value_of(coalition);
      reward += v_with - v_without;
    }
    return reward / static_cast<double>(config_.shapley_samples);
  }

  // Removes a random chunk from `remaining` and returns (chunk, rest).
  std::pair<NodeSet, NodeSet> random_prune(const NodeSet& remaining) {
    const std::size_t take =
        std::min(chunk_size_, remaining.size() - min_size_);
    const auto picks = rng_.sample_indices(remaining.size(), take);
    std::vector<char> removed(remaining.size(), 0);
    for (std::size_t p : picks) removed[p] = 1;
    NodeSet chunk, rest;
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      (removed[i] ? chunk : rest).push_back(remaining[i]);
    }
    return {std::move(chunk), std::move(rest)};
  }

  void simulate() {
    // --- selection ---
    std::vector<std::size_t> path{0};
    while (true) {
      TreeNode& node = nodes_[path.back()];
      if (terminal(node)) break;
      if (node.children.size() < config_.expand_children) {
        // --- expansion ---
        auto [chunk, rest] = random_prune(node.remaining);
        TreeNode child_node;
        child_node.remaining = std::move(rest);
        nodes_.push_back(std::move(child_node));
        const std::size_t child = nodes_.size() - 1;
        nodes_[path.back()].children.emplace_back(std::move(chunk), child);
        path.push_back(child);
        break;
      }
      // UCB over existing children.
      std::size_t best = 0;
      double best_ucb = -1e300;
      for (std::size_t c = 0; c < node.children.size(); ++c) {
        const TreeNode& child = nodes_[node.children[c].second];
        const double explore =
            config_.ucb_c *
            std::sqrt(std::log(static_cast<double>(node.visits) + 1.0) /
                      (static_cast<double>(child.visits) + 1e-9));
        const double ucb = child.mean_reward() + explore;
        if (ucb > best_ucb) {
          best_ucb = ucb;
          best = c;
        }
      }
      path.push_back(node.children[best].second);
    }

    // --- rollout to terminal size ---
    NodeSet state = nodes_[path.back()].remaining;
    while (state.size() > min_size_) {
      state = random_prune(state).second;
    }
    const double reward = shapley_reward(state);

    // --- backpropagation ---
    for (std::size_t idx : path) {
      ++nodes_[idx].visits;
      nodes_[idx].total_reward += reward;
    }
  }

  NodeRanking extract_ranking() {
    // Best-reward path from the root; chunks removed earliest are least
    // important.
    std::vector<NodeSet> removed_chunks;
    std::size_t current = 0;
    while (!terminal(nodes_[current]) && !nodes_[current].children.empty()) {
      const auto& children = nodes_[current].children;
      std::size_t best = 0;
      double best_reward = -1e300;
      for (std::size_t c = 0; c < children.size(); ++c) {
        const double reward = nodes_[children[c].second].mean_reward();
        if (reward > best_reward) {
          best_reward = reward;
          best = c;
        }
      }
      removed_chunks.push_back(children[best].first);
      current = children[best].second;
    }
    // Complete un-searched depth with random pruning.
    NodeSet survivors = nodes_[current].remaining;
    while (survivors.size() > min_size_) {
      auto [chunk, rest] = random_prune(survivors);
      removed_chunks.push_back(std::move(chunk));
      survivors = std::move(rest);
    }

    // Rank survivors by drop-one marginal contribution.
    const double full_value = value_of(survivors);
    std::vector<double> marginal(survivors.size());
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      NodeSet without = survivors;
      without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
      marginal[i] = full_value - (without.empty() ? 0.0 : value_of(without));
    }
    std::vector<std::size_t> order(survivors.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return marginal[a] > marginal[b];
    });

    NodeRanking ranking;
    ranking.order.reserve(graph_.num_nodes());
    for (std::size_t i : order) ranking.order.push_back(survivors[i]);
    for (auto chunk = removed_chunks.rbegin(); chunk != removed_chunks.rend();
         ++chunk) {
      for (std::uint32_t v : *chunk) ranking.order.push_back(v);
    }
    return ranking;
  }

  const GnnClassifier& gnn_;
  const Acfg& graph_;
  const SubgraphXConfig& config_;
  Rng rng_;
  std::size_t target_class_ = 0;
  std::size_t min_size_ = 1;
  std::size_t chunk_size_ = 1;
  std::vector<TreeNode> nodes_;
  std::size_t evaluations_ = 0;
};

}  // namespace

SubgraphX::SubgraphX(const GnnClassifier& gnn, SubgraphXConfig config)
    : gnn_(&gnn), config_(config) {
  if (config_.prune_fraction <= 0.0 || config_.min_fraction <= 0.0) {
    throw std::invalid_argument("SubgraphX: fractions must be positive");
  }
}

NodeRanking SubgraphX::explain(const Acfg& graph) {
  if (graph.num_nodes() == 0) {
    throw std::invalid_argument("SubgraphX::explain: empty graph");
  }
  Search search(*gnn_, graph, config_);
  obs::TraceSpan mcts_span("subgraphx.mcts", "explain");
  NodeRanking ranking = search.run();
  gnn_evaluations_ = search.evaluations();
  return ranking;
}

}  // namespace cfgx
