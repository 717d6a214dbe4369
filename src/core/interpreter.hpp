// The interpretation stage of CFGExplainer (paper Algorithm 2).
//
// Iteratively prunes the graph: at each step the current (masked) graph is
// re-embedded by the frozen GNN, re-scored by Theta_s, and the
// lowest-scoring surviving nodes are masked out (adjacency row+column and
// feature row zeroed — DESIGN.md decision 3). The removal order, reversed,
// is the node importance ranking; the retained node sets, reversed, are the
// subgraph sequence from smallest (top step_size% nodes) to the full graph
// (masked_subgraph in graph/ops.hpp rebuilds any of them).
#pragma once

#include <cstdint>
#include <vector>

#include "core/explainer_model.hpp"
#include "gnn/classifier.hpp"
#include "graph/acfg.hpp"

namespace cfgx {

struct InterpretationConfig {
  // Percentage of the graph pruned per iteration; must divide 100
  // (Algorithm 2 precondition: 100 % step_size == 0).
  unsigned step_size_percent = 10;
};

struct Interpretation {
  // All nodes, most important first (V_ordered reversed, line 19).
  std::vector<std::uint32_t> ordered_nodes;
  // Kept-node sets per retained size: subgraph_nodes[k] holds the nodes of
  // the subgraph with (k+1)*step_size% of the graph; the last entry is the
  // full node set.
  std::vector<std::vector<std::uint32_t>> subgraph_nodes;
  unsigned step_size_percent = 10;
};

// One iteration of Algorithm 2's victim selection (lines 8-16): moves the
// `n_step` lowest-scoring nodes of `remaining` (ascending ids, as the
// interpreter keeps it) into `victims`, lowest score first, ties to the
// lower id. `scores` is indexed by node id. One stable sort by score gives
// the same victims in the same order as taking the strict minimum n_step
// times, with a NaN score sorted as +inf (DESIGN.md decision 17).
void select_victims(const Matrix& scores, std::size_t n_step,
                    std::vector<std::uint32_t>& remaining,
                    std::vector<std::uint32_t>& victims);

class Interpreter {
 public:
  // Both references are borrowed; the caller keeps them alive. `model`
  // must be trained (Algorithm 1) against `gnn`'s embeddings. Neither is
  // mutated, so interpreters on many threads may share one model.
  Interpreter(const ExplainerModel& model, const GnnClassifier& gnn)
      : model_(&model), gnn_(&gnn) {}

  Interpretation interpret(const Acfg& graph,
                           const InterpretationConfig& config = {}) const;

 private:
  const ExplainerModel* model_;
  const GnnClassifier* gnn_;
};

}  // namespace cfgx
