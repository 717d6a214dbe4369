#include "core/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "graph/ops.hpp"
#include "nn/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cfgx {

void select_victims(const Matrix& scores, std::size_t n_step,
                    std::vector<std::uint32_t>& remaining,
                    std::vector<std::uint32_t>& victims) {
  const auto key = [&scores](std::uint32_t node) {
    const double score = scores(node, 0);
    return std::isnan(score) ? std::numeric_limits<double>::infinity() : score;
  };
  victims.assign(remaining.begin(), remaining.end());
  std::stable_sort(victims.begin(), victims.end(),
                   [&key](std::uint32_t a, std::uint32_t b) {
                     return key(a) < key(b);
                   });
  victims.resize(std::min(n_step, victims.size()));
  std::vector<char> is_victim(scores.rows(), 0);
  for (const std::uint32_t node : victims) is_victim[node] = 1;
  remaining.erase(std::remove_if(remaining.begin(), remaining.end(),
                                 [&is_victim](std::uint32_t node) {
                                   return is_victim[node] != 0;
                                 }),
                  remaining.end());
}

Interpretation Interpreter::interpret(const Acfg& graph,
                                      const InterpretationConfig& config) const {
  const unsigned step = config.step_size_percent;
  if (step == 0 || step > 100 || 100 % step != 0) {
    throw std::invalid_argument(
        "Interpreter: step_size must be in (0,100] and divide 100");
  }
  const std::uint32_t n_real = graph.num_nodes();
  if (n_real == 0) throw std::invalid_argument("Interpreter: empty graph");

  // The masked graph lives as an incrementally-renormalized CSR: pruning a
  // node zeroes its edge values in place and re-normalizes only the touched
  // rows, so the per-iteration cost tracks surviving edges.
  Matrix features = graph.features();
  MaskedNormalizedAdjacency masked(graph);

  Interpretation result;
  result.step_size_percent = step;

  // all_node_indices (Algorithm 2 line 2): nodes not yet pruned.
  std::vector<std::uint32_t> remaining(n_real);
  for (std::uint32_t i = 0; i < n_real; ++i) remaining[i] = i;

  std::vector<std::uint32_t> removal_order;  // V_ordered before the reverse
  removal_order.reserve(n_real);
  std::vector<std::uint32_t> victims;  // this iteration's, lowest score first

  static obs::Counter& iterations_metric =
      obs::MetricsRegistry::global().counter("alg2.iterations");
  static obs::Histogram& renorm_seconds =
      obs::MetricsRegistry::global().histogram("alg2.csr_renorm.seconds");

  // Embeddings/scores are workspace leases: repeated interpret() calls on
  // the same thread recycle the same buffers (workspace.bytes_allocated
  // stays flat after warm-up).
  Workspace& workspace = Workspace::local();
  Workspace::Lease embeddings = workspace.acquire(0, 0);
  Workspace::Lease scores = workspace.acquire(0, 0);

  obs::TraceSpan interpret_span("alg2.interpret", "explain");
  const unsigned iterations = 100 / step;
  for (unsigned it = 0; it < iterations; ++it) {
    iterations_metric.add();
    // graph_size runs 100, 100-step, ..., step (Algorithm 2 line 4).
    // Snapshot the current subgraph (line 5).
    result.subgraph_nodes.push_back(remaining);

    // Re-embed and re-score the masked graph (lines 6-7).
    {
      obs::TraceSpan embed_span("alg2.embed", "explain");
      gnn_->embed_into(masked.a_hat(), masked.inv_sqrt_degree(), features,
                       embeddings.get());
    }
    {
      obs::TraceSpan score_span("alg2.score", "explain");
      model_->score_nodes_into(embeddings.get(), scores.get());
    }

    // Number of nodes to prune this iteration. Fractional step sizes are
    // distributed so the remaining count after iteration `it` equals
    // round(n_real * (100 - (it+1)*step) / 100); the final iteration
    // always drains the graph, so V_ordered covers every node.
    const auto target_remaining = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(n_real) * (100 - (it + 1) * step) + 50) /
        100);
    const std::size_t n_step =
        remaining.size() > target_remaining ? remaining.size() - target_remaining
                                            : 0;

    // Lines 8-18: remove the n_step lowest-scoring survivors.
    obs::TraceSpan prune_span("alg2.prune", "explain");
    select_victims(scores.get(), n_step, remaining, victims);
    for (const std::uint32_t victim : victims) {
      removal_order.push_back(victim);
      // Lines 17-18 (+ feature zeroing, DESIGN decision 3).
      masked.prune(victim);
      for (std::size_t c = 0; c < features.cols(); ++c) {
        features(victim, c) = 0.0;
      }
    }
    {
      obs::ScopedDurationTimer renorm_timer(renorm_seconds);
      masked.refresh();
    }
  }

  // Any survivors of rounding join the front of the importance order.
  // (With exact division `remaining` is empty here.)
  result.ordered_nodes.assign(remaining.begin(), remaining.end());
  for (auto it = removal_order.rbegin(); it != removal_order.rend(); ++it) {
    result.ordered_nodes.push_back(*it);  // line 19: reverse V_ordered
  }

  // Line 20: smallest subgraph first.
  std::reverse(result.subgraph_nodes.begin(), result.subgraph_nodes.end());
  return result;
}

}  // namespace cfgx
