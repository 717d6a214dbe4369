#include "explain/gnnexplainer.hpp"

#include <cmath>

#include "graph/ops.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "obs/trace.hpp"

namespace cfgx {
namespace {

double stable_sigmoid(double x) {
  return x >= 0.0 ? 1.0 / (1.0 + std::exp(-x)) : std::exp(x) / (1.0 + std::exp(x));
}

// d/dm of the size + entropy regularizers on gate g = sigmoid(m).
double regularizer_grad(double g, double size_weight, double entropy_weight) {
  const double dgate = g * (1.0 - g);
  const double eps = 1e-12;
  return size_weight * dgate +
         entropy_weight * dgate * (std::log(1.0 - g + eps) - std::log(g + eps));
}

}  // namespace

GnnExplainer::GnnExplainer(const GnnClassifier& gnn, GnnExplainerConfig config)
    : gnn_(gnn.clone()), config_(config) {
  // clone() round-trips through serialization and drops the (non-owned)
  // kernel pool; keep the source model's so the per-iteration CSR
  // forward/backward stays parallel.
  gnn_.set_kernel_pool(gnn.kernel_pool());
}

NodeRanking GnnExplainer::explain(const Acfg& graph) {
  const std::size_t num_edges = graph.num_edges();
  const std::size_t num_features = graph.feature_count();
  const Matrix& base_features = graph.features();

  // The class the mask must preserve: the GNN's own full-graph prediction.
  const std::size_t target_class = gnn_.predict(graph).predicted_class;

  if (num_edges == 0) {
    // Nothing to mask; fall back to index order.
    last_edge_scores_.clear();
    last_feature_scores_.clear();
    NodeRanking ranking;
    ranking.order.resize(graph.num_nodes());
    for (std::uint32_t i = 0; i < graph.num_nodes(); ++i) ranking.order[i] = i;
    return ranking;
  }

  // Per-edge mask logits (and optionally per-feature gate logits) as
  // Parameters so Adam drives them directly.
  Rng rng(config_.seed ^ (graph.num_nodes() * 0x9e3779b97f4a7c15ULL));
  Parameter mask("edge_mask", Matrix(1, num_edges));
  for (std::size_t e = 0; e < num_edges; ++e) {
    mask.value(0, e) = rng.normal(config_.mask_init_mean, config_.mask_init_stddev);
  }
  Parameter feature_mask("feature_mask", Matrix(1, num_features));
  for (std::size_t f = 0; f < num_features; ++f) {
    feature_mask.value(0, f) =
        rng.normal(config_.mask_init_mean, config_.mask_init_stddev);
  }

  std::vector<Parameter*> params{&mask};
  if (config_.learn_feature_mask) params.push_back(&feature_mask);
  Adam optimizer(params, AdamConfig{.learning_rate = config_.learning_rate});

  // Scaler stddev for the raw->scaled feature gradient chain.
  std::vector<double> inv_std(num_features, 1.0);
  if (gnn_.scaler().fitted()) {
    for (std::size_t f = 0; f < num_features; ++f) {
      inv_std[f] = 1.0 / gnn_.scaler().stddev()[f];
    }
  }

  MaskedNormalizedAdjacency masked(graph);
  obs::TraceSpan optimize_span("gnnexplainer.mask_optimize", "explain");
  for (std::size_t step = 0; step < config_.iterations; ++step) {
    // Masked adjacency: A_e *= sigmoid(m_e).
    std::vector<double> gate(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e) {
      gate[e] = stable_sigmoid(mask.value(0, e));
    }

    // Masked features: X[:, f] *= sigmoid(fm_f) when enabled.
    Matrix features = base_features;
    std::vector<double> feature_gate(num_features, 1.0);
    if (config_.learn_feature_mask) {
      for (std::size_t f = 0; f < num_features; ++f) {
        feature_gate[f] = stable_sigmoid(feature_mask.value(0, f));
      }
      for (std::size_t r = 0; r < features.rows(); ++r) {
        for (std::size_t f = 0; f < num_features; ++f) {
          features(r, f) *= feature_gate[f];
        }
      }
    }

    masked.scale_edges(gate, features);

    gnn_.zero_grad();
    const Matrix logits =
        gnn_.forward_cached(masked.a_hat(), masked.inv_sqrt_degree(), features);
    const LossResult loss = softmax_cross_entropy(logits, {target_class});
    const auto backward =
        gnn_.backward_cached(loss.grad, /*want_adjacency_grad=*/true);
    const std::vector<double> edge_grad =
        masked.edge_gradient(backward.grad_adjacency);

    mask.zero_grad();
    for (std::size_t e = 0; e < num_edges; ++e) {
      const double g = gate[e];
      // Prediction term: dL/dA_uv * w_uv * sigma'(m).
      double grad = edge_grad[e] * g * (1.0 - g);
      grad += regularizer_grad(g, config_.size_weight, config_.entropy_weight);
      mask.grad(0, e) = grad;
    }

    if (config_.learn_feature_mask) {
      feature_mask.zero_grad();
      for (std::size_t f = 0; f < num_features; ++f) {
        const double g = feature_gate[f];
        // dL/d(fm_f) = sum_j dL/dX_scaled[j,f] * (X_raw[j,f] / std_f) * g'.
        double grad = 0.0;
        for (std::size_t r = 0; r < base_features.rows(); ++r) {
          grad += backward.grad_scaled_features(r, f) * inv_std[f] *
                  base_features(r, f);
        }
        grad *= g * (1.0 - g);
        grad += regularizer_grad(g, config_.feature_size_weight,
                                 config_.entropy_weight);
        feature_mask.grad(0, f) = grad;
      }
    }
    optimizer.step();
  }

  last_edge_scores_.resize(num_edges);
  for (std::size_t e = 0; e < num_edges; ++e) {
    last_edge_scores_[e] = stable_sigmoid(mask.value(0, e));
  }
  last_feature_scores_.clear();
  if (config_.learn_feature_mask) {
    last_feature_scores_.resize(num_features);
    for (std::size_t f = 0; f < num_features; ++f) {
      last_feature_scores_[f] = stable_sigmoid(feature_mask.value(0, f));
    }
  }
  return ranking_from_scores(
      node_scores_from_edge_scores(graph, last_edge_scores_));
}

}  // namespace cfgx
