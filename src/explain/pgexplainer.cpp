#include "explain/pgexplainer.hpp"

#include <cmath>

#include "graph/ops.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace cfgx {
namespace {

double stable_sigmoid(double x) {
  return x >= 0.0 ? 1.0 / (1.0 + std::exp(-x)) : std::exp(x) / (1.0 + std::exp(x));
}

}  // namespace

PgExplainer::PgExplainer(const GnnClassifier& gnn, PgExplainerConfig config)
    : gnn_(gnn.clone()), config_(config), rng_(config.seed) {
  // clone() drops the non-owned kernel pool; re-attach it so the CSR-backed
  // forward/backward in the mask-training loop stays parallel.
  gnn_.set_kernel_pool(gnn.kernel_pool());
  const std::size_t in_dim = 2 * gnn_.config().embedding_dim();
  predictor_.emplace<Dense>(in_dim, config_.hidden_dim, rng_, "pg.h0");
  predictor_.emplace<Relu>();
  predictor_.emplace<Dense>(config_.hidden_dim, std::size_t{1}, rng_, "pg.out");
}

Matrix PgExplainer::edge_inputs(const Acfg& graph,
                                const Matrix& embeddings) const {
  const std::size_t f = embeddings.cols();
  Matrix inputs(graph.num_edges(), 2 * f);
  const auto& edges = graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    for (std::size_t c = 0; c < f; ++c) {
      inputs(e, c) = embeddings(edges[e].src, c);
      inputs(e, f + c) = embeddings(edges[e].dst, c);
    }
  }
  return inputs;
}

void PgExplainer::fit(const Corpus& corpus,
                      const std::vector<std::size_t>& train_indices) {
  obs::TraceSpan fit_span("pgexplainer.fit", "explain");
  Adam optimizer(predictor_.parameters(),
                 AdamConfig{.learning_rate = config_.learning_rate});

  // Frozen-GNN precomputation: embeddings, adjacency, edge inputs, target.
  struct Prepared {
    MaskedNormalizedAdjacency adjacency;
    Matrix edge_in;
    const Acfg* graph;
    std::size_t target;
  };
  std::vector<Prepared> prepared;
  prepared.reserve(train_indices.size());
  for (std::size_t index : train_indices) {
    const Acfg& graph = corpus.graph(index);
    if (graph.num_edges() == 0) continue;
    const Matrix z = gnn_.embed(graph);
    prepared.push_back(Prepared{MaskedNormalizedAdjacency(graph),
                                edge_inputs(graph, z), &graph,
                                argmax_rows(gnn_.class_logits(z))[0]});
  }

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const double t = config_.epochs <= 1
                         ? 1.0
                         : static_cast<double>(epoch) /
                               static_cast<double>(config_.epochs - 1);
    const double temperature =
        config_.temperature_start +
        t * (config_.temperature_end - config_.temperature_start);

    double epoch_loss = 0.0;
    for (Prepared& p : prepared) {
      const std::size_t num_edges = p.graph->num_edges();

      predictor_.zero_grad();
      const Matrix omega = predictor_.forward(p.edge_in);  // [E, 1]

      // Concrete / Gumbel-sigmoid gates.
      std::vector<double> gate(num_edges), dgate_domega(num_edges);
      for (std::size_t e = 0; e < num_edges; ++e) {
        const double u = rng_.uniform(1e-6, 1.0 - 1e-6);
        const double noise = std::log(u) - std::log(1.0 - u);
        const double pre = (omega(e, 0) + noise) / temperature;
        gate[e] = stable_sigmoid(pre);
        dgate_domega[e] = gate[e] * (1.0 - gate[e]) / temperature;
      }
      MaskedNormalizedAdjacency& masked = p.adjacency;
      masked.scale_edges(gate, p.graph->features());

      gnn_.zero_grad();
      const Matrix logits = gnn_.forward_cached(
          masked.a_hat(), masked.inv_sqrt_degree(), p.graph->features());
      const LossResult loss = softmax_cross_entropy(logits, {p.target});
      epoch_loss += loss.value;
      const auto backward =
          gnn_.backward_cached(loss.grad, /*want_adjacency_grad=*/true);
      const std::vector<double> edge_grad =
          masked.edge_gradient(backward.grad_adjacency);

      Matrix grad_omega(num_edges, 1);
      for (std::size_t e = 0; e < num_edges; ++e) {
        double grad = edge_grad[e] * dgate_domega[e];
        grad += config_.size_weight * dgate_domega[e];
        const double g = gate[e];
        const double eps = 1e-12;
        grad += config_.entropy_weight * dgate_domega[e] *
                (std::log(1.0 - g + eps) - std::log(g + eps));
        grad_omega(e, 0) = grad;
      }
      predictor_.backward(grad_omega);
      optimizer.step();
    }
    CFGX_LOG(Debug) << "pgexplainer epoch " << epoch << " loss "
                    << epoch_loss / static_cast<double>(prepared.size());
  }
  fitted_ = true;
}

void PgExplainer::save_file(const std::string& path) const {
  auto& self = const_cast<PgExplainer&>(*this);
  save_parameters_file(path, self.predictor_.parameters());
}

void PgExplainer::load_file(const std::string& path) {
  load_parameters_file(path, predictor_.parameters());
  fitted_ = true;
}

std::vector<double> PgExplainer::edge_scores(const Acfg& graph) {
  const Matrix z = gnn_.embed(graph);
  if (graph.num_edges() == 0) return {};
  const Matrix omega = predictor_.forward(edge_inputs(graph, z));
  std::vector<double> scores(graph.num_edges());
  for (std::size_t e = 0; e < scores.size(); ++e) {
    scores[e] = stable_sigmoid(omega(e, 0));
  }
  return scores;
}

NodeRanking PgExplainer::explain(const Acfg& graph) {
  if (!fitted_) {
    throw std::logic_error("PgExplainer::explain: call fit() first");
  }
  if (graph.num_edges() == 0) {
    NodeRanking ranking;
    ranking.order.resize(graph.num_nodes());
    for (std::uint32_t i = 0; i < graph.num_nodes(); ++i) ranking.order[i] = i;
    return ranking;
  }
  return ranking_from_scores(
      node_scores_from_edge_scores(graph, edge_scores(graph)));
}

}  // namespace cfgx
