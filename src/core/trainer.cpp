#include "core/trainer.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "graph/ops.hpp"
#include "nn/loss.hpp"
#include "nn/workspace.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace cfgx {
namespace {

// Retention-at-20%: fraction of validation graphs whose top-20%-scored
// subgraph is still assigned the GNN's full-graph class. Single-pass scores
// (no iterative re-scoring) keep this cheap; it tracks the Algorithm-2
// outcome closely enough for checkpoint selection.
double validation_retention(const ExplainerModel& model,
                            const GnnClassifier& gnn, const Corpus& corpus,
                            const std::vector<std::size_t>& indices,
                            const std::vector<Matrix>& embeddings,
                            const std::vector<std::size_t>& gnn_labels) {
  if (indices.empty()) return 0.0;
  std::size_t retained = 0;
  Workspace::Lease psi_lease = Workspace::local().acquire(0, 0);
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const Acfg& graph = corpus.graph(indices[k]);
    model.score_nodes_into(embeddings[k], psi_lease.get());
    const Matrix& psi = psi_lease.get();
    std::vector<double> scores(graph.num_nodes());
    for (std::uint32_t j = 0; j < graph.num_nodes(); ++j) scores[j] = psi(j, 0);
    const auto kept =
        top_k_nodes(scores, nodes_for_fraction(graph.num_nodes(), 0.2));
    const Prediction prediction = gnn.predict(masked_subgraph(graph, kept));
    if (prediction.predicted_class == gnn_labels[k]) ++retained;
  }
  return static_cast<double>(retained) / static_cast<double>(indices.size());
}

}  // namespace

ExplainerTrainResult train_explainer(
    ExplainerModel& model, const GnnClassifier& gnn, const Corpus& corpus,
    const std::vector<std::size_t>& train_indices,
    const ExplainerTrainConfig& config) {
  if (train_indices.empty()) {
    throw std::invalid_argument("train_explainer: empty training set");
  }
  if (config.batch_size == 0) {
    throw std::invalid_argument("train_explainer: batch_size must be > 0");
  }
  if (config.validation_fraction < 0.0 || config.validation_fraction >= 1.0) {
    throw std::invalid_argument(
        "train_explainer: validation_fraction must be in [0, 1)");
  }
  if (model.config().embedding_dim != gnn.config().embedding_dim()) {
    throw std::invalid_argument(
        "train_explainer: explainer embedding_dim != GNN embedding dim");
  }

  Rng sample_rng(config.sample_seed);

  // Split off the validation slice used for checkpoint selection.
  std::vector<std::size_t> fit_indices = train_indices;
  std::vector<std::size_t> validation_indices;
  const auto validation_count = static_cast<std::size_t>(
      std::floor(config.validation_fraction *
                 static_cast<double>(train_indices.size())));
  const bool use_validation =
      validation_count > 0 && config.validation_interval > 0;
  if (use_validation) {
    sample_rng.shuffle(fit_indices);
    validation_indices.assign(fit_indices.end() - validation_count,
                              fit_indices.end());
    fit_indices.resize(fit_indices.size() - validation_count);
  }

  // Algorithm 1 lines 6-7 hoisted out of the epoch loop: Phi is frozen, so
  // Z_i = Phi_e(A_i, X_i) and C_i = Phi_c(Z_i) never change.
  const auto prepare = [&](const std::vector<std::size_t>& indices,
                           std::vector<Matrix>& embeddings,
                           std::vector<std::size_t>& labels) {
    embeddings.reserve(indices.size());
    labels.reserve(indices.size());
    for (std::size_t index : indices) {
      const Acfg& graph = corpus.graph(index);
      Matrix z = gnn.embed(graph);
      labels.push_back(argmax_rows(gnn.class_logits(z))[0]);
      embeddings.push_back(std::move(z));
    }
  };
  std::vector<Matrix> embeddings, val_embeddings;
  std::vector<std::size_t> gnn_labels, val_labels;
  prepare(fit_indices, embeddings, gnn_labels);
  prepare(validation_indices, val_embeddings, val_labels);

  // Condition Theta's inputs: normalize by the RMS of the training
  // embeddings so learning rates are meaningful regardless of the GNN's
  // embedding magnitude.
  double sum_sq = 0.0;
  std::size_t entry_count = 0;
  for (const Matrix& z : embeddings) {
    for (std::size_t i = 0; i < z.size(); ++i) {
      sum_sq += z.data()[i] * z.data()[i];
    }
    entry_count += z.size();
  }
  const double rms =
      entry_count == 0 ? 1.0 : std::sqrt(sum_sq / static_cast<double>(entry_count));
  model.set_embedding_scale(std::max(rms, 1e-9));

  Adam optimizer(model.parameters(), config.adam);

  obs::TraceSpan train_span("explainer.train", "train");
  ExplainerTrainResult result;
  std::stringstream best_checkpoint;
  double best_retention = -1.0;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    obs::TraceSpan epoch_span("explainer.train.epoch", "train");
    // Algorithm 1 line 3: random mini-batch D' of m samples.
    const std::size_t m = std::min(config.batch_size, fit_indices.size());
    const std::vector<std::size_t> batch =
        sample_rng.sample_indices(fit_indices.size(), m);

    model.zero_grad();
    double loss_sum = 0.0;  // Algorithm 1 line 4
    for (std::size_t i : batch) {
      // Lines 8-12: Psi = Theta_s(Z); Z_weighted = Psi .* Z; Y = Theta_c(...).
      const auto forward = model.joint_forward(embeddings[i]);
      // Lines 13-14: loss += log(Y[C_i]); loss = -loss/m (with the 1e-20 bias).
      const LossResult loss =
          nll_from_probabilities(forward.probabilities, {gnn_labels[i]});
      double mean_score = 0.0;
      for (std::size_t j = 0; j < forward.scores.rows(); ++j) {
        mean_score += forward.scores(j, 0);
      }
      mean_score /= static_cast<double>(forward.scores.rows());
      loss_sum += loss.value + config.score_sparsity_weight * mean_score;

      Matrix grad = loss.grad;
      grad *= 1.0 / static_cast<double>(m);  // mean over the mini-batch
      const double l1_grad =
          config.score_sparsity_weight /
          (static_cast<double>(m) * static_cast<double>(forward.scores.rows()));
      model.joint_backward(grad, l1_grad);
    }
    optimizer.step();  // line 15

    const double epoch_loss = loss_sum / static_cast<double>(m);
    result.epoch_losses.push_back(epoch_loss);
    if (config.on_epoch) config.on_epoch(epoch, epoch_loss);
    CFGX_LOG(Debug) << "explainer epoch " << epoch << " loss " << epoch_loss;

    // Checkpoint selection on validation retention.
    const bool last_epoch = epoch + 1 == config.epochs;
    if (use_validation &&
        ((epoch + 1) % config.validation_interval == 0 || last_epoch)) {
      obs::TraceSpan validation_span("explainer.validation", "train");
      const double retention = validation_retention(
          model, gnn, corpus, validation_indices, val_embeddings, val_labels);
      CFGX_LOG(Debug) << "explainer epoch " << epoch << " retention "
                      << retention;
      if (retention > best_retention) {
        best_retention = retention;
        result.best_checkpoint_epoch = epoch;
        best_checkpoint.str({});
        best_checkpoint.clear();
        model.save(best_checkpoint);
      }
    }
  }

  // Surrogate fidelity: how often Theta_c agrees with Phi on the train set,
  // measured on the FINAL weights (the training-quality signal) before the
  // checkpoint restore below swaps in the best-retention weights.
  std::size_t agree = 0;
  for (std::size_t i = 0; i < embeddings.size(); ++i) {
    const auto forward = model.joint_forward(embeddings[i]);
    if (argmax_rows(forward.probabilities)[0] == gnn_labels[i]) ++agree;
  }
  result.surrogate_fidelity =
      static_cast<double>(agree) / static_cast<double>(embeddings.size());

  if (use_validation && best_retention >= 0.0) {
    ExplainerModel best = ExplainerModel::load(best_checkpoint);
    // Copy the best weights back into the caller's model object.
    auto dst = model.parameters();
    auto src = best.parameters();
    for (std::size_t k = 0; k < dst.size(); ++k) dst[k]->value = src[k]->value;
    result.best_validation_retention = best_retention;
  }
  return result;
}

}  // namespace cfgx
