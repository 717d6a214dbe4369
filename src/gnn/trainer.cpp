#include "gnn/trainer.hpp"

#include <stdexcept>

#include "graph/ops.hpp"
#include "nn/loss.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace cfgx {

GnnTrainResult train_gnn(GnnClassifier& model, const Corpus& corpus,
                         const std::vector<std::size_t>& train_indices,
                         const GnnTrainConfig& config) {
  if (train_indices.empty()) {
    throw std::invalid_argument("train_gnn: empty training set");
  }
  if (config.batch_size == 0) {
    throw std::invalid_argument("train_gnn: batch_size must be > 0");
  }

  FeatureScaler scaler;
  scaler.fit(corpus, train_indices);
  model.set_scaler(std::move(scaler));

  // Normalize every training graph once, before the epoch loop.
  std::vector<MaskedNormalizedAdjacency> adjacencies;
  adjacencies.reserve(train_indices.size());
  std::vector<std::size_t> labels;
  labels.reserve(train_indices.size());
  for (std::size_t index : train_indices) {
    const Acfg& graph = corpus.graph(index);
    adjacencies.emplace_back(graph);
    labels.push_back(static_cast<std::size_t>(graph.label()));
  }

  Adam optimizer(model.parameters(), config.adam);
  Rng shuffle_rng(config.shuffle_seed);
  std::vector<std::size_t> order(train_indices.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  obs::TraceSpan train_span("gnn.train", "train");
  GnnTrainResult result;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    obs::TraceSpan epoch_span("gnn.train.epoch", "train");
    shuffle_rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;

    for (std::size_t start = 0; start < order.size();
         start += config.batch_size) {
      const std::size_t end =
          std::min(order.size(), start + config.batch_size);
      model.zero_grad();
      double batch_loss = 0.0;
      for (std::size_t k = start; k < end; ++k) {
        const std::size_t i = order[k];
        const Matrix logits = model.forward_cached(
            adjacencies[i].a_hat(), adjacencies[i].inv_sqrt_degree(),
            corpus.graph(train_indices[i]).features());
        LossResult loss = softmax_cross_entropy(logits, {labels[i]});
        batch_loss += loss.value;
        // Scale so the batch gradient is the mean over batch members.
        loss.grad *= 1.0 / static_cast<double>(end - start);
        model.backward_cached(loss.grad, /*want_adjacency_grad=*/false);
      }
      optimizer.step();
      epoch_loss += batch_loss / static_cast<double>(end - start);
      ++batches;
    }

    epoch_loss /= static_cast<double>(batches);
    result.epoch_losses.push_back(epoch_loss);
    if (config.on_epoch) config.on_epoch(epoch, epoch_loss);
    CFGX_LOG(Debug) << "gnn epoch " << epoch << " loss " << epoch_loss;
  }

  result.final_train_accuracy =
      evaluate_gnn(model, corpus, train_indices).accuracy();
  return result;
}

ConfusionMatrix evaluate_gnn(const GnnClassifier& model, const Corpus& corpus,
                             const std::vector<std::size_t>& indices) {
  ConfusionMatrix confusion(model.config().num_classes);
  for (std::size_t index : indices) {
    const Acfg& graph = corpus.graph(index);
    const Prediction prediction = model.predict(graph);
    confusion.add(static_cast<std::size_t>(graph.label()),
                  prediction.predicted_class);
  }
  return confusion;
}

}  // namespace cfgx
