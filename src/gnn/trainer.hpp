// Training loop for the GNN classifier: mini-batch Adam over softmax
// cross-entropy, with each graph's normalized CSR adjacency built once
// before the epoch loop, not once per epoch.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dataset/corpus.hpp"
#include "gnn/classifier.hpp"
#include "gnn/metrics.hpp"
#include "nn/optimizer.hpp"

namespace cfgx {

struct GnnTrainConfig {
  std::size_t epochs = 40;
  std::size_t batch_size = 16;
  AdamConfig adam{.learning_rate = 5e-3};
  std::uint64_t shuffle_seed = 7;
  // Called after each epoch with (epoch, mean training loss).
  std::function<void(std::size_t, double)> on_epoch;
};

struct GnnTrainResult {
  std::vector<double> epoch_losses;
  double final_train_accuracy = 0.0;
};

// Fits the scaler on the train indices, then trains in place.
GnnTrainResult train_gnn(GnnClassifier& model, const Corpus& corpus,
                         const std::vector<std::size_t>& train_indices,
                         const GnnTrainConfig& config = {});

// Accuracy + confusion of `model` over the given corpus indices, using the
// full (unmasked) graphs.
ConfusionMatrix evaluate_gnn(const GnnClassifier& model, const Corpus& corpus,
                             const std::vector<std::size_t>& indices);

}  // namespace cfgx
