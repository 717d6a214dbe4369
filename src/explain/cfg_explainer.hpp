// Adapter exposing the paper's CFGExplainer (src/core) through the common
// Explainer interface used by the comparison harness.
#pragma once

#include <memory>
#include <optional>

#include "core/explainer_model.hpp"
#include "core/interpreter.hpp"
#include "core/trainer.hpp"
#include "explain/explainer_api.hpp"
#include "gnn/classifier.hpp"

namespace cfgx {

class CfgExplainer : public Explainer {
 public:
  // `gnn` is borrowed and must outlive the explainer. Theta starts from a
  // random initialization drawn from `init_seed`; fit() trains it.
  CfgExplainer(const GnnClassifier& gnn, ExplainerTrainConfig train_config = {},
               InterpretationConfig interpret_config = {},
               std::uint64_t init_seed = 99);

  // Adopts an already-trained Theta, shared read-only with every other
  // holder, and is fitted from the start. No Theta is initialized or
  // copied: the serving engine's per-worker explainers all point at one
  // model. Throws std::invalid_argument when `theta` is null or does not
  // match the GNN's dims.
  CfgExplainer(const GnnClassifier& gnn,
               std::shared_ptr<const ExplainerModel> theta,
               InterpretationConfig interpret_config = {});

  std::string name() const override { return "CFGExplainer"; }

  // Runs Algorithm 1 (joint training of Theta_s + Theta_c) on a copy of
  // the current Theta, which then replaces it; other holders of a shared
  // Theta keep the old one.
  void fit(const Corpus& corpus,
           const std::vector<std::size_t>& train_indices) override;

  // Runs Algorithm 2 and returns the importance ordering.
  NodeRanking explain(const Acfg& graph) override;

  bool fitted() const noexcept { return fitted_; }
  // The current Theta; the reference lasts until the next fit(),
  // set_model() or load_model_file().
  const ExplainerModel& model() const { return *model_; }
  const ExplainerTrainResult& train_result() const { return train_result_; }

  // Checkpointing of the trained Theta (bench artifact cache).
  void save_model_file(const std::string& path) const { model_->save_file(path); }
  void load_model_file(const std::string& path);  // marks the explainer fitted

  // In-memory counterpart of load_model_file: adopts an already-trained
  // Theta and marks the explainer fitted. Validates dims against the GNN.
  void set_model(ExplainerModel model);

  // Full Algorithm-2 output (ranking and subgraph node sets) for callers
  // that need more than the ranking (Table V qualitative analysis).
  Interpretation interpret(const Acfg& graph) const;

 private:
  void adopt_model(std::shared_ptr<const ExplainerModel> model);

  const GnnClassifier* gnn_;
  std::shared_ptr<const ExplainerModel> model_;  // never null
  ExplainerTrainConfig train_config_;
  InterpretationConfig interpret_config_;
  ExplainerTrainResult train_result_;
  bool fitted_ = false;
};

}  // namespace cfgx
