#include "explain/cfg_explainer.hpp"

#include <stdexcept>

namespace cfgx {
namespace {

ExplainerModelConfig model_config_for(const GnnClassifier& gnn) {
  ExplainerModelConfig config;
  config.embedding_dim = gnn.config().embedding_dim();
  config.num_classes = gnn.config().num_classes;
  return config;
}

}  // namespace

CfgExplainer::CfgExplainer(const GnnClassifier& gnn,
                           ExplainerTrainConfig train_config,
                           InterpretationConfig interpret_config,
                           std::uint64_t init_seed)
    : gnn_(&gnn),
      model_([&] {
        Rng rng(init_seed);
        return std::make_shared<const ExplainerModel>(model_config_for(gnn),
                                                      rng);
      }()),
      train_config_(std::move(train_config)),
      interpret_config_(interpret_config) {}

CfgExplainer::CfgExplainer(const GnnClassifier& gnn,
                           std::shared_ptr<const ExplainerModel> theta,
                           InterpretationConfig interpret_config)
    : gnn_(&gnn), interpret_config_(interpret_config) {
  adopt_model(std::move(theta));
}

void CfgExplainer::fit(const Corpus& corpus,
                       const std::vector<std::size_t>& train_indices) {
  auto trained = std::make_shared<ExplainerModel>(model_->clone());
  train_result_ = train_explainer(*trained, *gnn_, corpus, train_indices,
                                  train_config_);
  model_ = std::move(trained);
  fitted_ = true;
}

void CfgExplainer::load_model_file(const std::string& path) {
  set_model(ExplainerModel::load_file(path));
}

void CfgExplainer::set_model(ExplainerModel model) {
  adopt_model(std::make_shared<const ExplainerModel>(std::move(model)));
}

void CfgExplainer::adopt_model(std::shared_ptr<const ExplainerModel> model) {
  const ExplainerModelConfig expected = model_config_for(*gnn_);
  if (model == nullptr ||
      model->config().embedding_dim != expected.embedding_dim ||
      model->config().num_classes != expected.num_classes) {
    throw std::invalid_argument(
        "CfgExplainer: Theta is missing or does not match the GNN");
  }
  model_ = std::move(model);
  fitted_ = true;
}

NodeRanking CfgExplainer::explain(const Acfg& graph) {
  NodeRanking ranking;
  ranking.order = interpret(graph).ordered_nodes;
  return ranking;
}

Interpretation CfgExplainer::interpret(const Acfg& graph) const {
  if (!fitted_) {
    throw std::logic_error("CfgExplainer::interpret: call fit() first");
  }
  return Interpreter(*model_, *gnn_).interpret(graph, interpret_config_);
}

}  // namespace cfgx
