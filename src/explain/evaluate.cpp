#include "explain/evaluate.hpp"

#include <cmath>
#include <map>
#include <stdexcept>

#include "gnn/metrics.hpp"
#include "graph/ops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cfgx {

double FamilyCurve::accuracy_at(double fraction) const {
  if (fractions.empty()) {
    throw std::logic_error(
        "FamilyCurve::accuracy_at: curve has no grid points");
  }
  if (fractions.size() != accuracies.size()) {
    throw std::logic_error(
        "FamilyCurve::accuracy_at: fractions/accuracies misaligned");
  }
  if (!(fraction >= 0.0 && fraction <= 1.0)) {  // rejects NaN too
    throw std::invalid_argument(
        "FamilyCurve::accuracy_at: fraction outside [0, 1]");
  }
  std::size_t best = 0;
  double best_dist = 1e300;
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const double dist = std::abs(fractions[i] - fraction);
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  return accuracies[best];
}

double ExplainerEvaluation::average_accuracy_at(double fraction) const {
  if (per_family.empty()) return 0.0;
  double total = 0.0;
  for (const FamilyCurve& curve : per_family) {
    total += curve.accuracy_at(fraction);
  }
  return total / static_cast<double>(per_family.size());
}

double ExplainerEvaluation::fidelity_minus(double fraction) const {
  return average_accuracy_at(1.0) - average_accuracy_at(fraction);
}

ExplainerEvaluation evaluate_explainer(
    Explainer& explainer, const GnnClassifier& gnn, const Corpus& corpus,
    const std::vector<std::size_t>& eval_indices,
    const EvaluationConfig& config) {
  const unsigned step = config.step_size_percent;
  if (step == 0 || step > 100 || 100 % step != 0) {
    throw std::invalid_argument("evaluate_explainer: bad step size");
  }
  if (eval_indices.empty()) {
    throw std::invalid_argument("evaluate_explainer: empty evaluation set");
  }

  const std::size_t grid = 100 / step;
  std::vector<double> fractions(grid);
  for (std::size_t g = 0; g < grid; ++g) {
    fractions[g] = static_cast<double>((g + 1) * step) / 100.0;
  }

  struct Tally {
    std::vector<std::size_t> correct;
    std::size_t samples = 0;
  };
  std::map<int, Tally> per_label;

  std::size_t plant_hits = 0;       // planted nodes inside top-20%
  std::size_t plant_total = 0;      // planted nodes overall
  std::size_t top20_total = 0;      // top-20% nodes over malware samples
  std::size_t complement_correct = 0;  // fidelity+ tally
  double sparsity_sum = 0.0;

  ExplainerEvaluation result;
  result.explainer_name = explainer.name();

  // Per-explainer latency histogram ("explain.CFGExplainer.seconds", ...)
  // feeding the p50/p95/p99 columns in bench run manifests. The span name
  // lives as long as the evaluation, so TraceSpan may keep the pointer.
  obs::Histogram& explain_seconds = obs::MetricsRegistry::global().histogram(
      "explain." + explainer.name() + ".seconds");
  const std::string span_name = "explain." + explainer.name();

  for (std::size_t index : eval_indices) {
    const Acfg& graph = corpus.graph(index);

    Stopwatch watch;
    NodeRanking ranking;
    {
      obs::TraceSpan span(span_name.c_str(), "explain");
      ranking = explainer.explain(graph);
    }
    const double seconds = watch.elapsed_seconds();
    result.explain_time.add(seconds);
    explain_seconds.record(seconds);

    if (ranking.order.size() != graph.num_nodes()) {
      throw std::logic_error("evaluate_explainer: ranking size mismatch from " +
                             explainer.name());
    }

    Tally& tally = per_label[graph.label()];
    if (tally.correct.empty()) tally.correct.assign(grid, 0);
    ++tally.samples;

    // masked_subgraph + predict() never densifies (ops.hpp) — essential
    // once graphs reach the paper's 7352 nodes.
    for (std::size_t g = 0; g < grid; ++g) {
      const auto kept = ranking.top_fraction(fractions[g]);
      const Prediction prediction = gnn.predict(masked_subgraph(graph, kept));
      if (static_cast<int>(prediction.predicted_class) == graph.label()) {
        ++tally.correct[g];
      }
    }

    // Fidelity+ / sparsity at the 20% operating point.
    {
      const auto top20 = ranking.top_fraction(0.2);
      sparsity_sum += 1.0 - static_cast<double>(top20.size()) /
                                static_cast<double>(graph.num_nodes());
      if (config.measure_fidelity_plus) {
        // Complement: every node EXCEPT the top-20%.
        std::vector<char> in_top(graph.num_nodes(), 0);
        for (std::uint32_t v : top20) in_top[v] = 1;
        std::vector<std::uint32_t> complement;
        complement.reserve(graph.num_nodes() - top20.size());
        for (std::uint32_t v = 0; v < graph.num_nodes(); ++v) {
          if (!in_top[v]) complement.push_back(v);
        }
        const Prediction prediction =
            gnn.predict(masked_subgraph(graph, complement));
        if (static_cast<int>(prediction.predicted_class) == graph.label()) {
          ++complement_correct;
        }
      }
    }

    // Plant recovery over the top-20% subgraph of malware samples.
    if (!graph.planted_nodes().empty()) {
      const auto top20 = ranking.top_fraction(0.2);
      std::vector<char> in_top(graph.num_nodes(), 0);
      for (std::uint32_t v : top20) in_top[v] = 1;
      for (std::uint32_t planted : graph.planted_nodes()) {
        if (in_top[planted]) ++plant_hits;
      }
      plant_total += graph.planted_nodes().size();
      top20_total += top20.size();
    }
  }

  double auc_sum = 0.0;
  for (const auto& [label, tally] : per_label) {
    FamilyCurve curve;
    curve.family = family_from_label(label);
    curve.fractions = fractions;
    curve.sample_count = tally.samples;
    curve.accuracies.resize(grid);
    for (std::size_t g = 0; g < grid; ++g) {
      curve.accuracies[g] = static_cast<double>(tally.correct[g]) /
                            static_cast<double>(tally.samples);
    }
    curve.auc = curve_auc(curve.fractions, curve.accuracies);
    auc_sum += curve.auc;
    result.per_family.push_back(std::move(curve));
  }
  result.average_auc = auc_sum / static_cast<double>(result.per_family.size());

  result.plant_recall =
      plant_total == 0 ? 0.0
                       : static_cast<double>(plant_hits) /
                             static_cast<double>(plant_total);
  result.plant_precision =
      top20_total == 0 ? 0.0
                       : static_cast<double>(plant_hits) /
                             static_cast<double>(top20_total);
  result.sparsity_at_20 =
      sparsity_sum / static_cast<double>(eval_indices.size());
  if (config.measure_fidelity_plus) {
    result.complement_accuracy_at_20 =
        static_cast<double>(complement_correct) /
        static_cast<double>(eval_indices.size());
  }
  return result;
}

double full_graph_accuracy(const GnnClassifier& gnn, const Corpus& corpus,
                           const std::vector<std::size_t>& eval_indices) {
  if (eval_indices.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t index : eval_indices) {
    const Acfg& graph = corpus.graph(index);
    if (static_cast<int>(gnn.predict(graph).predicted_class) == graph.label()) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(eval_indices.size());
}

}  // namespace cfgx
