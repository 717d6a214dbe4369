#include "support.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <unordered_set>

#include "core/trainer.hpp"
#include "dataset/corpus.hpp"
#include "dataset/generator.hpp"
#include "gnn/trainer.hpp"
#include "graph/ops.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace cfgbench {

using namespace cfgx;

// ---------------------------------------------------------------------------
// Models and inputs.

Models train_models() {
  // Small enough to train in about two seconds on one core, large enough
  // that the classifier separates the families and Theta's top-ranked
  // blocks carry its decision on corpus-sized graphs.
  CorpusConfig corpus_config;
  corpus_config.samples_per_family = 6;
  corpus_config.seed = 2022;
  const Corpus corpus = generate_corpus(corpus_config);
  const Split split = stratified_split(corpus, 0.75, 41);

  Models models;
  Rng rng(2022);
  models.gnn = std::make_unique<GnnClassifier>(GnnConfig{}, rng);
  GnnTrainConfig gnn_config;
  gnn_config.epochs = 30;
  train_gnn(*models.gnn, corpus, split.train, gnn_config);

  ExplainerTrainConfig theta_config;
  theta_config.epochs = 100;
  CfgExplainer explainer(*models.gnn, theta_config);
  explainer.fit(corpus, split.train);
  models.theta =
      std::make_unique<ExplainerModel>(explainer.model().clone());
  return models;
}

std::unique_ptr<CfgExplainer> make_explainer(const Models& models) {
  auto explainer = std::make_unique<CfgExplainer>(*models.gnn);
  explainer->set_model(models.theta->clone());
  return explainer;
}

std::vector<Acfg> grown_graphs(std::uint64_t seed, std::uint64_t stream,
                               std::size_t min_blocks, std::size_t count) {
  GeneratorConfig config;
  config.target_blocks = min_blocks;
  // The generator overshoots its target by one function's worth of blocks,
  // usually about 2% but up to twice the target. Candidates more than 10%
  // over are drawn again, so run-to-run size spread does not swamp the
  // timings.
  const std::size_t max_blocks = min_blocks + min_blocks / 10;
  Rng root(seed);
  Rng source = root.split(stream);
  std::vector<Acfg> graphs;
  graphs.reserve(count);
  for (std::uint64_t candidate = 0; graphs.size() < count; ++candidate) {
    if (candidate > 20 * count + 100) {
      throw std::runtime_error("grown_graphs: too many oversized candidates");
    }
    const auto family = static_cast<Family>(graphs.size() % (kFamilyCount - 1));
    Rng rng = source.split(candidate);
    Acfg graph = generate_acfg(family, rng, config);
    if (graph.num_nodes() <= max_blocks) graphs.push_back(std::move(graph));
  }
  return graphs;
}

// ---------------------------------------------------------------------------
// Output checks and quality.

bool is_permutation(const NodeRanking& ranking, std::uint32_t num_nodes) {
  if (ranking.order.size() != num_nodes) return false;
  std::vector<char> seen(num_nodes, 0);
  for (std::uint32_t node : ranking.order) {
    if (node >= num_nodes || seen[node] != 0) return false;
    seen[node] = 1;
  }
  return true;
}

void corrupt_ranking(NodeRanking& ranking) {
  if (ranking.order.size() >= 2) std::swap(ranking.order[0], ranking.order[1]);
}

bool replay_algorithm2(const GnnClassifier& gnn, ExplainerModel& theta,
                       const Acfg& graph, const NodeRanking& ranking,
                       LayerTimes& times) {
  const std::uint32_t n = graph.num_nodes();
  if (n == 0 || !is_permutation(ranking, n)) return false;
  // Algorithm 2 appends victims to V_ordered and reverses it at the end.
  const std::vector<std::uint32_t> removal(ranking.order.rbegin(),
                                           ranking.order.rend());
  // The default InterpretationConfig step of CfgExplainer.
  const unsigned step = InterpretationConfig{}.step_size_percent;

  Clock::time_point start = Clock::now();
  Matrix features = graph.features();
  MaskedNormalizedAdjacency masked(graph);
  times.normalize += seconds_between(start, Clock::now());

  Matrix embeddings;
  Matrix scores;
  std::vector<std::uint32_t> survivors(n);
  for (std::uint32_t i = 0; i < n; ++i) survivors[i] = i;
  std::size_t cursor = 0;
  for (unsigned it = 0; it < 100 / step; ++it) {
    start = Clock::now();
    gnn.embed_into(masked.a_hat(), masked.inv_sqrt_degree(), features,
                   embeddings);
    const Clock::time_point embedded = Clock::now();
    theta.score_nodes_into(embeddings, scores);
    const Clock::time_point scored = Clock::now();
    times.embed += seconds_between(start, embedded);
    times.score += seconds_between(embedded, scored);

    // Same remaining-count schedule as the interpreter.
    const auto target = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(n) * (100 - (it + 1) * step) + 50) / 100);
    const std::size_t n_step =
        survivors.size() > target ? survivors.size() - target : 0;
    if (cursor + n_step > removal.size()) return false;

    // The victims must be the n_step lowest scores, ties to the lower id.
    std::stable_sort(survivors.begin(), survivors.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return scores(a, 0) < scores(b, 0);
                     });
    for (std::size_t k = 0; k < n_step; ++k) {
      if (survivors[k] != removal[cursor + k]) return false;
    }
    survivors.erase(survivors.begin(),
                    survivors.begin() + static_cast<std::ptrdiff_t>(n_step));
    std::sort(survivors.begin(), survivors.end());

    start = Clock::now();
    for (std::size_t k = 0; k < n_step; ++k) masked.prune(removal[cursor + k]);
    masked.refresh();
    times.renorm += seconds_between(start, Clock::now());
    for (std::size_t k = 0; k < n_step; ++k) {
      for (std::size_t c = 0; c < features.cols(); ++c) {
        features(removal[cursor + k], c) = 0.0;
      }
    }
    cursor += n_step;
  }
  return cursor == removal.size();
}

bool survives_top20(const GnnClassifier& gnn, const Acfg& graph,
                    const NodeRanking& ranking, std::size_t full_class) {
  return gnn.predict(masked_subgraph(graph, ranking.top_fraction(0.2)))
             .predicted_class == full_class;
}

double top20_overlap(const NodeRanking& a, const NodeRanking& b) {
  const std::vector<std::uint32_t> top_a = a.top_fraction(0.2);
  const std::vector<std::uint32_t> top_b = b.top_fraction(0.2);
  const std::unordered_set<std::uint32_t> in_b(top_b.begin(), top_b.end());
  std::size_t shared = 0;
  for (std::uint32_t node : top_a) shared += in_b.count(node);
  return top_a.empty() ? 0.0
                       : static_cast<double>(shared) /
                             static_cast<double>(top_a.size());
}

// ---------------------------------------------------------------------------
// Statistics.

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

ShareEstimate bootstrap_share(const std::vector<bool>& outcomes,
                              std::uint64_t seed) {
  ShareEstimate estimate;
  estimate.n = outcomes.size();
  if (outcomes.empty()) return estimate;
  const auto n = static_cast<double>(outcomes.size());
  std::size_t hits = 0;
  for (bool o : outcomes) hits += o ? 1 : 0;
  estimate.share = static_cast<double>(hits) / n;

  Rng rng(seed);
  std::vector<double> resampled;
  constexpr int kResamples = 2000;
  resampled.reserve(kResamples);
  for (int r = 0; r < kResamples; ++r) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      count += outcomes[rng.uniform_index(outcomes.size())] ? 1 : 0;
    }
    resampled.push_back(static_cast<double>(count) / n);
  }
  estimate.lo = quantile(resampled, 0.025);
  estimate.hi = quantile(resampled, 0.975);
  return estimate;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Registry totals.

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::string tail(suffix);
  return s.size() >= tail.size() &&
         s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

Sum combine(const Sum& a, const Sum& b, double sign) {
  return {a.count + sign * b.count, a.total + sign * b.total};
}

RegistryTotals combine(const RegistryTotals& a, const RegistryTotals& b,
                       double sign) {
  RegistryTotals c;
  c.spmm = combine(a.spmm, b.spmm, sign);
  c.matmul = combine(a.matmul, b.matmul, sign);
  c.workspace_alloc_bytes =
      a.workspace_alloc_bytes + sign * b.workspace_alloc_bytes;
  c.pool_wait = combine(a.pool_wait, b.pool_wait, sign);
  c.pool_run = combine(a.pool_run, b.pool_run, sign);
  c.batch_size = combine(a.batch_size, b.batch_size, sign);
  c.batch_prepare = combine(a.batch_prepare, b.batch_prepare, sign);
  c.batch_execute = combine(a.batch_execute, b.batch_execute, sign);
  return c;
}

}  // namespace

RegistryTotals RegistryTotals::now() {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  RegistryTotals totals;
  for (const auto& [name, value] : snapshot.counters) {
    const auto v = static_cast<double>(value);
    // Kernel call counters are "kernel.<op>.calls"; the per-ISA split
    // ("...calls.avx2") would count every call twice.
    if (ends_with(name, ".calls")) {
      if (starts_with(name, "kernel.spmm")) totals.spmm.count += v;
      if (starts_with(name, "kernel.matmul")) totals.matmul.count += v;
    }
    if (name == "workspace.bytes_allocated") totals.workspace_alloc_bytes = v;
  }
  for (const obs::HistogramStats& h : snapshot.histograms) {
    const Sum sum{static_cast<double>(h.count), h.sum};
    if (ends_with(h.name, ".seconds")) {
      if (starts_with(h.name, "kernel.spmm")) totals.spmm.total += h.sum;
      if (starts_with(h.name, "kernel.matmul")) totals.matmul.total += h.sum;
    }
    if (h.name == "pool.task_wait_seconds") totals.pool_wait = sum;
    if (h.name == "pool.task_run_seconds") totals.pool_run = sum;
    if (h.name == "serve.batch_size") totals.batch_size = sum;
    if (h.name == "serve.batch_prepare_seconds") totals.batch_prepare = sum;
    if (h.name == "serve.batch_execute_seconds") totals.batch_execute = sum;
  }
  return totals;
}

RegistryTotals RegistryTotals::operator-(const RegistryTotals& earlier) const {
  return combine(*this, earlier, -1.0);
}

RegistryTotals& RegistryTotals::operator+=(const RegistryTotals& other) {
  return *this = combine(*this, other, 1.0);
}

// ---------------------------------------------------------------------------
// Spans.

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::record(const char* name, std::uint64_t id,
                          Clock::time_point start, Clock::time_point end) {
  if (!enabled()) return;
  const std::uint32_t thread = thread_index();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, id, thread, start, end});
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  char buffer[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const std::string_view name(s.name);
    const std::string_view category = name.substr(0, name.find('.'));
    std::snprintf(buffer, sizeof buffer,
                  "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%llu}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<int>(category.size()), category.data(),
                  seconds_between(origin_, s.start) * 1e6, s.seconds() * 1e6,
                  s.thread, static_cast<unsigned long long>(s.id));
    out << buffer;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Report.

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::detail(const std::string& key, double value) {
  details_.push_back({key, value});
}

void Report::wrong_output(const std::string& what) {
  if (wrong_outputs_++ < 5) {
    std::fprintf(stderr, "cfgbench: wrong output: %s\n", what.c_str());
  }
}

namespace {

// JSON has no NaN or infinity; a non-finite measurement is printed as 0
// and reported on stderr.
double finite_or_zero(const std::string& name, double value) {
  if (std::isfinite(value)) return value;
  std::fprintf(stderr, "cfgbench: %s is not finite\n", name.c_str());
  return 0.0;
}

}  // namespace

int Report::print(const Options& options) const {
  std::string line = "{\"detail\":{\"workload\":\"" + options.workload +
                     "\",\"seed\":" + std::to_string(options.seed) +
                     ",\"trace\":" + (options.trace ? "true" : "false");
  char buffer[128];
  for (const auto& [key, value] : details_) {
    std::snprintf(buffer, sizeof buffer, ",\"%s\":%.17g", key.c_str(),
                  finite_or_zero(key, value));
    line += buffer;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());

  line = std::string("{\"correct\":") + (correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted_) +
         ",\"failed\":" + std::to_string(failed_) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    std::snprintf(buffer, sizeof buffer, "%s\"%s\":{\"value\":%.17g,",
                  i == 0 ? "" : ",", name.c_str(),
                  finite_or_zero(name, value_unit.first));
    line += buffer;
    line += "\"unit\":\"" + value_unit.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace cfgbench
