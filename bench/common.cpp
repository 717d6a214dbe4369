#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "nn/simd.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace cfgx::bench {
namespace {

constexpr char kEvalMagic[] = "CFGXE002";
constexpr std::size_t kMagicLen = 8;

void write_u64(std::ostream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw SerializationError("bench eval cache: truncated stream");
  return value;
}

void write_f64(std::ostream& out, double value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

double read_f64(std::istream& in) {
  double value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw SerializationError("bench eval cache: truncated stream");
  return value;
}

void write_doubles(std::ostream& out, const std::vector<double>& values) {
  write_u64(out, values.size());
  for (double v : values) write_f64(out, v);
}

std::vector<double> read_doubles(std::istream& in) {
  const std::uint64_t count = read_u64(in);
  if (count > (1u << 24)) {
    throw SerializationError("bench eval cache: implausible array size");
  }
  std::vector<double> values(count);
  for (double& v : values) v = read_f64(in);
  return values;
}

}  // namespace

BenchConfig BenchConfig::from_cli(const CliArgs& args) {
  BenchConfig config;
  config.fast = args.get_flag("fast");
  config.fresh = args.get_flag("fresh");
  config.cache_dir = args.get_string("cache-dir", config.cache_dir);
  if (config.fast) {
    config.samples_per_family = 12;
    config.gnn_epochs = 100;
    config.explainer_epochs = 800;
    config.pg_epochs = 4;
    config.gnnx_iterations = 25;
    config.subx_iterations = 8;
    config.eval_per_family = 3;
    config.cache_dir += "_fast";
  }
  config.samples_per_family = static_cast<std::size_t>(
      args.get_int("samples", static_cast<std::int64_t>(config.samples_per_family)));
  config.gnn_epochs = static_cast<std::size_t>(
      args.get_int("gnn-epochs", static_cast<std::int64_t>(config.gnn_epochs)));
  config.explainer_epochs = static_cast<std::size_t>(args.get_int(
      "explainer-epochs", static_cast<std::int64_t>(config.explainer_epochs)));
  config.eval_per_family = static_cast<std::size_t>(args.get_int(
      "eval-per-family", static_cast<std::int64_t>(config.eval_per_family)));
  config.nodes = static_cast<std::size_t>(
      args.get_int("nodes", static_cast<std::int64_t>(config.nodes)));
  if (config.nodes != 0) {
    config.cache_dir += "_n" + std::to_string(config.nodes);
  }

  // Failing-seed replay hook: when a property/fuzz suite reports a seed,
  // `--replay-seed S` (or the same CFGX_PROPTEST_SEED variable the test
  // runner honors) re-derives the bench corpus from that seed so the exact
  // graphs involved in the failure can be regenerated and profiled. The
  // explicit flag wins over the environment.
  std::int64_t replay = args.get_int("replay-seed", -1);
  if (replay < 0) {
    if (const char* env = std::getenv("CFGX_PROPTEST_SEED")) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(env, &end, 10);
      if (end && *end == '\0') replay = static_cast<std::int64_t>(parsed);
    }
  }
  if (replay >= 0) {
    config.corpus_seed = static_cast<std::uint64_t>(replay);
    config.fresh = true;  // a cached corpus from another seed would lie
    std::fprintf(stderr,
                 "[bench] replaying failing seed %lld as corpus seed "
                 "(cache bypassed)\n",
                 static_cast<long long>(replay));
  }

  // Kernel ISA override: `--simd=I` beats CFGX_SIMD beats runtime dispatch.
  // Applied here so every kernel call in every bench binary runs under the
  // requested ISA; bad values throw before any measurement happens.
  config.simd = args.get_string("simd", "");
  if (!config.simd.empty()) {
    simd::set_isa(simd::parse_isa(config.simd));
  }
  return config;
}

BenchContext::BenchContext(BenchConfig config) : config_(std::move(config)) {
  std::filesystem::create_directories(config_.cache_dir);
  if (config_.fresh) {
    for (const auto& entry :
         std::filesystem::directory_iterator(config_.cache_dir)) {
      std::filesystem::remove(entry.path());
    }
  }
}

std::string BenchContext::cache_path(const std::string& filename) const {
  return (std::filesystem::path(config_.cache_dir) / filename).string();
}

const Corpus& BenchContext::corpus() {
  if (!corpus_) {
    CorpusConfig cc;
    cc.samples_per_family = config_.samples_per_family;
    cc.seed = config_.corpus_seed;
    cc.generator.target_blocks = config_.nodes;
    std::fprintf(stderr, "[bench] generating corpus (%zu graphs)...\n",
                 cc.samples_per_family * kFamilyCount);
    corpus_.emplace(generate_corpus(cc));
  }
  return *corpus_;
}

const Split& BenchContext::split() {
  if (!split_) {
    split_.emplace(
        stratified_split(corpus(), config_.train_fraction, config_.split_seed));
  }
  return *split_;
}

const std::vector<std::size_t>& BenchContext::eval_indices() {
  if (eval_indices_.empty()) {
    std::map<int, std::size_t> taken;
    for (std::size_t index : split().test) {
      const int label = corpus().graph(index).label();
      if (taken[label] < config_.eval_per_family) {
        ++taken[label];
        eval_indices_.push_back(index);
      }
    }
  }
  return eval_indices_;
}

GnnClassifier& BenchContext::gnn() {
  if (!gnn_) {
    const std::string path = cache_path("gnn.bin");
    if (std::filesystem::exists(path)) {
      try {
        gnn_ = std::make_unique<GnnClassifier>(GnnClassifier::load_file(path));
        std::fprintf(stderr, "[bench] loading GNN from %s\n", path.c_str());
      } catch (const SerializationError&) {
        std::fprintf(stderr, "[bench] cached GNN is stale; retraining\n");
      }
    }
    if (!gnn_) {
      std::fprintf(stderr, "[bench] training GNN (%zu epochs)...\n",
                   config_.gnn_epochs);
      Rng rng(7);
      gnn_ = std::make_unique<GnnClassifier>(GnnConfig{}, rng);
      GnnTrainConfig train_config;
      train_config.epochs = config_.gnn_epochs;
      train_gnn(*gnn_, corpus(), split().train, train_config);
      gnn_->save_file(path);
    }
  }
  return *gnn_;
}

CfgExplainer& BenchContext::cfg_explainer() {
  if (!cfg_explainer_) {
    ExplainerTrainConfig train_config;
    train_config.epochs = config_.explainer_epochs;
    train_config.score_sparsity_weight = config_.score_sparsity;
    InterpretationConfig interpret_config;
    interpret_config.step_size_percent = config_.step_size_percent;
    cfg_explainer_ = std::make_unique<CfgExplainer>(gnn(), train_config,
                                                    interpret_config);
    const std::string path = cache_path("theta.bin");
    const std::string time_path = cache_path("theta_time.bin");
    if (std::filesystem::exists(path) && std::filesystem::exists(time_path)) {
      std::fprintf(stderr, "[bench] loading CFGExplainer Theta from %s\n",
                   path.c_str());
      cfg_explainer_->load_model_file(path);
      std::ifstream in(time_path, std::ios::binary);
      cfg_offline_seconds_ = read_f64(in);
    } else {
      std::fprintf(stderr, "[bench] training CFGExplainer (%zu epochs)...\n",
                   config_.explainer_epochs);
      Stopwatch watch;
      cfg_explainer_->fit(corpus(), split().train);
      cfg_offline_seconds_ = watch.elapsed_seconds();
      cfg_explainer_->save_model_file(path);
      std::ofstream out(time_path, std::ios::binary);
      write_f64(out, cfg_offline_seconds_);
    }
  }
  return *cfg_explainer_;
}

PgExplainer& BenchContext::pg_explainer() {
  if (!pg_explainer_) {
    PgExplainerConfig pg_config;
    pg_config.epochs = config_.pg_epochs;
    pg_explainer_ = std::make_unique<PgExplainer>(gnn(), pg_config);
    const std::string path = cache_path("pgx.bin");
    const std::string time_path = cache_path("pgx_time.bin");
    if (std::filesystem::exists(path) && std::filesystem::exists(time_path)) {
      std::fprintf(stderr, "[bench] loading PGExplainer from %s\n", path.c_str());
      pg_explainer_->load_file(path);
      std::ifstream in(time_path, std::ios::binary);
      pg_offline_seconds_ = read_f64(in);
    } else {
      std::fprintf(stderr, "[bench] training PGExplainer (%zu epochs)...\n",
                   config_.pg_epochs);
      Stopwatch watch;
      pg_explainer_->fit(corpus(), split().train);
      pg_offline_seconds_ = watch.elapsed_seconds();
      pg_explainer_->save_file(path);
      std::ofstream out(time_path, std::ios::binary);
      write_f64(out, pg_offline_seconds_);
    }
  }
  return *pg_explainer_;
}

GnnExplainer& BenchContext::gnn_explainer() {
  if (!gnn_explainer_) {
    GnnExplainerConfig config;
    config.iterations = config_.gnnx_iterations;
    gnn_explainer_ = std::make_unique<GnnExplainer>(gnn(), config);
  }
  return *gnn_explainer_;
}

SubgraphX& BenchContext::subgraphx() {
  if (!subgraphx_) {
    SubgraphXConfig config;
    config.mcts_iterations = config_.subx_iterations;
    subgraphx_ = std::make_unique<SubgraphX>(gnn(), config);
  }
  return *subgraphx_;
}

double BenchContext::gnn_accuracy_on_eval() {
  return full_graph_accuracy(gnn(), corpus(), eval_indices());
}

Explainer& BenchContext::explainer_by_name(const std::string& name) {
  if (name == "CFGExplainer") return cfg_explainer();
  if (name == "GNNExplainer") return gnn_explainer();
  if (name == "SubgraphX") return subgraphx();
  if (name == "PGExplainer") return pg_explainer();
  if (name == "Random") {
    if (!random_) random_ = std::make_unique<RandomExplainer>(17);
    return *random_;
  }
  if (name == "Degree") {
    if (!degree_) degree_ = std::make_unique<DegreeExplainer>();
    return *degree_;
  }
  throw std::invalid_argument("unknown explainer: " + name);
}

double BenchContext::offline_seconds(const std::string& name) const {
  if (name == "CFGExplainer") return cfg_offline_seconds_;
  if (name == "PGExplainer") return pg_offline_seconds_;
  return 0.0;
}

NamedEvaluation BenchContext::evaluate(const std::string& name) {
  const std::string path = cache_path("eval_" + name + ".bin");
  if (std::filesystem::exists(path)) {
    try {
      NamedEvaluation cached = load_evaluation_file(path);
      std::fprintf(stderr, "[bench] loading cached evaluation for %s\n",
                   name.c_str());
      return cached;
    } catch (const SerializationError&) {
      std::fprintf(stderr,
                   "[bench] cached evaluation for %s is stale; recomputing\n",
                   name.c_str());
    }
  }
  std::fprintf(stderr, "[bench] evaluating %s on %zu graphs...\n", name.c_str(),
               eval_indices().size());
  Explainer& explainer = explainer_by_name(name);
  EvaluationConfig eval_config;
  eval_config.step_size_percent = config_.step_size_percent;
  NamedEvaluation result;
  result.evaluation =
      evaluate_explainer(explainer, gnn(), corpus(), eval_indices(), eval_config);
  result.offline_training_seconds = offline_seconds(name);
  save_evaluation_file(path, result);
  return result;
}

const std::vector<std::string>& BenchContext::paper_explainers() {
  static const std::vector<std::string> names{"CFGExplainer", "GNNExplainer",
                                              "SubgraphX", "PGExplainer"};
  return names;
}

void save_evaluation_file(const std::string& path, const NamedEvaluation& eval) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw SerializationError("cannot open '" + path + "' for writing");
  out.write(kEvalMagic, kMagicLen);
  write_string(out, eval.evaluation.explainer_name);
  write_f64(out, eval.offline_training_seconds);
  write_f64(out, eval.evaluation.average_auc);
  write_f64(out, eval.evaluation.plant_precision);
  write_f64(out, eval.evaluation.plant_recall);
  write_f64(out, eval.evaluation.complement_accuracy_at_20);
  write_f64(out, eval.evaluation.sparsity_at_20);
  write_doubles(out, eval.evaluation.explain_time.samples());
  write_u64(out, eval.evaluation.per_family.size());
  for (const FamilyCurve& curve : eval.evaluation.per_family) {
    write_u64(out, static_cast<std::uint64_t>(family_label(curve.family)));
    write_u64(out, curve.sample_count);
    write_f64(out, curve.auc);
    write_doubles(out, curve.fractions);
    write_doubles(out, curve.accuracies);
  }
}

NamedEvaluation load_evaluation_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SerializationError("cannot open '" + path + "' for reading");
  char magic[kMagicLen] = {};
  in.read(magic, kMagicLen);
  if (!in || std::string(magic, kMagicLen) != kEvalMagic) {
    throw SerializationError("not a bench evaluation cache file");
  }
  NamedEvaluation eval;
  eval.evaluation.explainer_name = read_string(in);
  eval.offline_training_seconds = read_f64(in);
  eval.evaluation.average_auc = read_f64(in);
  eval.evaluation.plant_precision = read_f64(in);
  eval.evaluation.plant_recall = read_f64(in);
  eval.evaluation.complement_accuracy_at_20 = read_f64(in);
  eval.evaluation.sparsity_at_20 = read_f64(in);
  for (double sample : read_doubles(in)) eval.evaluation.explain_time.add(sample);
  const std::uint64_t families = read_u64(in);
  if (families > kFamilyCount) {
    throw SerializationError("bench eval cache: too many families");
  }
  for (std::uint64_t i = 0; i < families; ++i) {
    FamilyCurve curve;
    curve.family = family_from_label(static_cast<int>(read_u64(in)));
    curve.sample_count = read_u64(in);
    curve.auc = read_f64(in);
    curve.fractions = read_doubles(in);
    curve.accuracies = read_doubles(in);
    eval.evaluation.per_family.push_back(std::move(curve));
  }
  return eval;
}

obs::ManifestTiming timing_from_stats(const std::string& name,
                                      const DurationStats& stats) {
  obs::ManifestTiming timing;
  timing.name = name;
  timing.count = stats.count();
  if (stats.count() > 0) {
    timing.total_seconds = stats.total();
    timing.mean_seconds = stats.mean();
    timing.stddev_seconds = stats.stddev();
    timing.p50_seconds = stats.percentile(50.0);
    timing.p95_seconds = stats.percentile(95.0);
    timing.p99_seconds = stats.percentile(99.0);
  }
  return timing;
}

namespace {

// CFGX_TRACE=0/off/false means "no trace"; 1/on/true means "trace to the
// default path"; anything else is itself the output path.
bool env_requests_trace(const char* value, std::string& path_out) {
  const std::string text(value);
  if (text.empty() || text == "0" || text == "off" || text == "false") {
    return false;
  }
  if (text != "1" && text != "on" && text != "true") path_out = text;
  return true;
}

}  // namespace

RunReport::RunReport(const std::string& binary_name, const CliArgs& args,
                     const BenchConfig& config)
    : manifest_(binary_name) {
  // Log level: explicit flag > CFGX_LOG_LEVEL (already applied at static
  // init) > quiet-by-default so tables stay clean.
  if (args.has("log-level")) {
    try {
      set_global_log_level(log_level_from_string(args.get_string("log-level", "")));
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "[bench] %s; keeping current level\n", error.what());
    }
  } else {
    set_default_log_level(LogLevel::Warn);
  }

  trace_path_ = binary_name + "_trace.json";
  bool want_trace = false;
  if (args.has("trace")) {
    const std::string value = args.get_string("trace", "");
    want_trace = true;
    if (!value.empty() && value != "true" && value != "1") trace_path_ = value;
  } else if (const char* env = std::getenv("CFGX_TRACE")) {
    want_trace = env_requests_trace(env, trace_path_);
  }

  manifest_path_ =
      args.get_string("manifest", binary_name + "_manifest.json");

  manifest_.set_config("fast", config.fast);
  manifest_.set_config("fresh", config.fresh);
  manifest_.set_config("samples_per_family",
                       static_cast<std::uint64_t>(config.samples_per_family));
  manifest_.set_config("corpus_seed", config.corpus_seed);
  manifest_.set_config("train_fraction", config.train_fraction);
  manifest_.set_config("gnn_epochs",
                       static_cast<std::uint64_t>(config.gnn_epochs));
  manifest_.set_config("explainer_epochs",
                       static_cast<std::uint64_t>(config.explainer_epochs));
  manifest_.set_config("pg_epochs",
                       static_cast<std::uint64_t>(config.pg_epochs));
  manifest_.set_config("gnnx_iterations",
                       static_cast<std::uint64_t>(config.gnnx_iterations));
  manifest_.set_config("subx_iterations",
                       static_cast<std::uint64_t>(config.subx_iterations));
  manifest_.set_config("eval_per_family",
                       static_cast<std::uint64_t>(config.eval_per_family));
  manifest_.set_config("step_size_percent",
                       static_cast<std::uint64_t>(config.step_size_percent));
  manifest_.set_config("node_cap", static_cast<std::uint64_t>(config.nodes));
  manifest_.set_config("cache_dir", config.cache_dir);
  // Per-ISA attribution: every manifest names the kernel ISA that produced
  // its numbers (dispatch() resolves CFGX_SIMD / --simd / CPUID here).
  manifest_.set_config("simd_isa", std::string(simd::isa_name(simd::dispatch())));
  simd::record_isa_metric();

  if (want_trace) {
    obs::start_tracing();
    tracing_ = true;
    std::fprintf(stderr, "[bench] tracing to %s\n", trace_path_.c_str());
  }
}

RunReport::~RunReport() {
  if (finished_) return;
  try {
    finish();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "[bench] run report failed: %s\n", error.what());
  }
}

void RunReport::add_result(const std::string& key, double value) {
  manifest_.add_result(key, value);
}

void RunReport::add_timing(const std::string& name, const DurationStats& stats) {
  manifest_.add_timing(timing_from_stats(name, stats));
}

void RunReport::finish() {
  if (finished_) return;
  finished_ = true;
  if (tracing_) {
    obs::stop_tracing();
    if (obs::write_trace_file(trace_path_)) {
      manifest_.set_trace_file(trace_path_);
      std::fprintf(stderr, "[bench] wrote trace (%zu events) to %s\n",
                   obs::trace_event_count(), trace_path_.c_str());
    } else {
      std::fprintf(stderr, "[bench] FAILED to write trace to %s\n",
                   trace_path_.c_str());
    }
  }
  manifest_.set_metrics(obs::MetricsRegistry::global().snapshot());
  manifest_.write_file(manifest_path_);
  std::fprintf(stderr, "[bench] wrote manifest to %s\n", manifest_path_.c_str());
}

std::string format_minutes(double seconds) {
  char buf[64];
  if (seconds >= 60.0) {
    std::snprintf(buf, sizeof buf, "%.1f min", seconds / 60.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f s", seconds);
  }
  return buf;
}

}  // namespace cfgx::bench
