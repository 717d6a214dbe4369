#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "explain/cfg_explainer.hpp"
#include "explain/reduced.hpp"
#include "graph/ops.hpp"
#include "nn/loss.hpp"
#include "nn/simd.hpp"
#include "nn/sparse.hpp"
#include "nn/workspace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/admin.hpp"
#include "util/logging.hpp"

namespace cfgx::serve {
namespace {

obs::Histogram& latency_histogram() {
  static obs::Histogram& h =
      obs::MetricsRegistry::global().histogram("serve.request_latency_seconds");
  return h;
}

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::global().gauge("serve.queue_depth");
  return g;
}

obs::Gauge& inflight_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge("serve.inflight");
  return g;
}

obs::Gauge& uptime_gauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::global().gauge("engine.uptime_seconds");
  return g;
}

obs::Counter& status_counter(ResponseStatus status) {
  static obs::Counter& ok =
      obs::MetricsRegistry::global().counter("serve.requests_served");
  static obs::Counter& full =
      obs::MetricsRegistry::global().counter("serve.rejected_queue_full");
  static obs::Counter& deadline =
      obs::MetricsRegistry::global().counter("serve.deadline_exceeded");
  static obs::Counter& failed =
      obs::MetricsRegistry::global().counter("serve.explain_errors");
  static obs::Counter& stopped =
      obs::MetricsRegistry::global().counter("serve.stopped");
  switch (status) {
    case ResponseStatus::Ok: return ok;
    case ResponseStatus::QueueFull: return full;
    case ResponseStatus::DeadlineExceeded: return deadline;
    case ResponseStatus::ExplainError: return failed;
    case ResponseStatus::EngineStopped: break;
  }
  return stopped;
}

ExplanationResponse status_response(ResponseStatus status) {
  ExplanationResponse response;
  response.status = status;
  return response;
}

}  // namespace

const char* to_string(ResponseStatus status) noexcept {
  switch (status) {
    case ResponseStatus::Ok: return "ok";
    case ResponseStatus::QueueFull: return "queue_full";
    case ResponseStatus::DeadlineExceeded: return "deadline_exceeded";
    case ResponseStatus::ExplainError: return "explain_error";
    case ResponseStatus::EngineStopped: return "engine_stopped";
  }
  return "unknown";
}

namespace {

// Engine SLO alerts go through the real logger (obs itself cannot link
// util; see SloConfig::alert_sink).
obs::SloConfig with_log_sink(obs::SloConfig slo) {
  if (!slo.alert_sink) {
    slo.alert_sink = [](const std::string& message) {
      CFGX_LOG(Warn) << message;
    };
  }
  return slo;
}

}  // namespace

ExplanationEngine::ExplanationEngine(const GnnClassifier& gnn,
                                     ExplainerFactory factory,
                                     ServeConfig config)
    : gnn_(&gnn),
      factory_(std::move(factory)),
      config_(config),
      explain_pool_(config.explain_workers),
      slo_(with_log_sink(config.slo)) {
  if (config_.queue_capacity == 0) {
    throw std::invalid_argument("ExplanationEngine: queue_capacity must be > 0");
  }
  if (config_.max_batch == 0) {
    throw std::invalid_argument("ExplanationEngine: max_batch must be > 0");
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
  if (config_.admin_port >= 0) {
    try {
      admin_ = std::make_unique<AdminServer>(
          config_.admin_port, [this] { return statusz_json(); });
    } catch (...) {
      // A failed bind must not leak a running dispatcher: ~thread on a
      // joinable thread would terminate the process.
      stop();
      throw;
    }
  }
  update_uptime_gauge();
}

ExplanationEngine::~ExplanationEngine() { stop(); }

std::future<ExplanationResponse> ExplanationEngine::submit(
    Acfg graph, Clock::time_point deadline) {
  if (graph.num_nodes() == 0) {
    throw std::invalid_argument("ExplanationEngine::submit: empty graph");
  }
  if (graph.feature_count() != gnn_->config().feature_dim) {
    throw std::invalid_argument(
        "ExplanationEngine::submit: feature_count does not match the GNN");
  }
  const Matrix& features = graph.features();
  if (!std::all_of(features.data(), features.data() + features.size(),
                   [](double v) { return std::isfinite(v); })) {
    throw std::invalid_argument(
        "ExplanationEngine::submit: non-finite feature");
  }

  obs::TraceSpan span("serve.submit", "serve");
  Request request;
  request.graph = std::move(graph);
  request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  request.deadline = deadline;
  request.enqueued = Clock::now();
  std::future<ExplanationResponse> future = request.promise.get_future();

  // The flow starts inside the submit span on the caller's thread; every
  // later hop (dispatcher batch, completion) emits a step/end with the
  // same id, which chrome://tracing renders as one arrow chain.
  obs::trace_flow(request.id, obs::FlowPhase::Start, "serve.request", "serve");
  inflight_gauge().add(1.0);  // finish() decrements, including rejections
  update_uptime_gauge();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      finish(request, status_response(ResponseStatus::EngineStopped));
      return future;
    }
    if (queue_.size() >= config_.queue_capacity) {
      // Admission control: reject NOW rather than buffer without bound.
      finish(request, status_response(ResponseStatus::QueueFull));
      return future;
    }
    queue_.push_back(std::move(request));
    queue_depth_gauge().set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return future;
}

std::size_t ExplanationEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ExplanationEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Separate mutex so concurrent stop() calls serialize on the join
  // without holding the queue lock the dispatcher needs to drain.
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  if (dispatcher_.joinable()) dispatcher_.join();
  // The endpoint outlives the dispatcher so a scrape during drain still
  // answers; it stops before this returns so no handler can observe a
  // partially destroyed engine afterwards.
  if (admin_) admin_->stop();
}

double ExplanationEngine::uptime_seconds() const {
  return std::chrono::duration<double>(Clock::now() - started_).count();
}

void ExplanationEngine::update_uptime_gauge() const {
  uptime_gauge().set(uptime_seconds());
}

std::uint16_t ExplanationEngine::admin_port() const noexcept {
  return admin_ ? admin_->port() : 0;
}

std::vector<SlowRequestExemplar> ExplanationEngine::slow_exemplars() const {
  std::lock_guard<std::mutex> lock(telemetry_mutex_);
  return {slow_exemplars_.begin(), slow_exemplars_.end()};
}

std::string ExplanationEngine::statusz_json() const {
  update_uptime_gauge();
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  const auto counter = [&](const char* name) -> std::uint64_t {
    for (const auto& [n, v] : snapshot.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  const obs::HistogramStats* batch_stats = nullptr;
  for (const obs::HistogramStats& h : snapshot.histograms) {
    if (h.name == "serve.batch_size") batch_stats = &h;
  }

  double inflight = 0.0;
  for (const auto& [n, v] : snapshot.gauges) {
    if (n == "serve.inflight") inflight = v;
  }

  obs::JsonWriter json;
  json.begin_object();
  json.field("schema", "cfgx.statusz.v1");
  json.field("uptime_seconds", uptime_seconds());
  json.field("queue_depth", static_cast<std::uint64_t>(queue_depth()));
  json.field("inflight", inflight);
  json.key("requests").begin_object();
  json.field("served_ok", counter("serve.requests_served"));
  json.field("queue_full", counter("serve.rejected_queue_full"));
  json.field("deadline_exceeded", counter("serve.deadline_exceeded"));
  json.field("explain_errors", counter("serve.explain_errors"));
  json.field("engine_stopped", counter("serve.stopped"));
  json.end_object();
  json.key("batch").begin_object();
  if (batch_stats != nullptr) {
    json.field("count", batch_stats->count);
    json.field("mean_size", batch_stats->mean);
    json.field("p95_size", batch_stats->p95);
    json.field("max_size", batch_stats->max);
  } else {
    json.field("count", std::uint64_t{0});
  }
  json.end_object();
  json.field("isa", simd::isa_name(simd::dispatch()));
  {
    std::lock_guard<std::mutex> lock(telemetry_mutex_);
    json.field("last_error", last_error_);
    json.field("slow_exemplars", static_cast<std::uint64_t>(
                                     slow_exemplars_.size()));
  }
  json.key("slo");
  slo_.status().write_json(json);
  json.end_object();
  return json.str();
}

void ExplanationEngine::finish(Request& request, ExplanationResponse response) {
  obs::TraceSpan span("serve.finish", "serve");
  response.request_id = request.id;
  status_counter(response.status).add();
  const Clock::time_point now = Clock::now();
  const double latency =
      std::chrono::duration<double>(now - request.enqueued).count();
  latency_histogram().record(latency);
  inflight_gauge().add(-1.0);
  update_uptime_gauge();
  slo_.record(response.status == ResponseStatus::Ok, latency);

  if (response.status == ResponseStatus::ExplainError) {
    std::lock_guard<std::mutex> lock(telemetry_mutex_);
    last_error_ = response.error;
  }

  if (config_.slow_request_threshold_seconds > 0.0 &&
      latency > config_.slow_request_threshold_seconds &&
      config_.slow_exemplar_capacity > 0) {
    SlowRequestExemplar exemplar;
    exemplar.request_id = request.id;
    exemplar.status = response.status;
    exemplar.total_seconds = latency;
    exemplar.queue_seconds =
        request.dequeued >= request.enqueued
            ? std::chrono::duration<double>(request.dequeued - request.enqueued)
                  .count()
            : latency;  // never dequeued (rejected/stopped at submit)
    if (response.prediction.probabilities.rows() > 0) {
      exemplar.predicted_class = response.prediction.predicted_class;
      exemplar.confidence = response.prediction.confidence();
    }
    const std::size_t k =
        std::min(config_.slow_exemplar_top_k, response.ranking.order.size());
    exemplar.top_nodes.assign(response.ranking.order.begin(),
                              response.ranking.order.begin() +
                                  static_cast<std::ptrdiff_t>(k));
    std::lock_guard<std::mutex> lock(telemetry_mutex_);
    slow_exemplars_.push_back(std::move(exemplar));
    while (slow_exemplars_.size() > config_.slow_exemplar_capacity) {
      slow_exemplars_.pop_front();
    }
  }

  obs::trace_flow(request.id, obs::FlowPhase::End, "serve.request", "serve");
  request.promise.set_value(std::move(response));
}

void ExplanationEngine::dispatcher_loop() {
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) break;
      const std::size_t take = std::min(config_.max_batch, queue_.size());
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
    }
    serve_batch(batch);
  }

  // Drain: every request still queued at stop() gets a typed response.
  std::deque<Request> leftover;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    leftover.swap(queue_);
    queue_depth_gauge().set(0.0);
  }
  for (Request& request : leftover) {
    finish(request, status_response(ResponseStatus::EngineStopped));
  }
}

void ExplanationEngine::serve_batch(std::vector<Request>& batch) {
  static obs::Histogram& batch_size_h =
      obs::MetricsRegistry::global().histogram("serve.batch_size");
  static obs::Histogram& prepare_h =
      obs::MetricsRegistry::global().histogram("serve.batch_prepare_seconds");
  static obs::Histogram& execute_h =
      obs::MetricsRegistry::global().histogram("serve.batch_execute_seconds");
  batch_size_h.record(static_cast<double>(batch.size()));
  update_uptime_gauge();

  // The dispatcher-side hop of every request's flow: a step inside the
  // batch span links the submit-thread arrow to this thread's slice.
  obs::TraceSpan batch_span("serve.batch", "serve");
  for (const Request& request : batch) {
    obs::trace_flow(request.id, obs::FlowPhase::Step, "serve.request",
                    "serve");
  }

  // Stage boundary 1 (dequeue): an already-expired request gets no work.
  std::vector<std::size_t> live;
  {
    const Clock::time_point now = Clock::now();
    for (Request& request : batch) request.dequeued = now;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].deadline < now) {
        finish(batch[i], status_response(ResponseStatus::DeadlineExceeded));
      } else {
        live.push_back(i);
      }
    }
  }
  if (live.empty()) return;

  // --- prepare: (optionally coarsen,) normalize + freeze each graph's
  // CSR, lease scratch. In reduce-then-explain mode everything downstream
  // (forward pass, explainers) sees the coarse graphs; `reductions` keeps
  // the projections for the final ranking expansion.
  Workspace& workspace = Workspace::local();
  std::vector<ReducedGraph> reductions;  // parallel to `live` when reducing
  std::vector<MaskedNormalizedAdjacency> frozen;
  std::vector<std::size_t> active_counts;
  std::vector<const CsrMatrix*> blocks;
  std::size_t total_nodes = 0;
  const auto graph_for = [&](std::size_t k) -> const Acfg& {
    return config_.reduction ? reductions[k].graph : batch[live[k]].graph;
  };
  Workspace::Lease features = [&] {
    obs::ScopedDurationTimer timer(prepare_h);
    if (config_.reduction) {
      reductions.reserve(live.size());
      for (std::size_t i : live) {
        reductions.push_back(reduce_graph(batch[i].graph, *config_.reduction));
      }
    }
    frozen.reserve(live.size());
    active_counts.reserve(live.size());
    blocks.reserve(live.size());
    for (std::size_t k = 0; k < live.size(); ++k) {
      const Acfg& graph = graph_for(k);
      // Edge-list construction, bit-identical to the dense oracle (ops.hpp).
      frozen.emplace_back(graph);
      std::size_t active = 0;
      for (double v : frozen.back().inv_sqrt_degree()) {
        if (v != 0.0) ++active;
      }
      active_counts.push_back(active);
      blocks.push_back(&frozen.back().a_hat());
      total_nodes += graph.num_nodes();
    }
    Workspace::Lease stacked =
        workspace.acquire(total_nodes, gnn_->config().feature_dim);
    std::size_t row_base = 0;
    for (std::size_t k = 0; k < live.size(); ++k) {
      const Matrix& graph_features = graph_for(k).features();
      for (std::size_t r = 0; r < graph_features.rows(); ++r) {
        for (std::size_t c = 0; c < graph_features.cols(); ++c) {
          stacked.get()(row_base + r, c) = graph_features(r, c);
        }
      }
      row_base += graph_features.rows();
    }
    return stacked;
  }();

  const BatchedCsr batched = BatchedCsr::concat(blocks);
  std::vector<double> inv_sqrt;
  inv_sqrt.reserve(total_nodes);
  for (const MaskedNormalizedAdjacency& f : frozen) {
    inv_sqrt.insert(inv_sqrt.end(), f.inv_sqrt_degree().begin(),
                    f.inv_sqrt_degree().end());
  }

  // --- execute: ONE forward pass for the whole batch ---
  std::vector<Prediction> predictions(live.size());
  {
    obs::ScopedDurationTimer timer(execute_h);
    Workspace::Lease embeddings =
        workspace.acquire(total_nodes, gnn_->config().embedding_dim());
    gnn_->embed_into(batched.matrix(), inv_sqrt, features.get(),
                     embeddings.get());
    for (std::size_t k = 0; k < live.size(); ++k) {
      const BatchedCsr::Range& range = batched.range(k);
      Workspace::Lease slice =
          workspace.acquire(range.size(), gnn_->config().embedding_dim());
      for (std::size_t r = 0; r < range.size(); ++r) {
        for (std::size_t c = 0; c < gnn_->config().embedding_dim(); ++c) {
          slice.get()(r, c) = embeddings.get()(range.begin + r, c);
        }
      }
      predictions[k].probabilities =
          softmax_rows(gnn_->class_logits(slice.get(), active_counts[k]));
      predictions[k].predicted_class =
          argmax_rows(predictions[k].probabilities)[0];
    }
  }

  // Stage boundary 2 (pre-explain): classification is done, but the
  // expensive Algorithm-2 pass is not started for expired requests.
  std::vector<std::size_t> to_explain;  // indices into `live`
  {
    const Clock::time_point now = Clock::now();
    for (std::size_t k = 0; k < live.size(); ++k) {
      if (batch[live[k]].deadline < now) {
        finish(batch[live[k]],
               status_response(ResponseStatus::DeadlineExceeded));
      } else {
        to_explain.push_back(k);
      }
    }
  }
  if (to_explain.empty()) return;

  std::vector<const Acfg*> graphs;
  graphs.reserve(to_explain.size());
  for (std::size_t k : to_explain) graphs.push_back(&graph_for(k));
  const std::vector<ExplainOutcome> outcomes =
      explain_batch_outcomes(graphs, explain_pool_, factory_);

  // Stage boundary 3 (completion): a response that misses its deadline is
  // DeadlineExceeded even though the work finished — usefulness, not
  // effort, is the contract.
  const Clock::time_point now = Clock::now();
  for (std::size_t j = 0; j < to_explain.size(); ++j) {
    const std::size_t k = to_explain[j];
    Request& request = batch[live[k]];
    ExplanationResponse response;
    if (request.deadline < now) {
      response.status = ResponseStatus::DeadlineExceeded;
    } else if (outcomes[j].ok()) {
      response.status = ResponseStatus::Ok;
      response.prediction = predictions[k];
      // Reduced mode: the explainer ranked super-blocks; hand the caller a
      // ranking over its ORIGINAL node ids.
      response.ranking =
          config_.reduction
              ? project_ranking(outcomes[j].ranking, reductions[k].projection)
              : outcomes[j].ranking;
    } else {
      response.status = ResponseStatus::ExplainError;
      response.prediction = predictions[k];
      response.error = outcomes[j].error_message();
    }
    finish(request, std::move(response));
  }
}

ExplainerFactory make_cfg_explainer_factory(const GnnClassifier& gnn,
                                            ExplainerModel theta) {
  // Inference never mutates Theta, so every explainer shares this one.
  auto shared = std::make_shared<const ExplainerModel>(std::move(theta));
  return [&gnn, shared] { return std::make_unique<CfgExplainer>(gnn, shared); };
}

}  // namespace cfgx::serve

