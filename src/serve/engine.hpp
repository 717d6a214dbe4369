// Long-running explanation-serving engine.
//
// One-shot benches build a graph, explain it, and exit; the ROADMAP
// north-star is a process that stays up and serves explanation requests
// continuously. ExplanationEngine accepts a stream of CFGs, packs admitted
// requests into batches — ONE block-diagonal CSR (BatchedCsr) + stacked
// feature matrix per batch — runs the classifier forward pass once for the
// whole batch, fans the explainers out over a thread pool, and completes
// each request's future with its own result or its own typed error.
//
// Prepare / execute split (after the popart session model): admission and
// preparation are separated from execution so the expensive work happens
// exactly once per request and on the dispatcher's schedule, not the
// caller's.
//   * prepare: per request, the adjacency is normalized ONCE and frozen as
//     a CSR (MaskedNormalizedAdjacency — the same frozen-structure form
//     the Algorithm-2 interpreter prunes in place), its d^{-1/2} vector
//     and active-node count captured. Scratch (stacked features, batched
//     embeddings, per-graph slices) is leased from the dispatcher thread's
//     Workspace, so a warmed-up engine performs no fresh workspace
//     allocation (steady-state `workspace.bytes_allocated` stays flat).
//   * execute: one embed_into over the batched CSR (bit-identical to
//     per-graph inference — see BatchedCsr), per-graph readout on row
//     slices, then explain_batch_outcomes for the rankings.
//
// Backpressure: the request queue is bounded (ServeConfig::queue_capacity).
// submit() never blocks — a request that would overflow the queue is
// rejected immediately with QueueFull, pushing flow control to the caller
// (retry, shed, or route elsewhere) instead of hiding an unbounded buffer
// inside the engine.
//
// Deadlines: each request carries an absolute deadline. The engine checks
// it at every stage boundary (dequeue, pre-explain, completion) and stops
// investing in an expired request at the first check that fails, completing
// its future with DeadlineExceeded — a typed response, never an exception
// or a crash. A request that expires after its work happened to finish
// still reports DeadlineExceeded: the contract is about response
// usefulness, not effort spent.
//
// Thread-safety: submit(), queue_depth() and stop() may be called from any
// thread. Exactly one dispatcher thread runs batches; explainers run on the
// engine's own pool via explain_batch_outcomes (one graph's explainer
// throwing costs only that request, as ExplainError).
// Telemetry (the live-observability layer rides on every request):
//   * each request gets a process-unique id at submit(); the id is the
//     Chrome-trace FLOW id linking the submit-thread span, the
//     dispatcher's batch spans and the completion into one arrow chain
//     (obs::trace_flow), and it is returned in the response;
//   * `serve.inflight` gauge counts submitted-but-unfinished requests;
//     `engine.uptime_seconds` is refreshed on every submit/batch/status;
//   * requests slower than ServeConfig::slow_request_threshold_seconds
//     are captured as exemplars (id, stage timings, prediction, top-k
//     node ids) — slow_exemplars() hands them to manifests;
//   * every finished request feeds an obs::SloTracker (availability +
//     latency objectives, multi-window burn rate, threshold-crossing
//     logs), surfaced by statusz_json();
//   * statusz_json() renders the live engine state (uptime, queue depth,
//     in-flight, ISA, last error, SLO burns) and backs the optional
//     loopback admin endpoint (ServeConfig::admin_port >= 0):
//     GET /healthz | /statusz while the engine serves.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/explainer_model.hpp"
#include "explain/parallel.hpp"
#include "gnn/classifier.hpp"
#include "graph/acfg.hpp"
#include "graph/reduce.hpp"
#include "obs/slo.hpp"
#include "util/thread_pool.hpp"

namespace cfgx::serve {

class AdminServer;

enum class ResponseStatus : std::uint8_t {
  Ok = 0,
  QueueFull,          // rejected at admission (backpressure)
  DeadlineExceeded,   // deadline passed at a stage boundary
  ExplainError,       // the explainer threw for this graph; see `error`
  EngineStopped,      // engine stopped before this request executed
};

const char* to_string(ResponseStatus status) noexcept;

struct ServeConfig {
  // Requests waiting to execute; one more submit is rejected QueueFull.
  std::size_t queue_capacity = 64;
  // Max graphs packed into one batched forward pass.
  std::size_t max_batch = 8;
  // Workers for the explainer fan-out (0 = hardware concurrency).
  std::size_t explain_workers = 0;
  // Loopback admin endpoint (/healthz, /statusz). Negative = disabled
  // (the default); 0 = ephemeral port (admin_port() tells).
  int admin_port = -1;
  // Requests with submit-to-finish latency above this are captured as
  // slow-request exemplars; 0 disables capture.
  double slow_request_threshold_seconds = 0.0;
  // At most this many exemplars are retained (oldest evicted first).
  std::size_t slow_exemplar_capacity = 32;
  // How many top-ranked node ids an exemplar keeps.
  std::size_t slow_exemplar_top_k = 10;
  // SLO objectives fed from every finished request (see obs/slo.hpp).
  obs::SloConfig slo;
  // Reduce-then-explain mode for paper-scale graphs: when set, each
  // admitted graph is coarsened (graph/reduce.hpp) during prepare, the
  // forward pass and the explainer run on the coarse graph, and the
  // response ranking is expanded back to ORIGINAL basic-block ids — callers
  // observe the same node id space in both modes. The reported prediction
  // is the classifier's verdict on the coarse graph (the reduction is
  // designed to preserve the Table-I feature distribution; cfgbench's
  // serve-paper-reduced workload reports top20_overlap, the agreement of
  // the projected ranking with the full-graph explanation).
  std::optional<ReduceConfig> reduction;
};

// One over-threshold request, enough to reconstruct its story without the
// full trace: where the time went (queue vs service), what the model said,
// and which nodes the explanation ranked on top.
struct SlowRequestExemplar {
  std::uint64_t request_id = 0;
  ResponseStatus status = ResponseStatus::Ok;
  double queue_seconds = 0.0;    // submit -> dispatcher dequeue
  double total_seconds = 0.0;    // submit -> finish
  std::size_t predicted_class = 0;
  double confidence = 0.0;
  std::vector<std::uint32_t> top_nodes;  // first slow_exemplar_top_k
};

struct ExplanationResponse {
  ResponseStatus status = ResponseStatus::EngineStopped;
  // The id assigned at submit(); also the Chrome-trace flow id of this
  // request's span chain. 0 only for default-constructed responses.
  std::uint64_t request_id = 0;
  // Batched-inference classification; valid on Ok and ExplainError (the
  // forward pass ran even when the explainer failed).
  Prediction prediction;
  // Valid on Ok only.
  NodeRanking ranking;
  // what() of the explainer's exception on ExplainError; empty otherwise.
  std::string error;

  bool ok() const noexcept { return status == ResponseStatus::Ok; }
};

class ExplanationEngine {
 public:
  using Clock = std::chrono::steady_clock;

  // `gnn` is borrowed and must outlive the engine. `factory` constructs an
  // explainer per pool worker per batch (see explain_batch_outcomes); it
  // must be callable concurrently from multiple threads.
  ExplanationEngine(const GnnClassifier& gnn, ExplainerFactory factory,
                    ServeConfig config = {});
  ~ExplanationEngine();  // stop()

  ExplanationEngine(const ExplanationEngine&) = delete;
  ExplanationEngine& operator=(const ExplanationEngine&) = delete;

  // Admits `graph` (taken by value: the request owns its payload) and
  // returns a future for its response. Never blocks: when the queue is at
  // capacity (QueueFull) or the engine is stopped (EngineStopped), the
  // returned future is already completed with that status. Throws
  // std::invalid_argument for a graph the borrowed GNN cannot classify
  // (zero nodes, feature_count != the GNN's feature_dim, or any NaN or
  // infinite feature) — caller bug, not a runtime condition.
  std::future<ExplanationResponse> submit(
      Acfg graph, Clock::time_point deadline = Clock::time_point::max());

  // Requests admitted but not yet picked up by the dispatcher.
  std::size_t queue_depth() const;

  // Stops the dispatcher; every queued request completes with
  // EngineStopped. Idempotent; called by the destructor.
  void stop();

  const ServeConfig& config() const noexcept { return config_; }

  // Seconds since construction (also exported as the
  // `engine.uptime_seconds` gauge).
  double uptime_seconds() const;

  // Bound admin port; 0 when the admin endpoint is disabled.
  std::uint16_t admin_port() const noexcept;

  // Captured slow-request exemplars, oldest first (bounded by
  // ServeConfig::slow_exemplar_capacity).
  std::vector<SlowRequestExemplar> slow_exemplars() const;

  // Multi-window SLO burn rates over the finished-request stream.
  obs::SloStatus slo_status() const { return slo_.status(); }

  // The /statusz document: {"uptime_seconds":...,"queue_depth":...,
  // "inflight":...,"requests":{...},"batch":{...},"isa":...,
  // "last_error":...,"slo":{...}}. Callable from any thread while the
  // engine serves.
  std::string statusz_json() const;

 private:
  struct Request {
    Acfg graph;
    std::uint64_t id = 0;
    Clock::time_point deadline;
    Clock::time_point enqueued;
    Clock::time_point dequeued;
    std::promise<ExplanationResponse> promise;
  };

  void dispatcher_loop();
  void serve_batch(std::vector<Request>& batch);
  void finish(Request& request, ExplanationResponse response);
  void update_uptime_gauge() const;

  const GnnClassifier* gnn_;
  ExplainerFactory factory_;
  ServeConfig config_;
  ThreadPool explain_pool_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;
  std::mutex join_mutex_;  // serializes concurrent stop() joins
  std::thread dispatcher_;

  const Clock::time_point started_ = Clock::now();
  std::atomic<std::uint64_t> next_request_id_{1};
  obs::SloTracker slo_;

  mutable std::mutex telemetry_mutex_;  // exemplars + last error
  std::deque<SlowRequestExemplar> slow_exemplars_;
  std::string last_error_;

  // Constructed last, destroyed first: handlers read the members above.
  std::unique_ptr<AdminServer> admin_;
};

// Convenience factory for the common backend: CFGExplainer instances all
// serving one trained Theta. Every instance shares the same immutable model
// (inference is const and cache-free), so a call copies no weights and the
// factory is safe to invoke concurrently from the engine's pool workers.
ExplainerFactory make_cfg_explainer_factory(const GnnClassifier& gnn,
                                            ExplainerModel theta);

}  // namespace cfgx::serve
