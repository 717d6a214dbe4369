#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dataset/corpus.hpp"
#include "explain/baselines.hpp"
#include "explain/cfg_explainer.hpp"
#include "explain/reduced.hpp"
#include "graph/reduce.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace cfgx::serve {
namespace {

using namespace std::chrono_literals;

GnnConfig small_gnn_config() {
  GnnConfig config;
  config.gcn_dims = {8, 6};
  return config;
}

ExplainerModelConfig small_theta_config(const GnnConfig& gnn) {
  ExplainerModelConfig config;
  config.embedding_dim = gnn.embedding_dim();
  config.num_classes = gnn.num_classes;
  config.scorer_dims = {8, 1};
  config.surrogate_dims = {8};
  return config;
}

// One GNN + one Theta shared by every test; inference is const, so sharing
// is safe.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : rng_(42), gnn_(small_gnn_config(), rng_) {}

  ExplainerModel fresh_theta() {
    Rng theta_rng(7);
    return ExplainerModel(small_theta_config(gnn_.config()), theta_rng);
  }

  ExplainerFactory cfg_factory() {
    return make_cfg_explainer_factory(gnn_, fresh_theta());
  }

  static Acfg corpus_graph(std::size_t index) {
    CorpusConfig config;
    config.samples_per_family = 2;
    config.seed = 3;
    static const Corpus corpus = generate_corpus(config);
    return corpus.graph(index % corpus.size());
  }

  Rng rng_;
  GnnClassifier gnn_;
};

TEST_F(EngineTest, BatchedServingMatchesPerGraphInferenceAndExplanation) {
  ServeConfig config;
  config.max_batch = 4;
  config.explain_workers = 2;
  ExplanationEngine engine(gnn_, cfg_factory(), config);

  std::vector<Acfg> graphs;
  std::vector<std::future<ExplanationResponse>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    graphs.push_back(corpus_graph(i * 3));
    futures.push_back(engine.submit(graphs.back()));
  }

  CfgExplainer reference(gnn_);
  reference.set_model(fresh_theta());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    ExplanationResponse response = futures[i].get();
    ASSERT_TRUE(response.ok()) << to_string(response.status);
    // Batched block-diagonal inference is BIT-identical to the per-graph
    // dense path.
    const Prediction expected = gnn_.predict(graphs[i]);
    EXPECT_EQ(response.prediction.predicted_class, expected.predicted_class);
    EXPECT_EQ(response.prediction.probabilities, expected.probabilities);
    EXPECT_EQ(response.ranking.order, reference.explain(graphs[i]).order);
  }
}

// The CFGExplainer factory copies no weights: every explainer it returns
// reads the same immutable Theta, and batches fanned out over four workers
// still rank exactly like an offline explainer.
TEST_F(EngineTest, FactoryExplainersShareOneImmutableTheta) {
  const ExplainerFactory factory = cfg_factory();
  const std::unique_ptr<Explainer> first = factory();
  const std::unique_ptr<Explainer> second = factory();
  const auto* a = dynamic_cast<const CfgExplainer*>(first.get());
  const auto* b = dynamic_cast<const CfgExplainer*>(second.get());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(&a->model(), &b->model());
  EXPECT_TRUE(a->fitted());

  ServeConfig config;
  config.max_batch = 8;
  config.explain_workers = 4;
  ExplanationEngine engine(gnn_, cfg_factory(), config);
  std::vector<Acfg> graphs;
  std::vector<std::future<ExplanationResponse>> futures;
  for (std::size_t i = 0; i < 24; ++i) {
    graphs.push_back(corpus_graph(i));
    futures.push_back(engine.submit(graphs.back()));
  }
  CfgExplainer reference(gnn_);
  reference.set_model(fresh_theta());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    ExplanationResponse response = futures[i].get();
    ASSERT_TRUE(response.ok()) << to_string(response.status);
    EXPECT_EQ(response.ranking.order, reference.explain(graphs[i]).order)
        << "graph " << i;
  }
}

TEST_F(EngineTest, SubmitValidatesGraphAgainstTheGnn) {
  ExplanationEngine engine(gnn_, cfg_factory());
  EXPECT_THROW(engine.submit(Acfg()), std::invalid_argument);
  EXPECT_THROW(engine.submit(Acfg(3, /*feature_count=*/2)),
               std::invalid_argument);
}

// One non-finite feature would make every class probability NaN and the
// ranking meaningless; submit rejects it like any other malformed graph.
TEST_F(EngineTest, SubmitRejectsNonFiniteFeatures) {
  ExplanationEngine engine(gnn_, cfg_factory());
  const Acfg clean = corpus_graph(11);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Acfg graph = clean;
    graph.features()(graph.num_nodes() / 2, 4) = bad;
    EXPECT_THROW(engine.submit(std::move(graph)), std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(engine.submit(clean).get().status, ResponseStatus::Ok);
}

TEST_F(EngineTest, ExpiredDeadlineIsATypedResponseNotACrash) {
  ExplanationEngine engine(gnn_, cfg_factory());
  const Acfg graph = corpus_graph(0);

  auto late = engine.submit(graph, ExplanationEngine::Clock::now() - 1s);
  EXPECT_EQ(late.get().status, ResponseStatus::DeadlineExceeded);

  // The engine is still healthy afterwards.
  auto ok = engine.submit(graph);
  EXPECT_EQ(ok.get().status, ResponseStatus::Ok);
}

// Explainer whose explain() spins until the shared gate opens, then ranks
// with `inner` (identity order when null); used to hold the dispatcher busy
// so queue states and batch compositions can be set up deterministically.
class GatedExplainer : public Explainer {
 public:
  explicit GatedExplainer(std::shared_ptr<std::atomic<bool>> gate,
                          std::unique_ptr<Explainer> inner = nullptr)
      : gate_(std::move(gate)), inner_(std::move(inner)) {}
  std::string name() const override { return "Gated"; }
  NodeRanking explain(const Acfg& graph) override {
    while (!gate_->load()) std::this_thread::sleep_for(1ms);
    if (inner_) return inner_->explain(graph);
    NodeRanking ranking;
    for (std::uint32_t i = 0; i < graph.num_nodes(); ++i) {
      ranking.order.push_back(i);
    }
    return ranking;
  }

 private:
  std::shared_ptr<std::atomic<bool>> gate_;
  std::unique_ptr<Explainer> inner_;
};

void wait_for_empty_queue(const ExplanationEngine& engine) {
  while (engine.queue_depth() != 0) std::this_thread::sleep_for(1ms);
}

TEST_F(EngineTest, FullQueueRejectsImmediatelyWithQueueFull) {
  auto gate = std::make_shared<std::atomic<bool>>(false);
  ServeConfig config;
  config.queue_capacity = 1;
  config.max_batch = 1;
  config.explain_workers = 1;
  ExplanationEngine engine(
      gnn_, [gate] { return std::make_unique<GatedExplainer>(gate); }, config);
  const Acfg graph = corpus_graph(2);

  auto busy = engine.submit(graph);
  wait_for_empty_queue(engine);  // dispatcher holds `busy` at the gate
  auto queued = engine.submit(graph);
  auto rejected = engine.submit(graph);

  // Backpressure is immediate: the future is already complete.
  ASSERT_EQ(rejected.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(rejected.get().status, ResponseStatus::QueueFull);

  gate->store(true);
  EXPECT_EQ(busy.get().status, ResponseStatus::Ok);
  EXPECT_EQ(queued.get().status, ResponseStatus::Ok);
}

TEST_F(EngineTest, StopDrainsQueuedRequestsWithEngineStopped) {
  auto gate = std::make_shared<std::atomic<bool>>(false);
  ServeConfig config;
  config.max_batch = 1;
  config.explain_workers = 1;
  ExplanationEngine engine(
      gnn_, [gate] { return std::make_unique<GatedExplainer>(gate); }, config);
  const Acfg graph = corpus_graph(4);

  auto in_flight = engine.submit(graph);
  wait_for_empty_queue(engine);
  auto queued = engine.submit(graph);

  std::thread stopper([&] { engine.stop(); });
  std::this_thread::sleep_for(20ms);  // let stop() set the flag
  gate->store(true);
  stopper.join();

  EXPECT_EQ(in_flight.get().status, ResponseStatus::Ok);
  EXPECT_EQ(queued.get().status, ResponseStatus::EngineStopped);

  // Submission after stop is a typed response too.
  EXPECT_EQ(engine.submit(graph).get().status, ResponseStatus::EngineStopped);
}

TEST_F(EngineTest, ExplainerFailureIsPerRequestAndKeepsThePrediction) {
  // Throws for every graph with the marker node count; other graphs serve
  // normally from the same engine and the same batch.
  const Acfg good = corpus_graph(1);
  Acfg poisoned = corpus_graph(5);
  while (poisoned.num_nodes() == good.num_nodes()) {
    poisoned = corpus_graph(7);
  }
  const std::uint32_t marker = poisoned.num_nodes();

  class SelectiveThrow : public Explainer {
   public:
    explicit SelectiveThrow(std::uint32_t marker) : marker_(marker) {}
    std::string name() const override { return "SelectiveThrow"; }
    NodeRanking explain(const Acfg& graph) override {
      if (graph.num_nodes() == marker_) {
        throw std::runtime_error("poisoned graph");
      }
      return DegreeExplainer().explain(graph);
    }

   private:
    std::uint32_t marker_;
  };

  ServeConfig config;
  config.max_batch = 2;
  ExplanationEngine engine(
      gnn_, [marker] { return std::make_unique<SelectiveThrow>(marker); },
      config);

  auto ok_future = engine.submit(good);
  auto bad_future = engine.submit(poisoned);

  ExplanationResponse ok = ok_future.get();
  EXPECT_EQ(ok.status, ResponseStatus::Ok);
  EXPECT_EQ(ok.ranking.order, DegreeExplainer().explain(good).order);

  ExplanationResponse bad = bad_future.get();
  EXPECT_EQ(bad.status, ResponseStatus::ExplainError);
  EXPECT_NE(bad.error.find("poisoned graph"), std::string::npos);
  // Classification ran in the batched forward pass before the explainer
  // failed; the response keeps it.
  EXPECT_EQ(bad.prediction.predicted_class,
            gnn_.predict(poisoned).predicted_class);

  // The engine survives the failure.
  EXPECT_EQ(engine.submit(good).get().status, ResponseStatus::Ok);
}

TEST_F(EngineTest, SteadyStateServingIsWorkspaceAllocFree) {
  const bool saved = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto& allocated =
      obs::MetricsRegistry::global().counter("workspace.bytes_allocated");

  ServeConfig config;
  config.max_batch = 1;
  config.explain_workers = 1;
  ExplanationEngine engine(gnn_, cfg_factory(), config);
  const Acfg graph = corpus_graph(3);

  // Submit-and-await keeps every batch identical: same graph, same shapes.
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(engine.submit(graph).get().ok());
  }
  const std::uint64_t allocated_before = allocated.value();
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(engine.submit(graph).get().ok());
  }
  // Warmed-up serving performs no fresh workspace allocation: prepare
  // leases and kernel scratch are all served from pooled capacity.
  EXPECT_EQ(allocated.value(), allocated_before);

  obs::set_metrics_enabled(saved);
}

// The steady-state allocation invariant on batches of K > 1 distinct
// graphs. Every round is the same cycle on the same threads: a 1-graph
// gate batch held at the closed gate while exactly K = max_batch graphs
// queue behind it, then those K as one batch. With one explain worker,
// each thread's workspace high-water mark is fixed by that cycle, so
// after one warm-up round serving allocates nothing.
TEST_F(EngineTest, PinnedMaxBatchRoundsAreWorkspaceAllocFree) {
  const bool saved = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& allocated = registry.counter("workspace.bytes_allocated");
  obs::Counter& reused = registry.counter("workspace.bytes_reused");
  obs::Histogram& batch_sizes = registry.histogram("serve.batch_size");

  constexpr std::size_t kBatch = 4;
  ServeConfig config;
  config.max_batch = kBatch;
  config.explain_workers = 1;
  auto gate = std::make_shared<std::atomic<bool>>(false);
  ExplainerFactory inner = cfg_factory();
  ExplanationEngine engine(
      gnn_,
      [gate, inner] { return std::make_unique<GatedExplainer>(gate, inner()); },
      config);

  const Acfg gate_graph = corpus_graph(0);
  std::vector<Acfg> graphs;
  for (std::size_t i = 1; i <= kBatch; ++i) graphs.push_back(corpus_graph(i));

  const auto run_round = [&](int round) {
    batch_sizes.reset();
    gate->store(false);
    std::future<ExplanationResponse> held = engine.submit(gate_graph);
    wait_for_empty_queue(engine);  // the dispatcher holds `held` at the gate
    std::vector<std::future<ExplanationResponse>> futures;
    for (const Acfg& graph : graphs) futures.push_back(engine.submit(graph));
    gate->store(true);
    EXPECT_EQ(held.get().status, ResponseStatus::Ok) << "round " << round;
    for (auto& future : futures) {
      EXPECT_EQ(future.get().status, ResponseStatus::Ok) << "round " << round;
    }
    // The composition is checked, not assumed: the gate alone, then K.
    EXPECT_EQ(batch_sizes.count(), 2u) << "round " << round;
    EXPECT_EQ(batch_sizes.min(), 1.0) << "round " << round;
    EXPECT_EQ(batch_sizes.max(), static_cast<double>(kBatch))
        << "round " << round;
  };

  run_round(0);  // warm-up
  const std::uint64_t allocated_before = allocated.value();
  const std::uint64_t reused_before = reused.value();
  for (int round = 1; round <= 5; ++round) run_round(round);
  EXPECT_EQ(allocated.value(), allocated_before);
  EXPECT_GT(reused.value(), reused_before);  // the pools were in use

  obs::set_metrics_enabled(saved);
}

// Reduce-then-explain mode: the engine coarsens during prepare, explains
// the coarse graph, and expands the ranking back to ORIGINAL block ids —
// exactly what an offline reduce + explain + project pipeline produces.
TEST_F(EngineTest, ReducedModeRanksOriginalBlocksAndMatchesOfflinePipeline) {
  ServeConfig config;
  config.max_batch = 4;
  config.explain_workers = 2;
  config.reduction = ReduceConfig{};
  ExplanationEngine engine(gnn_, cfg_factory(), config);

  std::vector<Acfg> graphs;
  std::vector<std::future<ExplanationResponse>> futures;
  for (std::size_t i = 0; i < 4; ++i) {
    graphs.push_back(corpus_graph(i));
    futures.push_back(engine.submit(graphs.back()));
  }

  CfgExplainer reference(gnn_);
  reference.set_model(fresh_theta());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    ExplanationResponse response = futures[i].get();
    ASSERT_TRUE(response.ok()) << to_string(response.status);

    // The ranking is a permutation of the ORIGINAL node ids.
    ASSERT_EQ(response.ranking.order.size(), graphs[i].num_nodes());
    std::set<std::uint32_t> unique(response.ranking.order.begin(),
                                   response.ranking.order.end());
    EXPECT_EQ(unique.size(), graphs[i].num_nodes());

    // Differential vs the offline pipeline: reduce, predict + explain on
    // the coarse graph, project the ranking back.
    const ReducedGraph r = reduce_graph(graphs[i], *config.reduction);
    const Prediction expected = gnn_.predict(r.graph);
    EXPECT_EQ(response.prediction.predicted_class, expected.predicted_class);
    EXPECT_EQ(response.prediction.probabilities, expected.probabilities);
    EXPECT_EQ(response.ranking.order,
              project_ranking(reference.explain(r.graph), r.projection).order);
  }
}

// The TSan target: many client threads race submit() against the
// dispatcher, backpressure, deadlines and stop().
TEST_F(EngineTest, ConcurrentSubmitHammer) {
  ServeConfig config;
  config.queue_capacity = 8;
  config.max_batch = 4;
  config.explain_workers = 2;
  ExplanationEngine engine(
      gnn_, [] { return std::make_unique<DegreeExplainer>(); }, config);

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 12;
  std::atomic<std::size_t> ok_count{0};
  std::atomic<std::size_t> bad_status{0};

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const Acfg graph = corpus_graph(c * kPerClient + i);
        // A third of the requests carry an already-expired deadline.
        const auto deadline = (i % 3 == 0)
                                  ? ExplanationEngine::Clock::now() - 1ms
                                  : ExplanationEngine::Clock::time_point::max();
        ExplanationResponse response =
            engine.submit(graph, deadline).get();
        switch (response.status) {
          case ResponseStatus::Ok:
            ok_count.fetch_add(1);
            break;
          case ResponseStatus::QueueFull:
          case ResponseStatus::DeadlineExceeded:
          case ResponseStatus::EngineStopped:
            break;
          default:
            bad_status.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  engine.stop();

  EXPECT_EQ(bad_status.load(), 0u);
  // Unexpired, admitted requests must all have served.
  EXPECT_GT(ok_count.load(), 0u);
}

TEST_F(EngineTest, ResponsesCarryUniqueRequestIds) {
  ExplanationEngine engine(gnn_, cfg_factory());
  std::vector<std::future<ExplanationResponse>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(engine.submit(corpus_graph(i)));

  std::vector<std::uint64_t> ids;
  for (auto& f : futures) {
    const ExplanationResponse response = f.get();
    ASSERT_TRUE(response.ok());
    ids.push_back(response.request_id);
  }
  for (std::uint64_t id : ids) EXPECT_NE(id, 0u);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());

  // Rejections are ids too: a QueueFull/EngineStopped response still names
  // the request it answers.
  engine.stop();
  EXPECT_NE(engine.submit(corpus_graph(0)).get().request_id, 0u);
}

TEST_F(EngineTest, InflightAndUptimeGaugesTrackTheEngine) {
  const bool saved = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Gauge& inflight = obs::MetricsRegistry::global().gauge("serve.inflight");
  obs::Gauge& uptime =
      obs::MetricsRegistry::global().gauge("engine.uptime_seconds");
  inflight.reset();

  auto gate = std::make_shared<std::atomic<bool>>(false);
  ServeConfig config;
  config.max_batch = 1;
  config.explain_workers = 1;
  ExplanationEngine engine(
      gnn_, [gate] { return std::make_unique<GatedExplainer>(gate); }, config);

  auto held = engine.submit(corpus_graph(0));
  wait_for_empty_queue(engine);  // dispatcher holds it at the gate
  auto queued = engine.submit(corpus_graph(1));
  EXPECT_EQ(inflight.value(), 2.0);  // submitted, neither finished

  gate->store(true);
  EXPECT_TRUE(held.get().ok());
  EXPECT_TRUE(queued.get().ok());
  EXPECT_EQ(inflight.value(), 0.0);

  EXPECT_GT(engine.uptime_seconds(), 0.0);
  EXPECT_GT(uptime.value(), 0.0);
  EXPECT_LE(uptime.value(), engine.uptime_seconds());

  obs::set_metrics_enabled(saved);
}

TEST_F(EngineTest, SlowRequestsAreCapturedAsExemplars) {
  ServeConfig config;
  config.slow_request_threshold_seconds = 1e-9;  // everything is "slow"
  config.slow_exemplar_capacity = 3;
  config.slow_exemplar_top_k = 4;
  ExplanationEngine engine(gnn_, cfg_factory(), config);

  std::vector<std::uint64_t> served_ids;
  for (int i = 0; i < 5; ++i) {
    const ExplanationResponse response = engine.submit(corpus_graph(i)).get();
    ASSERT_TRUE(response.ok());
    served_ids.push_back(response.request_id);
  }

  const std::vector<SlowRequestExemplar> exemplars = engine.slow_exemplars();
  ASSERT_EQ(exemplars.size(), 3u);  // capacity-bounded, oldest evicted
  for (std::size_t i = 0; i < exemplars.size(); ++i) {
    const SlowRequestExemplar& e = exemplars[i];
    // The retained exemplars are the LAST three served requests, in order.
    EXPECT_EQ(e.request_id, served_ids[served_ids.size() - 3 + i]);
    EXPECT_EQ(e.status, ResponseStatus::Ok);
    EXPECT_GT(e.total_seconds, 0.0);
    EXPECT_GE(e.total_seconds, e.queue_seconds);
    EXPECT_LE(e.top_nodes.size(), 4u);
    EXPECT_FALSE(e.top_nodes.empty());
  }

  // Threshold 0 disables capture entirely.
  ExplanationEngine quiet(gnn_, cfg_factory());
  ASSERT_TRUE(quiet.submit(corpus_graph(0)).get().ok());
  EXPECT_TRUE(quiet.slow_exemplars().empty());
}

TEST_F(EngineTest, RequestFlowEventsLinkSpansAcrossThreads) {
  obs::start_tracing();
  ExplanationEngine engine(gnn_, cfg_factory());
  const ExplanationResponse response = engine.submit(corpus_graph(0)).get();
  ASSERT_TRUE(response.ok());
  engine.stop();
  obs::stop_tracing();
  const std::string trace = obs::trace_json();
  obs::clear_trace_events();

  const obs::JsonValue doc = obs::JsonValue::parse(trace);
  const std::string flow_id = std::to_string(response.request_id);
  bool saw_start = false, saw_step = false, saw_end = false;
  bool end_binds_enclosing = false;
  std::set<double> flow_tids;
  for (const obs::JsonValue& event : doc.at("traceEvents").items) {
    if (!event.has("id") ||
        event.at("id").string_value != flow_id) {
      continue;
    }
    const std::string& ph = event.at("ph").string_value;
    flow_tids.insert(event.at("tid").number_value);
    if (ph == "s") saw_start = true;
    if (ph == "t") saw_step = true;
    if (ph == "f") {
      saw_end = true;
      end_binds_enclosing =
          event.has("bp") && event.at("bp").string_value == "e";
    }
  }
  // One arrow chain: submit (s) -> dispatcher batch (t) -> finish (f).
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_end);
  EXPECT_TRUE(end_binds_enclosing);
  // The chain crosses threads (submit thread vs dispatcher thread).
  EXPECT_GE(flow_tids.size(), 2u);

  // The spans the flow binds to exist on the same timeline.
  bool saw_submit_span = false, saw_batch_span = false;
  for (const obs::JsonValue& event : doc.at("traceEvents").items) {
    if (!event.has("name")) continue;
    if (event.at("name").string_value == "serve.submit") saw_submit_span = true;
    if (event.at("name").string_value == "serve.batch") saw_batch_span = true;
  }
  EXPECT_TRUE(saw_submit_span);
  EXPECT_TRUE(saw_batch_span);
}

}  // namespace
}  // namespace cfgx::serve
