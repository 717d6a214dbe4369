// The two ExplanationEngine workloads.
//
// serve-small: full mode on the seeded synthetic corpus (about 50 blocks
// per graph). Per-request engine overhead dominates: queueing, batching,
// the explainer factory and the batched forward pass. One thread submits:
// saturation segments that keep two batches' worth of requests in flight
// (explanations per second), alternating with segments of a Poisson open
// loop at a fixed rate, about a quarter of the saturated rate on a 4-core
// host (latency, timed from each request's due time).
//
// serve-paper-reduced: reduce-then-explain mode (ServeConfig::reduction)
// on a mix of graphs of at least 4096 and 7352 blocks, with at most one
// request per core in flight from one thread. Few huge graphs per batch,
// so the slowest graph sets the batch time.
//
// Every Ok response is checked against the same build's offline pipeline:
// CfgExplainer::explain (full mode) or reduce_graph, explain, project_ranking
// (reduced mode), and the class GnnClassifier::predict gives the graph the
// engine classified.
#include <cmath>
#include <condition_variable>
#include <deque>
#include <thread>
#include <unordered_map>

#include "dataset/corpus.hpp"
#include "explain/reduced.hpp"
#include "graph/reduce.hpp"
#include "serve/engine.hpp"
#include "support.hpp"
#include "util/rng.hpp"

namespace cfgbench {
namespace {

using namespace cfgx;
using serve::ExplanationEngine;
using serve::ExplanationResponse;
using serve::ServeConfig;

// Poisson arrival rate of the serve-small open loop (requests/s): about a
// quarter of what saturation sustains on a 4-core host, low enough that
// latency reflects service time more than the host's scheduling noise.
constexpr double kOpenLoopRate = 300.0;
// Share of each serve-small segment spent saturated; the rest is open loop.
constexpr double kClosedShare = 0.4;
// The tail percentile: both serve workloads have hundreds of latency
// samples or more per run.
constexpr double kTailQuantile = 0.9;

// Engine sizing is fixed, not taken from the host, so every host runs the
// same program. max_batch never exceeds the explainer workers: the pool's
// parallel_for splits a batch into one chunk per worker, and with more
// graphs than workers some batch sizes (5 on 4 workers) produce an empty
// trailing chunk whose length underflows. serve-small uses two workers on
// a 4-core host: its ~1 ms explanations make every batch a handful of
// thread wake-ups, and with four workers plus the dispatcher and client
// threads the results tracked the host's scheduling noise more than the
// code.
struct Workload {
  bool reduced = false;
  std::size_t max_batch = 2;
  std::size_t workers = 2;
  std::size_t window = 4;  // requests in flight in the closed loop
  // Warm-up passes over the graphs, so every worker's workspace memory has
  // grown to the largest graph before memory is measured.
  std::size_t warm_passes = 1;
  int segments = 16;  // of the measured run; metrics are per-segment medians
  std::size_t replayed = 48;  // graphs broken down by layer when traced
};

// What the offline pipeline says a graph's response must be.
struct Expected {
  NodeRanking ranking;
  std::size_t predicted_class = 0;
};

struct ServeSetup {
  Models models;
  std::vector<Acfg> graphs;
  std::unique_ptr<ExplanationEngine> engine;  // declared last: stops first
};

// ---------------------------------------------------------------------------
// Request ids for spans recorded inside engine workers: the explainer sees
// only a graph, so graphs are recognized by their structure and mapped to
// the latest request that carried them.

std::uint64_t fingerprint(const Acfg& graph) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(graph.num_nodes());
  for (const Edge& e : graph.edges()) {
    mix((static_cast<std::uint64_t>(e.src) << 33) ^
        (static_cast<std::uint64_t>(e.dst) << 1) ^
        static_cast<std::uint64_t>(e.kind));
  }
  return h;
}

class RequestIds {
 public:
  // `explained[g]` is the graph the explainer sees for input graph g.
  explicit RequestIds(const std::vector<const Acfg*>& explained)
      : latest_(explained.size()) {
    for (std::size_t g = 0; g < explained.size(); ++g) {
      index_.emplace(fingerprint(*explained[g]), g);
    }
  }
  void submitted(std::size_t graph, std::uint64_t request) {
    latest_[graph].store(request, std::memory_order_relaxed);
  }
  std::uint64_t request_for(const Acfg& explained) const {
    const auto it = index_.find(fingerprint(explained));
    return it == index_.end()
               ? 0
               : latest_[it->second].load(std::memory_order_relaxed);
  }

 private:
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::vector<std::atomic<std::uint64_t>> latest_;
};

class TimedExplainer final : public Explainer {
 public:
  TimedExplainer(std::unique_ptr<Explainer> inner, const RequestIds& ids)
      : inner_(std::move(inner)), ids_(&ids) {}
  std::string name() const override { return inner_->name(); }
  NodeRanking explain(const Acfg& graph) override {
    const std::uint64_t id = ids_->request_for(graph);
    ScopedSpan span("serve.explain", id);
    return inner_->explain(graph);
  }

 private:
  std::unique_ptr<Explainer> inner_;
  const RequestIds* ids_;
};

// Wraps the engine's factory so each call and each explain() it hands out
// is recorded as a span.
ExplainerFactory timed_factory(ExplainerFactory inner, const RequestIds& ids) {
  return [inner = std::move(inner), &ids]() -> std::unique_ptr<Explainer> {
    std::unique_ptr<Explainer> explainer;
    {
      ScopedSpan span("serve.factory", 0);
      explainer = inner();
    }
    return std::make_unique<TimedExplainer>(std::move(explainer), ids);
  };
}

// ---------------------------------------------------------------------------
// The client that loads the engine.

struct PhaseResult {
  std::vector<double> latencies;  // seconds
  std::vector<double> late;       // open loop: send time minus due time
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::vector<std::string> wrong;
  double seconds = 0.0;
};

class Client {
 public:
  Client(const std::vector<Acfg>& graphs, const std::vector<Expected>& expected,
         std::uint64_t seed, bool corrupt)
      : graphs_(&graphs), expected_(&expected), corrupt_(corrupt) {
    order_.resize(graphs.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    Rng rng(seed ^ 0x5e7e5eedULL);
    rng.shuffle(order_);
  }

  void set_request_ids(RequestIds* ids) { ids_ = ids; }

  // Keeps `window` requests in flight until `seconds` have passed or
  // `max_requests` were sent, then drains. Latency is send to response.
  PhaseResult closed_loop(ExplanationEngine& engine, std::size_t window,
                          double seconds,
                          std::size_t max_requests = SIZE_MAX) {
    struct InFlight {
      std::size_t graph;
      std::uint64_t id;
      Clock::time_point sent;
      std::future<ExplanationResponse> future;
    };
    PhaseResult result;
    std::deque<InFlight> inflight;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = start + as_duration(seconds);
    for (std::size_t sent_count = 0;;) {
      while (inflight.size() < window && sent_count < max_requests &&
             Clock::now() < end) {
        ++sent_count;
        const auto [graph, id] = next();
        Acfg copy = (*graphs_)[graph];
        const Clock::time_point sent = Clock::now();
        std::future<ExplanationResponse> future = engine.submit(std::move(copy));
        SpanRecorder::global().record("serve.submit", id, sent, Clock::now());
        inflight.push_back({graph, id, sent, std::move(future)});
      }
      if (inflight.empty()) break;
      InFlight request = std::move(inflight.front());
      inflight.pop_front();
      ExplanationResponse response = request.future.get();
      const Clock::time_point done = Clock::now();
      SpanRecorder::global().record("serve.request", request.id, request.sent,
                                    done);
      result.latencies.push_back(seconds_between(request.sent, done));
      check(request.graph, response, result);
    }
    result.seconds = seconds_between(start, Clock::now());
    return result;
  }

  // Poisson arrivals at `rate` for `seconds`. The calling thread sends on
  // schedule; a second thread waits for responses in send order. Latency
  // is due time to response.
  PhaseResult open_loop(ExplanationEngine& engine, double rate, double seconds,
                        std::uint64_t seed) {
    struct Sent {
      std::size_t graph;
      std::uint64_t id;
      Clock::time_point due;
      std::future<ExplanationResponse> future;
    };
    PhaseResult result;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Sent> queue;
    bool finished = false;

    std::thread collector([&] {
      for (;;) {
        Sent sent;
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] { return finished || !queue.empty(); });
          if (queue.empty()) return;
          sent = std::move(queue.front());
          queue.pop_front();
        }
        ExplanationResponse response = sent.future.get();
        const Clock::time_point done = Clock::now();
        SpanRecorder::global().record("serve.request", sent.id, sent.due, done);
        result.latencies.push_back(seconds_between(sent.due, done));
        check(sent.graph, response, result);
      }
    });
    const auto stop_collector = [&] {
      {
        std::lock_guard<std::mutex> lock(mutex);
        finished = true;
      }
      cv.notify_one();
      collector.join();
    };

    try {
      Rng rng(seed ^ 0x0be9100bULL);
      const Clock::time_point start = Clock::now();
      const Clock::time_point end = start + as_duration(seconds);
      Clock::time_point due = start;
      for (;;) {
        due += as_duration(-std::log(1.0 - rng.uniform()) / rate);
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        const auto [graph, id] = next();
        Acfg copy = (*graphs_)[graph];
        const Clock::time_point sent = Clock::now();
        result.late.push_back(seconds_between(due, sent));
        std::future<ExplanationResponse> future = engine.submit(std::move(copy));
        SpanRecorder::global().record("serve.submit", id, sent, Clock::now());
        {
          std::lock_guard<std::mutex> lock(mutex);
          queue.push_back({graph, id, due, std::move(future)});
        }
        cv.notify_one();
      }
      stop_collector();
      result.seconds = seconds_between(start, Clock::now());
    } catch (...) {
      stop_collector();
      throw;
    }
    return result;
  }

 private:
  static Clock::duration as_duration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  std::pair<std::size_t, std::uint64_t> next() {
    const std::size_t graph = order_[cursor_++ % order_.size()];
    const std::uint64_t id = ++next_id_;
    if (ids_ != nullptr) ids_->submitted(graph, id);
    return {graph, id};
  }

  // Not Ok counts as failed; Ok with the wrong ranking or class is a wrong
  // output.
  void check(std::size_t graph, ExplanationResponse& response,
             PhaseResult& result) {
    ++result.attempted;
    if (!response.ok()) return;
    if (corrupt_) {
      corrupt_ranking(response.ranking);
      corrupt_ = false;
    }
    const Expected& expected = (*expected_)[graph];
    const std::uint32_t n = (*graphs_)[graph].num_nodes();
    if (!is_permutation(response.ranking, n) ||
        response.ranking.order != expected.ranking.order) {
      result.wrong.push_back("graph " + std::to_string(graph) +
                             ": ranking differs from the offline pipeline");
      return;
    }
    if (response.prediction.predicted_class != expected.predicted_class) {
      result.wrong.push_back("graph " + std::to_string(graph) +
                             ": predicted class differs from predict()");
      return;
    }
    ++result.ok;
  }

  const std::vector<Acfg>* graphs_;
  const std::vector<Expected>* expected_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
  std::uint64_t next_id_ = 0;
  RequestIds* ids_ = nullptr;
  bool corrupt_;
};

void tally(const PhaseResult& phase, Report& report) {
  for (const std::string& what : phase.wrong) report.wrong_output(what);
  for (std::uint64_t i = 0; i < phase.attempted; ++i) {
    report.attempt(i < phase.ok);
  }
}

// ---------------------------------------------------------------------------
// Set-up and the offline reference pipeline.

ServeConfig engine_config(const Workload& workload) {
  ServeConfig config;
  config.max_batch = workload.max_batch;
  config.queue_capacity = 64;
  config.explain_workers = workload.workers;
  if (workload.reduced) config.reduction = ReduceConfig{};
  // SLO alerts are operator output, not part of what is measured.
  config.slo.alert_sink = [](const std::string&) {};
  return config;
}

std::unique_ptr<ExplanationEngine> start_engine(const Models& models,
                                                const ServeConfig& config,
                                                ExplainerFactory factory) {
  return std::make_unique<ExplanationEngine>(*models.gnn, std::move(factory),
                                             config);
}

ExplainerFactory plain_factory(const Models& models) {
  return serve::make_cfg_explainer_factory(*models.gnn, models.theta->clone());
}

std::vector<Acfg> make_graphs(const Options& options, const Workload& workload) {
  if (!workload.reduced) {
    CorpusConfig config;
    config.samples_per_family = options.short_mode ? 4 : 34;
    config.seed = options.seed;
    return generate_corpus(config).graphs();
  }
  const std::size_t per_size = options.short_mode ? 6 : 8;
  const std::vector<std::size_t> sizes =
      options.short_mode ? std::vector<std::size_t>{256, 512}
                         : std::vector<std::size_t>{4096, 7352};
  std::vector<Acfg> mid = grown_graphs(options.seed, 2, sizes[0], per_size);
  std::vector<Acfg> large = grown_graphs(options.seed, 3, sizes[1], per_size);
  std::vector<Acfg> graphs;
  for (std::size_t i = 0; i < per_size; ++i) {
    graphs.push_back(std::move(mid[i]));
    graphs.push_back(std::move(large[i]));
  }
  return graphs;
}

// Offline results for every graph: the expected response, the full-mode
// ranking, and whether the full-graph class survives the top 20%.
struct Offline {
  std::vector<Expected> expected;
  std::vector<ReducedGraph> reductions;  // reduced mode only
  double top20_overlap = 0.0;            // mean over graphs
  ShareEstimate fidelity;
};

Offline offline_pipeline(const Options& options, const Workload& workload,
                         const ServeSetup& setup) {
  const GnnClassifier& gnn = *setup.models.gnn;
  const std::unique_ptr<CfgExplainer> explainer = make_explainer(setup.models);
  Offline offline;
  std::vector<bool> survived;
  double overlap = 0.0;
  for (const Acfg& graph : setup.graphs) {
    const std::size_t full_class = gnn.predict(graph).predicted_class;
    Expected expected;
    if (workload.reduced) {
      ReducedGraph reduction = reduce_graph(graph, ReduceConfig{});
      expected.ranking =
          project_ranking(explainer->explain(reduction.graph),
                          reduction.projection);
      expected.predicted_class = gnn.predict(reduction.graph).predicted_class;
      overlap += top20_overlap(expected.ranking, explainer->explain(graph));
      offline.reductions.push_back(std::move(reduction));
    } else {
      // The full-mode ranking is the expected one: its overlap is 1.
      expected.ranking = explainer->explain(graph);
      expected.predicted_class = full_class;
      overlap += 1.0;
    }
    survived.push_back(survives_top20(gnn, graph, expected.ranking, full_class));
    offline.expected.push_back(std::move(expected));
  }
  offline.top20_overlap = overlap / static_cast<double>(setup.graphs.size());
  offline.fidelity = bootstrap_share(survived, options.seed);
  return offline;
}

// ---------------------------------------------------------------------------
// The untraced run: end-to-end metrics.

void measure(const Options& options, const Workload& workload,
             ServeSetup& setup, const Offline& offline, double setup_s,
             Report& report) {
  Client client(setup.graphs, offline.expected, options.seed, options.corrupt);
  ExplanationEngine& engine = *setup.engine;

  // The run is split into segments, and each metric is the median of its
  // per-segment values: a slow spell of the host that covers a minority of
  // the segments then barely moves it. serve-small alternates saturation
  // and open loop within each segment, so both see the same spells.
  reset_peak_rss();
  const double closed_s = (workload.reduced ? 1.0 : kClosedShare) *
                          options.seconds / workload.segments;
  const double open_s = options.seconds / workload.segments - closed_s;
  std::vector<double> rates, p50s, tails;
  PhaseResult timed;  // all latency samples, for the detail line
  std::uint64_t closed_requests = 0;
  for (int k = 0; k < workload.segments; ++k) {
    const PhaseResult closed =
        client.closed_loop(engine, workload.window, closed_s);
    tally(closed, report);
    rates.push_back(static_cast<double>(closed.ok) / closed.seconds);
    closed_requests += closed.attempted;
    const PhaseResult open =
        workload.reduced ? closed
                         : client.open_loop(engine, kOpenLoopRate, open_s,
                                            options.seed + k);
    if (!workload.reduced) tally(open, report);
    p50s.push_back(quantile(open.latencies, 0.5));
    tails.push_back(quantile(open.latencies, kTailQuantile));
    timed.latencies.insert(timed.latencies.end(), open.latencies.begin(),
                           open.latencies.end());
    timed.late.insert(timed.late.end(), open.late.begin(), open.late.end());
  }
  const double peak_mb = peak_rss_mb();

  report.metric("explain_per_s", quantile(rates, 0.5), "1/s");
  report.metric("latency_p50_ms", quantile(p50s, 0.5) * 1e3, "ms");
  report.metric("latency_tail_ms", quantile(tails, 0.5) * 1e3, "ms");
  report.metric("top20_overlap", offline.top20_overlap, "share");
  report.metric("ok_share", report.ok_share(), "share");
  report.metric("peak_rss_mb", peak_mb, "MiB");
  report.metric("setup_s", setup_s, "s");

  report.detail("closed_loop_requests", static_cast<double>(closed_requests));
  report.detail("latency_samples", static_cast<double>(timed.latencies.size()));
  report.detail("latency_tail_quantile", kTailQuantile);
  if (timed.latencies.size() >= 1000) {
    report.detail("latency_p99_ms", quantile(timed.latencies, 0.99) * 1e3);
  }
  if (!workload.reduced) {
    report.detail("open_loop_rate_per_s", kOpenLoopRate);
    report.detail("loadgen_late_p99_ms", quantile(timed.late, 0.99) * 1e3);
  }
  report.detail("fidelity_at_20", offline.fidelity.share);
  report.detail("fidelity_at_20_n", static_cast<double>(offline.fidelity.n));
  report.detail("fidelity_at_20_ci_lo", offline.fidelity.lo);
  report.detail("fidelity_at_20_ci_hi", offline.fidelity.hi);
  double nodes = 0.0;
  for (const Acfg& g : setup.graphs) nodes += g.num_nodes();
  report.detail("mean_nodes", nodes / static_cast<double>(setup.graphs.size()));
}

// ---------------------------------------------------------------------------
// The traced run: per-layer metrics.

// Length of the union of the spans' intervals.
double covered_seconds(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  double covered = 0.0;
  Clock::time_point reach = Clock::time_point::min();
  for (const Span& s : spans) {
    const Clock::time_point from = std::max(s.start, reach);
    if (s.end > from) covered += seconds_between(from, s.end);
    reach = std::max(reach, s.end);
  }
  return covered;
}

void trace_layers(const Options& options, const Workload& workload,
                  ServeSetup& setup, const Offline& offline, Report& report) {
  const GnnClassifier& gnn = *setup.models.gnn;
  SpanRecorder& spans = SpanRecorder::global();
  Client client(setup.graphs, offline.expected, options.seed, false);
  const double seconds = options.seconds;

  // A second engine with the same configuration, a timed factory and every
  // request captured as an exemplar (queue time). Untraced segments on the
  // plain engine alternate with traced segments on this one, so both see
  // the same slow spells of the host; their rates give the overhead.
  std::vector<const Acfg*> explained;
  for (std::size_t g = 0; g < setup.graphs.size(); ++g) {
    explained.push_back(workload.reduced ? &offline.reductions[g].graph
                                         : &setup.graphs[g]);
  }
  RequestIds ids(explained);
  client.set_request_ids(&ids);
  ServeConfig config = engine_config(workload);
  config.slow_request_threshold_seconds = 1e-9;
  config.slow_exemplar_capacity = std::size_t{1} << 20;
  config.slow_exemplar_top_k = 0;
  const std::unique_ptr<ExplanationEngine> traced_engine = start_engine(
      setup.models, config, timed_factory(plain_factory(setup.models), ids));
  tally(client.closed_loop(*traced_engine, workload.window, 3600.0,
                           workload.warm_passes * setup.graphs.size()),
        report);
  const std::size_t exemplars_before = traced_engine->slow_exemplars().size();

  constexpr int kPairs = 4;
  const double segment_s = 0.6 * seconds / (2 * kPairs);
  std::vector<double> untraced_rates, traced_rates;
  RegistryTotals engine_totals;
  std::uint64_t traced_requests = 0;
  double traced_seconds = 0.0;
  for (int k = 0; k < kPairs; ++k) {
    const PhaseResult plain =
        client.closed_loop(*setup.engine, workload.window, segment_s);
    tally(plain, report);
    untraced_rates.push_back(static_cast<double>(plain.ok) / plain.seconds);

    spans.enable(true);
    const RegistryTotals before = RegistryTotals::now();
    const PhaseResult traced =
        client.closed_loop(*traced_engine, workload.window, segment_s);
    engine_totals += RegistryTotals::now() - before;
    spans.enable(false);
    tally(traced, report);
    traced_rates.push_back(static_cast<double>(traced.ok) / traced.seconds);
    traced_requests += traced.attempted;
    traced_seconds += traced.seconds;
  }

  // Every span so far was recorded in a traced segment.
  Sum submit, factory, explain;
  std::vector<Span> worker;
  for (const Span& s : spans.spans()) {
    const std::string_view name(s.name);
    if (name == "serve.submit") submit.add(s.seconds());
    if (name == "serve.factory") factory.add(s.seconds());
    if (name == "serve.explain") explain.add(s.seconds());
    if (name == "serve.factory" || name == "serve.explain") worker.push_back(s);
  }
  const std::vector<serve::SlowRequestExemplar> exemplars =
      traced_engine->slow_exemplars();
  std::vector<double> queue;
  for (std::size_t i = exemplars_before; i < exemplars.size(); ++i) {
    queue.push_back(exemplars[i].queue_seconds);
  }
  const double attributed = engine_totals.batch_prepare.total +
                            engine_totals.batch_execute.total +
                            covered_seconds(worker);

  // How late the open-loop generator sends (serve-small only).
  double late_p99 = 0.0;
  if (!workload.reduced) {
    spans.enable(true);
    const PhaseResult open =
        client.open_loop(*traced_engine, kOpenLoopRate, 0.15 * seconds,
                         options.seed);
    spans.enable(false);
    tally(open, report);
    late_p99 = quantile(open.late, 0.99);
  }

  // Layer breakdown offline, on graphs spread over the pool as the engine
  // explains them: explain() each once (kernel counters), then time
  // reduction and projection and replay Algorithm 2 through its public
  // calls.
  const std::unique_ptr<CfgExplainer> explainer = make_explainer(setup.models);
  const std::size_t count = std::min(workload.replayed, setup.graphs.size());
  std::vector<std::size_t> picked;
  for (std::size_t i = 0; i < count; ++i) {
    picked.push_back(i * setup.graphs.size() / count);
  }
  std::vector<NodeRanking> rankings;
  Sum explain_s;
  const RegistryTotals before_explain = RegistryTotals::now();
  for (std::size_t g : picked) {
    const Clock::time_point start = Clock::now();
    rankings.push_back(explainer->explain(*explained[g]));
    explain_s.add(seconds_between(start, Clock::now()));
  }
  const RegistryTotals kernels = RegistryTotals::now() - before_explain;

  LayerTimes layers;
  Sum reduce_s, project_s, ratio;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t g = picked[i];
    if (workload.reduced) {
      Clock::time_point start = Clock::now();
      const ReducedGraph reduction = reduce_graph(setup.graphs[g], ReduceConfig{});
      reduce_s.add(seconds_between(start, Clock::now()));
      ratio.add(reduction.reduction_ratio());
      start = Clock::now();
      const NodeRanking projected =
          project_ranking(rankings[i], reduction.projection);
      project_s.add(seconds_between(start, Clock::now()));
      if (projected.order != offline.expected[g].ranking.order) {
        report.wrong_output("reduce/explain/project is not deterministic");
      }
    }
    const bool ok = replay_algorithm2(gnn, *setup.models.theta, *explained[g],
                                      rankings[i], layers);
    if (!ok) report.wrong_output("replay disagrees with explain()");
    report.attempt(ok);
  }

  const double n = std::max(1.0, explain_s.count);
  const double cfg_ms = explain_s.mean() * 1e3;
  const double select_ms = cfg_ms - layers.total() / n * 1e3;
  const double requests =
      std::max<double>(1.0, static_cast<double>(traced_requests));

  report.metric("serve.submit_us", submit.mean() * 1e6, "us");
  report.metric("serve.queue_ms", mean(queue) * 1e3, "ms");
  report.metric("serve.batch_size", engine_totals.batch_size.mean(), "count");
  report.metric("serve.prepare_ms", engine_totals.batch_prepare.mean() * 1e3, "ms");
  report.metric("serve.execute_ms", engine_totals.batch_execute.mean() * 1e3, "ms");
  report.metric("serve.explain_ms", explain.mean() * 1e3, "ms");
  report.metric("serve.factory_ms", factory.mean() * 1e3, "ms");
  report.metric("serve.factory_per_request", factory.count / requests, "count");
  report.metric("serve.unattributed_share", 1.0 - attributed / traced_seconds,
                "share");
  report.metric("explain.cfg_ms", cfg_ms, "ms");
  report.metric("explain.project_ms", project_s.mean() * 1e3, "ms");
  report.metric("explain.gnnexplainer_ms", 0.0, "ms");
  report.metric("explain.subgraphx_ms", 0.0, "ms");
  report.metric("core.score_ms", layers.score / n * 1e3, "ms");
  report.metric("core.select_ms", select_ms, "ms");
  report.metric("core.select_share", cfg_ms > 0.0 ? select_ms / cfg_ms : 0.0,
                "share");
  report.metric("gnn.embed_ms", layers.embed / n * 1e3, "ms");
  report.metric("graph.normalize_ms", layers.normalize / n * 1e3, "ms");
  report.metric("graph.renorm_ms", layers.renorm / n * 1e3, "ms");
  report.metric("graph.reduce_ms", reduce_s.mean() * 1e3, "ms");
  report.metric("graph.reduction_ratio",
                workload.reduced ? ratio.mean() : 1.0, "ratio");
  report.metric("nn.spmm_ms", kernels.spmm.total / n * 1e3, "ms");
  report.metric("nn.matmul_ms", kernels.matmul.total / n * 1e3, "ms");
  report.metric("nn.spmm_calls", kernels.spmm.count / n, "count");
  report.metric("nn.matmul_calls", kernels.matmul.count / n, "count");
  report.metric("nn.workspace_alloc_bytes", engine_totals.workspace_alloc_bytes,
                "bytes");
  report.metric("util.pool_wait_ms", engine_totals.pool_wait.mean() * 1e3, "ms");
  report.metric("util.pool_run_ms", engine_totals.pool_run.mean() * 1e3, "ms");
  report.metric("loadgen.late_p99_ms", late_p99 * 1e3, "ms");
  report.metric("trace.overhead_share",
                quantile(untraced_rates, 0.5) / quantile(traced_rates, 0.5) - 1.0,
                "share");

  report.detail("traced_requests", static_cast<double>(traced_requests));
  report.detail("replayed_graphs", explain_s.count);
}

void run(const Options& options, const Workload& workload, Report& report) {
  auto [setup, setup_s] =
      timed_setup(options.trace || options.short_mode ? 1 : 3, [&] {
        auto s = std::make_unique<ServeSetup>();
        s->models = train_models();
        s->graphs = make_graphs(options, workload);
        s->engine = start_engine(s->models, engine_config(workload),
                                 plain_factory(s->models));
        return s;
      });
  const Offline offline = offline_pipeline(options, workload, *setup);

  {
    Client warm(setup->graphs, offline.expected, options.seed, false);
    tally(warm.closed_loop(*setup->engine, workload.window, 3600.0,
                           workload.warm_passes * setup->graphs.size()),
          report);
  }

  if (options.trace) {
    trace_layers(options, workload, *setup, offline, report);
  } else {
    measure(options, workload, *setup, offline, setup_s, report);
  }
}

}  // namespace

void run_serve_small(const Options& options, Report& report) {
  run(options, Workload{}, report);
}

void run_serve_paper_reduced(const Options& options, Report& report) {
  Workload workload;
  workload.reduced = true;
  workload.max_batch = 4;
  workload.workers = 4;
  workload.window = 4;  // one request per core of a 4-core host
  workload.warm_passes = 3;
  workload.segments = 4;
  workload.replayed = 16;
  run(options, workload, report);
}

}  // namespace cfgbench
