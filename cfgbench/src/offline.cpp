// explain-paper: offline, one thread, CfgExplainer::explain in full mode on
// paper-scale graphs (at least 7352 basic blocks, the largest CFG in the
// paper's dataset). No engine and no reduction: Algorithm 2 is the whole
// cost, split between Theta_s scoring, the GCN embeds, victim selection and
// CSR renormalization.
#include "explain/gnnexplainer.hpp"
#include "explain/subgraphx.hpp"
#include "support.hpp"

namespace cfgbench {
namespace {

using namespace cfgx;

struct OfflineSetup {
  Models models;
  std::vector<Acfg> graphs;
  std::unique_ptr<CfgExplainer> explainer;
};

struct Sizes {
  std::size_t min_blocks;
  std::size_t graphs;
  std::size_t replayed;  // graphs broken down by layer in a traced run
  std::size_t baseline_blocks;
};

Sizes sizes_for(const Options& options) {
  if (options.short_mode) return {384, 12, 4, 48};
  return {7352, 22, 6, 330};  // two graphs per malware family
}

// Explains the pool's graphs in turn until `seconds` have passed and
// returns the per-call latencies; `sink` receives every (graph, ranking).
// The pool cycles through the families, so a run that stops part-way
// through it still weighs every family about equally.
template <typename Sink>
std::vector<double> explain_loop(CfgExplainer& explainer,
                                 const std::vector<Acfg>& graphs,
                                 double seconds, Sink sink) {
  std::vector<double> latencies;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t i = 0; Clock::now() < end; ++i) {
    const std::size_t g = i % graphs.size();
    const Clock::time_point start = Clock::now();
    NodeRanking ranking = explainer.explain(graphs[g]);
    const Clock::time_point done = Clock::now();
    SpanRecorder::global().record("explain.cfg", i + 1, start, done);
    latencies.push_back(seconds_between(start, done));
    sink(g, std::move(ranking));
  }
  return latencies;
}

std::size_t largest(const std::vector<Acfg>& graphs) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < graphs.size(); ++i) {
    if (graphs[i].num_nodes() > graphs[best].num_nodes()) best = i;
  }
  return best;
}

// The end-to-end run: latency and throughput of explain(), every ranking
// checked, then the quality of the rankings.
void measure(const Options& options, OfflineSetup& setup, double setup_s,
             Report& report) {
  const GnnClassifier& gnn = *setup.models.gnn;
  struct Attempt {
    std::size_t graph;
    NodeRanking ranking;
  };
  std::vector<Attempt> attempts;
  // Four segments, each about one pass over the pool from its first graph;
  // the rate is the median over them, so a slow spell of the host that
  // covers one segment barely moves it.
  constexpr int kSegments = 4;
  reset_peak_rss();
  std::vector<double> latencies;
  std::vector<double> rates;
  for (int k = 0; k < kSegments; ++k) {
    const Clock::time_point start = Clock::now();
    const std::vector<double> segment = explain_loop(
        *setup.explainer, setup.graphs, options.seconds / kSegments,
        [&](std::size_t g, NodeRanking ranking) {
          if (options.corrupt && attempts.empty()) corrupt_ranking(ranking);
          attempts.push_back({g, std::move(ranking)});
        });
    rates.push_back(static_cast<double>(segment.size()) /
                    seconds_between(start, Clock::now()));
    latencies.insert(latencies.end(), segment.begin(), segment.end());
  }
  const double peak_mb = peak_rss_mb();

  // Output check, untimed: the first ranking of every graph must be exactly
  // Algorithm 2's (replayed through the public calls), and every later
  // ranking of the same graph must equal it.
  std::vector<const NodeRanking*> reference(setup.graphs.size(), nullptr);
  std::vector<char> valid(setup.graphs.size(), 0);
  LayerTimes unused;
  for (const Attempt& a : attempts) {
    if (reference[a.graph] != nullptr) continue;
    reference[a.graph] = &a.ranking;
    valid[a.graph] = replay_algorithm2(gnn, *setup.models.theta,
                                       setup.graphs[a.graph], a.ranking, unused);
  }
  for (const Attempt& a : attempts) {
    const bool ok = valid[a.graph] != 0 &&
                    a.ranking.order == reference[a.graph]->order;
    if (!ok) {
      report.wrong_output("explain-paper graph " + std::to_string(a.graph) +
                          ": ranking differs from Algorithm 2");
    }
    report.attempt(ok);
  }

  // Quality over the distinct graphs explained. In full mode the served
  // ranking is the full-mode ranking, so its top-20% overlap with it is 1
  // exactly when the ranking is correct.
  std::vector<bool> survived;
  double overlap = 0.0;
  for (std::size_t g = 0; g < setup.graphs.size(); ++g) {
    if (reference[g] == nullptr) continue;
    const std::size_t full_class = gnn.predict(setup.graphs[g]).predicted_class;
    survived.push_back(
        survives_top20(gnn, setup.graphs[g], *reference[g], full_class));
    overlap += valid[g] != 0 ? 1.0 : 0.0;
  }
  const ShareEstimate fidelity = bootstrap_share(survived, options.seed);

  report.metric("explain_per_s", quantile(rates, 0.5), "1/s");
  report.metric("latency_p50_ms", quantile(latencies, 0.5) * 1e3, "ms");
  report.metric("latency_tail_ms", quantile(latencies, 0.75) * 1e3, "ms");
  report.metric("top20_overlap",
                overlap / static_cast<double>(survived.size()), "share");
  report.metric("ok_share", report.ok_share(), "share");
  report.metric("peak_rss_mb", peak_mb, "MiB");
  report.metric("setup_s", setup_s, "s");

  report.detail("latency_samples", static_cast<double>(latencies.size()));
  report.detail("latency_tail_quantile", 0.75);
  report.detail("fidelity_at_20", fidelity.share);
  report.detail("fidelity_at_20_n", static_cast<double>(fidelity.n));
  report.detail("fidelity_at_20_ci_lo", fidelity.lo);
  report.detail("fidelity_at_20_ci_hi", fidelity.hi);
  double nodes = 0.0;
  for (const Acfg& g : setup.graphs) nodes += g.num_nodes();
  report.detail("mean_nodes", nodes / static_cast<double>(setup.graphs.size()));
}

// The traced run: where explain()'s time goes, layer by layer.
void trace_layers(const Options& options, OfflineSetup& setup,
                  Report& report) {
  const GnnClassifier& gnn = *setup.models.gnn;
  const Sizes sizes = sizes_for(options);
  const auto discard = [](std::size_t, NodeRanking) {};
  SpanRecorder& spans = SpanRecorder::global();

  // Untraced and traced segments alternate, each starting from the pool's
  // first graph, so both see the same graphs and the same slow spells of
  // the host; the difference in per-call time is what recording spans
  // costs. The untraced segments also give the kernel counters, with
  // nothing but explain() running.
  constexpr int kPairs = 4;
  const double segment_s = 0.6 * options.seconds / (2 * kPairs);
  RegistryTotals kernels;
  std::vector<double> untraced, traced;  // mean seconds per call, per segment
  double untraced_calls = 0.0;
  for (int k = 0; k < kPairs; ++k) {
    const RegistryTotals before = RegistryTotals::now();
    const std::vector<double> plain =
        explain_loop(*setup.explainer, setup.graphs, segment_s, discard);
    kernels += RegistryTotals::now() - before;
    untraced.push_back(mean(plain));
    untraced_calls += static_cast<double>(plain.size());
    spans.enable(true);
    traced.push_back(mean(
        explain_loop(*setup.explainer, setup.graphs, segment_s, discard)));
    spans.enable(false);
  }
  spans.enable(true);

  // Layer breakdown: explain() each graph once, then replay the same
  // Algorithm-2 calls on it one by one. Selection has no public function,
  // so it is what remains of explain() after the timed calls.
  Sum explain_s;
  LayerTimes layers;
  for (std::size_t g = 0; g < std::min(sizes.replayed, setup.graphs.size());
       ++g) {
    const std::uint64_t id = 1000000 + g;
    Clock::time_point start = Clock::now();
    const NodeRanking ranking = setup.explainer->explain(setup.graphs[g]);
    Clock::time_point done = Clock::now();
    spans.record("explain.cfg", id, start, done);
    explain_s.add(seconds_between(start, done));

    start = Clock::now();
    const bool ok = replay_algorithm2(gnn, *setup.models.theta,
                                      setup.graphs[g], ranking, layers);
    spans.record("core.replay", id, start, Clock::now());
    if (!ok) report.wrong_output("explain-paper: replay disagrees with explain()");
    report.attempt(ok);
  }

  // Baselines on a mid-size graph: the dense-adjacency explainers cannot
  // run at paper scale, so their layer timings are taken here.
  const std::vector<Acfg> mid =
      grown_graphs(options.seed, 4, sizes.baseline_blocks, 1);
  GnnExplainer gnn_explainer(gnn);
  SubgraphX subgraphx(gnn);
  Clock::time_point start = Clock::now();
  (void)gnn_explainer.explain(mid[0]);
  Clock::time_point done = Clock::now();
  spans.record("explain.gnnexplainer", 2000000, start, done);
  const double gnnexplainer_s = seconds_between(start, done);
  start = Clock::now();
  (void)subgraphx.explain(mid[0]);
  done = Clock::now();
  spans.record("explain.subgraphx", 2000001, start, done);
  const double subgraphx_s = seconds_between(start, done);
  spans.enable(false);

  const double n = std::max(1.0, explain_s.count);
  const double cfg_ms = explain_s.mean() * 1e3;
  const double select_ms = cfg_ms - layers.total() / n * 1e3;
  const double calls = std::max(1.0, untraced_calls);

  report.metric("serve.submit_us", 0.0, "us");
  report.metric("serve.queue_ms", 0.0, "ms");
  report.metric("serve.batch_size", 0.0, "count");
  report.metric("serve.prepare_ms", 0.0, "ms");
  report.metric("serve.execute_ms", 0.0, "ms");
  report.metric("serve.explain_ms", 0.0, "ms");
  report.metric("serve.factory_ms", 0.0, "ms");
  report.metric("serve.factory_per_request", 0.0, "count");
  report.metric("serve.unattributed_share", 0.0, "share");
  report.metric("explain.cfg_ms", cfg_ms, "ms");
  report.metric("explain.project_ms", 0.0, "ms");
  report.metric("explain.gnnexplainer_ms", gnnexplainer_s * 1e3, "ms");
  report.metric("explain.subgraphx_ms", subgraphx_s * 1e3, "ms");
  report.metric("core.score_ms", layers.score / n * 1e3, "ms");
  report.metric("core.select_ms", select_ms, "ms");
  report.metric("core.select_share", cfg_ms > 0.0 ? select_ms / cfg_ms : 0.0,
                "share");
  report.metric("gnn.embed_ms", layers.embed / n * 1e3, "ms");
  report.metric("graph.normalize_ms", layers.normalize / n * 1e3, "ms");
  report.metric("graph.renorm_ms", layers.renorm / n * 1e3, "ms");
  report.metric("graph.reduce_ms", 0.0, "ms");
  report.metric("graph.reduction_ratio", 1.0, "ratio");
  report.metric("nn.spmm_ms", kernels.spmm.total / calls * 1e3, "ms");
  report.metric("nn.matmul_ms", kernels.matmul.total / calls * 1e3, "ms");
  report.metric("nn.spmm_calls", kernels.spmm.count / calls, "count");
  report.metric("nn.matmul_calls", kernels.matmul.count / calls, "count");
  report.metric("nn.workspace_alloc_bytes", kernels.workspace_alloc_bytes,
                "bytes");
  report.metric("util.pool_wait_ms", kernels.pool_wait.mean() * 1e3, "ms");
  report.metric("util.pool_run_ms", kernels.pool_run.mean() * 1e3, "ms");
  report.metric("loadgen.late_p99_ms", 0.0, "ms");
  report.metric("trace.overhead_share",
                quantile(traced, 0.5) / quantile(untraced, 0.5) - 1.0, "share");

  report.detail("replayed_graphs", explain_s.count);
  report.detail("untraced_calls", untraced_calls);
}

}  // namespace

void run_explain_paper(const Options& options, Report& report) {
  const Sizes sizes = sizes_for(options);
  auto [setup, setup_s] =
      timed_setup(options.trace || options.short_mode ? 1 : 3, [&] {
        auto s = std::make_unique<OfflineSetup>();
        s->models = train_models();
        s->graphs = grown_graphs(options.seed, 1, sizes.min_blocks,
                                 sizes.graphs);
        s->explainer = make_explainer(s->models);
        return s;
      });
  // Warm-up on the largest graph sizes every workspace buffer for the
  // whole pool, so the measured calls allocate nothing.
  (void)setup->explainer->explain(setup->graphs[largest(setup->graphs)]);

  if (options.trace) {
    trace_layers(options, *setup, report);
  } else {
    measure(options, *setup, setup_s, report);
  }
}

}  // namespace cfgbench
