// Micro-benchmarks (google-benchmark) for the numeric kernels that dominate
// the experiment wall-clock: matrix products, adjacency normalization, the
// GCN backward, full-model embedding, one Algorithm-2
// interpretation and corpus sample generation.
//
// Besides google-benchmark's own flags this binary accepts
// --manifest=path (default micro_kernels_manifest.json) and honors
// CFGX_METRICS=0, which disables the in-process metrics registry - the
// configuration used to measure observability overhead on the matmul
// throughput numbers.
//
// --kernels-baseline[=path] (default BENCH_kernels.json) switches to a
// self-contained comparison mode instead of running google-benchmark: it
// times blocked-vs-naive matmul, `_into`-vs-allocating kernel pairs and
// scalar-vs-AVX2 matmul/spmm (when the host supports AVX2+FMA) at n in
// {64, 128, 256} with DurationStats (p50/p95),
// records the workspace counter deltas proving the `_into` loops are
// allocation-free in steady state, attributes every case to the ISA that
// ran it, then writes the result as JSON and exits.
//
// --simd=I ("scalar" | "avx2") forces the kernel ISA for the
// google-benchmark mode and for the non-differential baseline cases; the
// active ISA lands in the run manifest as `simd_isa`.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/interpreter.hpp"
#include "dataset/corpus.hpp"
#include "gnn/classifier.hpp"
#include "graph/ops.hpp"
#include "isa/features.hpp"
#include "nn/simd.hpp"
#include "nn/sparse.hpp"
#include "nn/workspace.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cfgx {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

// A graph at typical CFG edge density: a fallthrough chain plus sparse
// branch edges, ~2 out-edges per basic block regardless of n.
Acfg cfg_graph(std::size_t n, Rng& rng) {
  std::vector<Edge> edges;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    edges.push_back({static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(i + 1), EdgeKind::Flow});
  }
  const double p = 1.0 / static_cast<double>(n);  // ~1 extra edge per node
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(p) && j != i + 1) {
        edges.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j), EdgeKind::Flow});
      }
    }
  }
  Acfg graph(static_cast<std::uint32_t>(n));
  graph.set_edges(std::move(edges));
  return graph;
}

// The normalized adjacency of cfg_graph(n, rng).
CsrMatrix cfg_a_hat(std::size_t n, Rng& rng) {
  return MaskedNormalizedAdjacency(cfg_graph(n, rng)).a_hat();
}

ThreadPool& kernel_pool() {
  static ThreadPool pool;
  return pool;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, 64, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * 64));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

// The pre-blocking i-k-j loop, kept as detail::matmul_reference_rows. The
// explicit reshape matches the zero-fill matmul_into performs internally, so
// the delta against BM_MatmulInto is purely blocked-vs-naive.
void BM_MatmulNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, 64, rng);
  Matrix out(n, 64);
  for (auto _ : state) {
    out.reshape(n, 64);
    detail::matmul_reference_rows(a, b, out, 0, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * 64));
}
BENCHMARK(BM_MatmulNaive)->Arg(64)->Arg(128)->Arg(256);

// Destination-passing variant writing into a persistent buffer: the delta
// against BM_Matmul is the per-call heap allocation of the returned Matrix.
void BM_MatmulInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, 64, rng);
  Matrix out;
  for (auto _ : state) {
    matmul_into(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * 64));
}
BENCHMARK(BM_MatmulInto)->Arg(64)->Arg(128)->Arg(256);

// --- serial vs parallel CSR on the GCN hot-path product A_hat * H ---
// Same normalized CFG-density adjacency and feature width (64) in all
// variants so the reported times are directly comparable.

void BM_AdjacencySpmmCsr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  const CsrMatrix a_hat = cfg_a_hat(n, rng);
  const Matrix h = random_matrix(n, 64, rng);
  state.counters["density"] = a_hat.density();
  for (auto _ : state) {
    benchmark::DoNotOptimize(spmm(a_hat, h));
  }
}
BENCHMARK(BM_AdjacencySpmmCsr)->Arg(64)->Arg(128)->Arg(256);

void BM_AdjacencySpmmCsrParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  const CsrMatrix a_hat = cfg_a_hat(n, rng);
  const Matrix h = random_matrix(n, 64, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spmm(a_hat, h, &kernel_pool()));
  }
}
BENCHMARK(BM_AdjacencySpmmCsrParallel)->Arg(64)->Arg(128)->Arg(256);

void BM_AdjacencySpmmCsrInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  const CsrMatrix a_hat = cfg_a_hat(n, rng);
  const Matrix h = random_matrix(n, 64, rng);
  Matrix out;
  for (auto _ : state) {
    spmm_into(a_hat, h, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_AdjacencySpmmCsrInto)->Arg(64)->Arg(128)->Arg(256);

void BM_AdjacencySpmmTransposeCsr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  const CsrMatrix a_hat = cfg_a_hat(n, rng);
  const Matrix g = random_matrix(n, 64, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spmm_transpose_a(a_hat, g));
  }
}
BENCHMARK(BM_AdjacencySpmmTransposeCsr)->Arg(64)->Arg(128)->Arg(256);

void BM_NormalizedAdjacency(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Acfg graph = cfg_graph(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaskedNormalizedAdjacency(graph));
  }
}
BENCHMARK(BM_NormalizedAdjacency)->Arg(64)->Arg(128)->Arg(256);

// One classifier backward (three GCN layers + readout) after a
// forward_cached on an n-block CFG.
void BM_GcnLayerBackward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  GnnClassifier gnn(GnnConfig{}, rng);
  Acfg graph = cfg_graph(n, rng);
  for (std::size_t i = 0; i < graph.features().size(); ++i) {
    graph.features().data()[i] = rng.uniform(0.0, 4.0);
  }
  const MaskedNormalizedAdjacency frozen(graph);
  const Matrix grad_logits = random_matrix(1, gnn.config().num_classes, rng);
  gnn.forward_cached(frozen.a_hat(), frozen.inv_sqrt_degree(), graph.features());
  for (auto _ : state) {
    gnn.zero_grad();
    benchmark::DoNotOptimize(gnn.backward_cached(grad_logits));
  }
}
BENCHMARK(BM_GcnLayerBackward)->Arg(64)->Arg(128)->Arg(256);

// Shared fixture state for model-level benchmarks: one graph + one model.
struct ModelFixture {
  ModelFixture() : rng(5), gnn(GnnConfig{}, rng) {
    Rng graph_rng(99);
    graph = generate_acfg(Family::Rbot, graph_rng);
  }
  Rng rng;
  GnnClassifier gnn;
  Acfg graph;
};

ModelFixture& fixture() {
  static ModelFixture instance;
  return instance;
}

void BM_GnnEmbed(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.gnn.embed(f.graph));
  }
}
BENCHMARK(BM_GnnEmbed);

void BM_GnnPredict(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.gnn.predict(f.graph));
  }
}
BENCHMARK(BM_GnnPredict);

void BM_AlgorithmTwoInterpretation(benchmark::State& state) {
  auto& f = fixture();
  Rng model_rng(6);
  ExplainerModelConfig config;
  config.embedding_dim = f.gnn.config().embedding_dim();
  config.num_classes = f.gnn.config().num_classes;
  ExplainerModel theta(config, model_rng);
  Interpreter interpreter(theta, f.gnn);
  for (auto _ : state) {
    benchmark::DoNotOptimize(interpreter.interpret(f.graph));
  }
}
BENCHMARK(BM_AlgorithmTwoInterpretation);

void BM_GenerateSample(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(generate_acfg(Family::Zbot, rng));
  }
}
BENCHMARK(BM_GenerateSample);

void BM_BlockFeatureExtraction(benchmark::State& state) {
  Rng rng(7);
  const GeneratedSample sample = generate_program(Family::Vundo, rng);
  const LiftedCfg cfg = lift_program(sample.program);
  for (auto _ : state) {
    benchmark::DoNotOptimize(to_acfg(cfg, 0, "Vundo"));
  }
}
BENCHMARK(BM_BlockFeatureExtraction);

// --- --kernels-baseline mode -------------------------------------------
// Manual DurationStats-timed before/after pairs, independent of
// google-benchmark so the output schema is ours (p50/p95 seconds plus the
// workspace counter deltas for the `_into` loops). Committed at the repo
// root as BENCH_kernels.json and uploaded by the CI perf-artifacts job.

DurationStats time_loop(std::size_t iters, const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  for (std::size_t i = 0; i < 5; ++i) fn();  // warm caches and workspace
  DurationStats stats;
  for (std::size_t i = 0; i < iters; ++i) {
    const auto start = clock::now();
    fn();
    stats.add(std::chrono::duration<double>(clock::now() - start).count());
  }
  return stats;
}

void write_stats(obs::JsonWriter& json, const char* label,
                 const DurationStats& stats) {
  json.key(label).begin_object();
  json.field("iterations", static_cast<std::uint64_t>(stats.count()));
  json.field("mean_s", stats.mean());
  json.field("p50_s", stats.percentile(50.0));
  json.field("p95_s", stats.percentile(95.0));
  json.field("stddev_s", stats.stddev());
  json.end_object();
}

int run_kernels_baseline(const std::string& out_path) {
  obs::set_metrics_enabled(true);
  obs::Counter& reused =
      obs::MetricsRegistry::global().counter("workspace.bytes_reused");
  obs::Counter& allocated =
      obs::MetricsRegistry::global().counter("workspace.bytes_allocated");

  const char* active_isa = simd::isa_name(simd::dispatch());

  obs::JsonWriter json;
  json.begin_object();
  json.field("schema", "cfgx.bench.kernels.v2");
  json.field("binary", "micro_kernels");
  json.field("feature_cols", std::uint64_t{64});
  json.field("isa", active_isa);
  json.field("avx2_supported", simd::avx2_supported());
  json.key("cases").begin_array();

  // Time one before/after pair and emit a case object, attributing each
  // side to the ISA that ran it (the differential scalar-vs-avx2 cases
  // force one side each; everything else runs under the active ISA). The
  // workspace counter deltas are sampled around the AFTER loop only (the
  // warm-up inside time_loop runs first, so a non-zero bytes_allocated
  // delta here means the optimized path still allocates in steady state).
  const auto emit_case = [&](const char* name, std::size_t n,
                             std::size_t iters,
                             const std::function<void()>& before,
                             const std::function<void()>& after,
                             const char* before_isa = nullptr,
                             const char* after_isa = nullptr) {
    const DurationStats before_stats = time_loop(iters, before);
    const std::uint64_t reused_before = reused.value();
    const std::uint64_t allocated_before = allocated.value();
    const DurationStats after_stats = time_loop(iters, after);
    json.begin_object();
    json.field("name", name);
    json.field("n", static_cast<std::uint64_t>(n));
    json.field("before_isa", before_isa ? before_isa : active_isa);
    json.field("after_isa", after_isa ? after_isa : active_isa);
    write_stats(json, "before", before_stats);
    write_stats(json, "after", after_stats);
    json.field("speedup_mean",
               after_stats.mean() > 0.0
                   ? before_stats.mean() / after_stats.mean()
                   : 0.0);
    json.key("workspace_after_loop").begin_object();
    json.field("bytes_reused_delta", reused.value() - reused_before);
    json.field("bytes_allocated_delta", allocated.value() - allocated_before);
    json.end_object();
    json.end_object();
    std::cerr << name << " n=" << n << ": before mean " << before_stats.mean()
              << "s, after mean " << after_stats.mean() << "s\n";
  };

  for (const std::size_t n : {std::size_t{64}, std::size_t{128},
                              std::size_t{256}}) {
    const std::size_t iters = n <= 64 ? 400 : (n <= 128 ? 120 : 40);
    Rng rng(1);
    const Matrix a = random_matrix(n, n, rng);
    const Matrix b = random_matrix(n, 64, rng);
    Rng adj_rng(11);
    const CsrMatrix a_hat = cfg_a_hat(n, adj_rng);
    const Matrix h = random_matrix(n, 64, adj_rng);
    Rng gnn_rng(3);
    const GnnClassifier gnn(GnnConfig{}, gnn_rng);
    Acfg graph = cfg_graph(n, gnn_rng);
    for (std::size_t i = 0; i < graph.features().size(); ++i) {
      graph.features().data()[i] = gnn_rng.uniform(0.0, 4.0);
    }
    const MaskedNormalizedAdjacency frozen(graph);
    Matrix out(n, 64);
    Matrix embeddings;

    emit_case("matmul_naive_vs_blocked", n, iters,
              [&] {
                out.reshape(n, 64);
                detail::matmul_reference_rows(a, b, out, 0, n);
                benchmark::DoNotOptimize(out.data());
              },
              [&] {
                matmul_into(a, b, out);
                benchmark::DoNotOptimize(out.data());
              });
    emit_case("matmul_alloc_vs_into", n, iters,
              [&] { benchmark::DoNotOptimize(matmul(a, b)); },
              [&] {
                matmul_into(a, b, out);
                benchmark::DoNotOptimize(out.data());
              });
    emit_case("spmm_alloc_vs_into", n, iters,
              [&] { benchmark::DoNotOptimize(spmm(a_hat, h)); },
              [&] {
                spmm_into(a_hat, h, out);
                benchmark::DoNotOptimize(out.data());
              });
    emit_case("gcn_embed_alloc_vs_into", n, iters,
              [&] { benchmark::DoNotOptimize(gnn.embed(graph)); },
              [&] {
                gnn.embed_into(frozen.a_hat(), frozen.inv_sqrt_degree(),
                               graph.features(), embeddings);
                benchmark::DoNotOptimize(embeddings.data());
              });

    // --- scalar vs AVX2 (acceptance bar: >= 2x for matmul AND spmm at
    // n = 256). Each side forces its ISA; the spmm runs at CFG density.
    // Skipped when dispatch resolved to scalar — either the host lacks
    // AVX2+FMA or the user forced scalar (CFGX_SIMD/--simd), and a forced
    // run must never sneak vector kernels in.
    if (simd::dispatch() == simd::Isa::Avx2) {
      emit_case("matmul_scalar_vs_avx2", n, iters,
                [&] {
                  simd::ScopedIsa isa(simd::Isa::Scalar);
                  matmul_into(a, b, out);
                  benchmark::DoNotOptimize(out.data());
                },
                [&] {
                  simd::ScopedIsa isa(simd::Isa::Avx2);
                  matmul_into(a, b, out);
                  benchmark::DoNotOptimize(out.data());
                },
                "scalar", "avx2");
      emit_case("spmm_scalar_vs_avx2", n, iters,
                [&] {
                  simd::ScopedIsa isa(simd::Isa::Scalar);
                  spmm_into(a_hat, h, out);
                  benchmark::DoNotOptimize(out.data());
                },
                [&] {
                  simd::ScopedIsa isa(simd::Isa::Avx2);
                  spmm_into(a_hat, h, out);
                  benchmark::DoNotOptimize(out.data());
                },
                "scalar", "avx2");
    }
  }

  json.end_array();
  json.end_object();

  std::ofstream file(out_path);
  if (!file) {
    std::cerr << "kernels-baseline: cannot open " << out_path << "\n";
    return 1;
  }
  file << json.str() << "\n";
  std::cerr << "kernels-baseline: wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace cfgx

// BENCHMARK_MAIN() plus a run manifest carrying the metrics snapshot, so
// kernel call counts / time-in-kernel are machine readable alongside the
// google-benchmark numbers.
int main(int argc, char** argv) {
  std::string manifest_path = "micro_kernels_manifest.json";
  bool kernels_baseline = false;
  std::string kernels_baseline_path = "BENCH_kernels.json";
  std::vector<char*> benchmark_args;
  for (int i = 0; i < argc; ++i) {
    constexpr char kManifestFlag[] = "--manifest=";
    constexpr char kBaselineFlag[] = "--kernels-baseline";
    constexpr char kSimdFlag[] = "--simd=";
    if (std::strncmp(argv[i], kManifestFlag, sizeof kManifestFlag - 1) == 0) {
      manifest_path = argv[i] + sizeof kManifestFlag - 1;
      continue;  // google-benchmark rejects flags it does not know
    }
    if (std::strncmp(argv[i], kSimdFlag, sizeof kSimdFlag - 1) == 0) {
      try {
        cfgx::simd::set_isa(
            cfgx::simd::parse_isa(argv[i] + sizeof kSimdFlag - 1));
      } catch (const std::exception& error) {
        std::cerr << "--simd: " << error.what() << "\n";
        return 1;
      }
      continue;
    }
    if (std::strncmp(argv[i], kBaselineFlag, sizeof kBaselineFlag - 1) == 0) {
      kernels_baseline = true;
      const char* rest = argv[i] + sizeof kBaselineFlag - 1;
      if (*rest == '=') kernels_baseline_path = rest + 1;
      continue;
    }
    benchmark_args.push_back(argv[i]);
  }
  if (kernels_baseline) {
    return cfgx::run_kernels_baseline(kernels_baseline_path);
  }
  int benchmark_argc = static_cast<int>(benchmark_args.size());
  benchmark::Initialize(&benchmark_argc, benchmark_args.data());
  if (benchmark::ReportUnrecognizedArguments(benchmark_argc,
                                             benchmark_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  cfgx::obs::RunManifest manifest("micro_kernels");
  manifest.set_config("metrics_enabled", cfgx::obs::metrics_enabled());
  manifest.set_config(
      "simd_isa", std::string(cfgx::simd::isa_name(cfgx::simd::dispatch())));
  manifest.set_metrics(cfgx::obs::MetricsRegistry::global().snapshot());
  manifest.write_file(manifest_path);
  return 0;
}
