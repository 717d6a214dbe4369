// Shared pieces of the repository benchmark.
//
// Everything here sits OUTSIDE the library: the benchmark calls the public
// functions of each module (serve, explain, core, gnn, graph, nn, util) and
// times or checks them from its own code. Nothing in src/ is instrumented
// for it beyond the counters and histograms the library already records.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/explainer_model.hpp"
#include "explain/cfg_explainer.hpp"
#include "gnn/classifier.hpp"
#include "graph/acfg.hpp"

namespace cfgbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scaled-down inputs and phases, for the benchmark's own tests.
  bool short_mode = false;
  // Test hook: corrupt one produced ranking before it is checked, so the
  // tests can prove the output check catches it.
  bool corrupt = false;
  // Where a traced run writes its Chrome trace.
  std::string trace_out;
};

// ---------------------------------------------------------------------------
// The program under test: the classifier Phi and the explainer model Theta.
// Both are trained from fixed seeds on a small synthetic corpus, so they are
// the same in every run; the workload seed only changes the graphs served.

struct Models {
  std::unique_ptr<cfgx::GnnClassifier> gnn;
  std::unique_ptr<cfgx::ExplainerModel> theta;
};

Models train_models();

// A fitted CFGExplainer serving its own copy of Theta.
std::unique_ptr<cfgx::CfgExplainer> make_explainer(const Models& models);

// `count` graphs of `min_blocks` to 1.1 x `min_blocks` basic blocks, cycling
// through the eleven malware families. A pure function of (seed, stream,
// min_blocks, count).
std::vector<cfgx::Acfg> grown_graphs(std::uint64_t seed, std::uint64_t stream,
                                     std::size_t min_blocks,
                                     std::size_t count);

// Runs `make` `reps` times and returns the last result with the median
// wall time of the calls. Earlier results are destroyed before the next
// call starts, so set-up never holds two copies.
template <typename Make>
auto timed_setup(int reps, Make make) {
  std::vector<double> times;
  decltype(make()) result;
  for (int r = 0; r < reps; ++r) {
    result = {};
    const Clock::time_point start = Clock::now();
    result = make();
    times.push_back(seconds_between(start, Clock::now()));
  }
  std::sort(times.begin(), times.end());
  return std::make_pair(std::move(result), times[times.size() / 2]);
}

// ---------------------------------------------------------------------------
// Output checks and explanation quality.

// Every node id in [0, num_nodes) exactly once.
bool is_permutation(const cfgx::NodeRanking& ranking, std::uint32_t num_nodes);

// Swaps the first two entries (the corruption test hook).
void corrupt_ranking(cfgx::NodeRanking& ranking);

// Wall time of each public call Algorithm 2 makes, summed over one
// explanation (seconds).
struct LayerTimes {
  double normalize = 0.0;  // MaskedNormalizedAdjacency(graph)
  double embed = 0.0;      // GnnClassifier::embed_into, every iteration
  double score = 0.0;      // ExplainerModel::score_nodes_into
  double renorm = 0.0;     // MaskedNormalizedAdjacency::prune + refresh
  double total() const { return normalize + embed + score + renorm; }
};

// Replays Algorithm 2 on `graph` through the public calls above, following
// the removal order that `ranking` encodes (its reverse), and checks at
// every iteration that the removed nodes are exactly the lowest-scoring
// survivors in (score, node id) order. Returns false when `ranking` is not
// the ranking Algorithm 2 produces. `times` accumulates the call timings;
// the check itself is not timed.
bool replay_algorithm2(const cfgx::GnnClassifier& gnn,
                       cfgx::ExplainerModel& theta, const cfgx::Acfg& graph,
                       const cfgx::NodeRanking& ranking, LayerTimes& times);

// Does the GNN's full-graph class survive keeping only the top 20% of the
// ranking's blocks?
bool survives_top20(const cfgx::GnnClassifier& gnn, const cfgx::Acfg& graph,
                    const cfgx::NodeRanking& ranking, std::size_t full_class);

// Share of `a`'s top-20% blocks that are also in `b`'s top 20%.
double top20_overlap(const cfgx::NodeRanking& a, const cfgx::NodeRanking& b);

// ---------------------------------------------------------------------------
// Statistics.

// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

// A share with its sample count and a 95% percentile-bootstrap interval.
struct ShareEstimate {
  double share = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  std::size_t n = 0;
};
ShareEstimate bootstrap_share(const std::vector<bool>& outcomes,
                              std::uint64_t seed);

// Starts a new resident-memory peak: returns freed heap to the system and
// resets the kernel's high-water mark, so peak_rss_mb() then reports the
// peak of what runs after this call rather than of set-up.
void reset_peak_rss();
// Peak resident set size of this process since reset_peak_rss() (or since
// start, where the kernel does not allow the reset), in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Counters and histograms the library records in its global registry,
// summed the way the per-layer metrics need them. Subtract two snapshots to
// get one phase's share.

struct Sum {
  double count = 0.0;
  double total = 0.0;
  void add(double value) {
    count += 1.0;
    total += value;
  }
  double mean() const { return count > 0.0 ? total / count : 0.0; }
};

struct RegistryTotals {
  Sum spmm;    // kernel.spmm*: calls, seconds
  Sum matmul;  // kernel.matmul*: calls, seconds
  double workspace_alloc_bytes = 0.0;
  Sum pool_wait;  // pool.task_wait_seconds
  Sum pool_run;   // pool.task_run_seconds
  Sum batch_size;
  Sum batch_prepare;
  Sum batch_execute;

  static RegistryTotals now();
  RegistryTotals operator-(const RegistryTotals& earlier) const;
  RegistryTotals& operator+=(const RegistryTotals& other);
};

// ---------------------------------------------------------------------------
// Spans for the traced run: recorded by the benchmark around its calls into
// the library, kept in memory, written as a Chrome trace at the end. Spans
// of one request share its id.

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint32_t thread = 0;
  Clock::time_point start;
  Clock::time_point end;
  double seconds() const { return seconds_between(start, end); }
};

class SpanRecorder {
 public:
  static SpanRecorder& global();

  // Recording is off until enable(); record() is then a no-op.
  void enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void record(const char* name, std::uint64_t id, Clock::time_point start,
              Clock::time_point end);

  std::vector<Span> spans() const;

  bool write_chrome_trace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t id)
      : name_(name), id_(id), start_(Clock::now()) {}
  ~ScopedSpan() {
    SpanRecorder::global().record(name_, id_, start_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t id_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------------------
// The run's result: end-to-end metrics (untraced run) or per-layer metrics
// (traced run), request counts, and any output-check failure.

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // Context that is not a bounded metric (seed, sample counts, intervals);
  // printed on the line before the result.
  void detail(const std::string& key, double value);

  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double ok_share() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(attempted_ - failed_) /
                                 static_cast<double>(attempted_);
  }
  // An output was wrong: the run is marked incorrect and exits non-zero.
  void wrong_output(const std::string& what);
  bool correct() const { return wrong_outputs_ == 0; }

  // Prints the detail line and, last, the result line. Returns the exit
  // code: 0 when every output was correct.
  int print(const Options& options) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, double>> details_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t wrong_outputs_ = 0;
};

// Workloads (offline.cpp, serving.cpp).
void run_explain_paper(const Options& options, Report& report);
void run_serve_small(const Options& options, Report& report);
void run_serve_paper_reduced(const Options& options, Report& report);

}  // namespace cfgbench
