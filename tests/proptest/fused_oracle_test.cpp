// Fused-vs-unfused oracle for the row-tiled passes (DESIGN.md decision 18).
//
// GnnClassifier::embed_into runs one combine and then one fused pass per
// GCN layer over tiles of gathered live rows, and forward_cached runs the
// same pass keeping each layer's rows for backward_cached; ExplainerModel::
// score_nodes_into runs the whole Theta_s MLP on one tile of kept rows at a
// time. All must be BIT-identical to the per-layer paths they replaced,
// which are the references:
//
//   * embed: the scaler pass over every row; per layer H*W and the spmm
//     aggregate on live rows only (dead rows held at +0.0), + b and the
//     GCN clamp on live rows; a final zeroing of dead rows.
//   * training step: the unfused layers and backward of
//     support/gcn_reference.hpp, under both readouts.
//   * score: pack the kept rows (non-zero rows plus the first all-zero
//     row) scaled by 1/scale, run the Theta_s Sequential over them,
//     scatter the scores back, copy the first zero row's score to the
//     other zero rows.
//
// Covered: N in {1, tile-1, tile, tile+1, 2*tile+1, 7352}; random live
// masks, all-dead and all-live; +-0, NaN, Inf and subnormal rows in the
// features and in the embeddings; scalar and AVX2; with and without a
// kernel pool. The two clamps differ on purpose (the GCN clamp keeps -0.0
// and NaN, the Theta_s ReLU maps both to +0.0), and NaN rows reach both,
// so a fused epilogue sharing one clamp fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/explainer_model.hpp"
#include "dataset/corpus.hpp"
#include "gnn/classifier.hpp"
#include "gnn/gcn.hpp"
#include "nn/layers.hpp"
#include "nn/simd.hpp"
#include "nn/sparse.hpp"
#include "nn/tiles.hpp"
#include "obs/metrics.hpp"
#include "support/gcn_reference.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cfgx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kSubnormal = std::numeric_limits<double>::denorm_min();

bool bit_identical(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<simd::Isa> host_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::Scalar};
  if (simd::avx2_supported()) isas.push_back(simd::Isa::Avx2);
  return isas;
}

// Node counts straddling the tile height of a pass whose widest row has
// `widest` columns, plus the paper's largest CFG.
std::vector<std::size_t> node_counts(std::size_t widest) {
  const std::size_t tile = tile_rows(widest);
  return {1, tile - 1, tile, tile + 1, 2 * tile + 1, 7352};
}

// Fills `row` (width f) with one of the row kinds that stress the passes.
void hostile_row(Rng& rng, double* row, std::size_t f) {
  switch (rng.uniform_index(8)) {
    case 0:
      std::fill(row, row + f, 0.0);
      break;
    case 1:
      std::fill(row, row + f, -0.0);
      break;
    case 2:  // one NaN entry
      std::fill(row, row + f, 0.0);
      row[rng.uniform_index(f)] = kNaN;
      break;
    case 3:  // Inf entries of either sign
      std::fill(row, row + f, 0.5);
      row[rng.uniform_index(f)] = kInf;
      row[rng.uniform_index(f)] = -kInf;
      break;
    case 4:  // subnormal entries
      std::fill(row, row + f, 0.0);
      row[rng.uniform_index(f)] = kSubnormal;
      row[rng.uniform_index(f)] = -kSubnormal;
      break;
    default:
      for (std::size_t c = 0; c < f; ++c) row[c] = rng.normal(0.5, 1.5);
  }
}

// --- embed ---

enum class Mask { Random, AllDead, AllLive };

const char* mask_name(Mask mask) {
  switch (mask) {
    case Mask::Random:
      return "random";
    case Mask::AllDead:
      return "all-dead";
    case Mask::AllLive:
      break;
  }
  return "all-live";
}

struct EmbedCase {
  CsrMatrix a_hat;
  std::vector<double> inv_sqrt;
  Matrix features;
};

// A CFG-like normalized adjacency: a self loop plus up to three random
// neighbours per row, mirrored when `symmetric` (the structure the edge
// gradient needs). As in MaskedNormalizedAdjacency, a dead node
// (inv_sqrt == 0) keeps its structural entries at exactly 0.0.
EmbedCase make_embed_case(Rng& rng, std::size_t n, Mask mask,
                          bool symmetric = false) {
  EmbedCase c;
  c.inv_sqrt.resize(n);
  for (double& v : c.inv_sqrt) {
    const bool live = mask == Mask::AllLive ||
                      (mask == Mask::Random && rng.bernoulli(0.7));
    v = live ? rng.uniform(0.2, 1.0) : 0.0;
  }
  std::vector<std::vector<std::uint32_t>> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i].push_back(static_cast<std::uint32_t>(i));
    for (int e = 0; e < 3; ++e) {
      const auto j = static_cast<std::uint32_t>(rng.uniform_index(n));
      rows[i].push_back(j);
      if (symmetric) rows[j].push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::vector<std::size_t> row_ptr = {0};
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t>& cols = rows[i];
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    for (std::uint32_t j : cols) {
      col_idx.push_back(j);
      values.push_back(c.inv_sqrt[i] * c.inv_sqrt[j]);
    }
    row_ptr.push_back(col_idx.size());
  }
  c.a_hat = CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                      std::move(values));
  c.features = Matrix(n, kAcfgFeatureCount);
  for (std::size_t i = 0; i < n; ++i) {
    hostile_row(rng, c.features.data() + i * c.features.cols(),
                c.features.cols());
  }
  return c;
}

// A classifier with a fitted scaler and non-zero biases of both signs, so
// dead rows would carry ReLU(b) and the clamp fires on live rows.
GnnClassifier make_classifier(ReadoutKind readout = ReadoutKind::MeanPool) {
  Rng rng(41);
  GnnConfig config;
  config.readout = readout;
  GnnClassifier gnn(config, rng);
  for (Parameter* p : gnn.parameters()) {
    if (p->value.rows() != 1) continue;  // biases only
    for (std::size_t c = 0; c < p->value.cols(); ++c) {
      p->value(0, c) = rng.normal(0.0, 0.5);
    }
  }
  Matrix scaler(2, kAcfgFeatureCount);
  for (std::size_t c = 0; c < scaler.cols(); ++c) {
    scaler(0, c) = rng.uniform(-1.0, 1.0);
    scaler(1, c) = rng.uniform(0.5, 2.0);
  }
  gnn.set_scaler(FeatureScaler::from_matrix(scaler));
  return gnn;
}

// The per-layer embed path the fused passes replaced.
Matrix reference_embed(GnnClassifier& gnn, const EmbedCase& c) {
  const auto dead = [&](std::size_t i) { return c.inv_sqrt[i] == 0.0; };
  Matrix h = gnn.scaler().transform(c.features);
  const std::vector<Parameter*> params = gnn.parameters();
  for (std::size_t l = 0; l < gnn.config().gcn_dims.size(); ++l) {
    const Matrix& w = params[2 * l]->value;
    const Matrix& b = params[2 * l + 1]->value;
    Matrix hw = matmul(h, w);
    for (std::size_t i = 0; i < hw.rows(); ++i) {
      if (dead(i)) std::fill_n(hw.data() + i * hw.cols(), hw.cols(), 0.0);
    }
    Matrix aggregated = spmm(c.a_hat, hw);
    for (std::size_t i = 0; i < aggregated.rows(); ++i) {
      for (std::size_t col = 0; col < aggregated.cols(); ++col) {
        double& v = aggregated(i, col);
        if (dead(i)) {
          v = 0.0;
          continue;
        }
        v += b(0, col);
        if (v < 0.0) v = 0.0;
      }
    }
    h = std::move(aggregated);
  }
  for (std::size_t i = 0; i < h.rows(); ++i) {
    if (dead(i)) std::fill_n(h.data() + i * h.cols(), h.cols(), 0.0);
  }
  return h;
}

TEST(FusedOracle, EmbedMatchesPerLayerPathBitwise) {
  GnnClassifier gnn = make_classifier();
  const GnnConfig& config = gnn.config();
  std::size_t widest = config.feature_dim;
  for (std::size_t d : config.gcn_dims) widest = std::max(widest, d);
  ThreadPool pool(3);
  Rng rng(20261017);
  // Reused across cases: a stale shape or stale contents must not leak
  // into dead rows, which the reference holds at +0.0 (memcmp tells +0.0
  // from -0.0 and NaN).
  Matrix out(5, 5, kNaN);
  std::size_t nan_rows = 0;
  for (const std::size_t n : node_counts(widest)) {
    for (const Mask mask : {Mask::Random, Mask::AllDead, Mask::AllLive}) {
      const EmbedCase c = make_embed_case(rng, n, mask);
      for (const simd::Isa isa : host_isas()) {
        simd::ScopedIsa scoped(isa);
        const Matrix expected = reference_embed(gnn, c);
        for (ThreadPool* kernel_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
          gnn.set_kernel_pool(kernel_pool);
          gnn.embed_into(c.a_hat, c.inv_sqrt, c.features, out);
          EXPECT_TRUE(bit_identical(out, expected))
              << "n=" << n << " mask=" << mask_name(mask)
              << " isa=" << simd::isa_name(isa)
              << " pool=" << (kernel_pool != nullptr);
        }
        gnn.set_kernel_pool(nullptr);
        for (std::size_t i = 0; i < expected.rows(); ++i) {
          if (std::isnan(expected(i, 0))) ++nan_rows;
        }
      }
    }
  }
  // The GCN clamp keeps NaN: some live embedding rows must carry it, or the
  // oracle could not tell the two clamps apart.
  EXPECT_GT(nan_rows, 0u);
}

TEST(FusedOracle, EmbedRejectsMismatchedShapes) {
  GnnClassifier gnn = make_classifier();
  Rng rng(9);
  const EmbedCase c = make_embed_case(rng, 10, Mask::AllLive);
  Matrix out;
  const std::vector<double> short_mask(9, 1.0);
  EXPECT_THROW(gnn.embed_into(c.a_hat, short_mask, c.features, out),
               std::invalid_argument);
  EXPECT_THROW(gnn.embed_into(c.a_hat, c.inv_sqrt, Matrix(10, 5), out),
               std::invalid_argument);
  EXPECT_THROW(gnn.embed_into(c.a_hat, c.inv_sqrt, Matrix(11, 12), out),
               std::invalid_argument);
}

// --- training ---

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// forward_cached + backward_cached against the unfused reference step:
// logits, every parameter gradient, the edge gradient and the feature
// gradient, bit for bit. Features come as the hostile rows above (NaN and
// Inf included), or with every non-finite value redrawn, so most cases
// keep finite gradients that differ wherever the arithmetic does.
TEST(FusedOracle, TrainingStepMatchesUnfusedReferenceBitwise) {
  ThreadPool pool(3);
  Rng rng(20261021);
  std::size_t finite_cases = 0;
  for (const ReadoutKind readout : {ReadoutKind::MeanPool, ReadoutKind::SortPool}) {
    GnnClassifier gnn = make_classifier(readout);
    const GnnConfig& config = gnn.config();
    std::size_t widest = config.feature_dim;
    for (std::size_t d : config.gcn_dims) widest = std::max(widest, d);
    const std::size_t tile = tile_rows(widest);
    for (const std::size_t n : {std::size_t{1}, tile + 1, 2 * tile + 1,
                                std::size_t{300}}) {
      for (const Mask mask : {Mask::Random, Mask::AllDead, Mask::AllLive}) {
        for (const bool non_finite : {false, true}) {
          EmbedCase c = make_embed_case(rng, n, mask, /*symmetric=*/true);
          if (!non_finite) {
            for (std::size_t i = 0; i < c.features.size(); ++i) {
              double& v = c.features.data()[i];
              if (!std::isfinite(v)) v = rng.normal(0.5, 1.5);
            }
          }
          Matrix grad_logits(1, config.num_classes);
          for (std::size_t k = 0; k < grad_logits.size(); ++k) {
            grad_logits.data()[k] = rng.normal();
          }
          for (const simd::Isa isa : host_isas()) {
            simd::ScopedIsa scoped(isa);
            const ReferenceStep expected = reference_training_step(
                gnn, c.a_hat, c.inv_sqrt, c.features, grad_logits, true);
            if (std::isfinite(expected.logits(0, 0))) ++finite_cases;
            for (ThreadPool* kernel_pool :
                 {static_cast<ThreadPool*>(nullptr), &pool}) {
              SCOPED_TRACE(std::string("readout=") +
                           (readout == ReadoutKind::MeanPool ? "mean" : "sort") +
                           " n=" + std::to_string(n) + " mask=" +
                           mask_name(mask) + " non_finite=" +
                           std::to_string(non_finite) +
                           " isa=" + simd::isa_name(isa) +
                           " pool=" + std::to_string(kernel_pool != nullptr));
              gnn.set_kernel_pool(kernel_pool);
              gnn.zero_grad();
              const Matrix logits =
                  gnn.forward_cached(c.a_hat, c.inv_sqrt, c.features);
              const GnnClassifier::BackwardResult result =
                  gnn.backward_cached(grad_logits, true);
              EXPECT_TRUE(bit_identical(logits, expected.logits));
              const std::vector<Parameter*> params = gnn.parameters();
              ASSERT_EQ(params.size(), expected.grads.size());
              for (std::size_t p = 0; p < params.size(); ++p) {
                EXPECT_TRUE(bit_identical(params[p]->grad, expected.grads[p]))
                    << params[p]->name;
              }
              EXPECT_TRUE(same_bits(result.grad_adjacency,
                                    expected.grad_adjacency));
              EXPECT_TRUE(bit_identical(result.grad_scaled_features,
                                        expected.grad_scaled_features));
            }
            gnn.set_kernel_pool(nullptr);
          }
        }
      }
    }
  }
  // Most finite-feature cases must reach finite logits, or the oracle
  // would compare NaN against NaN.
  EXPECT_GT(finite_cases, 20u);
}

// --- score ---

// A model with non-zero biases (a fresh model's are all zero), so a zero
// row's score depends on every layer; scale 4 conditions subnormal rows
// to exact zero.
ExplainerModel make_model() {
  Rng rng(23);
  ExplainerModel model(ExplainerModelConfig{}, rng);
  for (Parameter* p : model.parameters()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] += rng.normal(0.0, 0.3);
    }
  }
  model.set_embedding_scale(4.0);
  return model;
}

// Theta_s as the Sequential ExplainerModel trains (Dense, ReLU, ..., Dense,
// Sigmoid), holding copies of the model's scorer weights.
Sequential scorer_of(ExplainerModel& model) {
  const ExplainerModelConfig& config = model.config();
  const std::vector<Parameter*> params = model.parameters();
  Rng rng(0);
  Sequential scorer;
  std::size_t in = config.embedding_dim;
  for (std::size_t l = 0; l < config.scorer_dims.size(); ++l) {
    auto dense = std::make_unique<Dense>(in, config.scorer_dims[l], rng);
    dense->weight().value = params[2 * l]->value;
    dense->bias().value = params[2 * l + 1]->value;
    scorer.add(std::move(dense));
    if (l + 1 == config.scorer_dims.size()) {
      scorer.emplace<Sigmoid>();
    } else {
      scorer.emplace<Relu>();
    }
    in = config.scorer_dims[l];
  }
  return scorer;
}

// The packed scoring path the tiled pass replaced.
Matrix reference_scores(Sequential& scorer, double scale, const Matrix& z) {
  const std::size_t n = z.rows();
  const std::size_t f = z.cols();
  const double inv_scale = 1.0 / scale;
  std::vector<std::size_t> kept;
  std::size_t first_zero = n;
  for (std::size_t i = 0; i < n; ++i) {
    bool zero = true;
    for (std::size_t c = 0; c < f && zero; ++c) zero = z(i, c) * inv_scale == 0.0;
    if (zero) {
      if (first_zero != n) continue;
      first_zero = kept.size();
    }
    kept.push_back(i);
  }
  Matrix packed(kept.size(), f);
  for (std::size_t k = 0; k < kept.size(); ++k) {
    for (std::size_t c = 0; c < f; ++c) packed(k, c) = z(kept[k], c) * inv_scale;
  }
  const Matrix packed_scores = scorer.forward(packed);
  Matrix scores(n, 1);
  for (std::size_t i = 0, k = 0; i < n; ++i) {
    const bool is_kept = k < kept.size() && kept[k] == i;
    scores(i, 0) = is_kept ? packed_scores(k++, 0) : packed_scores(first_zero, 0);
  }
  return scores;
}

TEST(FusedOracle, ScoreMatchesPackedSequentialBitwise) {
  ExplainerModel model = make_model();
  Sequential scorer = scorer_of(model);
  const ExplainerModelConfig& config = model.config();
  std::size_t widest = config.embedding_dim;
  for (std::size_t d : config.scorer_dims) widest = std::max(widest, d);
  Rng rng(99);
  Matrix out(3, 3, 7.0);  // reused: stale shape and contents must not leak
  for (const std::size_t n : node_counts(widest)) {
    for (int trial = 0; trial < 4; ++trial) {
      Matrix z(n, config.embedding_dim);
      if (trial > 0) {  // trial 0: every row zero
        for (std::size_t i = 0; i < n; ++i) {
          hostile_row(rng, z.data() + i * z.cols(), z.cols());
        }
      }
      for (const simd::Isa isa : host_isas()) {
        simd::ScopedIsa scoped(isa);
        const Matrix expected =
            reference_scores(scorer, model.embedding_scale(), z);
        model.score_nodes_into(z, out);
        EXPECT_TRUE(bit_identical(out, expected))
            << "n=" << n << " trial=" << trial
            << " isa=" << simd::isa_name(isa);
        // A NaN row scores through the Theta_s ReLU (NaN -> +0), never NaN.
        for (std::size_t i = 0; i < n; ++i) EXPECT_FALSE(std::isnan(out(i, 0)));
      }
    }
  }
}

// --- kernel accounting ---

// One kernel's calls and their per-ISA split, as KernelCall records them.
struct KernelCalls {
  std::uint64_t calls = 0;
  std::uint64_t scalar = 0;
  std::uint64_t avx2 = 0;
};

KernelCalls kernel_calls(const std::string& kernel) {
  auto& registry = obs::MetricsRegistry::global();
  const std::string prefix = "kernel." + kernel + ".calls";
  return {registry.counter(prefix).value(),
          registry.counter(prefix + ".scalar").value(),
          registry.counter(prefix + ".avx2").value()};
}

// Checks that `kernel` was called `expected` times between `before` and
// now, every call attributed to `isa`.
void expect_calls(const std::string& kernel, const KernelCalls& before,
                  std::uint64_t expected, simd::Isa isa) {
  const KernelCalls after = kernel_calls(kernel);
  const std::uint64_t calls = after.calls - before.calls;
  const std::uint64_t scalar = after.scalar - before.scalar;
  const std::uint64_t avx2 = after.avx2 - before.avx2;
  EXPECT_EQ(calls, expected) << kernel;
  EXPECT_EQ(scalar + avx2, calls) << kernel;
  EXPECT_EQ(isa == simd::Isa::Avx2 ? avx2 : scalar, calls) << kernel;
}

// cfgbench's per-explanation nn.matmul_calls and nn.spmm_calls count the
// fused passes: one embed_into is one matmul call (the first combine) and
// one spmm call per GCN layer, and one score_nodes_into is one matmul call,
// however many tiles and pool workers the passes use.
TEST(FusedOracle, KernelCallsCountOnePerPass) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  GnnClassifier gnn = make_classifier();
  ASSERT_EQ(gnn.config().gcn_dims.size(), 3u);
  const ExplainerModel model = make_model();
  ThreadPool pool(3);
  Rng rng(7);
  const EmbedCase c = make_embed_case(rng, 300, Mask::Random);
  Matrix embeddings;
  Matrix scores;
  for (const simd::Isa isa : host_isas()) {
    simd::ScopedIsa scoped(isa);
    for (ThreadPool* kernel_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(std::string("isa=") + simd::isa_name(isa) +
                   " pool=" + (kernel_pool != nullptr ? "yes" : "no"));
      gnn.set_kernel_pool(kernel_pool);
      KernelCalls matmul = kernel_calls("matmul");
      KernelCalls spmm = kernel_calls("spmm");
      gnn.embed_into(c.a_hat, c.inv_sqrt, c.features, embeddings);
      expect_calls("matmul", matmul, 1, isa);
      expect_calls("spmm", spmm, 3, isa);

      matmul = kernel_calls("matmul");
      spmm = kernel_calls("spmm");
      model.score_nodes_into(embeddings, scores);
      expect_calls("matmul", matmul, 1, isa);
      expect_calls("spmm", spmm, 0, isa);
    }
  }
  gnn.set_kernel_pool(nullptr);
  obs::set_metrics_enabled(was_enabled);
}

// The two clamps, pinned directly: the GCN epilogue keeps -0.0 and NaN,
// relu_value maps both to +0.0.
TEST(FusedOracle, GcnClampAndThetaReluDifferOnNegativeZeroAndNaN) {
  Rng rng(1);
  GcnLayer layer(2, 4, rng);
  for (Parameter* p : layer.parameters()) {
    if (p->value.rows() == 1) p->value.fill(-0.0);
  }
  double row[4] = {-0.0, kNaN, -1.0, 2.0};
  layer.finish_row(row);
  EXPECT_TRUE(std::signbit(row[0]) && row[0] == 0.0);
  EXPECT_TRUE(std::isnan(row[1]));
  EXPECT_EQ(row[2], 0.0);
  EXPECT_EQ(row[3], 2.0);

  EXPECT_FALSE(std::signbit(relu_value(-0.0)));
  EXPECT_EQ(relu_value(-0.0), 0.0);
  EXPECT_EQ(relu_value(kNaN), 0.0);
  EXPECT_FALSE(std::signbit(relu_value(kNaN)));
}

}  // namespace
}  // namespace cfgx
