// Oracles for Algorithm 2's inference shortcuts (DESIGN.md decision 17).
//
//   * Scoring: score_nodes_into() runs Theta_s only over the non-zero rows
//     of Z plus the first all-zero row. It must be BIT-identical to
//     joint_forward(z).scores, which runs the cached training path over
//     every row, on matrices full of the rows that could break the
//     shortcut: +0 and -0 rows, NaN and Inf rows, subnormal rows that
//     condition to zero, N = 1 and all-zero matrices. Checked under the
//     scalar ISA and, where the host has it, AVX2.
//   * Scoring is const and cache-free: a call between joint_forward() and
//     joint_backward() leaves every gradient unchanged.
//   * Selection: select_victims() (one stable sort) must pick the same
//     victims in the same order as the min-scan + erase loop it replaced,
//     kept here as the oracle, on scores with heavy ties, NaN, +-inf, +-0.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/explainer_model.hpp"
#include "core/interpreter.hpp"
#include "nn/simd.hpp"
#include "proptest/generators.hpp"
#include "proptest/proptest.hpp"

namespace cfgx {
namespace {

using proptest::Gen;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool bit_identical(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

ExplainerModelConfig small_config() {
  ExplainerModelConfig config;
  config.embedding_dim = 12;
  config.scorer_dims = {16, 8, 1};
  config.surrogate_dims = {16, 8};
  config.num_classes = 4;
  return config;
}

// A model whose biases are non-zero too (a fresh model's are all zero), so
// a zero row's score depends on every layer. The embedding scale is above
// 1, so subnormal embeddings condition to exact zero.
ExplainerModel perturbed_model(std::uint64_t seed) {
  Rng rng(seed);
  ExplainerModel model(small_config(), rng);
  for (Parameter* p : model.parameters()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] += rng.normal(0.0, 0.3);
    }
  }
  model.set_embedding_scale(4.0);
  return model;
}

// Z with rows drawn from the kinds that stress the zero-row shortcut.
Gen<Matrix> hostile_embeddings() {
  Gen<Matrix> gen;
  gen.generate = [](Rng& rng) {
    const std::size_t f = small_config().embedding_dim;
    const std::size_t n = rng.uniform_index(4) == 0 ? 1 : 1 + rng.uniform_index(40);
    Matrix z(n, f);
    if (rng.uniform_index(8) == 0) return z;  // every row zero
    for (std::size_t i = 0; i < n; ++i) {
      double* row = z.data() + i * f;
      switch (rng.uniform_index(8)) {
        case 0: break;  // +0 row
        case 1:
          for (std::size_t c = 0; c < f; ++c) row[c] = -0.0;
          break;
        case 2:  // one NaN entry, zeros elsewhere
          row[rng.uniform_index(f)] = kNaN;
          break;
        case 3:  // Inf entries of either sign
          row[rng.uniform_index(f)] = kInf;
          row[rng.uniform_index(f)] = -kInf;
          break;
        case 4:  // subnormal: conditions to exact zero
          row[rng.uniform_index(f)] = std::numeric_limits<double>::denorm_min();
          break;
        case 5:  // a single non-zero entry
          row[rng.uniform_index(f)] = rng.normal(0.0, 1.0);
          break;
        default:  // an ordinary ReLU embedding
          for (std::size_t c = 0; c < f; ++c) {
            row[c] = std::max(0.0, rng.normal(0.3, 1.0));
          }
      }
    }
    return z;
  };
  return gen;
}

std::vector<simd::Isa> host_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::Scalar};
  if (simd::avx2_supported()) isas.push_back(simd::Isa::Avx2);
  return isas;
}

TEST(InferenceOracle, ScoreNodesIntoMatchesCachedJointForwardBitwise) {
  ExplainerModel model = perturbed_model(17);
  for (const simd::Isa isa : host_isas()) {
    simd::ScopedIsa scoped(isa);
    CHECK_PROPERTY(
        "score_nodes_into(z) == joint_forward(z).scores", hostile_embeddings(),
        [&model](const Matrix& z) {
          Matrix out(3, 3);  // stale shape and contents must not leak
          model.score_nodes_into(z, out);
          return bit_identical(out, model.joint_forward(z).scores) &&
                 bit_identical(model.score_nodes(z), out);
        },
        {.iterations = 150});
  }
}

TEST(InferenceOracle, ZeroRowsShareTheFirstZeroRowsScore) {
  const ExplainerModel model = perturbed_model(3);
  const std::size_t f = small_config().embedding_dim;
  Matrix z(5, f);
  for (std::size_t c = 0; c < f; ++c) {
    z(1, c) = 0.25 * static_cast<double>(c);
    z(3, c) = -0.0;
  }
  const Matrix psi = model.score_nodes(z);
  const Matrix one_zero_row = model.score_nodes(Matrix(1, f));
  for (const std::size_t zero_row : {0, 2, 3, 4}) {
    EXPECT_EQ(std::memcmp(psi.data() + zero_row, one_zero_row.data(),
                          sizeof(double)),
              0)
        << "row " << zero_row;
  }
}

TEST(InferenceOracle, ScoringBetweenForwardAndBackwardLeavesGradientsUnchanged) {
  const ExplainerModel base = perturbed_model(29);
  Rng rng(5);
  const Gen<Matrix> gen = hostile_embeddings();
  for (int trial = 0; trial < 20; ++trial) {
    Matrix z(1 + rng.uniform_index(30), small_config().embedding_dim);
    for (std::size_t i = 0; i < z.size(); ++i) {
      z.data()[i] = std::max(0.0, rng.normal(0.3, 1.0));
    }
    const Matrix other = gen.generate(rng);
    Matrix grad(1, small_config().num_classes);
    for (std::size_t c = 0; c < grad.cols(); ++c) grad(0, c) = rng.normal(0.0, 1.0);

    ExplainerModel reference = base.clone();
    reference.joint_forward(z);
    reference.joint_backward(grad, 0.01);

    ExplainerModel interleaved = base.clone();
    interleaved.joint_forward(z);
    Matrix scores;
    interleaved.score_nodes_into(other, scores);
    interleaved.joint_backward(grad, 0.01);

    const auto expected = reference.parameters();
    const auto actual = interleaved.parameters();
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t p = 0; p < expected.size(); ++p) {
      EXPECT_TRUE(bit_identical(expected[p]->grad, actual[p]->grad))
          << "trial " << trial << ", parameter " << expected[p]->name;
    }
  }
}

// The victim loop Algorithm 2 ran before select_victims: take the strict
// minimum of the survivors n_step times, erasing each from `remaining`.
std::vector<std::uint32_t> min_scan_erase(const Matrix& scores,
                                          std::size_t n_step,
                                          std::vector<std::uint32_t>& remaining) {
  std::vector<std::uint32_t> victims;
  for (std::size_t k = 0; k < n_step; ++k) {
    std::size_t min_pos = 0;
    double min_score = std::numeric_limits<double>::infinity();
    for (std::size_t pos = 0; pos < remaining.size(); ++pos) {
      const double score = scores(remaining[pos], 0);
      if (score < min_score) {
        min_score = score;
        min_pos = pos;
      }
    }
    victims.push_back(remaining[min_pos]);
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(min_pos));
  }
  return victims;
}

// Scores drawn from an eight-value palette, so ties are the norm.
Gen<std::vector<double>> tied_scores() {
  static const double palette[] = {0.5, 0.25, 0.0, -0.0, kInf, -kInf, kNaN,
                                   0.75};
  Gen<std::vector<double>> gen;
  gen.generate = [](Rng& rng) {
    const std::size_t n = 1 + rng.uniform_index(24);
    const std::size_t distinct = 1 + rng.uniform_index(6);
    const std::size_t offset = rng.uniform_index(8);
    std::vector<double> scores(n);
    for (double& s : scores) {
      s = palette[(offset + rng.uniform_index(distinct)) % 8];
    }
    return scores;
  };
  return gen;
}

TEST(InferenceOracle, SelectVictimsMatchesMinScanEraseLoop) {
  CHECK_PROPERTY(
      "select_victims == repeated min-scan + erase", tied_scores(),
      [](const std::vector<double>& values) {
        const auto n = static_cast<std::uint32_t>(values.size());
        const Matrix scores = Matrix::column_vector(values);
        // Every survivor set shape the interpreter produces is an
        // ascending id list: all nodes, or what earlier iterations left.
        std::vector<std::vector<std::uint32_t>> survivor_sets(2);
        for (std::uint32_t v = 0; v < n; ++v) {
          survivor_sets[0].push_back(v);
          if (v % 3 != 1) survivor_sets[1].push_back(v);
        }
        std::vector<std::uint32_t> victims;
        for (const auto& survivors : survivor_sets) {
          for (std::size_t n_step = 0; n_step <= survivors.size(); ++n_step) {
            std::vector<std::uint32_t> expected_remaining = survivors;
            const auto expected =
                min_scan_erase(scores, n_step, expected_remaining);
            std::vector<std::uint32_t> remaining = survivors;
            select_victims(scores, n_step, remaining, victims);
            if (victims != expected || remaining != expected_remaining) {
              return false;
            }
          }
        }
        return true;
      },
      {.iterations = 400});
}

}  // namespace
}  // namespace cfgx
