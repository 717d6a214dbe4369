// bf16 inference battery (DESIGN.md decision 14).
//
// Numeric layer: float_to_bf16 is round-to-nearest-even on the top 16 bits
// of the fp32 pattern — representable values round-trip bitwise, rounding
// is monotone, NaNs are quieted instead of decaying to Inf. Kernel layer:
// the bf16 matmul accumulates in fp32 via correctly rounded fmas in
// ascending-k order on BOTH ISAs, so scalar and AVX2 results are
// bit-identical (unlike the fp64 kernels, where FMA contraction makes the
// ISAs differ within a documented bound). Model layer: serving Phi at bf16
// must keep predictions within the accuracy-delta gate and keep the top-k
// explanation ranking essentially unchanged — the conditions under which
// the serve engine is allowed to flip ServeConfig::precision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <vector>

#include "core/explainer_model.hpp"
#include "dataset/generator.hpp"
#include "gnn/classifier.hpp"
#include "nn/matrix16.hpp"
#include "nn/serialize.hpp"
#include "nn/simd.hpp"
#include "proptest/generators.hpp"
#include "proptest/proptest.hpp"

namespace cfgx {
namespace {

using proptest::check_property;
using proptest::debug_string;
using proptest::Gen;

bool is_nan_pattern(std::uint16_t bits) {
  return (bits & 0x7F80u) == 0x7F80u && (bits & 0x007Fu) != 0;
}

TEST(Bf16Numeric, RepresentableValuesRoundTripBitwise) {
  CHECK_PROPERTY(
      "float_to_bf16(bf16_to_float(x)) == x for non-NaN patterns",
      proptest::integers(0, 0xFFFF),
      [](std::int64_t pattern) {
        const auto bits = static_cast<std::uint16_t>(pattern);
        if (is_nan_pattern(bits)) return true;  // covered separately
        return float_to_bf16(bf16_to_float(bits)) == bits;
      },
      {.iterations = 400});
}

TEST(Bf16Numeric, SpecialValues) {
  EXPECT_EQ(float_to_bf16(0.0f), 0x0000u);
  EXPECT_EQ(float_to_bf16(-0.0f), 0x8000u);
  EXPECT_EQ(float_to_bf16(1.0f), 0x3F80u);
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bf16_to_float(float_to_bf16(inf)), inf);
  EXPECT_EQ(bf16_to_float(float_to_bf16(-inf)), -inf);
  // Finite magnitudes above the largest bf16 finite saturate to Inf (the
  // correct RNE result), never to a garbage finite.
  EXPECT_EQ(bf16_to_float(float_to_bf16(3.5e38f)), inf);
  // NaN stays NaN after the payload truncation (quieting bit forced).
  EXPECT_TRUE(std::isnan(bf16_to_float(
      float_to_bf16(std::numeric_limits<float>::quiet_NaN()))));
  EXPECT_TRUE(std::isnan(bf16_to_float(
      float_to_bf16(std::numeric_limits<float>::signaling_NaN()))));
}

TEST(Bf16Numeric, RoundingIsMonotone) {
  CHECK_PROPERTY(
      "x <= y implies widen(pack(x)) <= widen(pack(y))",
      proptest::pairs(proptest::doubles(-1e30, 1e30),
                      proptest::doubles(-1e30, 1e30)),
      [](const std::pair<double, double>& p) {
        float x = static_cast<float>(p.first);
        float y = static_cast<float>(p.second);
        if (x > y) std::swap(x, y);
        return bf16_to_float(float_to_bf16(x)) <=
               bf16_to_float(float_to_bf16(y));
      },
      {.iterations = 300});
}

TEST(Bf16Numeric, RoundsToNearestEven) {
  // 1.0 + 2^-8 sits exactly between bf16 neighbours 1.0 (even mantissa)
  // and 1 + 2^-7; ties go to even.
  EXPECT_EQ(float_to_bf16(1.0f + 0x1p-8f), float_to_bf16(1.0f));
  // Just above the midpoint rounds up.
  EXPECT_EQ(float_to_bf16(1.0f + 0x1p-8f + 0x1p-16f),
            float_to_bf16(1.0f + 0x1p-7f));
  // The next representable's midpoint has an odd lower neighbour; ties
  // round up to the even 1 + 2^-6.
  EXPECT_EQ(float_to_bf16(1.0f + 0x1p-7f + 0x1p-8f),
            float_to_bf16(1.0f + 0x1p-6f));
}

TEST(Bf16Numeric, PackUnpackRoundTripsRepresentableMatrices) {
  CHECK_PROPERTY(
      "pack(unpack(M16)) == M16",
      proptest::matrices(12, 12, 2.0),
      [](const Matrix& m) {
        Matrix16 packed = Matrix16::pack(m);
        Matrix16 repacked = Matrix16::pack(packed.unpack());
        return packed == repacked;
      },
      {.iterations = 80});
}

TEST(Bf16Numeric, SerializeRoundTripAndTruncationError) {
  Rng rng(11);
  Matrix source(5, 7);
  for (std::size_t i = 0; i < source.size(); ++i) {
    source.data()[i] = rng.uniform(-4.0, 4.0);
  }
  const Matrix16 packed = Matrix16::pack(source);
  std::stringstream buffer;
  write_matrix16(buffer, packed);
  EXPECT_TRUE(read_matrix16(buffer) == packed);

  std::stringstream truncated(buffer.str().substr(0, 24));
  EXPECT_THROW(read_matrix16(truncated), SerializationError);
}

// --- kernel layer ---

bool bit_identical(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct Bf16Case {
  Matrix a;
  Matrix16 w;
};

std::string debug_string(const Bf16Case& value) {
  return "A = " + debug_string(value.a) +
         "\nW(unpacked) = " + debug_string(value.w.unpack());
}

Gen<Bf16Case> bf16_cases(std::size_t max_dim) {
  Gen<Bf16Case> gen;
  gen.generate = [max_dim](Rng& rng) {
    const auto dim = [&](void) -> std::size_t {
      std::size_t d = 1 + rng.uniform_index(max_dim);
      if (rng.bernoulli(0.5)) d |= 1;  // odd sizes stress the remainders
      return d;
    };
    const std::size_t m = dim();
    const std::size_t k = rng.bernoulli(0.3) ? 1 + rng.uniform_index(3) : dim();
    const std::size_t n = dim();
    Matrix a(m, k), w(k, n);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a.data()[i] = rng.uniform(-2.0, 2.0);
    }
    for (std::size_t i = 0; i < w.size(); ++i) {
      w.data()[i] = rng.uniform(-2.0, 2.0);
    }
    return Bf16Case{std::move(a), Matrix16::pack(w)};
  };
  return gen;
}

TEST(Bf16Kernels, BitIdenticalAcrossIsas) {
  if (!simd::avx2_supported()) {
    GTEST_SKIP() << "AVX2+FMA unavailable on this host/build";
  }
  CHECK_PROPERTY(
      "bf16 matmul: scalar and AVX2 produce the same bits",
      bf16_cases(48),
      [](const Bf16Case& c) {
        Matrix scalar_out, avx2_out;
        {
          simd::ScopedIsa isa(simd::Isa::Scalar);
          matmul_bf16_into(c.a, c.w, scalar_out);
        }
        {
          simd::ScopedIsa isa(simd::Isa::Avx2);
          matmul_bf16_into(c.a, c.w, avx2_out);
        }
        return bit_identical(scalar_out, avx2_out);
      },
      {.iterations = 60});
}

// The fused GCN pass runs the bf16 row kernel over gathered live rows
// only: live rows must match the full kernel bit for bit and rows it never
// visits must stay exactly +0.0.
TEST(Bf16Kernels, LiveRowsMatchFullKernelAndZeroDeadRows) {
  CHECK_PROPERTY(
      "bf16 live-rows: live rows bit-identical, dead rows exactly zero",
      bf16_cases(24),
      [](const Bf16Case& c) {
        Matrix full;
        matmul_bf16_into(c.a, c.w, full);
        std::vector<double> live(c.a.rows(), 1.0);
        for (std::size_t i = 0; i < live.size(); i += 2) live[i] = 0.0;
        Matrix masked(full.rows(), full.cols());
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (live[i] != 0.0) {
            detail::matmul_bf16_rows_dispatch(c.a, c.w, masked, i, i + 1);
          }
        }
        for (std::size_t i = 0; i < full.rows(); ++i) {
          for (std::size_t j = 0; j < full.cols(); ++j) {
            const double want = live[i] != 0.0 ? full(i, j) : 0.0;
            if (std::memcmp(&masked(i, j), &want, sizeof want) != 0) {
              return false;
            }
          }
        }
        // The whole row range is the full kernel.
        Matrix all_rows(full.rows(), full.cols());
        detail::matmul_bf16_rows_dispatch(c.a, c.w, all_rows, 0, c.a.rows());
        return bit_identical(all_rows, full);
      },
      {.iterations = 40});
}

TEST(Bf16Kernels, WrapperMatchesIntoAndValidatesShapes) {
  Rng rng(3);
  Matrix a(3, 4);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.uniform(-1, 1);
  Matrix w(4, 5);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = rng.uniform(-1, 1);
  const Matrix16 packed = Matrix16::pack(w);
  Matrix out;
  matmul_bf16_into(a, packed, out);
  EXPECT_TRUE(bit_identical(out, matmul_bf16(a, packed)));
  EXPECT_THROW(matmul_bf16(w, packed), std::invalid_argument);
}

TEST(Bf16Kernels, PrecisionNamesParse) {
  EXPECT_EQ(parse_precision("fp64"), Precision::Fp64);
  EXPECT_EQ(parse_precision("bf16"), Precision::Bf16);
  EXPECT_STREQ(precision_name(Precision::Fp64), "fp64");
  EXPECT_STREQ(precision_name(Precision::Bf16), "bf16");
  EXPECT_THROW(parse_precision("fp32"), std::invalid_argument);
  EXPECT_THROW(parse_precision(""), std::invalid_argument);
}

// --- model layer: the gate that justifies serving Phi at bf16 ---

std::vector<std::size_t> top_k_by_score(const Matrix& scores, std::size_t k) {
  std::vector<std::size_t> order(scores.rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scores(a, 0) > scores(b, 0);
                   });
  order.resize(std::min(k, order.size()));
  return order;
}

TEST(Bf16EndToEnd, AccuracyDeltaWithinGateAndTopKStable) {
  Rng rng(20260808);
  GnnConfig config;
  config.gcn_dims = {16, 12, 8};
  const GnnClassifier fp64(config, rng);
  GnnClassifier bf16 = fp64.clone();
  bf16.set_precision(Precision::Bf16);
  ASSERT_EQ(bf16.precision(), Precision::Bf16);
  ASSERT_EQ(fp64.precision(), Precision::Fp64);

  ExplainerModelConfig explainer_config;
  explainer_config.embedding_dim = config.embedding_dim();
  explainer_config.num_classes = config.num_classes;
  ExplainerModel explainer(explainer_config, rng);

  constexpr std::size_t kGraphs = 24;
  constexpr std::size_t kTop = 5;
  std::size_t class_agreements = 0;
  double max_prob_delta = 0.0;
  std::size_t topk_overlap = 0;
  std::size_t topk_total = 0;

  Rng graph_rng(777);
  for (std::size_t g = 0; g < kGraphs; ++g) {
    const Acfg graph =
        generate_acfg(static_cast<Family>(g % kFamilyCount), graph_rng);
    const Matrix adjacency = graph.dense_adjacency();
    const Matrix features = graph.features();

    const Prediction p64 = fp64.predict_masked(adjacency, features);
    const Prediction p16 = bf16.predict_masked(adjacency, features);
    class_agreements += p64.predicted_class == p16.predicted_class ? 1 : 0;
    for (std::size_t c = 0; c < p64.probabilities.cols(); ++c) {
      max_prob_delta =
          std::max(max_prob_delta, std::abs(p64.probabilities(0, c) -
                                            p16.probabilities(0, c)));
    }

    // Explanation stability: CFGExplainer scores nodes from the
    // embeddings; the bf16 embeddings must keep (most of) the same top-k.
    const Matrix scores64 =
        explainer.score_nodes(fp64.embed(adjacency, features));
    const Matrix scores16 =
        explainer.score_nodes(bf16.embed(adjacency, features));
    const std::size_t k = std::min<std::size_t>(kTop, scores64.rows());
    const auto top64 = top_k_by_score(scores64, k);
    const auto top16 = top_k_by_score(scores16, k);
    for (std::size_t node : top16) {
      topk_overlap +=
          std::count(top64.begin(), top64.end(), node) > 0 ? 1 : 0;
    }
    topk_total += k;
  }

  // Accuracy-delta gate: |acc_fp64 - acc_bf16| <= eps with the fp64
  // prediction as the label, i.e. the class may flip on at most eps of the
  // corpus. bf16 carries ~2^-8 relative weight error through 3 GCN layers;
  // flips happen only on near-ties.
  constexpr std::size_t kMaxClassFlips = 1;  // eps = 1/24 ~ 4.2%
  EXPECT_GE(class_agreements, kGraphs - kMaxClassFlips);
  EXPECT_LE(max_prob_delta, 0.08);
  // Top-k explanation agreement: >= 90% of top-5 slots preserved overall.
  EXPECT_GE(static_cast<double>(topk_overlap),
            0.9 * static_cast<double>(topk_total));
}

TEST(Bf16EndToEnd, CloneAndSetPrecisionAreConsistent) {
  Rng rng(5);
  GnnConfig config;
  config.gcn_dims = {8, 6};
  GnnClassifier model(config, rng);
  model.set_precision(Precision::Bf16);

  Rng graph_rng(9);
  const Acfg graph = generate_acfg(Family::Rbot, graph_rng);
  const Prediction original = model.predict(graph);

  // clone() preserves the precision setting and its packed weights.
  const GnnClassifier copy = model.clone();
  EXPECT_EQ(copy.precision(), Precision::Bf16);
  const Prediction cloned = copy.predict(graph);
  EXPECT_EQ(original.predicted_class, cloned.predicted_class);
  EXPECT_TRUE(bit_identical(original.probabilities, cloned.probabilities));

  // Flipping back restores the fp64 reference path exactly (the master
  // weights were never touched by the bf16 packing).
  model.set_precision(Precision::Fp64);
  const GnnClassifier fp64_twin = [] {
    Rng twin_rng(5);
    GnnConfig twin_config;
    twin_config.gcn_dims = {8, 6};
    return GnnClassifier(twin_config, twin_rng);
  }();
  const Prediction back = model.predict(graph);
  const Prediction twin = fp64_twin.predict(graph);
  EXPECT_TRUE(bit_identical(back.probabilities, twin.probabilities));
}

}  // namespace
}  // namespace cfgx
