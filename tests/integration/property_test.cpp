// Cross-module property tests: Algorithm-2 invariants over every family,
// serialization robustness under random corruption, and end-to-end
// determinism of the data pipeline.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/interpreter.hpp"
#include "dataset/corpus.hpp"
#include "gnn/classifier.hpp"
#include "graph/ops.hpp"
#include "graph/serialize.hpp"
#include "isa/lifter.hpp"
#include "proptest/fuzz.hpp"
#include "proptest/proptest.hpp"
#include "support/dense_oracle.hpp"

namespace cfgx {
namespace {

// ---------- Algorithm-2 invariants over every family ----------

class InterpretationInvariants : public ::testing::TestWithParam<Family> {
 protected:
  InterpretationInvariants()
      : rng_(static_cast<std::uint64_t>(GetParam()) * 101 + 5),
        gnn_([this] {
          GnnConfig config;
          config.gcn_dims = {10, 8};
          return GnnClassifier(config, rng_);
        }()),
        theta_([this] {
          ExplainerModelConfig config;
          config.embedding_dim = 8;
          config.num_classes = kFamilyCount;
          return ExplainerModel(config, rng_);
        }()),
        graph_(generate_acfg(GetParam(), rng_)) {}

  Rng rng_;
  GnnClassifier gnn_;
  ExplainerModel theta_;
  Acfg graph_;
};

TEST_P(InterpretationInvariants, OrderingIsPermutation) {
  Interpreter interpreter(theta_, gnn_);
  const Interpretation result = interpreter.interpret(graph_);
  std::set<std::uint32_t> unique(result.ordered_nodes.begin(),
                                 result.ordered_nodes.end());
  EXPECT_EQ(unique.size(), graph_.num_nodes());
}

TEST_P(InterpretationInvariants, SubgraphsNestedAndMonotone) {
  Interpreter interpreter(theta_, gnn_);
  const Interpretation result = interpreter.interpret(graph_);
  for (std::size_t k = 1; k < result.subgraph_nodes.size(); ++k) {
    EXPECT_GT(result.subgraph_nodes[k].size(),
              result.subgraph_nodes[k - 1].size() - 1);  // non-decreasing
    std::set<std::uint32_t> larger(result.subgraph_nodes[k].begin(),
                                   result.subgraph_nodes[k].end());
    for (std::uint32_t v : result.subgraph_nodes[k - 1]) {
      ASSERT_TRUE(larger.count(v));
    }
  }
}

TEST_P(InterpretationInvariants, MaskedEvaluationMatchesKeptSets) {
  // keep_only of the k-th node set must leave exactly those nodes unmasked
  // among nodes that had any connectivity or features.
  Interpreter interpreter(theta_, gnn_);
  const Interpretation result = interpreter.interpret(graph_);
  const Matrix adjacency = dense_adjacency(graph_);
  const auto& kept = result.subgraph_nodes.front();
  const MaskedGraph masked = keep_only(adjacency, graph_.features(), kept);
  const std::set<std::uint32_t> kept_set(kept.begin(), kept.end());
  for (std::uint32_t v = 0; v < graph_.num_nodes(); ++v) {
    if (!kept_set.count(v)) {
      EXPECT_TRUE(node_is_masked(masked.adjacency, v));
      for (std::size_t c = 0; c < masked.features.cols(); ++c) {
        EXPECT_DOUBLE_EQ(masked.features(v, c), 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, InterpretationInvariants,
                         ::testing::ValuesIn(kAllFamilies),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---------- serialization robustness under random corruption ----------

std::string family_archive_bytes(Family family, std::uint64_t seed) {
  Rng rng(seed);
  const Acfg graph = generate_acfg(family, rng);
  std::stringstream buffer;
  write_acfg_collection(buffer, {graph});
  return buffer.str();
}

TEST(CorruptionResistance, GraphArchiveHonorsTheReaderContract) {
  // Structure-aware mutational fuzzing over valid archives: the reader
  // must either accept the bytes (every surviving graph still validates)
  // or throw SerializationError — never crash, hang, or leak a foreign
  // exception type out of the deserializer.
  const std::vector<std::string> corpus = {
      family_archive_bytes(Family::Zlob, 1),
      family_archive_bytes(Family::Bagle, 2),
      family_archive_bytes(Family::Benign, 3),
  };
  const auto outcome = proptest::fuzz_bytes(
      corpus,
      [](const std::string& bytes) {
        std::stringstream in(bytes);
        for (const Acfg& g : read_acfg_collection(in)) g.validate();
      },
      {.iterations = 2000, .seed = 0xc0441});
  ASSERT_TRUE(outcome.passed) << outcome.report();
  EXPECT_GT(outcome.rejected, 0u);  // the mutations do reach the guards
}

TEST(CorruptionResistance, TruncationAlwaysThrows) {
  const std::string bytes = family_archive_bytes(Family::Bagle, 0x5555);
  CHECK_PROPERTY(
      "any strict prefix of an archive is rejected",
      proptest::sizes(8, bytes.size() - 1), [&bytes](std::size_t keep) {
        std::stringstream in(bytes.substr(0, keep));
        try {
          read_acfg_collection(in);
          return false;  // a truncated archive must not parse
        } catch (const SerializationError&) {
          return true;
        }
      },
      {.iterations = 150});
}

// ---------- pipeline determinism ----------

TEST(PipelineDeterminism, CorpusGnnAndInterpretationBitStable) {
  const auto build_and_interpret = [] {
    CorpusConfig cc;
    cc.samples_per_family = 2;
    cc.seed = 77;
    const Corpus corpus = generate_corpus(cc);
    Rng rng(3);
    GnnConfig gnn_config;
    gnn_config.gcn_dims = {8, 6};
    GnnClassifier gnn(gnn_config, rng);
    ExplainerModelConfig theta_config;
    theta_config.embedding_dim = 6;
    theta_config.num_classes = kFamilyCount;
    ExplainerModel theta(theta_config, rng);
    Interpreter interpreter(theta, gnn);
    return interpreter.interpret(corpus.graph(5)).ordered_nodes;
  };
  EXPECT_EQ(build_and_interpret(), build_and_interpret());
}

TEST(PipelineDeterminism, RegeneratedProgramsLiftIdentically) {
  CorpusConfig cc;
  cc.samples_per_family = 2;
  cc.seed = 99;
  const Corpus corpus = generate_corpus(cc);
  for (std::size_t index : {std::size_t{0}, std::size_t{7}, std::size_t{20}}) {
    const GeneratedSample a = regenerate_sample(corpus, index);
    const GeneratedSample b = regenerate_sample(corpus, index);
    EXPECT_EQ(a.program.instructions(), b.program.instructions());
    const LiftedCfg cfg = lift_program(a.program);
    EXPECT_EQ(cfg.block_count(), corpus.graph(index).num_nodes());
  }
}

}  // namespace
}  // namespace cfgx
