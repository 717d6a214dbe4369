#include "graph/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "util/rng.hpp"

namespace cfgx {
namespace {

Acfg sample_graph() {
  Acfg graph(4);
  graph.add_edge(0, 1, EdgeKind::Flow);
  graph.add_edge(1, 2, EdgeKind::Call);
  graph.add_edge(2, 3, EdgeKind::Flow);
  graph.set_label(3);
  graph.set_family("Ldpinch");
  graph.mark_planted(2);
  Rng rng(9);
  for (std::size_t i = 0; i < graph.features().size(); ++i) {
    graph.features().data()[i] = std::floor(rng.uniform(0, 10));
  }
  return graph;
}

TEST(AcfgSerializeTest, RoundTripIsExact) {
  const Acfg original = sample_graph();
  std::stringstream buffer;
  write_acfg(buffer, original);
  const Acfg restored = read_acfg(buffer);
  EXPECT_EQ(original, restored);
}

TEST(AcfgSerializeTest, EmptyEdgesRoundTrip) {
  Acfg graph(2);
  graph.set_label(0);
  std::stringstream buffer;
  write_acfg(buffer, graph);
  const Acfg restored = read_acfg(buffer);
  EXPECT_EQ(restored.num_edges(), 0u);
  EXPECT_EQ(restored.num_nodes(), 2u);
}

TEST(AcfgSerializeTest, TruncatedStreamThrows) {
  std::stringstream buffer;
  write_acfg(buffer, sample_graph());
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() - 8);
  std::stringstream truncated(bytes);
  EXPECT_THROW(read_acfg(truncated), SerializationError);
}

TEST(AcfgSerializeTest, InvalidEdgeKindThrows) {
  std::stringstream buffer;
  write_acfg(buffer, sample_graph());
  std::string bytes = buffer.str();
  // The edge kind byte of the first edge lives right after
  // num_nodes(4) + num_edges(4) + src(4) + dst(4).
  bytes[16] = 7;
  std::stringstream corrupted(bytes);
  EXPECT_THROW(read_acfg(corrupted), SerializationError);
}

// Overwrites the first feature of `graph`'s archive with `value`. The
// feature payload follows the header, the edges and the matrix's two u64
// dimensions.
std::string archive_with_first_feature(const Acfg& graph, double value) {
  std::stringstream buffer;
  write_acfg(buffer, graph);
  std::string bytes = buffer.str();
  const std::size_t offset = 4 + 4 + graph.num_edges() * 9 + 16;
  std::memcpy(bytes.data() + offset, &value, sizeof value);
  return bytes;
}

TEST(AcfgSerializeTest, WrongFeatureWidthThrows) {
  Acfg graph(2, 3);
  graph.set_label(0);
  // A long family name keeps the stream above the 12-column byte count the
  // reader checks first, so the width check itself must reject it.
  graph.set_family(std::string(256, 'x'));
  std::stringstream buffer;
  write_acfg(buffer, graph);
  EXPECT_THROW(read_acfg(buffer), SerializationError);
}

TEST(AcfgSerializeTest, NaNFeatureThrows) {
  std::stringstream corrupted(archive_with_first_feature(
      sample_graph(), std::numeric_limits<double>::quiet_NaN()));
  EXPECT_THROW(read_acfg(corrupted), SerializationError);
}

TEST(AcfgSerializeTest, InfiniteFeatureThrows) {
  std::stringstream corrupted(archive_with_first_feature(
      sample_graph(), std::numeric_limits<double>::infinity()));
  EXPECT_THROW(read_acfg(corrupted), SerializationError);
}

TEST(AcfgSerializeTest, NegativeFeatureRoundTrips) {
  std::stringstream archive(archive_with_first_feature(sample_graph(), -2.5));
  EXPECT_EQ(read_acfg(archive).features()(0, 0), -2.5);
}

TEST(CollectionSerializeTest, RoundTrip) {
  std::vector<Acfg> graphs{sample_graph(), sample_graph(), Acfg(1)};
  graphs[2].set_label(0);
  std::stringstream buffer;
  write_acfg_collection(buffer, graphs);
  const auto restored = read_acfg_collection(buffer);
  ASSERT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored[0], graphs[0]);
  EXPECT_EQ(restored[2].num_nodes(), 1u);
}

TEST(CollectionSerializeTest, EmptyCollection) {
  std::stringstream buffer;
  write_acfg_collection(buffer, {});
  EXPECT_TRUE(read_acfg_collection(buffer).empty());
}

TEST(CollectionSerializeTest, BadMagicThrows) {
  std::stringstream buffer("NOTMAGIC________");
  EXPECT_THROW(read_acfg_collection(buffer), SerializationError);
}

TEST(CollectionSerializeTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cfgx_graphs.bin";
  const std::vector<Acfg> graphs{sample_graph()};
  save_acfg_collection_file(path, graphs);
  const auto restored = load_acfg_collection_file(path);
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored[0], graphs[0]);
}

TEST(CollectionSerializeTest, MissingFileThrows) {
  EXPECT_THROW(load_acfg_collection_file("/nonexistent/graphs.bin"),
               SerializationError);
}

}  // namespace
}  // namespace cfgx
