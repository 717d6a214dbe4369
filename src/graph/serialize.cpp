#include "graph/serialize.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

namespace cfgx {
namespace {

constexpr char kGraphMagic[] = "CFGXG001";
constexpr std::size_t kMagicLen = 8;
constexpr std::uint32_t kMaxNodes = 1u << 22;
constexpr std::uint64_t kMaxGraphs = 1u << 20;

template <typename T>
void write_pod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw SerializationError("unexpected end of stream reading graph field");
  return value;
}

// Declared-count guard: throws when a seekable stream demonstrably holds
// fewer than `needed` bytes (corrupted count headers otherwise trigger a
// huge reserve/resize before any read fails).
void require_bytes(std::istream& in, std::uint64_t needed, const char* what) {
  const auto remaining = stream_bytes_remaining(in);
  if (remaining && *remaining < needed) {
    throw SerializationError(std::string(what) +
                             " exceeds the bytes remaining in the stream");
  }
}

// On-wire sizes used by the count guards.
constexpr std::uint64_t kEdgeBytes = 9;    // u32 src + u32 dst + u8 kind
constexpr std::uint64_t kMinGraphBytes =   // empty graph, empty family
    4 + 4 + 16 + 4 + 8 + 4;

}  // namespace

void write_acfg(std::ostream& out, const Acfg& graph) {
  write_pod<std::uint32_t>(out, graph.num_nodes());
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(graph.num_edges()));
  for (const Edge& e : graph.edges()) {
    write_pod<std::uint32_t>(out, e.src);
    write_pod<std::uint32_t>(out, e.dst);
    write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(e.kind));
  }
  write_matrix(out, graph.features());
  write_pod<std::int32_t>(out, graph.label());
  write_string(out, graph.family());
  write_pod<std::uint32_t>(out,
                           static_cast<std::uint32_t>(graph.planted_nodes().size()));
  for (std::uint32_t node : graph.planted_nodes()) write_pod(out, node);
}

Acfg read_acfg(std::istream& in) try {
  const auto num_nodes = read_pod<std::uint32_t>(in);
  if (num_nodes > kMaxNodes) {
    throw SerializationError("graph node count implausibly large");
  }
  const auto num_edges = read_pod<std::uint32_t>(in);
  if (num_edges > kMaxNodes * 8u) {
    throw SerializationError("graph edge count implausibly large");
  }
  require_bytes(in, std::uint64_t{num_edges} * kEdgeBytes, "graph edge list");
  require_bytes(in, std::uint64_t{num_nodes} * kAcfgFeatureCount * sizeof(double),
                "graph feature matrix");

  Acfg graph(num_nodes, kAcfgFeatureCount);
  for (std::uint32_t i = 0; i < num_edges; ++i) {
    const auto src = read_pod<std::uint32_t>(in);
    const auto dst = read_pod<std::uint32_t>(in);
    const auto kind = read_pod<std::uint8_t>(in);
    if (kind != static_cast<std::uint8_t>(EdgeKind::Flow) &&
        kind != static_cast<std::uint8_t>(EdgeKind::Call)) {
      throw SerializationError("invalid edge kind in graph");
    }
    if (src >= num_nodes || dst >= num_nodes) {
      throw SerializationError("edge endpoint out of range in graph");
    }
    graph.add_edge(src, dst, static_cast<EdgeKind>(kind));
  }

  Matrix features = read_matrix(in);
  if (features.rows() != num_nodes) {
    throw SerializationError("feature matrix row count != node count");
  }
  if (features.cols() != kAcfgFeatureCount) {
    throw SerializationError("feature matrix width != ACFG feature count");
  }
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (!std::isfinite(features.data()[i])) {
      throw SerializationError("non-finite feature value in graph");
    }
  }
  graph.features() = std::move(features);

  graph.set_label(read_pod<std::int32_t>(in));
  graph.set_family(read_string(in));

  const auto plant_count = read_pod<std::uint32_t>(in);
  if (plant_count > num_nodes) {
    throw SerializationError("plant count exceeds node count");
  }
  for (std::uint32_t i = 0; i < plant_count; ++i) {
    graph.mark_planted(read_pod<std::uint32_t>(in));
  }
  graph.validate();
  return graph;
} catch (const SerializationError&) {
  throw;
} catch (const std::exception& e) {
  // Graph-construction rejections (duplicate edges, out-of-range plants,
  // broken invariants) surface as std::invalid_argument / std::logic_error;
  // a malformed byte stream is a serialization problem, so callers see one
  // exception type regardless of which layer rejected the input.
  throw SerializationError(std::string("invalid graph in archive: ") + e.what());
}

void write_acfg_collection(std::ostream& out, const std::vector<Acfg>& graphs) {
  out.write(kGraphMagic, kMagicLen);
  write_pod<std::uint64_t>(out, graphs.size());
  for (const Acfg& graph : graphs) write_acfg(out, graph);
  if (!out) throw SerializationError("write failure while saving graphs");
}

std::vector<Acfg> read_acfg_collection(std::istream& in) {
  char magic[kMagicLen] = {};
  in.read(magic, kMagicLen);
  if (!in || std::string(magic, kMagicLen) != kGraphMagic) {
    throw SerializationError("bad magic: not a CFGX graph archive");
  }
  const auto count = read_pod<std::uint64_t>(in);
  if (count > kMaxGraphs) throw SerializationError("graph count implausibly large");
  require_bytes(in, count * kMinGraphBytes, "graph collection");
  std::vector<Acfg> graphs;
  graphs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) graphs.push_back(read_acfg(in));
  return graphs;
}

void save_acfg_collection_file(const std::string& path,
                               const std::vector<Acfg>& graphs) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw SerializationError("cannot open '" + path + "' for writing");
  write_acfg_collection(out, graphs);
}

std::vector<Acfg> load_acfg_collection_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SerializationError("cannot open '" + path + "' for reading");
  return read_acfg_collection(in);
}

}  // namespace cfgx
