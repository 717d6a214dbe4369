#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>

namespace cfgx {
namespace {

constexpr char kMagic[] = "CFGXW001";
constexpr std::size_t kMagicLen = 8;
// Upper bounds that keep a corrupted length field from triggering a huge
// allocation before the stream read fails.
constexpr std::uint64_t kMaxDim = 1ull << 24;
constexpr std::uint64_t kMaxStringLen = 1ull << 16;
constexpr std::uint64_t kMaxEntries = 1ull << 16;

void write_u64(std::ostream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw SerializationError("unexpected end of stream reading u64");
  return value;
}

// Throws when the stream is seekable and demonstrably holds fewer than
// `needed` bytes (`what` names the field for the error message). A
// non-seekable stream falls back to the read-then-check path.
void require_bytes(std::istream& in, std::uint64_t needed, const char* what) {
  const auto remaining = stream_bytes_remaining(in);
  if (remaining && *remaining < needed) {
    throw SerializationError(std::string(what) +
                             " exceeds the bytes remaining in the stream");
  }
}

}  // namespace

std::optional<std::uint64_t> stream_bytes_remaining(std::istream& in) {
  const std::istream::pos_type current = in.tellg();
  if (current == std::istream::pos_type(-1)) {
    in.clear(in.rdstate() & ~std::ios::failbit);
    return std::nullopt;
  }
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(current);
  if (end == std::istream::pos_type(-1) || end < current) return std::nullopt;
  return static_cast<std::uint64_t>(end - current);
}

void write_matrix(std::ostream& out, const Matrix& matrix) {
  write_u64(out, matrix.rows());
  write_u64(out, matrix.cols());
  out.write(reinterpret_cast<const char*>(matrix.data()),
            static_cast<std::streamsize>(matrix.size() * sizeof(double)));
}

Matrix read_matrix(std::istream& in) {
  const std::uint64_t rows = read_u64(in);
  const std::uint64_t cols = read_u64(in);
  if (rows > kMaxDim || cols > kMaxDim) {
    throw SerializationError("matrix dimensions implausibly large");
  }
  // Per-dimension caps still admit a 2^48-element product; check the
  // declared payload against the stream before allocating.
  require_bytes(in, rows * cols * sizeof(double), "matrix payload");
  Matrix out(rows, cols);
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(out.size() * sizeof(double)));
  if (!in) throw SerializationError("unexpected end of stream reading matrix data");
  return out;
}

void write_string(std::ostream& out, const std::string& value) {
  write_u64(out, value.size());
  out.write(value.data(), static_cast<std::streamsize>(value.size()));
}

std::string read_string(std::istream& in) {
  const std::uint64_t length = read_u64(in);
  if (length > kMaxStringLen) {
    throw SerializationError("string length implausibly large");
  }
  require_bytes(in, length, "string payload");
  std::string value(length, '\0');
  in.read(value.data(), static_cast<std::streamsize>(length));
  if (!in) throw SerializationError("unexpected end of stream reading string");
  return value;
}

void save_parameters(std::ostream& out, const std::vector<Parameter*>& params) {
  out.write(kMagic, kMagicLen);
  write_u64(out, params.size());
  for (const Parameter* p : params) {
    write_string(out, p->name);
    write_matrix(out, p->value);
  }
  if (!out) throw SerializationError("write failure while saving parameters");
}

void load_parameters(std::istream& in, const std::vector<Parameter*>& params) {
  char magic[kMagicLen] = {};
  in.read(magic, kMagicLen);
  if (!in || std::string(magic, kMagicLen) != kMagic) {
    throw SerializationError("bad magic: not a CFGX weight archive");
  }
  const std::uint64_t count = read_u64(in);
  if (count > kMaxEntries) throw SerializationError("entry count implausibly large");
  // Each entry needs at least a string header + matrix header (24 bytes).
  require_bytes(in, count * 24, "parameter entries");

  std::map<std::string, Matrix> loaded;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name = read_string(in);
    Matrix value = read_matrix(in);
    if (!loaded.emplace(std::move(name), std::move(value)).second) {
      throw SerializationError("duplicate parameter name in archive");
    }
  }

  if (loaded.size() != params.size()) {
    throw SerializationError("archive has " + std::to_string(loaded.size()) +
                             " parameters, model expects " +
                             std::to_string(params.size()));
  }
  for (Parameter* p : params) {
    const auto it = loaded.find(p->name);
    if (it == loaded.end()) {
      throw SerializationError("archive missing parameter '" + p->name + "'");
    }
    if (!it->second.same_shape(p->value)) {
      throw SerializationError("shape mismatch for parameter '" + p->name + "'");
    }
    p->value = std::move(it->second);
  }
}

void save_parameters_file(const std::string& path,
                          const std::vector<Parameter*>& params) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw SerializationError("cannot open '" + path + "' for writing");
  save_parameters(out, params);
}

void load_parameters_file(const std::string& path,
                          const std::vector<Parameter*>& params) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SerializationError("cannot open '" + path + "' for reading");
  load_parameters(in, params);
}

}  // namespace cfgx
