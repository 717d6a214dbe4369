// Binary (de)serialization for matrices and named parameter sets.
//
// Format (little-endian, as produced by the host):
//   matrix  := u64 rows | u64 cols | f64 data[rows*cols]
//   archive := magic "CFGXW001" | u64 count | count * (string name | matrix)
//   string  := u64 length | bytes
//
// Deserialization validates the magic, lengths and stream health, and
// throws SerializationError on any malformed input (exercised by the
// failure-injection tests).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "nn/matrix.hpp"

namespace cfgx {

class SerializationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Bytes left between the stream's read position and its end, or nullopt for
// non-seekable streams. Readers use it to validate a declared count/length
// against the bytes actually present BEFORE allocating, so a corrupted
// header throws SerializationError instead of attempting a huge resize.
std::optional<std::uint64_t> stream_bytes_remaining(std::istream& in);

void write_matrix(std::ostream& out, const Matrix& matrix);
Matrix read_matrix(std::istream& in);

void write_string(std::ostream& out, const std::string& value);
std::string read_string(std::istream& in);

// Writes parameter values (not gradients) keyed by Parameter::name.
void save_parameters(std::ostream& out, const std::vector<Parameter*>& params);
void save_parameters_file(const std::string& path,
                          const std::vector<Parameter*>& params);

// Loads values into matching parameters; throws if a name is missing or a
// shape disagrees. Extra names in the archive are an error too (a loaded
// checkpoint must describe exactly this model).
void load_parameters(std::istream& in, const std::vector<Parameter*>& params);
void load_parameters_file(const std::string& path,
                          const std::vector<Parameter*>& params);

}  // namespace cfgx
