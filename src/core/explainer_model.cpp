#include "core/explainer_model.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "nn/tiles.hpp"

namespace cfgx {
namespace {

constexpr char kCheckpointMagic[] = "CFGXT002";
constexpr std::size_t kMagicLen = 8;

void write_u64(std::ostream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw SerializationError("ExplainerModel: truncated checkpoint");
  return value;
}

void write_dims(std::ostream& out, const std::vector<std::size_t>& dims) {
  write_u64(out, dims.size());
  for (std::size_t d : dims) write_u64(out, d);
}

std::vector<std::size_t> read_dims(std::istream& in) {
  const std::uint64_t count = read_u64(in);
  if (count == 0 || count > 64) {
    throw SerializationError("ExplainerModel: implausible layer count");
  }
  std::vector<std::size_t> dims(count);
  for (auto& d : dims) d = read_u64(in);
  return dims;
}

// Builds an MLP stem: dense(d0) ReLU dense(d1) ReLU ... dense(dk).
// When `sigmoid_tail` the final layer is followed by Sigmoid; otherwise the
// layers end with a ReLU so a final projection can be appended.
void build_mlp(Sequential& net, std::size_t in_dim,
               const std::vector<std::size_t>& dims, bool sigmoid_tail,
               Rng& rng, const std::string& stem) {
  std::size_t current = in_dim;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    net.emplace<Dense>(current, dims[i], rng, stem + std::to_string(i));
    const bool last = i + 1 == dims.size();
    if (last && sigmoid_tail) {
      net.emplace<Sigmoid>();
    } else {
      net.emplace<Relu>();
    }
    current = dims[i];
  }
}

}  // namespace

ExplainerModel::ExplainerModel(ExplainerModelConfig config, Rng& rng)
    : config_(std::move(config)) {
  if (config_.scorer_dims.empty() || config_.scorer_dims.back() != 1) {
    throw std::invalid_argument(
        "ExplainerModel: scorer must end in a single output unit");
  }
  if (config_.surrogate_dims.empty() || config_.num_classes == 0) {
    throw std::invalid_argument("ExplainerModel: bad surrogate configuration");
  }
  build_mlp(scorer_, config_.embedding_dim, config_.scorer_dims,
            /*sigmoid_tail=*/true, rng, "theta_s.");
  build_mlp(surrogate_, config_.embedding_dim, config_.surrogate_dims,
            /*sigmoid_tail=*/false, rng, "theta_c.");
  surrogate_.emplace<Dense>(config_.surrogate_dims.back(), config_.num_classes,
                            rng, "theta_c.out");
}

Matrix ExplainerModel::pool(const Matrix& weighted) const {
  Matrix pooled = weighted.col_sums();
  pooled *= 1.0 / static_cast<double>(weighted.rows());
  return pooled;
}

void ExplainerModel::set_embedding_scale(double scale) {
  if (!(scale > 0.0)) {
    throw std::invalid_argument("ExplainerModel: embedding scale must be > 0");
  }
  embedding_scale_ = scale;
}

Matrix ExplainerModel::conditioned(const Matrix& embeddings) const {
  Matrix scaled = embeddings;
  scaled *= 1.0 / embedding_scale_;
  return scaled;
}

Matrix ExplainerModel::score_nodes(const Matrix& embeddings) const {
  Matrix out;
  score_nodes_into(embeddings, out);
  return out;
}

void ExplainerModel::score_nodes_into(const Matrix& embeddings,
                                      Matrix& out) const {
  if (embeddings.cols() != config_.embedding_dim) {
    throw std::invalid_argument("ExplainerModel::score_nodes: embedding dim mismatch");
  }
  const std::size_t n = embeddings.rows();
  const std::size_t f = embeddings.cols();
  const double inv_scale = 1.0 / embedding_scale_;
  std::size_t widest = f;
  for (std::size_t d : config_.scorer_dims) widest = std::max(widest, d);
  const std::size_t tile = tile_rows(widest);
  const KernelCall call(Kernel::Matmul);
  out.reshape(n, 1);

  // Theta_s on one tile of gathered rows: every Dense layer, its bias and
  // its activation (ReLU, then Sigmoid after the last) while the tile is
  // cache-resident; the scores go straight to their rows of `out`.
  thread_local std::vector<std::size_t> tile_ids;
  tile_ids.resize(tile);
  Matrix& x = tile_buffer(0, tile, f);
  const std::size_t layers = config_.scorer_dims.size();
  const auto score_tile = [&](std::size_t rows) {
    const Matrix* in = &x;
    for (std::size_t l = 0; l < layers; ++l) {
      // build_mlp: Dense l is module 2l, followed by its activation.
      const auto& dense = static_cast<const Dense&>(scorer_.module(2 * l));
      const bool last = l + 1 == layers;
      Matrix& y = tile_buffer(1 + l % 2, rows, dense.out_features());
      detail::matmul_rows_dispatch(*in, dense.weight().value, y, 0, rows);
      const double* bias = dense.bias().value.data();
      for (std::size_t r = 0; r < rows; ++r) {
        double* row = y.data() + r * y.cols();
        for (std::size_t c = 0; c < y.cols(); ++c) {
          const double v = row[c] + bias[c];
          row[c] = last ? sigmoid_value(v) : relu_value(v);
        }
      }
      in = &y;
    }
    for (std::size_t r = 0; r < rows; ++r) out(tile_ids[r], 0) = (*in)(r, 0);
  };

  // Kept rows: every row whose conditioned values are not all +-0, plus the
  // first all-zero row. The other zero rows (every node Algorithm 2 has
  // pruned) share that row's score (DESIGN.md decision 17).
  thread_local std::vector<std::size_t> other_zero_rows;
  other_zero_rows.clear();
  std::size_t first_zero = n;
  std::size_t rows = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* src = embeddings.data() + i * f;
    double* dst = x.data() + rows * f;
    bool zero = true;
    for (std::size_t c = 0; c < f; ++c) {
      dst[c] = src[c] * inv_scale;
      zero = zero && dst[c] == 0.0;
    }
    if (zero) {
      if (first_zero != n) {
        other_zero_rows.push_back(i);
        continue;
      }
      first_zero = i;
    }
    tile_ids[rows++] = i;
    if (rows == tile) {
      score_tile(rows);
      rows = 0;
    }
  }
  if (rows > 0) score_tile(rows);
  for (std::size_t i : other_zero_rows) out(i, 0) = out(first_zero, 0);
}

ExplainerModel ExplainerModel::clone() const {
  std::stringstream buffer;
  save(buffer);
  return load(buffer);
}

ExplainerModel::JointForward ExplainerModel::joint_forward(
    const Matrix& embeddings) {
  if (embeddings.cols() != config_.embedding_dim) {
    throw std::invalid_argument("ExplainerModel::joint_forward: embedding dim mismatch");
  }
  cached_embeddings_ = conditioned(embeddings);
  cached_scores_ = scorer_.forward(cached_embeddings_);  // [N, 1]

  cached_weighted_ = cached_embeddings_;
  for (std::size_t j = 0; j < cached_weighted_.rows(); ++j) {
    const double psi = cached_scores_(j, 0);
    for (std::size_t c = 0; c < cached_weighted_.cols(); ++c) {
      cached_weighted_(j, c) *= psi;
    }
  }

  JointForward result;
  result.scores = cached_scores_;
  // Theta_c runs row-wise over the weighted embeddings (dense layers applied
  // to the [N, f] matrix), yielding per-node class logits; the graph-level
  // distribution is the softmax of the mean node logit. This keeps a
  // per-node decision signal flowing into each Psi_j.
  const Matrix node_logits = surrogate_.forward(cached_weighted_);  // [N, C]
  result.probabilities = softmax_.forward(pool(node_logits));       // [1, C]
  return result;
}

void ExplainerModel::joint_backward(const Matrix& grad_probabilities,
                                    double score_l1_grad) {
  if (cached_embeddings_.empty()) {
    throw std::logic_error("ExplainerModel::joint_backward before joint_forward");
  }
  // Softmax -> mean-pool backward: every node's logit row receives
  // grad_pooled_logits / N.
  const Matrix grad_pooled_logits = softmax_.backward(grad_probabilities);
  const std::size_t n = cached_embeddings_.rows();
  const double inv_n = 1.0 / static_cast<double>(n);
  Matrix grad_node_logits(n, grad_pooled_logits.cols());
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t c = 0; c < grad_node_logits.cols(); ++c) {
      grad_node_logits(j, c) = grad_pooled_logits(0, c) * inv_n;
    }
  }

  // Theta_c chain down to the weighted embeddings.
  const Matrix grad_weighted = surrogate_.backward(grad_node_logits);

  // Weighting backward:
  //   dL/dPsi_j = sum_c dL/dZw[j,c] * Z[j,c]
  // (dL/dZ is not needed: the embeddings are fixed inputs).
  Matrix grad_scores(n, 1);
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cached_embeddings_.cols(); ++c) {
      acc += grad_weighted(j, c) * cached_embeddings_(j, c);
    }
    grad_scores(j, 0) = acc + score_l1_grad;
  }
  scorer_.backward(grad_scores);
}

std::vector<Parameter*> ExplainerModel::parameters() {
  std::vector<Parameter*> params = scorer_.parameters();
  for (Parameter* p : surrogate_.parameters()) params.push_back(p);
  return params;
}

void ExplainerModel::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

void ExplainerModel::save(std::ostream& out) const {
  out.write(kCheckpointMagic, kMagicLen);
  write_u64(out, config_.embedding_dim);
  write_dims(out, config_.scorer_dims);
  write_dims(out, config_.surrogate_dims);
  write_u64(out, config_.num_classes);
  out.write(reinterpret_cast<const char*>(&embedding_scale_),
            sizeof embedding_scale_);
  auto& self = const_cast<ExplainerModel&>(*this);
  save_parameters(out, self.parameters());
}

ExplainerModel ExplainerModel::load(std::istream& in) {
  char magic[kMagicLen] = {};
  in.read(magic, kMagicLen);
  if (!in || std::string(magic, kMagicLen) != kCheckpointMagic) {
    throw SerializationError("not an ExplainerModel checkpoint");
  }
  ExplainerModelConfig config;
  config.embedding_dim = read_u64(in);
  config.scorer_dims = read_dims(in);
  config.surrogate_dims = read_dims(in);
  config.num_classes = read_u64(in);
  double scale = 1.0;
  in.read(reinterpret_cast<char*>(&scale), sizeof scale);
  if (!in || !(scale > 0.0)) {
    throw SerializationError("ExplainerModel: bad embedding scale");
  }

  Rng rng(0);
  ExplainerModel model(config, rng);
  model.set_embedding_scale(scale);
  load_parameters(in, model.parameters());
  return model;
}

void ExplainerModel::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw SerializationError("cannot open '" + path + "' for writing");
  save(out);
}

ExplainerModel ExplainerModel::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SerializationError("cannot open '" + path + "' for reading");
  return load(in);
}

}  // namespace cfgx
