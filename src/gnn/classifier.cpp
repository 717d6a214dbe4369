#include "gnn/classifier.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "graph/ops.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "nn/tiles.hpp"
#include "nn/workspace.hpp"

namespace cfgx {
namespace {

constexpr char kCheckpointMagic[] = "CFGXM002";
constexpr std::size_t kMagicLen = 8;

void write_u64(std::ostream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw SerializationError("GnnClassifier: truncated checkpoint");
  return value;
}

}  // namespace

GnnClassifier::GnnClassifier(GnnConfig config, Rng& rng)
    : config_(std::move(config)) {
  if (config_.gcn_dims.empty()) {
    throw std::invalid_argument("GnnClassifier: need at least one GCN layer");
  }
  std::size_t in_dim = config_.feature_dim;
  for (std::size_t i = 0; i < config_.gcn_dims.size(); ++i) {
    gcn_layers_.emplace_back(in_dim, config_.gcn_dims[i], rng,
                             "phi_e.gcn" + std::to_string(i));
    in_dim = config_.gcn_dims[i];
  }
  if (config_.readout == ReadoutKind::SortPool && config_.sortpool_k == 0) {
    throw std::invalid_argument("GnnClassifier: sortpool_k must be > 0");
  }
  const std::size_t readout_in =
      config_.readout == ReadoutKind::SortPool
          ? config_.sortpool_k * config_.embedding_dim()
          : config_.embedding_dim();
  readout_ = std::make_unique<Dense>(readout_in, config_.num_classes, rng,
                                     "phi_c.readout");
}

std::vector<std::size_t> GnnClassifier::sortpool_selection(
    const Matrix& embeddings, const std::vector<char>* active) const {
  std::vector<std::size_t> candidates;
  candidates.reserve(embeddings.rows());
  for (std::size_t i = 0; i < embeddings.rows(); ++i) {
    if (active != nullptr && !(*active)[i]) continue;
    candidates.push_back(i);
  }
  std::vector<double> score(embeddings.rows(), 0.0);
  for (std::size_t i : candidates) {
    for (std::size_t c = 0; c < embeddings.cols(); ++c) {
      score[i] += embeddings(i, c);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](std::size_t a, std::size_t b) {
                     return score[a] > score[b];
                   });
  if (candidates.size() > config_.sortpool_k) {
    candidates.resize(config_.sortpool_k);
  }
  return candidates;
}

Matrix GnnClassifier::readout_input(const Matrix& embeddings,
                                    std::size_t active_count,
                                    const std::vector<char>* active,
                                    std::vector<std::size_t>* selection_out) const {
  if (config_.readout == ReadoutKind::MeanPool) {
    if (selection_out != nullptr) selection_out->clear();
    if (active == nullptr) return pool(embeddings, active_count);
    // Cached path: sum active rows only (inactive rows carry the bias chain).
    Matrix pooled(1, embeddings.cols());
    for (std::size_t i = 0; i < embeddings.rows(); ++i) {
      if (!(*active)[i]) continue;
      for (std::size_t c = 0; c < embeddings.cols(); ++c) {
        pooled(0, c) += embeddings(i, c);
      }
    }
    pooled *= 1.0 / static_cast<double>(std::max<std::size_t>(1, active_count));
    return pooled;
  }
  // SortPool: concatenate the top-k rows into [1, k*f]; zero-pad the tail.
  const auto selection = sortpool_selection(embeddings, active);
  if (selection_out != nullptr) *selection_out = selection;
  const std::size_t f = embeddings.cols();
  Matrix flat(1, config_.sortpool_k * f);
  for (std::size_t slot = 0; slot < selection.size(); ++slot) {
    for (std::size_t c = 0; c < f; ++c) {
      flat(0, slot * f + c) = embeddings(selection[slot], c);
    }
  }
  return flat;
}

Matrix GnnClassifier::pool(const Matrix& embeddings,
                           std::size_t active_count) const {
  // Mean over the ACTIVE nodes: a subgraph's readout is driven by the
  // content of its surviving blocks, so masked-subgraph predictions do not
  // collapse toward the bias prior as nodes are pruned (DESIGN.md
  // decision 2).
  Matrix pooled = embeddings.col_sums();
  pooled *= 1.0 / static_cast<double>(std::max<std::size_t>(1, active_count));
  return pooled;
}

Matrix GnnClassifier::embed(const Acfg& graph) const {
  // Activity (self-loop policy) is judged on the RAW features: a pruned or
  // padded node has an all-zero raw row; scaling happens afterwards.
  const MaskedNormalizedAdjacency frozen(graph);
  Matrix out;
  embed_into(frozen.a_hat(), frozen.inv_sqrt_degree(), graph.features(), out);
  return out;
}

void GnnClassifier::embed_into(const CsrMatrix& a_hat,
                               const std::vector<double>& inv_sqrt,
                               const Matrix& raw_features, Matrix& out) const {
  const std::size_t n = raw_features.rows();
  if (a_hat.rows() != n || a_hat.cols() != n || inv_sqrt.size() != n) {
    throw std::invalid_argument("GnnClassifier::embed_into: node count mismatch");
  }
  if (raw_features.cols() != gcn_layers_.front().in_features() ||
      (scaler_.fitted() && scaler_.mean().size() != raw_features.cols())) {
    throw std::invalid_argument("GnnClassifier::embed_into: feature width mismatch");
  }
  // Only live rows (inv_sqrt != 0) are computed. A dead row reaches live
  // rows only through coefficients that are exactly 0.0, against H*W rows
  // left at the lease's +0.0, so skipping it changes no live bit; its own
  // embedding row keeps the reshape's +0.0. Pool workers reach the calling
  // thread's list through `live` (a thread_local named inside the lambdas
  // would be each worker's own).
  thread_local std::vector<std::size_t> live_rows;
  std::vector<std::size_t>& live = live_rows;
  live.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (inv_sqrt[i] != 0.0) live.push_back(i);
  }
  std::size_t widest = raw_features.cols();
  for (const GcnLayer& layer : gcn_layers_) {
    widest = std::max(widest, layer.out_features());
  }
  const std::size_t tile = tile_rows(widest);
  const std::size_t tiles = (live.size() + tile - 1) / tile;

  // Pass s builds each tile of live rows from the scaled features (s == 0)
  // or as layer s-1's aggregate (spmm row of its H*W, + b, clamp), then
  // writes layer s's combine of the tile into layer s's H*W buffer; the
  // last pass writes the tile itself into the embeddings.
  Workspace& workspace = Workspace::local();
  std::optional<Workspace::Lease> hw;
  out.reshape(n, gcn_layers_.back().out_features());
  for (std::size_t s = 0; s <= gcn_layers_.size(); ++s) {
    const GcnLayer* aggregated = s > 0 ? &gcn_layers_[s - 1] : nullptr;
    const GcnLayer* combined = s < gcn_layers_.size() ? &gcn_layers_[s] : nullptr;
    std::optional<Workspace::Lease> next_hw;
    if (combined != nullptr) {
      next_hw.emplace(workspace.acquire(n, combined->out_features()));
    }
    Matrix& dst = combined != nullptr ? next_hw->get() : out;
    const KernelCall call(aggregated != nullptr ? Kernel::Spmm
                                                : Kernel::Matmul);
    const auto run_tile = [&](std::size_t first, std::size_t rows) {
      Matrix& h = tile_buffer(0, rows,
                              aggregated != nullptr ? aggregated->out_features()
                                                    : raw_features.cols());
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t i = live[first + r];
        double* row = h.data() + r * h.cols();
        if (aggregated != nullptr) {
          detail::spmm_row_dispatch(a_hat, i, hw->get(), row);
          aggregated->finish_row(row);
        } else if (scaler_.fitted()) {
          scaler_.transform_row(raw_features.data() + i * h.cols(), row);
        } else {
          std::copy_n(raw_features.data() + i * h.cols(), h.cols(), row);
        }
      }
      const Matrix* result = &h;
      if (combined != nullptr) {
        Matrix& product = tile_buffer(1, rows, dst.cols());
        combined->combine_rows(h, product, rows);
        result = &product;
      }
      for (std::size_t r = 0; r < rows; ++r) {
        std::copy_n(result->data() + r * dst.cols(), dst.cols(),
                    dst.data() + live[first + r] * dst.cols());
      }
    };
    parallel_ranges(kernel_pool_, tiles, [&](std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t) {
        run_tile(t * tile, std::min(tile, live.size() - t * tile));
      }
    });
    if (next_hw) hw = std::move(next_hw);
  }
}

Matrix GnnClassifier::class_logits(const Matrix& embeddings,
                                   std::size_t active_count) const {
  if (active_count == 0) {
    for (std::size_t i = 0; i < embeddings.rows(); ++i) {
      for (std::size_t c = 0; c < embeddings.cols(); ++c) {
        if (embeddings(i, c) != 0.0) {
          ++active_count;
          break;
        }
      }
    }
  }
  // Cache-free dense readout.
  const Matrix pooled =
      readout_input(embeddings, active_count, nullptr, nullptr);
  Matrix logits = matmul(pooled, readout_->weight().value);
  for (std::size_t c = 0; c < logits.cols(); ++c) {
    logits(0, c) += readout_->bias().value(0, c);
  }
  return logits;
}

Prediction GnnClassifier::predict(const Acfg& graph) const {
  // MaskedNormalizedAdjacency(graph) is bit-identical to the dense
  // normalization (see ops.hpp), and the non-zero inv_sqrt count IS the
  // active-node count under the self-loop policy.
  const MaskedNormalizedAdjacency frozen(graph);
  Matrix embeddings;
  embed_into(frozen.a_hat(), frozen.inv_sqrt_degree(), graph.features(),
             embeddings);
  std::size_t active = 0;
  for (double v : frozen.inv_sqrt_degree()) {
    if (v != 0.0) ++active;
  }
  Prediction prediction;
  prediction.probabilities = softmax_rows(class_logits(embeddings, active));
  prediction.predicted_class = argmax_rows(prediction.probabilities)[0];
  return prediction;
}

Matrix GnnClassifier::forward_cached(const CsrMatrix& a_hat,
                                     const std::vector<double>& inv_sqrt,
                                     const Matrix& raw_features) {
  const std::size_t n = raw_features.rows();
  if (a_hat.rows() != n || a_hat.cols() != n || inv_sqrt.size() != n) {
    throw std::invalid_argument(
        "GnnClassifier::forward_cached: node count mismatch");
  }
  cached_a_hat_ = a_hat;
  cached_inv_sqrt_ = inv_sqrt;
  cached_num_nodes_ = n;
  cached_active_.assign(cached_num_nodes_, 0);
  cached_active_count_ = 0;
  for (std::size_t i = 0; i < cached_num_nodes_; ++i) {
    if (inv_sqrt[i] > 0.0) {
      cached_active_[i] = 1;
      ++cached_active_count_;
    }
  }

  Matrix h = scaler_.fitted() ? scaler_.transform(raw_features) : raw_features;
  for (GcnLayer& layer : gcn_layers_) {
    h = layer.forward(cached_a_hat_, h, kernel_pool_);
  }
  cached_embeddings_ = h;

  // Readout over the active rows only (inactive rows hold the propagated
  // bias constant and must not leak into the readout).
  const Matrix pooled = readout_input(h, cached_active_count_, &cached_active_,
                                      &cached_selection_);
  return readout_->forward(pooled);
}

GnnClassifier::BackwardResult GnnClassifier::backward_cached(
    const Matrix& grad_logits, bool want_adjacency_grad) {
  if (cached_num_nodes_ == 0) {
    throw std::logic_error("GnnClassifier::backward_cached before forward_cached");
  }
  const Matrix grad_pooled = readout_->backward(grad_logits);

  Matrix grad_h(cached_num_nodes_, config_.embedding_dim());
  if (config_.readout == ReadoutKind::MeanPool) {
    // pool backward: every ACTIVE row receives grad_pooled / active_count.
    const double inv_n = 1.0 / static_cast<double>(
                                   std::max<std::size_t>(1, cached_active_count_));
    for (std::size_t r = 0; r < grad_h.rows(); ++r) {
      if (!cached_active_[r]) continue;
      for (std::size_t c = 0; c < grad_h.cols(); ++c) {
        grad_h(r, c) = grad_pooled(0, c) * inv_n;
      }
    }
  } else {
    // SortPool backward: slot i routes to the selected node (the selection
    // permutation is treated as constant, the standard DGCNN convention).
    const std::size_t f = config_.embedding_dim();
    for (std::size_t slot = 0; slot < cached_selection_.size(); ++slot) {
      const std::size_t node = cached_selection_[slot];
      for (std::size_t c = 0; c < f; ++c) {
        grad_h(node, c) = grad_pooled(0, slot * f + c);
      }
    }
  }

  std::vector<double> grad_a_hat;
  if (want_adjacency_grad) grad_a_hat.assign(cached_a_hat_.nnz(), 0.0);
  for (auto it = gcn_layers_.rbegin(); it != gcn_layers_.rend(); ++it) {
    grad_h = it->backward(grad_h, want_adjacency_grad ? &grad_a_hat : nullptr);
  }

  BackwardResult result;
  result.grad_scaled_features = grad_h;  // after the full layer chain
  if (want_adjacency_grad) {
    // Chain through A_hat_ij = c_i c_j (A_ij + A_ji + I_ij) with the
    // normalization coefficients treated as constants:
    //   dL/dA_ij = c_i c_j (G_ij + G_ji), G_ji read at the mirror slot.
    const std::vector<std::size_t> mirror = transpose_slots(cached_a_hat_);
    const auto& row_ptr = cached_a_hat_.row_ptr();
    const auto& col_idx = cached_a_hat_.col_idx();
    result.grad_adjacency.resize(grad_a_hat.size());
    for (std::size_t i = 0; i < cached_num_nodes_; ++i) {
      for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        const double c = cached_inv_sqrt_[i] * cached_inv_sqrt_[col_idx[p]];
        result.grad_adjacency[p] = c * (grad_a_hat[p] + grad_a_hat[mirror[p]]);
      }
    }
  }
  return result;
}

std::vector<Parameter*> GnnClassifier::parameters() {
  std::vector<Parameter*> params;
  for (GcnLayer& layer : gcn_layers_) {
    for (Parameter* p : layer.parameters()) params.push_back(p);
  }
  for (Parameter* p : readout_->parameters()) params.push_back(p);
  return params;
}

void GnnClassifier::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

void GnnClassifier::save(std::ostream& out) const {
  out.write(kCheckpointMagic, kMagicLen);
  write_u64(out, config_.feature_dim);
  write_u64(out, config_.gcn_dims.size());
  for (std::size_t dim : config_.gcn_dims) write_u64(out, dim);
  write_u64(out, config_.num_classes);
  write_u64(out, static_cast<std::uint64_t>(config_.readout));
  write_u64(out, config_.sortpool_k);
  write_u64(out, scaler_.fitted() ? 1 : 0);
  if (scaler_.fitted()) write_matrix(out, scaler_.to_matrix());
  auto& self = const_cast<GnnClassifier&>(*this);  // parameters() is non-const
  save_parameters(out, self.parameters());
}

GnnClassifier GnnClassifier::load(std::istream& in) {
  char magic[kMagicLen] = {};
  in.read(magic, kMagicLen);
  if (!in || std::string(magic, kMagicLen) != kCheckpointMagic) {
    throw SerializationError("not a GnnClassifier checkpoint");
  }
  GnnConfig config;
  config.feature_dim = read_u64(in);
  const std::uint64_t layer_count = read_u64(in);
  if (layer_count == 0 || layer_count > 64) {
    throw SerializationError("implausible GCN layer count");
  }
  config.gcn_dims.clear();
  for (std::uint64_t i = 0; i < layer_count; ++i) {
    config.gcn_dims.push_back(read_u64(in));
  }
  config.num_classes = read_u64(in);
  const std::uint64_t readout = read_u64(in);
  if (readout > 1) throw SerializationError("invalid readout kind");
  config.readout = static_cast<ReadoutKind>(readout);
  config.sortpool_k = read_u64(in);

  Rng rng(0);  // weights are immediately overwritten
  GnnClassifier model(config, rng);
  if (read_u64(in) == 1) {
    model.scaler_ = FeatureScaler::from_matrix(read_matrix(in));
  }
  load_parameters(in, model.parameters());
  return model;
}

GnnClassifier GnnClassifier::clone() const {
  std::stringstream buffer;
  save(buffer);
  return load(buffer);
}

void GnnClassifier::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw SerializationError("cannot open '" + path + "' for writing");
  save(out);
}

GnnClassifier GnnClassifier::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SerializationError("cannot open '" + path + "' for reading");
  return load(in);
}

}  // namespace cfgx
