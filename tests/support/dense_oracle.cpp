#include "support/dense_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/loss.hpp"

namespace cfgx {
namespace {

// The GCN clamp: strictly negative values to +0.0, -0.0 and NaN kept.
double gcn_clamp(double x) { return x < 0.0 ? 0.0 : x; }

Matrix add_bias(Matrix m, const Matrix& bias) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) += bias(0, c);
  }
  return m;
}

}  // namespace

Matrix dense_adjacency(const Acfg& graph) {
  return dense_adjacency(graph, std::vector<double>(graph.num_edges(), 1.0));
}

Matrix dense_adjacency(const Acfg& graph, const std::vector<double>& gates) {
  if (gates.size() != graph.num_edges()) {
    throw std::invalid_argument("dense_adjacency: one gate per edge");
  }
  Matrix a(graph.num_nodes(), graph.num_nodes());
  const auto& edges = graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    double& entry = a(edges[e].src, edges[e].dst);
    entry = std::max(entry, edges[e].weight() * gates[e]);
  }
  return a;
}

Matrix normalized_adjacency(const Matrix& adjacency, const Matrix* features) {
  std::vector<double> unused;
  return normalized_adjacency(adjacency, unused, features);
}

Matrix normalized_adjacency(const Matrix& adjacency,
                            std::vector<double>& inv_sqrt_degree_out,
                            const Matrix* features) {
  if (adjacency.rows() != adjacency.cols()) {
    throw std::invalid_argument("normalized_adjacency: matrix must be square");
  }
  const std::size_t n = adjacency.rows();
  if (features != nullptr && features->rows() != n) {
    throw std::invalid_argument(
        "normalized_adjacency: feature/adjacency row mismatch");
  }

  // S = A + A^T; a node is active (and gets a self-loop) when it has an
  // incident edge or a non-zero feature row.
  Matrix s(n, n);
  std::vector<char> active(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double v = adjacency(i, j) + adjacency(j, i);
      s(i, j) = v;
      if (v != 0.0) {
        active[i] = 1;
        active[j] = 1;
      }
    }
  }
  if (features != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      if (active[i]) continue;
      for (std::size_t c = 0; c < features->cols(); ++c) {
        if ((*features)(i, c) != 0.0) {
          active[i] = 1;
          break;
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (active[i]) s(i, i) += 1.0;
  }

  std::vector<double> inv_sqrt_degree(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double degree = 0.0;
    for (std::size_t j = 0; j < n; ++j) degree += s(i, j);
    if (degree > 0.0) inv_sqrt_degree[i] = 1.0 / std::sqrt(degree);
  }

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      s(i, j) *= inv_sqrt_degree[i] * inv_sqrt_degree[j];
    }
  }
  inv_sqrt_degree_out = std::move(inv_sqrt_degree);
  return s;
}

CsrMatrix normalized_adjacency_csr(const Matrix& adjacency,
                                   const Matrix* features) {
  std::vector<double> unused;
  return normalized_adjacency_csr(adjacency, unused, features);
}

CsrMatrix normalized_adjacency_csr(const Matrix& adjacency,
                                   std::vector<double>& inv_sqrt_degree,
                                   const Matrix* features) {
  return CsrMatrix::from_dense(
      normalized_adjacency(adjacency, inv_sqrt_degree, features));
}

FrozenNormalization frozen_normalization(const Matrix& adjacency,
                                         const Matrix& features) {
  FrozenNormalization out;
  const Matrix a_hat =
      normalized_adjacency(adjacency, out.inv_sqrt_degree, &features);
  const std::size_t n = adjacency.rows();
  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || adjacency(i, j) + adjacency(j, i) != 0.0) {
        col_idx.push_back(static_cast<std::uint32_t>(j));
        values.push_back(a_hat(i, j));
      }
    }
    row_ptr[i + 1] = col_idx.size();
  }
  out.a_hat = CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                        std::move(values));
  return out;
}

CsrMatrix full_csr(const Matrix& dense) {
  std::vector<std::size_t> row_ptr(dense.rows() + 1, 0);
  std::vector<std::uint32_t> col_idx;
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      col_idx.push_back(static_cast<std::uint32_t>(j));
    }
    row_ptr[i + 1] = col_idx.size();
  }
  return CsrMatrix(dense.rows(), dense.cols(), std::move(row_ptr),
                   std::move(col_idx),
                   std::vector<double>(dense.data(), dense.data() + dense.size()));
}

std::size_t count_active_nodes(const Matrix& adjacency, const Matrix& features) {
  if (adjacency.rows() != adjacency.cols() ||
      adjacency.rows() != features.rows()) {
    throw std::invalid_argument("count_active_nodes: shape mismatch");
  }
  const std::size_t n = adjacency.rows();
  std::size_t active = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bool is_active = false;
    for (std::size_t j = 0; j < n && !is_active; ++j) {
      if (adjacency(i, j) != 0.0 || adjacency(j, i) != 0.0) is_active = true;
    }
    for (std::size_t c = 0; c < features.cols() && !is_active; ++c) {
      if (features(i, c) != 0.0) is_active = true;
    }
    if (is_active) ++active;
  }
  return active;
}

void mask_node(Matrix& adjacency, Matrix& features, std::uint32_t node) {
  if (node >= adjacency.rows() || adjacency.rows() != adjacency.cols()) {
    throw std::out_of_range("mask_node: node out of range");
  }
  if (features.rows() != adjacency.rows()) {
    throw std::invalid_argument("mask_node: feature/adjacency row mismatch");
  }
  for (std::size_t j = 0; j < adjacency.cols(); ++j) {
    adjacency(node, j) = 0.0;  // outgoing (Algorithm 2 line 17)
    adjacency(j, node) = 0.0;  // incoming (Algorithm 2 line 18)
  }
  for (std::size_t c = 0; c < features.cols(); ++c) features(node, c) = 0.0;
}

MaskedGraph keep_only(const Matrix& adjacency, const Matrix& features,
                      const std::vector<std::uint32_t>& kept) {
  MaskedGraph out{adjacency, features};
  std::vector<char> keep(adjacency.rows(), 0);
  for (std::uint32_t node : kept) {
    if (node >= adjacency.rows()) {
      throw std::out_of_range("keep_only: node out of range");
    }
    keep[node] = 1;
  }
  for (std::uint32_t node = 0; node < adjacency.rows(); ++node) {
    if (!keep[node]) mask_node(out.adjacency, out.features, node);
  }
  return out;
}

bool node_is_masked(const Matrix& adjacency, std::uint32_t node) {
  for (std::size_t j = 0; j < adjacency.cols(); ++j) {
    if (adjacency(node, j) != 0.0 || adjacency(j, node) != 0.0) return false;
  }
  return true;
}

Matrix dense_embed(const GnnClassifier& model, const Matrix& adjacency,
                   const Matrix& raw_features) {
  if (adjacency.rows() != raw_features.rows()) {
    throw std::invalid_argument("dense_embed: node count mismatch");
  }
  std::vector<double> inv_sqrt;
  const CsrMatrix a_hat =
      normalized_adjacency_csr(adjacency, inv_sqrt, &raw_features);
  Matrix out;
  model.embed_into(a_hat, inv_sqrt, raw_features, out);
  return out;
}

Prediction predict_masked(const GnnClassifier& model, const Matrix& adjacency,
                          const Matrix& raw_features) {
  Prediction prediction;
  prediction.probabilities = softmax_rows(
      model.class_logits(dense_embed(model, adjacency, raw_features),
                         count_active_nodes(adjacency, raw_features)));
  prediction.predicted_class = argmax_rows(prediction.probabilities)[0];
  return prediction;
}

Matrix forward_cached_dense(GnnClassifier& model, const Matrix& adjacency,
                            const Matrix& raw_features) {
  std::vector<double> inv_sqrt;
  const CsrMatrix a_hat =
      normalized_adjacency_csr(adjacency, inv_sqrt, &raw_features);
  return model.forward_cached(a_hat, inv_sqrt, raw_features);
}

Matrix dense_infer(const GcnLayer& layer, const Matrix& a_hat,
                   const Matrix& h) {
  const auto params = const_cast<GcnLayer&>(layer).parameters();
  Matrix out = add_bias(matmul(a_hat, matmul(h, params[0]->value)),
                        params[1]->value);
  return out.apply(gcn_clamp);
}

DenseBackward dense_backward_reference(GnnClassifier& model,
                                       const Matrix& adjacency,
                                       const Matrix& raw_features,
                                       std::size_t target) {
  if (model.config().readout != ReadoutKind::MeanPool) {
    throw std::invalid_argument("dense_backward_reference: MeanPool only");
  }
  const std::size_t n = adjacency.rows();
  std::vector<double> inv_sqrt;
  const Matrix a_hat = normalized_adjacency(adjacency, inv_sqrt, &raw_features);
  const auto params = model.parameters();  // per layer W, b; then readout
  const std::size_t layers = model.config().gcn_dims.size();

  // Forward, caching H, HW and the pre-activations per layer.
  std::vector<Matrix> hw(layers), pre(layers);
  Matrix h = model.scaler().fitted() ? model.scaler().transform(raw_features)
                                     : raw_features;
  for (std::size_t l = 0; l < layers; ++l) {
    hw[l] = matmul(h, params[2 * l]->value);
    pre[l] = add_bias(matmul(a_hat, hw[l]), params[2 * l + 1]->value);
    h = pre[l];
    h.apply(gcn_clamp);
  }
  std::size_t active = 0;
  for (double c : inv_sqrt) active += c > 0.0 ? 1 : 0;
  Matrix pooled(1, h.cols());
  for (std::size_t i = 0; i < n; ++i) {
    if (inv_sqrt[i] <= 0.0) continue;
    for (std::size_t c = 0; c < h.cols(); ++c) pooled(0, c) += h(i, c);
  }
  pooled *= 1.0 / static_cast<double>(std::max<std::size_t>(1, active));
  const Matrix& readout_w = params[2 * layers]->value;
  DenseBackward result;
  result.logits =
      add_bias(matmul(pooled, readout_w), params[2 * layers + 1]->value);

  // Backward to the per-layer dLoss/dA_hat sum G.
  const LossResult loss = softmax_cross_entropy(result.logits, {target});
  const Matrix grad_pooled = matmul_transpose_b(loss.grad, readout_w);
  const double inv_n =
      1.0 / static_cast<double>(std::max<std::size_t>(1, active));
  Matrix grad_h(n, h.cols());
  for (std::size_t i = 0; i < n; ++i) {
    if (inv_sqrt[i] <= 0.0) continue;
    for (std::size_t c = 0; c < h.cols(); ++c) {
      grad_h(i, c) = grad_pooled(0, c) * inv_n;
    }
  }
  Matrix g(n, n);
  for (std::size_t l = layers; l-- > 0;) {
    Matrix grad_pre = grad_h;
    for (std::size_t k = 0; k < grad_pre.size(); ++k) {
      if (pre[l].data()[k] <= 0.0) grad_pre.data()[k] = 0.0;
    }
    const Matrix grad_hw = matmul_transpose_a(a_hat, grad_pre);
    g += matmul_transpose_b(grad_pre, hw[l]);
    grad_h = matmul_transpose_b(grad_hw, params[2 * l]->value);
  }
  result.grad_adjacency = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double c = inv_sqrt[i] * inv_sqrt[j];
      result.grad_adjacency(i, j) = c * (g(i, j) + g(j, i));
    }
  }
  return result;
}

}  // namespace cfgx
