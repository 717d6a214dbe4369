#include "support/gcn_reference.hpp"

#include <algorithm>

#include "nn/layers.hpp"

namespace cfgx {
namespace {

void zero_dead_rows(Matrix& m, const std::vector<char>& dead) {
  for (std::size_t i = 0; i < dead.size(); ++i) {
    if (dead[i]) std::fill_n(m.data() + i * m.cols(), m.cols(), 0.0);
  }
}

}  // namespace

GcnLayerTrace reference_gcn_forward(const GcnLayer& layer,
                                    const CsrMatrix& a_hat, const Matrix& h,
                                    const std::vector<char>& dead,
                                    ThreadPool* pool) {
  const auto params = const_cast<GcnLayer&>(layer).parameters();
  const Matrix& bias = params[1]->value;
  GcnLayerTrace trace;
  trace.h = h;
  zero_dead_rows(trace.h, dead);
  trace.hw = matmul(trace.h, params[0]->value);
  zero_dead_rows(trace.hw, dead);
  spmm_into(a_hat, trace.hw, trace.pre, pool);
  for (std::size_t r = 0; r < trace.pre.rows(); ++r) {
    for (std::size_t c = 0; c < trace.pre.cols(); ++c) {
      trace.pre(r, c) += bias(0, c);
    }
  }
  zero_dead_rows(trace.pre, dead);
  trace.out = trace.pre;
  for (std::size_t i = 0; i < trace.out.size(); ++i) {
    double& v = trace.out.data()[i];
    if (v < 0.0) v = 0.0;
  }
  return trace;
}

Matrix reference_gcn_backward(GcnLayer& layer, const CsrMatrix& a_hat,
                              const GcnLayerTrace& trace,
                              const Matrix& grad_output, ThreadPool* pool,
                              std::vector<double>* grad_a_hat) {
  Parameter& weight = *layer.parameters()[0];
  Parameter& bias = *layer.parameters()[1];
  // dP = dZ .* 1[P > 0]
  Matrix grad_pre = grad_output;
  for (std::size_t i = 0; i < grad_pre.size(); ++i) {
    if (trace.pre.data()[i] <= 0.0) grad_pre.data()[i] = 0.0;
  }
  bias.grad += grad_pre.col_sums();
  // d(HW) = A_hat^T dP;  dW = H^T d(HW);  dH = d(HW) W^T;
  // dA = dP (HW)^T at the stored entries of A_hat.
  Matrix grad_hw;
  spmm_transpose_a_into(a_hat, grad_pre, grad_hw, pool);
  weight.grad += matmul_transpose_a(trace.h, grad_hw);
  if (grad_a_hat != nullptr) {
    sddmm_accumulate(a_hat, grad_pre, trace.hw, *grad_a_hat, pool);
  }
  return matmul_transpose_b(grad_hw, weight.value);
}

ReferenceStep reference_training_step(GnnClassifier& model,
                                      const CsrMatrix& a_hat,
                                      const std::vector<double>& inv_sqrt,
                                      const Matrix& raw_features,
                                      const Matrix& grad_logits,
                                      bool want_adjacency_grad,
                                      ThreadPool* pool) {
  const GnnConfig& config = model.config();
  const std::vector<Parameter*> params = model.parameters();
  const std::size_t n = raw_features.rows();
  const std::size_t layers = config.gcn_dims.size();
  const std::size_t f = config.embedding_dim();

  // Fresh layers holding copies of the model's parameters, gradients zero.
  Rng rng(0);
  std::vector<GcnLayer> gcn;
  std::size_t in = config.feature_dim;
  for (std::size_t l = 0; l < layers; ++l) {
    gcn.emplace_back(in, config.gcn_dims[l], rng);
    gcn.back().parameters()[0]->value = params[2 * l]->value;
    gcn.back().parameters()[1]->value = params[2 * l + 1]->value;
    in = config.gcn_dims[l];
  }
  Dense readout(params[2 * layers]->value.rows(), config.num_classes, rng);
  readout.weight().value = params[2 * layers]->value;
  readout.bias().value = params[2 * layers + 1]->value;

  std::vector<char> dead(n);
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < n; ++i) {
    dead[i] = inv_sqrt[i] == 0.0;
    if (inv_sqrt[i] > 0.0) active.push_back(i);
  }
  std::vector<GcnLayerTrace> traces;
  Matrix h = model.scaler().fitted() ? model.scaler().transform(raw_features)
                                     : raw_features;
  for (std::size_t l = 0; l < layers; ++l) {
    traces.push_back(reference_gcn_forward(gcn[l], a_hat, h, dead, pool));
    h = traces.back().out;
  }

  // Readout over the active rows: their mean, or SortPool's top-k rows by
  // descending row sum (ties by index), zero-padded.
  std::vector<std::size_t> selection;
  Matrix pooled;
  if (config.readout == ReadoutKind::MeanPool) {
    pooled = Matrix(1, f);
    for (std::size_t i : active) {
      for (std::size_t c = 0; c < f; ++c) pooled(0, c) += h(i, c);
    }
    pooled *= 1.0 / static_cast<double>(std::max<std::size_t>(1, active.size()));
  } else {
    std::vector<double> score(n, 0.0);
    for (std::size_t i : active) {
      for (std::size_t c = 0; c < f; ++c) score[i] += h(i, c);
    }
    selection = active;
    std::stable_sort(selection.begin(), selection.end(),
                     [&](std::size_t a, std::size_t b) {
                       return score[a] > score[b];
                     });
    selection.resize(std::min(selection.size(), config.sortpool_k));
    pooled = Matrix(1, config.sortpool_k * f);
    for (std::size_t slot = 0; slot < selection.size(); ++slot) {
      for (std::size_t c = 0; c < f; ++c) {
        pooled(0, slot * f + c) = h(selection[slot], c);
      }
    }
  }
  ReferenceStep step;
  step.logits = readout.forward(pooled);

  const Matrix grad_pooled = readout.backward(grad_logits);
  Matrix grad_h(n, f);
  if (config.readout == ReadoutKind::MeanPool) {
    const double inv_n =
        1.0 / static_cast<double>(std::max<std::size_t>(1, active.size()));
    for (std::size_t i : active) {
      for (std::size_t c = 0; c < f; ++c) grad_h(i, c) = grad_pooled(0, c) * inv_n;
    }
  } else {
    for (std::size_t slot = 0; slot < selection.size(); ++slot) {
      for (std::size_t c = 0; c < f; ++c) {
        grad_h(selection[slot], c) = grad_pooled(0, slot * f + c);
      }
    }
  }
  std::vector<double> grad_a_hat(want_adjacency_grad ? a_hat.nnz() : 0, 0.0);
  for (std::size_t l = layers; l-- > 0;) {
    grad_h = reference_gcn_backward(gcn[l], a_hat, traces[l], grad_h, pool,
                                    want_adjacency_grad ? &grad_a_hat : nullptr);
  }
  step.grad_scaled_features = grad_h;
  if (want_adjacency_grad) {
    // dL/dA_ij = c_i c_j (G_ij + G_ji), G_ji read at the mirror slot.
    const std::vector<std::size_t> mirror = transpose_slots(a_hat);
    step.grad_adjacency.resize(grad_a_hat.size());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t p = a_hat.row_ptr()[i]; p < a_hat.row_ptr()[i + 1]; ++p) {
        const double c = inv_sqrt[i] * inv_sqrt[a_hat.col_idx()[p]];
        step.grad_adjacency[p] = c * (grad_a_hat[p] + grad_a_hat[mirror[p]]);
      }
    }
  }
  for (GcnLayer& layer : gcn) {
    for (Parameter* p : layer.parameters()) step.grads.push_back(p->grad);
  }
  for (Parameter* p : readout.parameters()) step.grads.push_back(p->grad);
  return step;
}

}  // namespace cfgx
