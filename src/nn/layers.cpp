#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

namespace cfgx {
Matrix glorot_uniform(std::size_t fan_in, std::size_t fan_out, Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  Matrix out(fan_in, fan_out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = rng.uniform(-limit, limit);
  }
  return out;
}

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng,
             std::string name)
    : weight_(name + ".W", glorot_uniform(in_features, out_features, rng)),
      bias_(name + ".b", Matrix(1, out_features)) {}

Matrix Dense::forward(const Matrix& input) {
  cached_input_ = input;  // copy-assign reuses the cache's capacity
  Matrix out;
  matmul_into(input, weight_.value, out);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) += bias_.value(0, c);
  }
  return out;
}

Matrix Dense::backward(const Matrix& grad_output) {
  // dL/dW = X^T G, dL/db = sum_rows(G), dL/dX = G W^T.
  weight_.grad += matmul_transpose_a(cached_input_, grad_output);
  bias_.grad += grad_output.col_sums();
  return matmul_transpose_b(grad_output, weight_.value);
}

Matrix Relu::forward(const Matrix& input) {
  cached_input_ = input;
  Matrix out = input;
  out.apply(relu_value);
  return out;
}

Matrix Relu::backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (cached_input_.data()[i] <= 0.0) grad.data()[i] = 0.0;
  }
  return grad;
}

Matrix Sigmoid::forward(const Matrix& input) {
  Matrix out = input;
  out.apply(sigmoid_value);
  cached_output_ = out;
  return out;
}

Matrix Sigmoid::backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const double s = cached_output_.data()[i];
    grad.data()[i] *= s * (1.0 - s);
  }
  return grad;
}

Matrix SoftmaxRows::forward(const Matrix& input) {
  Matrix out = input;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    auto row = out.row(r);
    const double m = *std::max_element(row.begin(), row.end());
    double denom = 0.0;
    for (double& v : row) {
      v = std::exp(v - m);
      denom += v;
    }
    for (double& v : row) v /= denom;
  }
  cached_output_ = out;
  return out;
}

Matrix SoftmaxRows::backward(const Matrix& grad_output) {
  // For each row: dL/dx_i = s_i * (g_i - sum_j g_j s_j).
  Matrix grad(grad_output.rows(), grad_output.cols());
  for (std::size_t r = 0; r < grad.rows(); ++r) {
    double dot = 0.0;
    for (std::size_t c = 0; c < grad.cols(); ++c) {
      dot += grad_output(r, c) * cached_output_(r, c);
    }
    for (std::size_t c = 0; c < grad.cols(); ++c) {
      grad(r, c) = cached_output_(r, c) * (grad_output(r, c) - dot);
    }
  }
  return grad;
}

Matrix Sequential::forward(const Matrix& input) {
  Matrix current = input;
  for (auto& module : modules_) current = module->forward(current);
  return current;
}

Matrix Sequential::backward(const Matrix& grad_output) {
  Matrix current = grad_output;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
    current = (*it)->backward(current);
  }
  return current;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> out;
  for (auto& module : modules_) {
    for (Parameter* p : module->parameters()) out.push_back(p);
  }
  return out;
}

}  // namespace cfgx
