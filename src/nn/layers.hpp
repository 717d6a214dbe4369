// Neural-network layer modules with hand-derived backpropagation.
//
// Every module maps a [batch, in] matrix to a [batch, out] matrix. forward()
// caches whatever backward() needs; backward() consumes dLoss/dOutput and
// returns dLoss/dInput, accumulating dLoss/dParameter into Parameter::grad.
// Gradients are *accumulated* (+=) so shared modules can be driven several
// times per step; call zero_grad() between optimizer steps. Inference does
// not run through modules: Theta_s runs the Dense layers a tile at a time
// (ExplainerModel::score_nodes_into), reading their parameters only.
//
// The exact gradients here are verified against central finite differences
// in tests/nn/gradcheck_test.cpp.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace cfgx {

// A trainable tensor and its gradient accumulator.
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;

  Parameter(std::string name_, Matrix value_)
      : name(std::move(name_)),
        value(std::move(value_)),
        grad(value.rows(), value.cols()) {}

  void zero_grad() { grad.set_zero(); }
};

class Module {
 public:
  virtual ~Module() = default;

  virtual Matrix forward(const Matrix& input) = 0;
  virtual Matrix backward(const Matrix& grad_output) = 0;

  // Trainable parameters (may be empty for activations).
  virtual std::vector<Parameter*> parameters() { return {}; }

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }
};

// Fully connected layer: Y = X W + 1 b  (W: [in, out], b: [1, out]).
class Dense : public Module {
 public:
  // Xavier/Glorot-uniform initialization for W, zeros for b.
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng,
        std::string name = "dense");

  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }

  std::size_t in_features() const { return weight_.value.rows(); }
  std::size_t out_features() const { return weight_.value.cols(); }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }

 private:
  Parameter weight_;
  Parameter bias_;
  Matrix cached_input_;
};

// The activations Relu and Sigmoid (and the tiled Theta_s pass) apply.
// relu_value is x > 0 ? x : +0.0, so it maps -0.0 and NaN to +0.0, unlike
// the GCN clamp (GcnLayer::finish_row). The bit mask avoids a branch on the
// sign, which would mispredict about every other element.
inline double relu_value(double x) {
  const std::uint64_t positive = x > 0.0 ? ~std::uint64_t{0} : 0;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) & positive);
}

inline double sigmoid_value(double x) {
  // Numerically stable in both tails.
  return x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                  : std::exp(x) / (1.0 + std::exp(x));
}

// Elementwise max(0, x).
class Relu : public Module {
 public:
  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;

 private:
  Matrix cached_input_;
};

// Elementwise logistic sigmoid.
class Sigmoid : public Module {
 public:
  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;

 private:
  Matrix cached_output_;
};

// Row-wise softmax with the standard max-subtraction stabilization.
// backward() implements the full softmax Jacobian-vector product.
class SoftmaxRows : public Module {
 public:
  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;

 private:
  Matrix cached_output_;
};

// Ordered composition of modules.
class Sequential : public Module {
 public:
  Sequential() = default;

  Sequential& add(std::unique_ptr<Module> module) {
    modules_.push_back(std::move(module));
    return *this;
  }

  template <typename M, typename... Args>
  Sequential& emplace(Args&&... args) {
    modules_.push_back(std::make_unique<M>(std::forward<Args>(args)...));
    return *this;
  }

  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;
  std::vector<Parameter*> parameters() override;

  std::size_t module_count() const { return modules_.size(); }
  Module& module(std::size_t i) { return *modules_.at(i); }
  const Module& module(std::size_t i) const { return *modules_.at(i); }

 private:
  std::vector<std::unique_ptr<Module>> modules_;
};

// Glorot-uniform initialization: U(-sqrt(6/(fan_in+fan_out)), +...).
Matrix glorot_uniform(std::size_t fan_in, std::size_t fan_out, Rng& rng);

}  // namespace cfgx
