#include "dataset/corpus.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cfgx {
namespace {

// Sample seeds are derived from (corpus seed, family, index) so each sample
// is independently reproducible.
std::uint64_t derive_sample_seed(std::uint64_t corpus_seed, Family family,
                                 std::size_t index) {
  std::uint64_t state = corpus_seed ^ (0x9e3779b97f4a7c15ULL *
                                       (static_cast<std::uint64_t>(family) + 1));
  state ^= 0xc2b2ae3d27d4eb4fULL * (static_cast<std::uint64_t>(index) + 1);
  return splitmix64(state);
}

}  // namespace

Corpus::Corpus(std::vector<Acfg> graphs, std::vector<std::uint64_t> sample_seeds,
               CorpusConfig config)
    : graphs_(std::move(graphs)),
      sample_seeds_(std::move(sample_seeds)),
      config_(config) {
  if (graphs_.size() != sample_seeds_.size()) {
    throw std::invalid_argument("Corpus: graphs/seeds size mismatch");
  }
}

std::vector<std::size_t> Corpus::indices_of(Family family) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < graphs_.size(); ++i) {
    if (graphs_[i].label() == family_label(family)) out.push_back(i);
  }
  return out;
}

Corpus generate_corpus(const CorpusConfig& config) {
  if (config.samples_per_family == 0) {
    throw std::invalid_argument("generate_corpus: samples_per_family must be > 0");
  }
  std::vector<Acfg> graphs;
  std::vector<std::uint64_t> seeds;
  graphs.reserve(kFamilyCount * config.samples_per_family);
  for (Family family : kAllFamilies) {
    for (std::size_t i = 0; i < config.samples_per_family; ++i) {
      const std::uint64_t seed = derive_sample_seed(config.seed, family, i);
      Rng rng(seed);
      graphs.push_back(generate_acfg(family, rng, config.generator));
      seeds.push_back(seed);
    }
  }
  return Corpus(std::move(graphs), std::move(seeds), config);
}

GeneratedSample regenerate_sample(const Corpus& corpus, std::size_t index) {
  const Acfg& graph = corpus.graph(index);
  Rng rng(corpus.sample_seed(index));
  return generate_program(family_from_label(graph.label()), rng,
                          corpus.config().generator);
}

Split stratified_split(const Corpus& corpus, double train_fraction,
                       std::uint64_t seed) {
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    throw std::invalid_argument("stratified_split: fraction must be in (0,1)");
  }
  Rng rng(seed);
  Split split;
  for (Family family : kAllFamilies) {
    std::vector<std::size_t> indices = corpus.indices_of(family);
    rng.shuffle(indices);
    const auto train_count = static_cast<std::size_t>(
        std::floor(train_fraction * static_cast<double>(indices.size())));
    for (std::size_t i = 0; i < indices.size(); ++i) {
      (i < train_count ? split.train : split.test).push_back(indices[i]);
    }
  }
  return split;
}

void FeatureScaler::fit(const Corpus& corpus,
                        const std::vector<std::size_t>& indices) {
  if (indices.empty()) throw std::invalid_argument("FeatureScaler::fit: no samples");
  const std::size_t d = corpus.graph(indices.front()).feature_count();
  mean_.assign(d, 0.0);
  stddev_.assign(d, 0.0);

  std::size_t total_rows = 0;
  for (std::size_t index : indices) {
    const Matrix& x = corpus.graph(index).features();
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t c = 0; c < d; ++c) mean_[c] += x(r, c);
    }
    total_rows += x.rows();
  }
  for (double& m : mean_) m /= static_cast<double>(total_rows);

  for (std::size_t index : indices) {
    const Matrix& x = corpus.graph(index).features();
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t c = 0; c < d; ++c) {
        const double delta = x(r, c) - mean_[c];
        stddev_[c] += delta * delta;
      }
    }
  }
  for (double& s : stddev_) {
    s = std::sqrt(s / static_cast<double>(total_rows));
    if (s < 1e-12) s = 1.0;  // constant column: pass through
  }
}

Matrix FeatureScaler::transform(const Matrix& features) const {
  if (!fitted()) throw std::logic_error("FeatureScaler::transform before fit");
  if (features.cols() != mean_.size()) {
    throw std::invalid_argument("FeatureScaler::transform: column mismatch");
  }
  Matrix out(features.rows(), features.cols());
  for (std::size_t r = 0; r < out.rows(); ++r) {
    transform_row(features.data() + r * features.cols(),
                  out.data() + r * out.cols());
  }
  return out;
}

void FeatureScaler::transform_row(const double* raw, double* out) const {
  for (std::size_t c = 0; c < mean_.size(); ++c) {
    out[c] = (raw[c] - mean_[c]) / stddev_[c];
  }
}

Matrix FeatureScaler::to_matrix() const {
  if (!fitted()) throw std::logic_error("FeatureScaler::to_matrix before fit");
  Matrix packed(2, mean_.size());
  for (std::size_t c = 0; c < mean_.size(); ++c) {
    packed(0, c) = mean_[c];
    packed(1, c) = stddev_[c];
  }
  return packed;
}

FeatureScaler FeatureScaler::from_matrix(const Matrix& packed) {
  if (packed.rows() != 2 || packed.cols() == 0) {
    throw std::invalid_argument("FeatureScaler::from_matrix: expected [2, d]");
  }
  FeatureScaler scaler;
  scaler.mean_.resize(packed.cols());
  scaler.stddev_.resize(packed.cols());
  for (std::size_t c = 0; c < packed.cols(); ++c) {
    scaler.mean_[c] = packed(0, c);
    const double s = packed(1, c);
    if (s <= 0.0) {
      throw std::invalid_argument("FeatureScaler::from_matrix: non-positive stddev");
    }
    scaler.stddev_[c] = s;
  }
  return scaler;
}

}  // namespace cfgx
