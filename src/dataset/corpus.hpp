// Corpus: a balanced collection of ACFGs across all 12 families, mirroring
// the paper's 1056-graph YANCFG dataset (equally distributed per family).
//
// Each sample records the seed it was generated from, so the full Program
// (assembly listing) can be regenerated deterministically for qualitative
// analysis (Table V) without keeping every instruction stream resident.
#pragma once

#include <cstdint>
#include <vector>

#include "dataset/families.hpp"
#include "dataset/generator.hpp"
#include "graph/acfg.hpp"
#include "util/rng.hpp"

namespace cfgx {

struct CorpusConfig {
  std::size_t samples_per_family = 40;
  std::uint64_t seed = 2022;
  GeneratorConfig generator;
};

class Corpus {
 public:
  Corpus(std::vector<Acfg> graphs, std::vector<std::uint64_t> sample_seeds,
         CorpusConfig config);

  std::size_t size() const noexcept { return graphs_.size(); }
  const std::vector<Acfg>& graphs() const noexcept { return graphs_; }
  const Acfg& graph(std::size_t index) const { return graphs_.at(index); }
  std::uint64_t sample_seed(std::size_t index) const {
    return sample_seeds_.at(index);
  }
  const CorpusConfig& config() const noexcept { return config_; }

  // Indices of all samples of one family.
  std::vector<std::size_t> indices_of(Family family) const;

 private:
  std::vector<Acfg> graphs_;
  std::vector<std::uint64_t> sample_seeds_;
  CorpusConfig config_;
};

// Builds samples_per_family graphs for each of the 12 families.
Corpus generate_corpus(const CorpusConfig& config = {});

// Rebuilds the Program + plant ranges of sample `index` (deterministic).
GeneratedSample regenerate_sample(const Corpus& corpus, std::size_t index);

// Stratified train/test split: within each family, floor(train_fraction *
// per-family count) samples go to train, the rest to test, after a seeded
// shuffle.
struct Split {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

Split stratified_split(const Corpus& corpus, double train_fraction,
                       std::uint64_t seed);

// Z-score feature standardization fitted on a subset of graphs (train
// split); columns with zero variance pass through unscaled.
class FeatureScaler {
 public:
  FeatureScaler() = default;

  void fit(const Corpus& corpus, const std::vector<std::size_t>& indices);

  bool fitted() const noexcept { return !mean_.empty(); }

  // Returns standardized copy of a raw feature matrix.
  Matrix transform(const Matrix& features) const;

  // One row of the transform: out[c] = (raw[c] - mean[c]) / stddev[c] for
  // every fitted column. No checks; the caller guarantees the width.
  void transform_row(const double* raw, double* out) const;

  const std::vector<double>& mean() const noexcept { return mean_; }
  const std::vector<double>& stddev() const noexcept { return stddev_; }

  // (De)serialization via two row vectors.
  Matrix to_matrix() const;                       // [2, d]: mean; stddev
  static FeatureScaler from_matrix(const Matrix& packed);

 private:
  std::vector<double> mean_;
  std::vector<double> stddev_;
};

}  // namespace cfgx
