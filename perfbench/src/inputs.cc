#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "eval/query_gen.h"
#include "graph/datasets.h"

namespace perfbench {

InputSeeds DeriveSeeds(uint64_t seed) {
  ppr::SplitMix64 mix(seed);
  InputSeeds seeds;
  seeds.graph = mix.Next();
  seeds.sources = mix.Next();
  seeds.popularity = mix.Next();
  seeds.updates = mix.Next();
  seeds.queries = mix.Next();
  return seeds;
}

ppr::Graph BuildGraph(const std::string& name, uint64_t graph_seed) {
  return ppr::MakeDataset(ppr::FindDataset(name), 1.0, graph_seed);
}

ZipfSampler::ZipfSampler(size_t n, double exponent) {
  cdf_.reserve(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Draw(ppr::Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

ppr::Result<std::vector<ppr::UpdateBatch>> MakeUpdateBatches(
    const ppr::Graph& graph, size_t batches, size_t batch_size,
    double delete_fraction, double skew, uint64_t seed) {
  ppr::UpdateWorkloadOptions options;
  options.count = batches * batch_size;
  options.delete_fraction = delete_fraction;
  options.skew = skew;
  options.seed = seed;
  auto stream = ppr::GenerateUpdateStream(graph, options);
  if (!stream.ok()) return stream.status();
  const std::vector<ppr::EdgeUpdate>& updates = stream.value().updates;
  if (updates.size() != options.count) {
    return ppr::Status::FailedPrecondition(
        "update generator returned a short stream");
  }
  std::vector<ppr::UpdateBatch> out(batches);
  for (size_t b = 0; b < batches; ++b) {
    out[b].updates.assign(updates.begin() + b * batch_size,
                          updates.begin() + (b + 1) * batch_size);
  }
  return out;
}

uint64_t QuerySeed(uint64_t base, uint64_t stream, uint64_t index) {
  ppr::Rng rng = ppr::SplitStream(base ^ (stream * 0xd1b54a32d192ed03ULL),
                                  index);
  const uint64_t seed = rng.NextUint64();
  return seed != 0 ? seed : 1;
}

}  // namespace perfbench
