#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

/// One independent seed per input stream, all derived from the run's
/// --seed, so every input a workload uses is a function of that one
/// number and no two streams share draws.
struct InputSeeds {
  uint64_t graph = 0;
  uint64_t sources = 0;
  uint64_t popularity = 0;
  uint64_t updates = 0;
  uint64_t queries = 0;
};

InputSeeds DeriveSeeds(uint64_t seed);

/// The registry dataset `name` at scale 1, generated from `graph_seed`.
ppr::Graph BuildGraph(const std::string& name, uint64_t graph_seed);

/// Zipf(exponent) popularity over ranks 0..n-1: rank r is drawn with
/// probability proportional to 1 / (r + 1)^exponent.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent);

  size_t Draw(ppr::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Splits a seeded insert/delete stream (eval's generator, valid in
/// order against `graph`) into `batches` consecutive batches of
/// `batch_size` updates.
ppr::Result<std::vector<ppr::UpdateBatch>> MakeUpdateBatches(
    const ppr::Graph& graph, size_t batches, size_t batch_size,
    double delete_fraction, double skew, uint64_t seed);

/// The solver seed of request `index` on client stream `stream`. Never
/// 0, which the server would replace with its own per-submission seed.
uint64_t QuerySeed(uint64_t base, uint64_t stream, uint64_t index);

/// The id that joins a request's client-side spans to the Solve span the
/// server ran it in: the first draw of the RNG the server seeds with the
/// request's solver seed. The hosted solver's forwarding wrapper reads
/// the same value off its context's RNG without advancing it.
inline uint64_t RequestTag(uint64_t query_seed) {
  ppr::Rng rng(query_seed);
  return rng.NextUint64();
}

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
