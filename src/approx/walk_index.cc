#include "approx/walk_index.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include "approx/random_walk.h"
#include "util/fault_injection.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace ppr {

namespace {

constexpr uint64_t kIndexMagic = 0x5050523257494458ULL;  // "PPR2WIDX"

/// Salt separating a node's refresh stream from its build stream: both
/// derive from (seed, v), and the refresh draws must not replay the
/// build draws.
constexpr uint64_t kRefreshSalt = 0x9e6b7d1f2c3a55ULL;

/// Floor for the inverted-index compaction thresholds, so tiny lists
/// never thrash through repeated compactions.
constexpr size_t kMinCompactLimit = 8;

/// Offsets for the chosen sizing rule; shared by both build paths.
std::vector<uint64_t> SizingOffsets(const Graph& graph,
                                    WalkIndex::Sizing sizing,
                                    uint64_t walk_count_w) {
  const NodeId n = graph.num_nodes();
  const double fora_ratio =
      sizing == WalkIndex::Sizing::kForaPlus
          ? std::sqrt(static_cast<double>(walk_count_w) /
                      static_cast<double>(graph.num_edges()))
          : 0.0;
  std::vector<uint64_t> offsets(static_cast<size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId d = graph.OutDegree(v);
    uint64_t k;
    if (sizing == WalkIndex::Sizing::kForaPlus) {
      k = static_cast<uint64_t>(std::ceil(d * fora_ratio)) + 1;
    } else {
      k = d == 0 ? 1 : d;  // SpeedPPR: at most m walks in total
    }
    offsets[v + 1] = offsets[v] + k;
  }
  return offsets;
}

/// One α-walk from `origin` recording the departure sequence into
/// *path (cleared first). RNG consumption matches RandomWalk() draw for
/// draw — one geometric for the length (`length` is GeometricDraw(α)),
/// one bounded draw per non-dead-end move — so a freshly built
/// DynamicWalkIndex reproduces WalkIndex::BuildParallel's endpoints bit
/// for bit.
template <typename GraphT>
NodeId RecordWalk(const GraphT& graph, NodeId origin,
                  const GeometricDraw& length, Rng& rng,
                  std::vector<NodeId>* path) {
  path->clear();
  NodeId current = origin;
  const uint64_t moves = length(rng);
  for (uint64_t i = 0; i < moves; ++i) {
    path->push_back(current);
    auto neighbors = graph.OutNeighbors(current);
    if (neighbors.empty()) {
      current = origin;  // dead end: conceptual edge back to the origin
    } else {
      current =
          neighbors[rng.NextBounded(static_cast<uint64_t>(neighbors.size()))];
    }
  }
  return current;
}

/// Regenerates a walk's suffix from `from`, which the walk already
/// decided to depart (its α-flip said "continue" before the mutation;
/// the flip is adjacency-independent, so it is kept). One forced move
/// out of `from`, then a memoryless geometric number of further moves —
/// exactly the conditional law of a fresh walk's suffix given that it
/// reaches `from` and continues. Departures append to *path, whose last
/// entry must already be `from`.
template <typename GraphT>
NodeId ResumeWalk(const GraphT& graph, NodeId origin, NodeId from,
                  const GeometricDraw& length, Rng& rng,
                  std::vector<NodeId>* path) {
  auto first = graph.OutNeighbors(from);
  NodeId current =
      first.empty()
          ? origin
          : first[rng.NextBounded(static_cast<uint64_t>(first.size()))];
  const uint64_t moves = length(rng);
  for (uint64_t i = 0; i < moves; ++i) {
    path->push_back(current);
    auto neighbors = graph.OutNeighbors(current);
    if (neighbors.empty()) {
      current = origin;
    } else {
      current =
          neighbors[rng.NextBounded(static_cast<uint64_t>(neighbors.size()))];
    }
  }
  return current;
}

}  // namespace

WalkIndex WalkIndex::Build(const Graph& graph, double alpha, Sizing sizing,
                           uint64_t walk_count_w, Rng& rng) {
  PPR_CHECK(alpha > 0.0 && alpha < 1.0);
  const NodeId n = graph.num_nodes();
  WalkIndex index;
  index.alpha_ = alpha;
  index.graph_fingerprint_ = graph.Fingerprint();
  Timer timer;

  index.offsets_ = SizingOffsets(graph, sizing, walk_count_w);
  index.endpoints_.resize(index.offsets_.back());
  const GeometricDraw length(alpha);
  for (NodeId v = 0; v < n; ++v) {
    for (uint64_t i = index.offsets_[v]; i < index.offsets_[v + 1]; ++i) {
      index.endpoints_[i] = RandomWalk(graph, v, length, rng).stop;
    }
  }
  index.build_seconds_ = timer.ElapsedSeconds();
  return index;
}

WalkIndex WalkIndex::BuildParallel(const Graph& graph, double alpha,
                                   Sizing sizing, uint64_t walk_count_w,
                                   uint64_t seed) {
  PPR_CHECK(alpha > 0.0 && alpha < 1.0);
  const NodeId n = graph.num_nodes();
  WalkIndex index;
  index.alpha_ = alpha;
  index.graph_fingerprint_ = graph.Fingerprint();
  Timer timer;

  index.offsets_ = SizingOffsets(graph, sizing, walk_count_w);
  index.endpoints_.resize(index.offsets_.back());
  // Each worker writes a disjoint slice; each node gets its own stream
  // seeded from (seed, v), so the output is thread-count independent.
  const GeometricDraw length(alpha);
  ParallelFor(0, n, [&](uint64_t lo, uint64_t hi, unsigned) {
    for (uint64_t v = lo; v < hi; ++v) {
      Rng rng = SplitStream(seed, v);
      for (uint64_t i = index.offsets_[v]; i < index.offsets_[v + 1]; ++i) {
        index.endpoints_[i] =
            RandomWalk(graph, static_cast<NodeId>(v), length, rng).stop;
      }
    }
  });
  index.build_seconds_ = timer.ElapsedSeconds();
  return index;
}

std::string WalkIndex::CacheFileName(Sizing sizing, double alpha,
                                     uint64_t walk_count_w, uint64_t seed,
                                     uint64_t graph_fingerprint) {
  char buffer[160];
  // %.17g: alphas that differ anywhere in the double must not collide
  // on one filename (the load-time alpha check would make such a cache
  // thrash forever instead of ever hitting).
  std::snprintf(buffer, sizeof(buffer),
                "widx_%s_a%.17g_w%llu_s%llu_g%016llx.bin",
                sizing == Sizing::kForaPlus ? "fora" : "speedppr", alpha,
                static_cast<unsigned long long>(walk_count_w),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(graph_fingerprint));
  return buffer;
}

Status WalkIndex::SaveTo(const std::string& path) const {
  PPR_FAULT_STATUS("walkindex.save");
  // Write-temp-then-rename: the canonical name only ever holds a
  // complete file, so a crash mid-write or a concurrent saver sharing
  // cache_dir= cannot leave a truncated cache where loads expect a good
  // one. The temp name is salted per-thread so two concurrent savers of
  // the same index do not interleave into one temp file; last rename
  // wins with identical content.
  const std::string tmp =
      path + ".tmp." +
      std::to_string(std::hash<std::thread::id>()(std::this_thread::get_id()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp + " for writing");
    auto write_u64 = [&](uint64_t v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    write_u64(kIndexMagic);
    write_u64(num_nodes());
    write_u64(endpoints_.size());
    write_u64(graph_fingerprint_);
    out.write(reinterpret_cast<const char*>(&alpha_), sizeof(alpha_));
    out.write(reinterpret_cast<const char*>(offsets_.data()),
              static_cast<std::streamsize>(offsets_.size() *
                                           sizeof(uint64_t)));
    out.write(reinterpret_cast<const char*>(endpoints_.data()),
              static_cast<std::streamsize>(endpoints_.size() *
                                           sizeof(NodeId)));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IOError("write failed on " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<WalkIndex> WalkIndex::LoadFrom(const std::string& path) {
  PPR_FAULT_STATUS("walkindex.load");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  auto read_u64 = [&](uint64_t* v) {
    in.read(reinterpret_cast<char*>(v), sizeof(*v));
    return static_cast<bool>(in);
  };
  uint64_t magic = 0;
  uint64_t n = 0;
  uint64_t total = 0;
  if (!read_u64(&magic) || magic != kIndexMagic) {
    return Status::Corruption(path + ": bad magic");
  }
  WalkIndex index;
  if (!read_u64(&n) || !read_u64(&total) ||
      !read_u64(&index.graph_fingerprint_)) {
    return Status::Corruption(path + ": truncated header");
  }
  in.read(reinterpret_cast<char*>(&index.alpha_), sizeof(index.alpha_));
  if (!in) return Status::Corruption(path + ": truncated header");
  // Size the allocations from the actual file, not the header's word: a
  // corrupt or hostile file claiming 2^60 endpoints must fail cleanly
  // here, not OOM in resize(). Header is 5 u64-sized fields; the body
  // must hold exactly (n+1) offsets and `total` endpoints.
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  constexpr uint64_t kHeaderBytes = 5 * sizeof(uint64_t);
  // Overflow-safe bounds before computing the exact expected size.
  if (n > (file_size - kHeaderBytes) / sizeof(uint64_t) ||
      total > (file_size - kHeaderBytes) / sizeof(NodeId)) {
    return Status::Corruption(path + ": header counts exceed file size");
  }
  const uint64_t expected =
      kHeaderBytes + (n + 1) * sizeof(uint64_t) + total * sizeof(NodeId);
  if (file_size != expected) {
    return Status::Corruption(path + ": file size " +
                              std::to_string(file_size) + " != expected " +
                              std::to_string(expected));
  }
  in.seekg(static_cast<std::streamoff>(kHeaderBytes));
  index.offsets_.resize(n + 1);
  index.endpoints_.resize(total);
  in.read(reinterpret_cast<char*>(index.offsets_.data()),
          static_cast<std::streamsize>(index.offsets_.size() *
                                       sizeof(uint64_t)));
  in.read(reinterpret_cast<char*>(index.endpoints_.data()),
          static_cast<std::streamsize>(index.endpoints_.size() *
                                       sizeof(NodeId)));
  if (!in) return Status::Corruption(path + ": truncated body");
  if (index.offsets_.front() != 0 || index.offsets_.back() != total) {
    return Status::Corruption(path + ": inconsistent offsets");
  }
  for (size_t i = 0; i + 1 < index.offsets_.size(); ++i) {
    if (index.offsets_[i] > index.offsets_[i + 1]) {
      return Status::Corruption(path + ": offsets not monotonic");
    }
  }
  return index;
}

// -------------------------------------------------------- DynamicWalkIndex

DynamicWalkIndex::DynamicWalkIndex(const Graph& graph, double alpha,
                                   WalkIndex::Sizing sizing,
                                   uint64_t walk_count_w, uint64_t seed,
                                   double drift_factor)
    : alpha_(alpha),
      sizing_(sizing),
      walk_count_w_(walk_count_w),
      seed_(seed),
      drift_factor_(drift_factor) {
  PPR_CHECK(alpha > 0.0 && alpha < 1.0);
  PPR_CHECK(drift_factor == 0.0 || drift_factor > 1.0)
      << "drift factor must exceed 1 (or be 0 to disable)";
  const NodeId n = graph.num_nodes();
  ratio_edges_ = static_cast<double>(std::max<EdgeId>(graph.num_edges(), 1));
  if (sizing == WalkIndex::Sizing::kForaPlus) {
    fora_ratio_ = std::sqrt(static_cast<double>(walk_count_w) /
                            static_cast<double>(graph.num_edges()));
  }
  Timer timer;
  nodes_.resize(n);
  through_.resize(n);
  streams_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    streams_.push_back(SplitStream(seed ^ kRefreshSalt, v));
  }

  // Walk generation is embarrassingly parallel (each node owns its walks
  // and its (seed, v) stream — the BuildParallel scheme, so the initial
  // endpoints match a static BuildParallel bit for bit); the inverted
  // index is registered in a serial pass after. Paths go straight into
  // the per-node arena — one allocation stream per node, no per-walk
  // heap vectors.
  const GeometricDraw length(alpha);
  ParallelFor(0, n, [&](uint64_t lo, uint64_t hi, unsigned) {
    std::vector<NodeId> scratch;
    for (uint64_t v = lo; v < hi; ++v) {
      Rng rng = SplitStream(seed, v);
      const uint64_t k = TargetWalks(graph.OutDegree(static_cast<NodeId>(v)));
      NodeWalks& walks = nodes_[v];
      walks.endpoints.reserve(k);
      walks.begin.reserve(k);
      walks.length.reserve(k);
      for (uint64_t i = 0; i < k; ++i) {
        const NodeId stop =
            RecordWalk(graph, static_cast<NodeId>(v), length, rng, &scratch);
        walks.endpoints.push_back(stop);
        walks.begin.push_back(static_cast<uint32_t>(walks.arena.size()));
        walks.length.push_back(static_cast<uint32_t>(scratch.size()));
        walks.arena.insert(walks.arena.end(), scratch.begin(), scratch.end());
      }
      walks.live_words = walks.arena.size();
    }
  });
  // No stale entries can exist during the initial registration, so the
  // compaction thresholds stay out of the way until after it.
  through_limits_.assign(n, std::numeric_limits<uint32_t>::max());
  for (NodeId v = 0; v < n; ++v) {
    total_walks_ += nodes_[v].endpoints.size();
    for (uint32_t i = 0; i < nodes_[v].walk_count(); ++i) {
      RegisterPath(v, i, 0);
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    through_limits_[v] = static_cast<uint32_t>(
        std::max<size_t>(kMinCompactLimit, 2 * through_[v].size()));
  }
  build_seconds_ = timer.ElapsedSeconds();
}

uint64_t DynamicWalkIndex::SizeBytes() const {
  uint64_t bytes = 0;
  for (const NodeWalks& walks : nodes_) {
    bytes += walks.endpoints.size() * sizeof(NodeId) +
             walks.arena.size() * sizeof(NodeId) +
             walks.begin.size() * sizeof(uint32_t) +
             walks.length.size() * sizeof(uint32_t);
  }
  for (const std::vector<Slot>& list : through_) {
    bytes += list.size() * sizeof(Slot);
  }
  bytes += through_limits_.size() * sizeof(uint32_t);
  return bytes;
}

uint64_t DynamicWalkIndex::TargetWalks(NodeId degree) const {
  if (sizing_ == WalkIndex::Sizing::kSpeedPpr) {
    return degree == 0 ? 1 : degree;
  }
  return static_cast<uint64_t>(std::ceil(degree * fora_ratio_)) + 1;
}

void DynamicWalkIndex::RegisterPath(NodeId origin, uint32_t walk,
                                    size_t from) {
  const std::span<const NodeId> path = nodes_[origin].Path(walk);
  for (size_t j = from; j < path.size(); ++j) {
    const NodeId x = path[j];
    // An earlier occurrence already carries this walk's entry (paths are
    // short — expected (1−α)/α departures — so the scan is cheap).
    bool seen = false;
    for (size_t i = 0; i < j && !seen; ++i) seen = path[i] == x;
    if (!seen) {
      through_[x].push_back({origin, walk});
      if (through_[x].size() > through_limits_[x]) CompactThrough(x);
    }
  }
}

void DynamicWalkIndex::CompactThrough(NodeId x) {
  std::vector<Slot>& list = through_[x];
  std::sort(list.begin(), list.end(), [](const Slot& a, const Slot& b) {
    return a.origin != b.origin ? a.origin < b.origin : a.walk < b.walk;
  });
  list.erase(std::unique(list.begin(), list.end(),
                         [](const Slot& a, const Slot& b) {
                           return a.origin == b.origin && a.walk == b.walk;
                         }),
             list.end());
  list.erase(std::remove_if(list.begin(), list.end(),
                            [&](const Slot& s) {
                              const NodeWalks& walks = nodes_[s.origin];
                              if (s.walk >= walks.walk_count()) return true;
                              const std::span<const NodeId> path =
                                  walks.Path(s.walk);
                              return std::find(path.begin(), path.end(), x) ==
                                     path.end();
                            }),
             list.end());
  // Doubling re-arm: compaction work stays amortized O(1) per append,
  // and the list never exceeds ~2x its live size.
  through_limits_[x] = static_cast<uint32_t>(
      std::max<size_t>(kMinCompactLimit, 2 * list.size()));
}

void DynamicWalkIndex::CompactArena(NodeWalks& walks) {
  std::vector<NodeId> packed;
  packed.reserve(walks.live_words);
  for (uint32_t i = 0; i < walks.walk_count(); ++i) {
    const std::span<const NodeId> path = walks.Path(i);
    walks.begin[i] = static_cast<uint32_t>(packed.size());
    packed.insert(packed.end(), path.begin(), path.end());
  }
  walks.arena = std::move(packed);
  PPR_DCHECK(walks.arena.size() == walks.live_words);
}

void DynamicWalkIndex::CommitPath(NodeWalks& walks, uint32_t walk) {
  walks.live_words -= walks.length[walk];
  walks.length[walk] = 0;  // retire the old span before any compaction
  // Compact before appending when retired words outnumber live ones (the
  // slack floor keeps tiny arenas from thrashing). Amortized O(1) per
  // commit: each compaction copies at most the words retired since the
  // previous one.
  constexpr size_t kMinArenaSlack = 64;
  if (walks.arena.size() >
      2 * walks.live_words + 2 * scratch_.size() + kMinArenaSlack) {
    CompactArena(walks);
  }
  PPR_CHECK(walks.arena.size() + scratch_.size() <=
            std::numeric_limits<uint32_t>::max());
  walks.begin[walk] = static_cast<uint32_t>(walks.arena.size());
  walks.length[walk] = static_cast<uint32_t>(scratch_.size());
  walks.arena.insert(walks.arena.end(), scratch_.begin(), scratch_.end());
  walks.live_words += scratch_.size();
}

uint64_t DynamicWalkIndex::RefreshMutatedNode(const DynamicGraph& graph,
                                              NodeId u) {
  PPR_CHECK(u < nodes_.size());
  Rng& rng = streams_[u];
  const GeometricDraw length(alpha_);
  uint64_t resampled = 0;

  // 1. Resample every walk that departed u, from its first departure.
  // The entry list is taken by value: valid walks re-register themselves
  // below (their path still contains u), stale or duplicate entries are
  // dropped here — this is where the lazily invalidated inverted index
  // gets compacted.
  std::vector<Slot> entries = std::move(through_[u]);
  through_[u].clear();
  std::sort(entries.begin(), entries.end(), [](const Slot& a, const Slot& b) {
    return a.origin != b.origin ? a.origin < b.origin : a.walk < b.walk;
  });
  for (size_t e = 0; e < entries.size(); ++e) {
    const Slot slot = entries[e];
    if (e > 0 && entries[e - 1].origin == slot.origin &&
        entries[e - 1].walk == slot.walk) {
      continue;  // duplicate
    }
    NodeWalks& walks = nodes_[slot.origin];
    if (slot.walk >= walks.walk_count()) continue;  // walk was dropped
    const std::span<const NodeId> path = walks.Path(slot.walk);
    const auto it = std::find(path.begin(), path.end(), u);
    if (it == path.end()) continue;  // stale: resampled away earlier
    const size_t p = static_cast<size_t>(it - path.begin());
    // Kept prefix through the first departure from u, then the resampled
    // suffix, assembled in scratch_ and committed over the old span.
    scratch_.assign(path.begin(), path.begin() + p + 1);
    walks.endpoints[slot.walk] =
        ResumeWalk(graph, slot.origin, u, length, rng, &scratch_);
    CommitPath(walks, slot.walk);
    RegisterPath(slot.origin, slot.walk, p);  // re-registers u itself too
    resampled++;
  }

  // 2. Track the sizing rule at u's new degree.
  resampled += ResizeNode(graph, u, TargetWalks(graph.OutDegree(u)));

  // 3. Drift check (kForaPlus only): if this mutation tipped the live
  // edge count past the configured factor of the m the ratio was derived
  // at, re-derive sqrt(W/m) and retarget every node. Each node resizes
  // through its own refresh stream, so the result is exactly the index a
  // fresh build at the new m would maintain — the endpoint-frequency
  // conformance test crosses one of these events on purpose.
  if (sizing_ == WalkIndex::Sizing::kForaPlus && drift_factor_ > 0.0) {
    const double m_now =
        static_cast<double>(std::max<EdgeId>(graph.num_edges(), 1));
    if (m_now > ratio_edges_ * drift_factor_ ||
        m_now * drift_factor_ < ratio_edges_) {
      resampled += ResizeForDrift(graph);
    }
  }
  return resampled;
}

uint64_t DynamicWalkIndex::ResizeNode(const DynamicGraph& graph, NodeId v,
                                      uint64_t target) {
  // Dropped walks leave stale inverted entries behind (purged lazily by
  // CompactThrough); appended walks are full fresh samples on the
  // current graph, drawn from v's own refresh stream.
  uint64_t appended = 0;
  NodeWalks& own = nodes_[v];
  while (own.endpoints.size() > target) {
    own.live_words -= own.length.back();
    own.endpoints.pop_back();
    own.begin.pop_back();
    own.length.pop_back();
    total_walks_--;
  }
  const GeometricDraw length(alpha_);
  while (own.endpoints.size() < target) {
    const NodeId stop = RecordWalk(graph, v, length, streams_[v], &scratch_);
    own.endpoints.push_back(stop);
    own.begin.push_back(0);
    own.length.push_back(0);
    CommitPath(own, own.walk_count() - 1);
    RegisterPath(v, own.walk_count() - 1, 0);
    total_walks_++;
    appended++;
  }
  return appended;
}

uint64_t DynamicWalkIndex::ResizeForDrift(const DynamicGraph& graph) {
  const double m_now =
      static_cast<double>(std::max<EdgeId>(graph.num_edges(), 1));
  fora_ratio_ = std::sqrt(static_cast<double>(walk_count_w_) / m_now);
  ratio_edges_ = m_now;
  resize_events_++;
  uint64_t appended = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    appended += ResizeNode(graph, v, TargetWalks(graph.OutDegree(v)));
  }
  return appended;
}

void DynamicWalkIndex::AddNode() {
  const NodeId v = static_cast<NodeId>(nodes_.size());
  nodes_.emplace_back();
  through_.emplace_back();
  through_limits_.push_back(static_cast<uint32_t>(kMinCompactLimit));
  streams_.push_back(SplitStream(seed_ ^ kRefreshSalt, v));

  // The new node is isolated (mirroring DynamicGraph::AddNode), so its
  // initial walks can be generated without the graph: a walk from a dead
  // end draws its geometric length and then bounces on the conceptual
  // back-edge to the origin every move — endpoint v, path of `moves`
  // copies of v. RNG consumption matches RecordWalk draw for draw (one
  // geometric, no bounded draws), and the draws come from the node's
  // build stream — bit-identical to a fresh build at the new n.
  Rng build = SplitStream(seed_, v);
  NodeWalks& walks = nodes_.back();
  const uint64_t k = TargetWalks(0);
  const GeometricDraw length(alpha_);
  for (uint64_t i = 0; i < k; ++i) {
    const uint64_t moves = length(build);
    walks.endpoints.push_back(v);
    walks.begin.push_back(static_cast<uint32_t>(walks.arena.size()));
    walks.length.push_back(static_cast<uint32_t>(moves));
    walks.arena.insert(walks.arena.end(), moves, v);
    total_walks_++;
  }
  walks.live_words = walks.arena.size();
  for (uint32_t i = 0; i < walks.walk_count(); ++i) {
    RegisterPath(v, i, 0);
  }
}

}  // namespace ppr
