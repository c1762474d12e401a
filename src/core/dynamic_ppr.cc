#include "core/dynamic_ppr.h"

#include <algorithm>
#include <cmath>

#include "core/power_push.h"
#include "util/fifo_queue.h"
#include "util/parallel.h"

namespace ppr {

DynamicSsppr::DynamicSsppr(DynamicGraph* graph, NodeId source,
                           const Options& options, uint64_t* pushes)
    : graph_(graph), source_(source), options_(options) {
  PPR_CHECK(graph != nullptr);
  PPR_CHECK(source < graph->num_nodes());
  PPR_CHECK(options.rmax > 0.0);
  PPR_CHECK(options.alpha > 0.0 && options.alpha < 1.0);
  estimate_.Reset(graph->num_nodes(), source);
  const uint64_t built = Refresh();
  if (pushes != nullptr) *pushes = built;
}

uint64_t DynamicSsppr::PushLoop() {
  const double alpha = options_.alpha;
  const double rmax = options_.rmax;
  const DynamicGraph& graph = *graph_;
  const NodeId n = graph.num_nodes();
  const NodeId source = source_;
  // Local bases, which no store in the loops can make the compiler
  // reload (see FifoQueue's Cursor).
  double* const reserve = estimate_.reserve.data();
  double* const residue = estimate_.residue.data();
  const auto active = [&](NodeId v) {
    const NodeId d = graph.OutDegree(v);
    return std::fabs(residue[v]) >
           static_cast<double>(d == 0 ? 1 : d) * rmax;
  };
  // Pushes work symmetrically for negative residue (insertions shrink
  // old neighbors' transition probability, deletions take the removed
  // target's share away, so corrections can be negative): reserve
  // decreases and negative mass propagates. `touched` sees every node
  // whose residue changed.
  const auto push = [&](NodeId v, auto&& touched) {
    const double r = residue[v];
    reserve[v] += alpha * r;
    residue[v] = 0.0;
    const double mass = (1.0 - alpha) * r;
    const NodeId d = graph.OutDegree(v);
    if (d == 0) {
      residue[source] += mass;
      touched(source);
      return;
    }
    const double inc = mass / d;
    for (NodeId u : graph.OutNeighbors(v)) {
      residue[u] += inc;
      touched(u);
    }
  };

  // Local phase (Algorithm 3): FIFO pushes while the frontier is small,
  // so a repair's cost stays proportional to what the update disturbed.
  FifoQueue fifo(n);
  FifoQueue::Cursor queue = fifo.Open();
  for (NodeId v = 0; v < n; ++v) {
    if (active(v)) queue.PushIfAbsent(v);
  }
  const size_t scan_threshold =
      static_cast<size_t>(std::max(1.0, kScanThresholdFraction * n));
  uint64_t pushes = 0;
  while (!queue.empty() && queue.size() <= scan_threshold) {
    const NodeId v = queue.Pop();
    if (residue[v] == 0.0) continue;
    push(v, [&](NodeId u) {
      if (active(u)) queue.PushIfAbsent(u);
    });
    pushes++;
  }
  const bool drained = queue.empty();
  fifo.Close(queue);
  if (drained) return pushes;

  // Global phase: the work has gone global, so sweep the nodes in id
  // order and push every active one until a pass finds none — the same
  // termination condition as the queue, hence the same bound.
  uint64_t pass_pushes;
  do {
    pass_pushes = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (!active(v)) continue;
      push(v, [](NodeId) {});
      pass_pushes++;
    }
    pushes += pass_pushes;
  } while (pass_pushes != 0);
  return pushes;
}

uint64_t DynamicSsppr::Refresh() {
  const uint64_t pushes = PushLoop();
  double sum = 0.0;
  for (double r : estimate_.residue) sum += std::fabs(r);
  residue_l1_ = sum;
  return pushes;
}

void DynamicSsppr::ObserveBeforeInsert(NodeId u, NodeId w) {
  PPR_CHECK(u < graph_->num_nodes() && w < graph_->num_nodes());
  // Validate before touching residues: DynamicGraph::AddEdge rejects
  // self-loops, and the correction must not run for an edge that will
  // never be inserted.
  PPR_CHECK(u != w) << "self-loops are not supported";
  const double alpha = options_.alpha;
  const double scale = (1.0 - alpha) / alpha * estimate_.reserve[u];
  const NodeId d_old = graph_->OutDegree(u);

  // Δr = (1−α)/α · π̂(u) · (P'[u] − P[u]).
  if (d_old == 0) {
    // u was a dead end whose effective row was e_source; the new row is
    // e_w.
    estimate_.residue[source_] -= scale;
    estimate_.residue[w] += scale;
  } else {
    const double shrink =
        1.0 / (d_old + 1.0) - 1.0 / static_cast<double>(d_old);
    // Iterating occurrences handles parallel edges: each occurrence of a
    // neighbor carried 1/d of the row and now carries 1/(d+1).
    for (NodeId x : graph_->OutNeighbors(u)) {
      estimate_.residue[x] += scale * shrink;
    }
    estimate_.residue[w] += scale / (d_old + 1.0);
  }
}

void DynamicSsppr::ObserveBeforeDelete(NodeId u, NodeId w) {
  PPR_CHECK(u < graph_->num_nodes() && w < graph_->num_nodes());
  const double alpha = options_.alpha;
  const double scale = (1.0 - alpha) / alpha * estimate_.reserve[u];
  const NodeId d_old = graph_->OutDegree(u);
  PPR_CHECK(d_old > 0) << "deleting from a dead end";

  if (d_old == 1) {
    // u becomes a dead end: its row e_w turns into the dead-end
    // convention's e_source — the exact mirror of the insertion case.
    estimate_.residue[source_] += scale;
    estimate_.residue[w] -= scale;
  } else {
    // Every surviving occurrence grows from 1/d to 1/(d−1); the removed
    // occurrence of w loses its 1/d outright. Skipping exactly one
    // occurrence keeps parallel edges correct.
    const double grow =
        1.0 / (d_old - 1.0) - 1.0 / static_cast<double>(d_old);
    bool removed = false;
    for (NodeId x : graph_->OutNeighbors(u)) {
      if (!removed && x == w) {
        estimate_.residue[w] -= scale / d_old;
        removed = true;
      } else {
        estimate_.residue[x] += scale * grow;
      }
    }
    PPR_CHECK(removed) << "edge (" << u << ", " << w << ") not present";
  }
}

void DynamicSsppr::GrowTo(NodeId n) {
  PPR_CHECK(n >= estimate_.reserve.size());
  PPR_CHECK(n <= graph_->num_nodes());
  estimate_.reserve.resize(n, 0.0);
  estimate_.residue.resize(n, 0.0);
}

uint64_t DynamicSsppr::AddEdge(NodeId u, NodeId w) {
  ObserveBeforeInsert(u, w);
  graph_->AddEdge(u, w);
  return Refresh();
}

uint64_t DynamicSsppr::RemoveEdge(NodeId u, NodeId w) {
  ObserveBeforeDelete(u, w);
  graph_->RemoveEdge(u, w);
  return Refresh();
}

// ------------------------------------------------------------------ pool

DynamicSspprPool::DynamicSspprPool(DynamicGraph* graph,
                                   const DynamicSsppr::Options& options)
    : graph_(graph), options_(options) {
  PPR_CHECK(graph != nullptr);
}

DynamicSsppr& DynamicSspprPool::TrackerFor(NodeId source) {
  if (DynamicSsppr* tracker = Find(source)) return *tracker;
  return Adopt(Build(source));
}

DynamicSsppr* DynamicSspprPool::Find(NodeId source) {
  auto it = trackers_.find(source);
  return it == trackers_.end() ? nullptr : it->second.get();
}

std::unique_ptr<DynamicSsppr> DynamicSspprPool::Build(NodeId source,
                                                      uint64_t* pushes) const {
  return std::make_unique<DynamicSsppr>(graph_, source, options_, pushes);
}

DynamicSsppr& DynamicSspprPool::Adopt(std::unique_ptr<DynamicSsppr> tracker) {
  PPR_CHECK(tracker != nullptr);
  // try_emplace leaves the resident tracker (and the references readers
  // hold to it) untouched; a losing build is destroyed with `tracker`.
  const NodeId source = tracker->source();
  return *trackers_.try_emplace(source, std::move(tracker)).first->second;
}

Status DynamicSspprPool::Apply(
    const UpdateBatch& batch, uint64_t* pushes,
    const std::function<void(const EdgeUpdate&)>& applied) {
  PPR_RETURN_IF_ERROR(graph_->Validate(batch));
  for (const EdgeUpdate& up : batch.updates) {
    switch (up.kind) {
      case UpdateKind::kInsert:
        for (auto& [source, tracker] : trackers_) {
          tracker->ObserveBeforeInsert(up.u, up.v);
        }
        graph_->AddEdge(up.u, up.v);
        break;
      case UpdateKind::kDelete:
        for (auto& [source, tracker] : trackers_) {
          tracker->ObserveBeforeDelete(up.u, up.v);
        }
        graph_->RemoveEdge(up.u, up.v);
        break;
      case UpdateKind::kAddNode:
        graph_->AddNode();
        for (auto& [source, tracker] : trackers_) {
          tracker->GrowTo(graph_->num_nodes());
        }
        break;
      case UpdateKind::kRemoveNode:
        // RemoveNode lowers to per-edge deletions; the `before` hook
        // runs the usual pre-mutation corrections and the `after` hook
        // forwards each lowered deletion to the caller (the walk index
        // refreshes the mutated endpoint per edge, not per marker).
        graph_->RemoveNode(
            up.u,
            [this](const EdgeUpdate& lowered) {
              for (auto& [source, tracker] : trackers_) {
                tracker->ObserveBeforeDelete(lowered.u, lowered.v);
              }
            },
            applied);
        break;
    }
    if (applied) applied(up);
  }
  // The repairs are independent: each tracker reads the shared graph,
  // which nothing mutates until Apply returns, and writes only its own
  // estimate, so they run on the WorkerPool with each tracker's
  // arithmetic, and so its bits, unchanged. On a thread that already
  // counts as a parallel worker ParallelFor runs them serially.
  std::vector<DynamicSsppr*> trackers;
  trackers.reserve(trackers_.size());
  for (auto& [source, tracker] : trackers_) trackers.push_back(tracker.get());
  std::vector<uint64_t> repair_pushes(trackers.size());
  ParallelFor(
      0, trackers.size(),
      [&](uint64_t begin, uint64_t end, unsigned) {
        for (uint64_t i = begin; i < end; ++i) {
          repair_pushes[i] = trackers[i]->Refresh();
        }
      },
      /*grain=*/1);
  if (pushes != nullptr) {
    for (uint64_t count : repair_pushes) *pushes += count;
  }
  return Status::OK();
}

}  // namespace ppr
