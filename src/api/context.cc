#include "api/context.h"

namespace ppr {

SolverContext::SolverContext(uint64_t seed) : rng_(seed) {}

PprEstimate* SolverContext::AcquireEstimate(NodeId n, NodeId source) {
  PPR_CHECK(source < n);
  if (estimate_.reserve.size() != n || !estimate_clean_) {
    estimate_.reserve.assign(n, 0.0);
    estimate_.residue.assign(n, 0.0);
    full_assigns_++;
  } else {
    for (NodeId v : estimate_support_) {
      estimate_.reserve[v] = 0.0;
      estimate_.residue[v] = 0.0;
    }
    sparse_resets_++;
  }
  estimate_support_.clear();
  // Dirty until the solve records its support via Export/Release; a
  // solver that errors out mid-query therefore costs one full assign,
  // never a stale workspace.
  estimate_clean_ = false;
  estimate_.residue[source] = 1.0;
  return &estimate_;
}

std::vector<double>* SolverContext::AcquireScores(NodeId n) {
  if (scores_.size() != n || !scores_clean_) {
    scores_.assign(n, 0.0);
    full_assigns_++;
  } else {
    for (NodeId v : scores_support_) scores_[v] = 0.0;
    sparse_resets_++;
  }
  scores_support_.clear();
  scores_clean_ = false;
  return &scores_;
}

FifoQueue* SolverContext::AcquireQueue(NodeId n) {
  queue_.Reconfigure(n);
  return &queue_;
}

ThreadDenseBuffers* SolverContext::AcquireThreadBuffers(unsigned count,
                                                        NodeId n) {
  EnsureThreadBuffers(&thread_buffers_, count, n);
  return &thread_buffers_;
}

void SolverContext::ExportEstimate(bool with_residues, PprResult* result) {
  const NodeId n = static_cast<NodeId>(estimate_.reserve.size());
  result->scores.resize(n);
  if (with_residues) {
    result->residues.resize(n);
  } else {
    result->residues.clear();
  }
  estimate_support_.clear();
  for (NodeId v = 0; v < n; ++v) {
    const double reserve = estimate_.reserve[v];
    const double residue = estimate_.residue[v];
    result->scores[v] = reserve;
    if (with_residues) result->residues[v] = residue;
    if (reserve != 0.0 || residue != 0.0) estimate_support_.push_back(v);
  }
  estimate_clean_ = true;
}

void SolverContext::ExportScores(PprResult* result) {
  const NodeId n = static_cast<NodeId>(scores_.size());
  result->scores.resize(n);
  result->residues.clear();
  scores_support_.clear();
  for (NodeId v = 0; v < n; ++v) {
    const double score = scores_[v];
    result->scores[v] = score;
    if (score != 0.0) scores_support_.push_back(v);
  }
  scores_clean_ = true;
}

void SolverContext::ReleaseEstimate() {
  const NodeId n = static_cast<NodeId>(estimate_.reserve.size());
  estimate_support_.clear();
  for (NodeId v = 0; v < n; ++v) {
    if (estimate_.reserve[v] != 0.0 || estimate_.residue[v] != 0.0) {
      estimate_support_.push_back(v);
    }
  }
  estimate_clean_ = true;
}

}  // namespace ppr
