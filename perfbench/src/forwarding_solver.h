#ifndef PERFBENCH_FORWARDING_SOLVER_H_
#define PERFBENCH_FORWARDING_SOLVER_H_

#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "api/dynamic_solver.h"
#include "api/solver.h"
#include "trace.h"

namespace perfbench {

/// Hosted in place of a registry solver in traced runs: forwards every
/// call to the solver it owns and records an "api.solve" span around the
/// forwarded Solve. The span's request id is the first draw of the
/// context RNG the server reseeded for this query (see RequestTag),
/// read from a copy so the solver still sees an untouched stream.
///
/// The forwarded query carries top_k = 0: Solver::Solve of this wrapper
/// selects the top-k itself after DoSolve returns, so selecting it in
/// the owned solver too would add a second O(n) pass that the untraced
/// server never runs. The selection therefore falls after the span and
/// is counted in serve.post_solve.
template <typename Base>
class Forwarding : public Base {
 public:
  Forwarding(std::unique_ptr<ppr::Solver> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string_view name() const override { return inner_->name(); }
  ppr::SolverCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  double AdvertisedL1Bound(const ppr::PprQuery& query) const override {
    return inner_->AdvertisedL1Bound(query);
  }
  uint64_t IndexBytes() const override { return inner_->IndexBytes(); }
  ppr::BatchSolver* AsBatch() override { return inner_->AsBatch(); }

  ppr::Solver& inner() { return *inner_; }

 protected:
  ppr::Status DoSolve(const ppr::PprQuery& query, ppr::SolverContext& context,
                      ppr::PprResult* result) override {
    ppr::Rng probe = context.rng();
    Span span;
    span.name = "api.solve";
    span.id = tracer_->NewId();
    span.request = probe.NextUint64();
    ppr::PprQuery forwarded = query;
    forwarded.top_k = 0;
    span.start_ns = NowNs();
    ppr::Status status = inner_->Solve(forwarded, context, result);
    span.end_ns = NowNs();
    tracer_->Record(span);
    return status;
  }

  std::unique_ptr<ppr::Solver> inner_;
  Tracer* tracer_;
};

/// The static-solver wrapper. The caller prepares the owned solver, then
/// Prepare()s the wrapper on the same graph, which only binds it.
using TracingSolver = Forwarding<ppr::Solver>;

/// The dynamic-solver wrapper: additionally forwards ApplyUpdates inside
/// an "api.apply_updates" span, recorded in call order.
class TracingDynamicSolver : public Forwarding<ppr::DynamicSolver> {
 public:
  TracingDynamicSolver(std::unique_ptr<ppr::Solver> inner, Tracer* tracer)
      : Forwarding(std::move(inner), tracer), dynamic_(inner_->AsDynamic()) {}

  ppr::Status ApplyUpdates(const ppr::UpdateBatch& batch,
                           ppr::UpdateStats* stats) override {
    Span span;
    span.name = "api.apply_updates";
    span.id = tracer_->NewId();
    span.start_ns = NowNs();
    ppr::Status status = dynamic_->ApplyUpdates(batch, stats);
    span.end_ns = NowNs();
    tracer_->Record(span);
    return status;
  }
  uint64_t epoch() const override { return dynamic_->epoch(); }
  ppr::Graph Snapshot() const override { return dynamic_->Snapshot(); }

 private:
  ppr::DynamicSolver* dynamic_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FORWARDING_SOLVER_H_
