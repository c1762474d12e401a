// The built-in Solver adapters: every SSPPR algorithm in src/core/,
// src/approx/ and src/bepi/ wrapped behind the unified api/ interface.
// The original free functions stay as the thin internals these adapters
// compose; what the adapters add is
//
//  * option-string configuration (SolverRegistry::Create),
//  * per-query parameter resolution (PprQuery overrides > option
//    overrides > built-in defaults),
//  * SolverContext workspace reuse: the push/walk compositions run
//    against the context's sparsely-reset vectors and scratch queue, so
//    a warm context performs no O(n) assign on repeated queries.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "api/dynamic_solver.h"
#include "api/registry.h"
#include "api/solver.h"
#include "core/dynamic_ppr.h"
#include "graph/permute.h"
#include "approx/bippr.h"
#include "approx/fora.h"
#include "approx/hubppr.h"
#include "approx/monte_carlo.h"
#include "approx/resacc.h"
#include "approx/residue_walks.h"
#include "approx/speedppr.h"
#include "approx/walk_index.h"
#include "bepi/bepi.h"
#include "core/forward_push.h"
#include "core/pagerank.h"
#include "core/power_iteration.h"
#include "core/power_push.h"
#include "core/priority_push.h"
#include "util/mutex.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace ppr {
namespace {

/// The cross-cutting options every registered solver accepts. threads=
/// selects the worker count for the solver's parallel stages (0 = defer
/// to PPR_THREADS/hardware for the thread-count-invariant stages, serial
/// for the order-sensitive dense kernels); order= selects the Prepare-
/// time CSR layout. Factories Read() before Finish() and Apply() after
/// construction.
struct CommonOptions {
  uint64_t threads = 0;
  std::string order_text = "none";

  void Read(OptionReader& reader) {
    reader.Uint64("threads", &threads).String("order", &order_text);
  }

  Status Apply(Solver* solver) const {
    if (threads > 256) {
      return Status::InvalidArgument(
          "option 'threads' expects at most 256 worker threads");
    }
    auto order = ParseGraphOrder(order_text);
    if (!order.ok()) return order.status();
    solver->set_threads(static_cast<unsigned>(threads));
    solver->set_graph_order(order.value());
    return Status::OK();
  }
};

/// Shared per-solver configuration defaults and query resolution.
struct ParamDefaults {
  double alpha = 0.2;
  double lambda = 1e-8;
  double epsilon = 0.5;
  double mu = 0.0;  // 0 → 1/n

  double Alpha(const PprQuery& q) const { return q.alpha > 0 ? q.alpha : alpha; }
  double Lambda(const PprQuery& q) const {
    return q.lambda > 0 ? q.lambda : lambda;
  }
  double Epsilon(const PprQuery& q) const {
    return q.epsilon > 0 ? q.epsilon : epsilon;
  }
  double Mu(const PprQuery& q, NodeId n) const {
    const double m = q.mu > 0 ? q.mu : mu;
    return m > 0 ? m : 1.0 / static_cast<double>(n);
  }
};

// --------------------------------------------------------------------
// High-precision push family
// --------------------------------------------------------------------

/// FIFO / priority Forward Push (Algorithm 2 and the max-benefit
/// ablation variant share everything but the push discipline).
class ForwardPushSolver : public Solver {
 public:
  ForwardPushSolver(bool priority, ParamDefaults params, double rmax)
      : params_(params), priority_(priority), rmax_(rmax) {}

  std::string_view name() const override {
    return priority_ ? "prioritypush" : "fwdpush";
  }

  SolverCapabilities capabilities() const override {
    SolverCapabilities caps;
    caps.family = SolverFamily::kHighPrecision;
    caps.exposes_residues = true;
    // The priority variant allocates its DHeap per solve, so only the
    // FIFO variant honors the warm-context no-full-assign contract.
    caps.reuses_workspace = !priority_;
    caps.supports_trace = true;
    return caps;
  }

  Status Prepare(const Graph& graph) override {
    PPR_RETURN_IF_ERROR(Solver::Prepare(graph));
    // graph_ rather than the argument: a configured order= layout means
    // the solver runs on its relabeled copy from here on.
    dead_ends_ = graph_->CountDeadEnds();
    return Status::OK();
  }

  double AdvertisedL1Bound(const PprQuery& query) const override {
    // Termination: every v inactive w.r.t. rmax, so
    // rsum ≤ Σ_v deff(v)·rmax = (m + #dead-ends)·rmax (Equation (7)).
    const double effective_edges =
        static_cast<double>(graph_->num_edges() + dead_ends_);
    return effective_edges * Rmax(query);
  }

 protected:
  Status DoSolve(const PprQuery& query, SolverContext& context,
                 PprResult* result) override {
    const NodeId n = graph_->num_nodes();
    PprEstimate* estimate = context.AcquireEstimate(n, query.source);
    ForwardPushOptions options;
    options.alpha = params_.Alpha(query);
    options.rmax = Rmax(query);
    options.assume_initialized = true;
    options.cancel = context.cancel_token();
    if (priority_) {
      result->stats = PriorityForwardPush(*graph_, query.source, options,
                                          estimate, context.trace());
    } else {
      result->stats =
          FifoForwardPush(*graph_, query.source, options, estimate,
                          context.trace(), context.AcquireQueue(n));
    }
    context.ExportEstimate(query.want_residues, result);
    return Status::OK();
  }

 private:
  double Rmax(const PprQuery& query) const {
    if (rmax_ > 0) return rmax_;
    return params_.Lambda(query) / static_cast<double>(graph_->num_edges());
  }

  const ParamDefaults params_;
  const bool priority_;
  const double rmax_;  // 0 → derive lambda/m per query
  NodeId dead_ends_ = 0;
};

/// PowerPush (Algorithm 3), the paper's primary contribution.
class PowerPushSolver : public Solver {
 public:
  /// epochs == 0 disables the dynamic-threshold epochs (single epoch at
  /// lambda); queue_phase=false skips the local FIFO phase — the two
  /// ablation axes of §5, exposed so the ablation benches run through
  /// the registry instead of core internals. relax=false runs the
  /// serial scan without over-relaxation (Algorithm 3 as published).
  PowerPushSolver(ParamDefaults params, double lambda_unset, int epochs,
                  double scan_threshold, bool queue_phase, bool relax)
      : params_(params),
        lambda_set_(lambda_unset > 0),
        epochs_(epochs),
        scan_threshold_(scan_threshold),
        queue_phase_(queue_phase),
        relax_(relax) {
    if (lambda_set_) params_.lambda = lambda_unset;
  }

  std::string_view name() const override { return "powerpush"; }

  SolverCapabilities capabilities() const override {
    SolverCapabilities caps;
    caps.family = SolverFamily::kHighPrecision;
    caps.exposes_residues = true;
    caps.reuses_workspace = true;
    caps.supports_trace = true;
    return caps;
  }

  Status Prepare(const Graph& graph) override {
    PPR_RETURN_IF_ERROR(Solver::Prepare(graph));
    dead_ends_ = graph_->CountDeadEnds();
    return Status::OK();
  }

  double AdvertisedL1Bound(const PprQuery& query) const override {
    // λ on dead-end-free graphs; λ·(1 + k/m) with k dead ends (see
    // power_push.h).
    const double m = static_cast<double>(graph_->num_edges());
    return Lambda(query) * (1.0 + static_cast<double>(dead_ends_) / m);
  }

 protected:
  Status DoSolve(const PprQuery& query, SolverContext& context,
                 PprResult* result) override {
    const NodeId n = graph_->num_nodes();
    PprEstimate* estimate = context.AcquireEstimate(n, query.source);
    PowerPushOptions options;
    options.alpha = params_.Alpha(query);
    options.lambda = Lambda(query);
    options.use_epochs = epochs_ > 0;
    options.epoch_num = epochs_ > 0 ? epochs_ : 1;
    options.use_queue_phase = queue_phase_;
    options.relax = relax_;
    options.scan_threshold_fraction = scan_threshold_;
    options.assume_initialized = true;
    options.threads = threads();
    options.cancel = context.cancel_token();
    result->stats = PowerPush(*graph_, query.source, options, estimate,
                              context.trace(), context.AcquireQueue(n),
                              threads() > 1
                                  ? context.AcquireThreadBuffers(threads(), n)
                                  : nullptr);
    context.ExportEstimate(query.want_residues, result);
    return Status::OK();
  }

 private:
  double Lambda(const PprQuery& query) const {
    if (query.lambda > 0) return query.lambda;
    return lambda_set_ ? params_.lambda : PaperLambda(*graph_);
  }

  ParamDefaults params_;
  const bool lambda_set_;  // false → paper default min(1e-8, 1/m)
  const int epochs_;
  const double scan_threshold_;
  const bool queue_phase_;
  const bool relax_;
  NodeId dead_ends_ = 0;
};

/// Vanilla Power Iteration (§3.1).
class PowerIterationSolver : public Solver {
 public:
  explicit PowerIterationSolver(ParamDefaults params) : params_(params) {}

  std::string_view name() const override { return "powitr"; }

  SolverCapabilities capabilities() const override {
    SolverCapabilities caps;
    caps.family = SolverFamily::kHighPrecision;
    caps.exposes_residues = true;
    // PowerIteration allocates its γ_{j+1} scratch per solve; the
    // context estimate is reused but the no-full-assign contract the
    // flag promises does not hold.
    caps.reuses_workspace = false;
    caps.supports_trace = true;
    return caps;
  }

  double AdvertisedL1Bound(const PprQuery& query) const override {
    return params_.Lambda(query);
  }

 protected:
  Status DoSolve(const PprQuery& query, SolverContext& context,
                 PprResult* result) override {
    const NodeId n = graph_->num_nodes();
    PprEstimate* estimate = context.AcquireEstimate(n, query.source);
    PowerIterationOptions options;
    options.alpha = params_.Alpha(query);
    options.lambda = params_.Lambda(query);
    options.assume_initialized = true;
    options.threads = threads();
    options.cancel = context.cancel_token();
    result->stats = PowerIteration(*graph_, query.source, options, estimate,
                                   context.trace(),
                                   threads() > 1
                                       ? context.AcquireThreadBuffers(
                                             threads(), n)
                                       : nullptr);
    context.ExportEstimate(query.want_residues, result);
    return Status::OK();
  }

 private:
  const ParamDefaults params_;
};

/// Global PageRank — the uniform-teleport special case; ignores
/// query.source.
class PageRankSolver : public Solver {
 public:
  explicit PageRankSolver(ParamDefaults params) : params_(params) {}

  std::string_view name() const override { return "pagerank"; }

  SolverCapabilities capabilities() const override {
    SolverCapabilities caps;
    caps.family = SolverFamily::kGlobal;
    return caps;
  }

  double AdvertisedL1Bound(const PprQuery& query) const override {
    return params_.Lambda(query);
  }

 protected:
  Status DoSolve(const PprQuery& query, SolverContext& context,
                 PprResult* result) override {
    PageRankOptions options;
    options.alpha = params_.Alpha(query);
    options.lambda = params_.Lambda(query);
    options.threads = threads();
    result->scores =
        PageRank(*graph_, options, &result->stats,
                 threads() > 1 ? context.AcquireThreadBuffers(
                                     threads(), graph_->num_nodes())
                               : nullptr);
    return Status::OK();
  }

 private:
  ParamDefaults params_;
};

/// BePI (Jung et al., SIGMOD'17): preprocessing-based high-precision
/// competitor. query.lambda doubles as BePI's convergence delta.
class BepiApiSolver : public Solver {
 public:
  BepiApiSolver(ParamDefaults params, uint64_t max_iterations)
      : params_(params), max_iterations_(max_iterations) {}

  std::string_view name() const override { return "bepi"; }

  SolverCapabilities capabilities() const override {
    SolverCapabilities caps;
    caps.family = SolverFamily::kHighPrecision;
    caps.needs_in_adjacency = true;
    caps.has_index = true;
    return caps;
  }

  Status Prepare(const Graph& graph) override {
    PPR_RETURN_IF_ERROR(Solver::Prepare(graph));
    BepiOptions options;
    options.alpha = params_.alpha;
    options.max_iterations = max_iterations_;
    bepi_ = BepiSolver::Preprocess(*graph_, options);
    return Status::OK();
  }

  double AdvertisedL1Bound(const PprQuery& query) const override {
    // BePI's delta is an ℓ2 successive-iterate criterion, not a direct
    // ℓ1 certificate; sqrt(delta) is a comfortably conservative
    // empirical calibration (see bepi_test: delta=1e-9 lands below
    // 1e-6 ℓ1 across the zoo).
    return std::sqrt(params_.Lambda(query));
  }

  uint64_t IndexBytes() const override { return bepi_ ? bepi_->IndexBytes() : 0; }

 protected:
  Status DoSolve(const PprQuery& query, SolverContext& /*context*/,
                 PprResult* result) override {
    if (query.alpha > 0 && query.alpha != params_.alpha) {
      return Status::InvalidArgument(
          "bepi preprocessing is bound to alpha=" +
          std::to_string(params_.alpha) + "; recreate with the alpha option");
    }
    result->stats =
        bepi_->Solve(query.source, params_.Lambda(query), &result->scores);
    return Status::OK();
  }

 private:
  const ParamDefaults params_;
  const uint64_t max_iterations_;
  std::unique_ptr<BepiSolver> bepi_;
};

/// Shared plumbing of the registered dynamic solvers (dynfwdpush and
/// the walk-index tier): the owned evolving graph in layout space, the
/// per-source residue-repair pool (core/dynamic_ppr), original-id
/// update mapping under order= layouts, and the original-id Snapshot().
/// Concrete solvers decide the rmax the pool maintains and what Solve
/// does with the maintained (reserve, residue) pairs.
class DynamicPoolSolver : public DynamicSolver {
 public:
  uint64_t epoch() const override {
    return dynamic_ != nullptr ? dynamic_->epoch() : 0;
  }

  Graph Snapshot() const override {
    PPR_CHECK(dynamic_ != nullptr) << "Snapshot() before Prepare()";
    Graph layout = dynamic_->Snapshot();
    const std::vector<NodeId>& perm = layout_permutation();
    if (perm.empty()) return layout;
    // Back to original ids: layout node perm[v] is original node v, and
    // nodes added after Prepare sit at the same id in both spaces.
    std::vector<NodeId> inverse(layout.num_nodes());
    for (NodeId v = 0; v < static_cast<NodeId>(perm.size()); ++v) {
      inverse[perm[v]] = v;
    }
    for (NodeId v = static_cast<NodeId>(perm.size());
         v < layout.num_nodes(); ++v) {
      inverse[v] = v;
    }
    return PermuteGraph(layout, inverse);
  }

  /// Queries range-check against the evolving graph, so nodes added by
  /// ApplyUpdates are queryable without re-Prepare.
  NodeId CurrentNumNodes() const override {
    return dynamic_ != nullptr ? dynamic_->num_nodes()
                               : Solver::CurrentNumNodes();
  }

 protected:
  /// Builds the evolving copy and the tracker pool; call from Prepare()
  /// after Solver::Prepare() bound graph_ (so an order= layout is
  /// already applied — repairs then enjoy the relabeled CSR too).
  void PrepareDynamicState(double alpha, double rmax) {
    dynamic_ = std::make_unique<DynamicGraph>(*graph_);
    DynamicSsppr::Options options;
    options.alpha = alpha;
    options.rmax = rmax;
    pool_ = std::make_unique<DynamicSspprPool>(dynamic_.get(), options);
  }

  /// Maps the batch into layout space when needed and applies it to the
  /// pool; `applied` fires after each landed mutation (see
  /// DynamicSspprPool::Apply). The caller-must-hold-mu_ contract is
  /// compiler-checked under PPR_ANALYZE.
  Status ApplyToPool(const UpdateBatch& batch, uint64_t* pushes,
                     const std::function<void(const EdgeUpdate&)>& applied)
      PPR_REQUIRES(mu_) {
    const std::vector<NodeId>& perm = layout_permutation();
    if (perm.empty()) return pool_->Apply(batch, pushes, applied);
    // Updates arrive in original ids; the evolving graph lives in
    // layout space. LayoutOf passes post-Prepare ids (identity-mapped)
    // and out-of-range ids through unchanged — Apply's validation
    // rejects the truly out-of-range ones against the evolving node
    // count, which Prepare-time perm cannot know.
    UpdateBatch mapped;
    mapped.updates.reserve(batch.updates.size());
    for (const EdgeUpdate& up : batch.updates) {
      switch (up.kind) {
        case UpdateKind::kAddNode:
          mapped.updates.push_back(up);  // no ids to map
          break;
        case UpdateKind::kRemoveNode:
          mapped.updates.push_back({up.kind, LayoutOf(up.u), 0});
          break;
        default:
          mapped.updates.push_back({up.kind, LayoutOf(up.u), LayoutOf(up.v)});
          break;
      }
    }
    return pool_->Apply(mapped, pushes, applied);
  }

  /// The maintained tracker for `source`, built on first use. mu_ is
  /// held only to look the tracker up and to adopt a new one; a cold
  /// build runs outside it (it only reads the graph, which the
  /// DynamicSolver contract keeps ApplyUpdates from changing under a
  /// Solve), so reads of other sources, warm or cold, go on in
  /// parallel. Racing first reads of one source may both build the same
  /// deterministic push; the first one adopted is kept. The call that
  /// built adds the build's pushes and wall time to *stats, so a cold
  /// read reports its cost; a warm read adds nothing.
  const DynamicSsppr& TrackerFor(NodeId source, SolveStats* stats)
      PPR_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (const DynamicSsppr* tracker = pool_->Find(source)) {
        return *tracker;
      }
    }
    Timer timer;
    uint64_t pushes = 0;
    std::unique_ptr<DynamicSsppr> built = pool_->Build(source, &pushes);
    stats->push_operations += pushes;
    stats->seconds += timer.ElapsedSeconds();
    MutexLock lock(mu_);
    return pool_->Adopt(std::move(built));
  }

  std::unique_ptr<DynamicGraph> dynamic_;
  std::unique_ptr<DynamicSspprPool> pool_;
  /// Guards the pool's tracker map: TrackerFor's lookup and adoption,
  /// and ApplyUpdates' repair of every tracker (which takes it for the
  /// whole batch). Reads of a tracker's estimate run outside it.
  Mutex mu_;
};

/// Incremental Forward Push on an evolving graph ("dynfwdpush"): the
/// registry face of core/dynamic_ppr.h. Prepare copies the graph into an
/// owned DynamicGraph; ApplyUpdates repairs a pool of per-source
/// trackers algebraically instead of re-solving, and Solve exports the
/// maintained estimate for its source — so repeated queries on a slowly
/// mutating graph cost O(updates · d_u), not O(m) per query.
///
/// Under an order= layout the evolving graph lives in layout space (the
/// repair pushes walk the relabeled CSR-ordered adjacency): update
/// endpoints are mapped in, results map back through the base Solve.
class DynFwdPushSolver : public DynamicPoolSolver {
 public:
  DynFwdPushSolver(ParamDefaults params, double rmax)
      : params_(params), rmax_(rmax) {}

  std::string_view name() const override { return "dynfwdpush"; }

  SolverCapabilities capabilities() const override {
    SolverCapabilities caps;
    caps.family = SolverFamily::kHighPrecision;
    caps.exposes_residues = true;
    caps.supports_updates = true;
    return caps;
  }

  Status Prepare(const Graph& graph) override {
    PPR_RETURN_IF_ERROR(Solver::Prepare(graph));
    prepare_edges_ = graph_->num_edges();
    PrepareDynamicState(params_.alpha, ResolvedRmax());
    return Status::OK();
  }

  double AdvertisedL1Bound(const PprQuery& /*query*/) const override {
    // Termination of every repair: |r(v)| <= deff(v)·rmax for all v, so
    // Σ|r| <= (m + k)·rmax at the *current* edge and dead-end counts —
    // the evolving-graph form of Equation (7). DynamicGraph maintains
    // both counts in O(1).
    const double effective_edges = static_cast<double>(
        dynamic_->num_edges() + dynamic_->num_dead_ends());
    return effective_edges * ResolvedRmax();
  }

  Status ApplyUpdates(const UpdateBatch& batch,
                      UpdateStats* stats) override {
    if (pool_ == nullptr) {
      return Status::FailedPrecondition(
          "ApplyUpdates() before a successful Prepare()");
    }
    Timer timer;
    uint64_t pushes = 0;
    MutexLock lock(mu_);
    PPR_RETURN_IF_ERROR(ApplyToPool(batch, &pushes, {}));
    if (stats != nullptr) {
      stats->push_operations = pushes;
      stats->walks_resampled = 0;
      stats->resize_events = 0;
      stats->seconds = timer.ElapsedSeconds();
      stats->epoch = dynamic_->epoch();
    }
    return Status::OK();
  }

 protected:
  Status DoSolve(const PprQuery& query, SolverContext& /*context*/,
                 PprResult* result) override {
    if (query.alpha > 0 && query.alpha != params_.alpha) {
      return Status::InvalidArgument(
          "dynfwdpush trackers are bound to alpha=" +
          std::to_string(params_.alpha) + "; recreate with the alpha option");
    }
    if (query.lambda > 0) {
      return Status::InvalidArgument(
          "dynfwdpush maintains its estimate at a fixed rmax; set the rmax "
          "(or lambda) option instead of a per-query lambda");
    }
    // The estimate lives in the solver (that is the point: it persists
    // across queries and updates), not in the context. Between update
    // batches it is read-only (ApplyUpdates is excluded by the
    // DynamicSolver contract), so the copy runs outside mu_ and
    // concurrent reads proceed in parallel; first use pays one
    // from-scratch push.
    const DynamicSsppr& tracker =
        TrackerFor(query.source, &result->stats);
    const PprEstimate& estimate = tracker.estimate();
    result->scores.assign(estimate.reserve.begin(), estimate.reserve.end());
    if (query.want_residues) {
      result->residues.assign(estimate.residue.begin(),
                              estimate.residue.end());
    }
    result->epoch = dynamic_->epoch();
    result->stats.final_rsum = tracker.ResidueL1();
    return Status::OK();
  }

 private:
  double ResolvedRmax() const {
    if (rmax_ > 0) return rmax_;
    // lambda → rmax at the Prepare-time edge count; the advertised
    // bound above tracks the current counts as the graph evolves.
    return params_.lambda /
           static_cast<double>(std::max<EdgeId>(prepare_edges_, 1));
  }

  const ParamDefaults params_;
  const double rmax_;  // 0 → derive lambda/m at Prepare
  EdgeId prepare_edges_ = 1;
};

// --------------------------------------------------------------------
// Approximate family
// --------------------------------------------------------------------

/// Plain Monte Carlo: W Chernoff-sized α-walks from the source.
class MonteCarloSolver : public Solver {
 public:
  explicit MonteCarloSolver(ParamDefaults params) : params_(params) {}

  std::string_view name() const override { return "mc"; }

  SolverCapabilities capabilities() const override {
    SolverCapabilities caps;
    caps.family = SolverFamily::kApproximate;
    caps.randomized = true;
    caps.reuses_workspace = true;
    return caps;
  }

  double AdvertisedL1Bound(const PprQuery& query) const override {
    return params_.Epsilon(query);
  }

 protected:
  Status DoSolve(const PprQuery& query, SolverContext& context,
                 PprResult* result) override {
    const NodeId n = graph_->num_nodes();
    ApproxOptions options;
    options.alpha = params_.Alpha(query);
    options.epsilon = params_.Epsilon(query);
    options.mu = params_.Mu(query, n);
    options.threads = threads();
    options.cancel = context.cancel_token();
    PPR_RETURN_IF_ERROR(CheckWalkCount(n, options.epsilon, options.mu));
    std::vector<double>* scores = context.AcquireScores(n);
    // Scratch feeds only the dense-counts branch; the stop-list branch
    // would leave O(n·workers) buffers pinned unused.
    const unsigned workers = ResolvedWorkers();
    result->stats = MonteCarloInto(
        *graph_, query.source, options, context.rng(), scores,
        workers > 1 && MonteCarloUsesDenseCounts(n, options)
            ? context.AcquireThreadBuffers(workers, n)
            : nullptr);
    context.ExportScores(result);
    return Status::OK();
  }

 private:
  const ParamDefaults params_;
};

/// FORA / FORA+ and SpeedPPR / SpeedPPR-Index share the two-phase
/// structure; `kind_` picks the phase-1 engine and the index sizing.
class TwoPhaseSolver : public Solver {
 public:
  enum class Kind { kFora, kSpeedPpr };

  TwoPhaseSolver(Kind kind, ParamDefaults params, bool indexed,
                 double index_eps, uint64_t index_seed, std::string cache_dir)
      : kind_(kind),
        params_(params),
        indexed_(indexed),
        index_eps_(index_eps),
        index_seed_(index_seed),
        cache_dir_(std::move(cache_dir)) {}

  std::string_view name() const override {
    return kind_ == Kind::kFora ? "fora" : "speedppr";
  }

  SolverCapabilities capabilities() const override {
    SolverCapabilities caps;
    caps.family = SolverFamily::kApproximate;
    caps.randomized = true;
    caps.reuses_workspace = true;
    caps.has_index = indexed_;
    return caps;
  }

  Status Prepare(const Graph& graph) override {
    // FORA+ sizing depends on W and therefore on the ε the index is
    // built for (§6.1); smaller index_eps serves every larger ε.
    const NodeId n = graph.num_nodes();
    const double index_eps = index_eps_ > 0 ? index_eps_ : params_.epsilon;
    if (indexed_ && kind_ == Kind::kFora) {
      PPR_RETURN_IF_ERROR(CheckWalkCount(n, index_eps, params_.Mu({}, n)));
    }
    PPR_RETURN_IF_ERROR(Solver::Prepare(graph));
    index_.reset();
    if (!indexed_) return Status::OK();
    WalkIndex::Sizing sizing;
    uint64_t w;
    if (kind_ == Kind::kSpeedPpr) {
      // ε-independent sizing: exactly d_v walks per node (§6.2).
      sizing = WalkIndex::Sizing::kSpeedPpr;
      w = 0;
    } else {
      sizing = WalkIndex::Sizing::kForaPlus;
      w = ChernoffWalkCount(n, index_eps, params_.Mu({}, n));
    }
    // cache_dir=: reuse a previously saved index whose filename matches
    // every build input; otherwise build and save for the next Prepare.
    std::string cache_path;
    if (!cache_dir_.empty()) {
      // The fingerprint is taken from graph_: under an order= layout the
      // permuted CSR fingerprints differently, so caches built for
      // different layouts of the same graph never cross-load.
      cache_path = cache_dir_ + "/" +
                   WalkIndex::CacheFileName(sizing, params_.alpha, w,
                                            index_seed_,
                                            graph_->Fingerprint());
      auto loaded = WalkIndex::LoadFrom(cache_path);
      // The embedded fingerprint is the staleness check the filename
      // cannot provide: a cache saved before the graph changed (and
      // renamed, copied, or colliding into the expected path) fails
      // here and Prepare rebuilds instead of serving stale walks.
      if (loaded.ok() && loaded.value().num_nodes() == n &&
          loaded.value().alpha() == params_.alpha &&
          loaded.value().graph_fingerprint() == graph_->Fingerprint()) {
        index_ = std::make_unique<WalkIndex>(std::move(loaded).ValueOrDie());
        return Status::OK();
      }
    }
    index_ = std::make_unique<WalkIndex>(WalkIndex::BuildParallel(
        *graph_, params_.alpha, sizing, w, index_seed_));
    if (!cache_path.empty()) {
      // The in-memory index is valid either way; a failed save (missing
      // or read-only cache_dir) costs the next Prepare a rebuild, not
      // this one its solver.
      Status saved = index_->SaveTo(cache_path);
      if (!saved.ok()) {
        PPR_LOG(Warning) << "walk-index cache not saved: "
                         << saved.ToString();
      }
    }
    return Status::OK();
  }

  double AdvertisedL1Bound(const PprQuery& query) const override {
    return params_.Epsilon(query);
  }

  uint64_t IndexBytes() const override {
    return index_ != nullptr ? index_->SizeBytes() : 0;
  }

  const WalkIndex* index() const { return index_.get(); }

 protected:
  Status DoSolve(const PprQuery& query, SolverContext& context,
                 PprResult* result) override {
    const NodeId n = graph_->num_nodes();
    const double alpha = params_.Alpha(query);
    if (indexed_ && query.alpha > 0 && query.alpha != params_.alpha) {
      return Status::InvalidArgument(
          "the walk index is bound to alpha=" + std::to_string(params_.alpha) +
          "; recreate with the alpha option");
    }
    ApproxOptions options;
    options.alpha = alpha;
    options.epsilon = params_.Epsilon(query);
    options.mu = params_.Mu(query, n);
    options.threads = threads();
    options.cancel = context.cancel_token();
    PPR_RETURN_IF_ERROR(CheckWalkCount(n, options.epsilon, options.mu));

    // The compositions live in SpeedPprInto/ForaInto — shared with the
    // free functions, so the two entry points cannot drift. Both record
    // the nodes they touch, so Release/Export below visit only those.
    PprEstimate* estimate = context.AcquireEstimate(n, query.source);
    std::vector<double>* scores = context.AcquireScores(n);
    NodeSet* estimate_support = context.TrackEstimate();
    NodeSet* scores_support = context.TrackScores();
    if (kind_ == Kind::kSpeedPpr) {
      // Lend scratch only to the stages that will read it: the PowerPush
      // scan under an explicit threads=N, or the W <= m MonteCarlo
      // fallback (which auto-parallelizes under threads=0, except on a
      // PprServer or BatchSolve worker, where ResolvedWorkers() is 1 and
      // nothing is lent). Acquiring unconditionally would pin
      // O(n·workers) buffers that the common W > m, threads=0 path never
      // touches.
      const unsigned workers = ResolvedWorkers();
      const bool mc_fallback_wants_scratch =
          SpeedPprUsesMonteCarloFallback(*graph_, options) &&
          MonteCarloUsesDenseCounts(n, options);
      ThreadDenseBuffers* scratch =
          workers > 1 && (threads() > 1 || mc_fallback_wants_scratch)
              ? context.AcquireThreadBuffers(workers, n)
              : nullptr;
      result->stats = SpeedPprInto(
          *graph_, query.source, options, context.rng(), estimate, scores,
          index_.get(), context.AcquireQueue(n), scratch, estimate_support,
          scores_support);
    } else {
      result->stats = ForaInto(*graph_, query.source, options, context.rng(),
                               estimate, scores, index_.get(),
                               context.AcquireQueue(n), estimate_support,
                               scores_support);
    }
    context.ReleaseEstimate();
    context.ExportScores(result);
    return Status::OK();
  }

 private:
  const Kind kind_;
  const ParamDefaults params_;
  const bool indexed_;
  const double index_eps_;
  const uint64_t index_seed_;
  const std::string cache_dir_;
  std::unique_ptr<WalkIndex> index_;
};

/// The dynamic approximate tier ("dynfora" / "dynspeedppr"): FORA and
/// SpeedPPR kept query-ready on an evolving graph, pairing the two
/// incremental structures the static two-phase solvers lack:
///
///  * phase 1 (push) is not re-run per update — a DynamicSspprPool
///    maintains each queried source's (reserve, residue) pair at the
///    algorithm's own rmax (FORA: 1/sqrt(m·W); SpeedPPR: 1/W, which is
///    exactly the refinement target r(s,v) ≤ d_v/W of Lemma 4.5), using
///    the O(d_u) algebraic corrections of core/dynamic_ppr;
///  * phase 2's WalkIndex is not rebuilt per update — a DynamicWalkIndex
///    resamples only the walks a mutation actually invalidated
///    (UpdateStats::walks_resampled counts them) and tracks the sizing
///    rule at the new degrees, staying distribution-identical to a
///    fresh build on the updated graph.
///
/// Solve composes the two exactly like the static compositions: seed
/// scores from the maintained reserves, then run the shared
/// ResidueWalkPhase over the maintained residues against the repaired
/// index, topping up shortfalls with fresh walks on a cached CSR
/// snapshot of the current epoch. Deletion corrections can leave
/// negative residues; the walk phase handles them with signed
/// contributions (|r| walks of weight r/W_v), keeping the estimate
/// unbiased.
///
/// The W behind the walk counts (and FORA's rmax) is fixed at Prepare
/// from the configured ε — per-query ε/α/μ overrides are rejected, the
/// same way dynfwdpush rejects per-query lambdas. For the kForaPlus
/// sizing the per-degree ratio sqrt(W/m) tracks the live m: when it
/// drifts past the configured drift= factor, the index re-derives the
/// ratio and resizes every K_v (UpdateStats::resize_events counts the
/// events; see DynamicWalkIndex).
class DynTwoPhaseSolver : public DynamicPoolSolver {
 public:
  using Kind = TwoPhaseSolver::Kind;

  DynTwoPhaseSolver(Kind kind, ParamDefaults params, double index_eps,
                    uint64_t index_seed, double drift_factor)
      : kind_(kind),
        params_(params),
        index_eps_(index_eps),
        index_seed_(index_seed),
        drift_factor_(drift_factor) {}

  std::string_view name() const override {
    return kind_ == Kind::kFora ? "dynfora" : "dynspeedppr";
  }

  SolverCapabilities capabilities() const override {
    SolverCapabilities caps;
    caps.family = SolverFamily::kApproximate;
    caps.randomized = true;
    caps.reuses_workspace = true;
    caps.has_index = true;
    caps.supports_updates = true;
    return caps;
  }

  Status Prepare(const Graph& graph) override {
    const NodeId n = graph.num_nodes();
    const double index_eps = index_eps_ > 0 ? index_eps_ : params_.epsilon;
    PPR_RETURN_IF_ERROR(CheckWalkCount(n, params_.epsilon, params_.Mu({}, n)));
    if (kind_ == Kind::kFora) {
      PPR_RETURN_IF_ERROR(CheckWalkCount(n, index_eps, params_.Mu({}, n)));
    }
    PPR_RETURN_IF_ERROR(Solver::Prepare(graph));
    walk_count_w_ =
        ChernoffWalkCount(n, params_.epsilon, params_.Mu({}, n));
    const double rmax =
        kind_ == Kind::kSpeedPpr
            ? 1.0 / static_cast<double>(walk_count_w_)
            : ForaRmax(*graph_, walk_count_w_);
    PrepareDynamicState(params_.alpha, rmax);

    WalkIndex::Sizing sizing;
    uint64_t index_w = 0;
    if (kind_ == Kind::kSpeedPpr) {
      // ε-independent d_v sizing (§6.2) — nothing to freeze.
      sizing = WalkIndex::Sizing::kSpeedPpr;
    } else {
      // FORA+ sizing at the index ε (≤ the serving ε tops up less).
      sizing = WalkIndex::Sizing::kForaPlus;
      index_w = ChernoffWalkCount(n, index_eps, params_.Mu({}, n));
    }
    index_ = std::make_unique<DynamicWalkIndex>(
        *graph_, params_.alpha, sizing, index_w, index_seed_, drift_factor_);
    {
      MutexLock lock(mu_);
      snapshot_.reset();
      snapshot_epoch_ = 0;
    }
    return Status::OK();
  }

  double AdvertisedL1Bound(const PprQuery& query) const override {
    return params_.Epsilon(query);
  }

  Status ApplyUpdates(const UpdateBatch& batch,
                      UpdateStats* stats) override {
    if (pool_ == nullptr) {
      return Status::FailedPrecondition(
          "ApplyUpdates() before a successful Prepare()");
    }
    Timer timer;
    uint64_t pushes = 0;
    uint64_t walks = 0;
    MutexLock lock(mu_);
    const uint64_t resizes_before = index_->resize_events();
    // The hook runs right after each mutation lands, so the index always
    // repairs against the adjacency the walks must now follow; residue
    // repair and walk refresh share one validation and one graph pass.
    // Node ops arrive through the same hook: a kAddNode grows the index
    // in lockstep with the graph; a kRemoveNode already fired the hook
    // once per lowered edge deletion, so its marker needs no refresh.
    PPR_RETURN_IF_ERROR(
        ApplyToPool(batch, &pushes, [&](const EdgeUpdate& up) {
          switch (up.kind) {
            case UpdateKind::kAddNode:
              index_->AddNode();
              break;
            case UpdateKind::kRemoveNode:
              break;
            default:
              walks += index_->RefreshMutatedNode(*dynamic_, up.u);
              break;
          }
        }));
    snapshot_.reset();  // next Solve re-materializes the current epoch
    if (stats != nullptr) {
      stats->push_operations = pushes;
      stats->walks_resampled = walks;
      stats->resize_events = index_->resize_events() - resizes_before;
      stats->seconds = timer.ElapsedSeconds();
      stats->epoch = dynamic_->epoch();
    }
    return Status::OK();
  }

  uint64_t IndexBytes() const override {
    return index_ != nullptr ? index_->SizeBytes() : 0;
  }

  const DynamicWalkIndex* index() const { return index_.get(); }

 protected:
  Status DoSolve(const PprQuery& query, SolverContext& context,
                 PprResult* result) override {
    if (query.alpha > 0 && query.alpha != params_.alpha) {
      return Status::InvalidArgument(
          std::string(name()) + " trackers and walk index are bound to "
          "alpha=" + std::to_string(params_.alpha) +
          "; recreate with the alpha option");
    }
    if ((query.epsilon > 0 && query.epsilon != params_.epsilon) ||
        (query.mu > 0 && query.mu != params_.mu)) {
      return Status::InvalidArgument(
          std::string(name()) + " maintains its estimate at the W derived "
          "from its configured eps/mu; recreate with the eps/mu options");
    }
    if (query.lambda > 0) {
      return Status::InvalidArgument(
          std::string(name()) +
          " is an approximate solver; lambda does not apply");
    }
    SolveStats stats;
    const DynamicSsppr& tracker = TrackerFor(query.source, &stats);
    const Graph* snapshot;
    {
      MutexLock lock(mu_);
      RefreshSnapshotLocked();
      snapshot = snapshot_.get();
    }
    // Phase 2 runs outside mu_: between update batches the maintained
    // estimates, the walk index and the epoch snapshot are all
    // read-only (ApplyUpdates is excluded by the DynamicSolver
    // contract — under load, by the server's epoch barrier), so
    // concurrent queries pay the lock only for tracker lookup/adoption
    // and the per-epoch snapshot refresh, not for the walk phase that
    // dominates the query. The snapshot's node count (not the
    // Prepare-time graph_'s) sizes the workspace: the graph may have
    // grown through kAddNode updates.
    const NodeId n = snapshot->num_nodes();
    Timer timer;
    std::vector<double>* scores = context.AcquireScores(n);
    SeedScoresFromReserve(tracker.estimate().reserve, scores);
    ResidueWalkPhase(*snapshot, tracker.estimate().residue, walk_count_w_,
                     params_.alpha, context.rng(), index_.get(), scores,
                     &stats, threads(), context.cancel_token());
    stats.final_rsum = tracker.ResidueL1();
    stats.seconds += timer.ElapsedSeconds();
    result->stats = stats;
    context.ExportScores(result);
    result->epoch = dynamic_->epoch();
    return Status::OK();
  }

 private:
  /// The walk phase's fresh-walk top-ups need a CSR of the current
  /// graph; materialized once per epoch, not per query. Caller holds
  /// mu_.
  void RefreshSnapshotLocked() PPR_REQUIRES(mu_) {
    if (snapshot_ == nullptr || snapshot_epoch_ != dynamic_->epoch()) {
      snapshot_ = std::make_unique<Graph>(dynamic_->Snapshot());
      snapshot_epoch_ = dynamic_->epoch();
    }
  }

  const Kind kind_;
  const ParamDefaults params_;
  const double index_eps_;
  const uint64_t index_seed_;
  const double drift_factor_;
  uint64_t walk_count_w_ = 0;
  std::unique_ptr<DynamicWalkIndex> index_;
  std::unique_ptr<Graph> snapshot_ PPR_GUARDED_BY(mu_);  // layout space
  uint64_t snapshot_epoch_ PPR_GUARDED_BY(mu_) = 0;
};

/// ResAcc (Lin et al., ICDE'20): index-free FORA accelerator.
class ResAccSolver : public Solver {
 public:
  explicit ResAccSolver(ParamDefaults params) : params_(params) {}

  std::string_view name() const override { return "resacc"; }

  SolverCapabilities capabilities() const override {
    SolverCapabilities caps;
    caps.family = SolverFamily::kApproximate;
    caps.randomized = true;
    return caps;
  }

  double AdvertisedL1Bound(const PprQuery& query) const override {
    return params_.Epsilon(query);
  }

 protected:
  Status DoSolve(const PprQuery& query, SolverContext& context,
                 PprResult* result) override {
    ApproxOptions options;
    options.alpha = params_.Alpha(query);
    options.epsilon = params_.Epsilon(query);
    options.mu = params_.Mu(query, graph_->num_nodes());
    options.threads = threads();
    options.cancel = context.cancel_token();
    PPR_RETURN_IF_ERROR(
        CheckWalkCount(graph_->num_nodes(), options.epsilon, options.mu));
    result->stats = ResAcc(*graph_, query.source, options, context.rng(),
                           &result->scores);
    return Status::OK();
  }

 private:
  const ParamDefaults params_;
};

// --------------------------------------------------------------------
// Single-pair family
// --------------------------------------------------------------------

/// Shared single-pair plumbing: a concrete estimator answers one
/// (s, t) pair; the base materializes whole vectors by looping targets
/// when the query has none (O(n) pair queries — small graphs only).
class SinglePairSolver : public Solver {
 public:
  SolverCapabilities capabilities() const override {
    SolverCapabilities caps;
    caps.family = SolverFamily::kSinglePair;
    caps.randomized = true;
    caps.needs_in_adjacency = true;
    caps.needs_dead_end_free = true;
    return caps;
  }

  double AdvertisedL1Bound(const PprQuery& query) const override {
    // ε relative error at magnitude ≥ δ plus ~ε·δ absolute noise below
    // it: ε per pair, 2ε summed over a whole column (δ = 1/n).
    const double eps = params_.Epsilon(query);
    return query.target != kNoTarget ? eps : 2.0 * eps;
  }

 protected:
  explicit SinglePairSolver(ParamDefaults params) : params_(params) {}

  virtual BiPprResult SolvePair(NodeId source, NodeId target,
                                const PprQuery& query, Rng& rng) = 0;

  Status DoSolve(const PprQuery& query, SolverContext& context,
                 PprResult* result) override {
    const NodeId n = graph_->num_nodes();
    result->scores.assign(n, 0.0);
    SolveStats stats;
    Timer timer;
    if (query.target != kNoTarget) {
      BiPprResult pair =
          SolvePair(query.source, query.target, query, context.rng());
      result->scores[query.target] = pair.estimate;
      stats.random_walks = pair.walks;
      stats.push_operations = pair.backward_pushes;
    } else {
      // Materializing the column runs every target on its own RNG
      // stream derived from one context draw; targets write disjoint
      // entries, so the fan-out parallelizes with bit-identical results
      // for every thread count.
      const uint64_t seed = context.rng().NextUint64();
      const unsigned workers = ResolvedWorkers();
      std::vector<uint64_t> walks(workers, 0);
      std::vector<uint64_t> pushes(workers, 0);
      ParallelForThreads(0, n, workers,
                         [&](uint64_t lo, uint64_t hi, unsigned w) {
        for (uint64_t t = lo; t < hi; ++t) {
          Rng rng = SplitStream(seed, t);
          BiPprResult pair =
              SolvePair(query.source, static_cast<NodeId>(t), query, rng);
          result->scores[t] = pair.estimate;
          walks[w] += pair.walks;
          pushes[w] += pair.backward_pushes;
        }
      }, /*grain=*/1);
      for (unsigned w = 0; w < workers; ++w) {
        stats.random_walks += walks[w];
        stats.push_operations += pushes[w];
      }
    }
    stats.seconds = timer.ElapsedSeconds();
    result->stats = stats;
    return Status::OK();
  }

  const ParamDefaults params_;
};

/// BiPPR (Lofgren et al., WSDM'16).
class BiPprSolver : public SinglePairSolver {
 public:
  BiPprSolver(ParamDefaults params, double delta, double rmax)
      : SinglePairSolver(params), delta_(delta), rmax_(rmax) {}

  std::string_view name() const override { return "bippr"; }

 protected:
  BiPprResult SolvePair(NodeId source, NodeId target, const PprQuery& query,
                        Rng& rng) override {
    BiPprOptions options;
    options.alpha = params_.Alpha(query);
    options.epsilon = params_.Epsilon(query);
    options.delta = delta_;
    options.rmax = rmax_;
    return BiPpr(*graph_, source, target, options, rng);
  }

 private:
  const double delta_;
  const double rmax_;
};

/// HubPPR (Wang et al., VLDB'16): BiPPR with precomputed backward
/// oracles for hub targets.
class HubPprSolver : public SinglePairSolver {
 public:
  HubPprSolver(ParamDefaults params, uint64_t num_hubs, double rmax)
      : SinglePairSolver(params), num_hubs_(num_hubs), rmax_(rmax) {}

  std::string_view name() const override { return "hubppr"; }

  SolverCapabilities capabilities() const override {
    SolverCapabilities caps = SinglePairSolver::capabilities();
    caps.has_index = true;
    return caps;
  }

  Status Prepare(const Graph& graph) override {
    PPR_RETURN_IF_ERROR(Solver::Prepare(graph));
    HubPprIndex::Options options;
    options.alpha = params_.alpha;
    options.num_hubs = static_cast<NodeId>(num_hubs_);
    if (rmax_ > 0) options.rmax = rmax_;
    // graph_, not the argument: under order= the hub oracles must live
    // in the same relabeled id space the queries arrive in.
    index_ = HubPprIndex::Build(*graph_, options);
    return Status::OK();
  }

 protected:
  BiPprResult SolvePair(NodeId source, NodeId target, const PprQuery& query,
                        Rng& rng) override {
    return index_->Query(source, target, params_.Epsilon(query), rng);
  }

 private:
  const uint64_t num_hubs_;
  const double rmax_;
  std::optional<HubPprIndex> index_;
};

// --------------------------------------------------------------------
// Factories + registration
// --------------------------------------------------------------------

/// Applies the cross-cutting options and hands the solver over — the
/// shared tail of every factory.
Result<std::unique_ptr<Solver>> FinishSolver(const CommonOptions& common,
                                             std::unique_ptr<Solver> solver) {
  PPR_RETURN_IF_ERROR(common.Apply(solver.get()));
  return solver;
}

Result<std::unique_ptr<Solver>> MakeForwardPush(const SolverSpec& spec,
                                                bool priority) {
  ParamDefaults params;
  double rmax = 0.0;
  CommonOptions common;
  OptionReader reader(spec);
  common.Read(reader);
  reader.Parameter("alpha", &params.alpha)
      .Parameter("lambda", &params.lambda)
      .Double("rmax", &rmax);
  PPR_RETURN_IF_ERROR(reader.Finish());
  return FinishSolver(common, std::unique_ptr<Solver>(new ForwardPushSolver(
                                  priority, params, rmax)));
}

Result<std::unique_ptr<Solver>> MakeDynFwdPush(const SolverSpec& spec) {
  ParamDefaults params;
  double rmax = 0.0;
  CommonOptions common;
  OptionReader reader(spec);
  common.Read(reader);
  reader.Parameter("alpha", &params.alpha)
      .Parameter("lambda", &params.lambda)
      .Double("rmax", &rmax);
  PPR_RETURN_IF_ERROR(reader.Finish());
  return FinishSolver(common, std::unique_ptr<Solver>(new DynFwdPushSolver(
                                  params, rmax)));
}

Result<std::unique_ptr<Solver>> MakePowerPush(const SolverSpec& spec) {
  ParamDefaults params;
  double lambda = 0.0;  // unset → paper default min(1e-8, 1/m)
  int epochs = 8;  // 0 → single epoch at lambda (no-epochs ablation)
  double scan_threshold = kScanThresholdFraction;
  bool queue_phase = true;
  bool relax = PowerPushOptions{}.relax;
  CommonOptions common;
  OptionReader reader(spec);
  common.Read(reader);
  reader.Parameter("alpha", &params.alpha)
      .Parameter("lambda", &lambda)
      .Int("epochs", &epochs)
      .Double("scan_threshold", &scan_threshold)
      .Bool("queue_phase", &queue_phase)
      .Bool("relax", &relax);
  PPR_RETURN_IF_ERROR(reader.Finish());
  if (epochs < 0) {
    return Status::InvalidArgument("powerpush: epochs must be >= 0");
  }
  return FinishSolver(common,
                      std::unique_ptr<Solver>(new PowerPushSolver(
                          params, lambda, epochs, scan_threshold,
                          queue_phase, relax)));
}

Result<std::unique_ptr<Solver>> MakePowerIteration(const SolverSpec& spec) {
  ParamDefaults params;
  CommonOptions common;
  OptionReader reader(spec);
  common.Read(reader);
  reader.Parameter("alpha", &params.alpha)
      .Parameter("lambda", &params.lambda);
  PPR_RETURN_IF_ERROR(reader.Finish());
  return FinishSolver(common,
                      std::unique_ptr<Solver>(new PowerIterationSolver(params)));
}

Result<std::unique_ptr<Solver>> MakePageRank(const SolverSpec& spec) {
  ParamDefaults params;
  params.lambda = 1e-10;
  CommonOptions common;
  OptionReader reader(spec);
  common.Read(reader);
  reader.Parameter("alpha", &params.alpha)
      .Parameter("lambda", &params.lambda);
  PPR_RETURN_IF_ERROR(reader.Finish());
  return FinishSolver(common,
                      std::unique_ptr<Solver>(new PageRankSolver(params)));
}

Result<std::unique_ptr<Solver>> MakeBepi(const SolverSpec& spec) {
  ParamDefaults params;
  uint64_t max_iterations = 1000;
  CommonOptions common;
  OptionReader reader(spec);
  common.Read(reader);
  reader.Parameter("alpha", &params.alpha)
      .Parameter("lambda", &params.lambda)
      .Uint64("max_iterations", &max_iterations);
  PPR_RETURN_IF_ERROR(reader.Finish());
  return FinishSolver(common, std::unique_ptr<Solver>(new BepiApiSolver(
                                  params, max_iterations)));
}

Result<std::unique_ptr<Solver>> MakeMonteCarlo(const SolverSpec& spec) {
  ParamDefaults params;
  CommonOptions common;
  OptionReader reader(spec);
  common.Read(reader);
  reader.Parameter("alpha", &params.alpha)
      .Parameter("eps", &params.epsilon)
      .Parameter("mu", &params.mu);
  PPR_RETURN_IF_ERROR(reader.Finish());
  return FinishSolver(common,
                      std::unique_ptr<Solver>(new MonteCarloSolver(params)));
}

Result<std::unique_ptr<Solver>> MakeTwoPhase(const SolverSpec& spec,
                                             TwoPhaseSolver::Kind kind,
                                             bool default_indexed) {
  ParamDefaults params;
  bool indexed = default_indexed;
  double index_eps = 0.0;
  uint64_t seed = SolverContext::kDefaultSeed;
  std::string cache_dir;
  CommonOptions common;
  OptionReader reader(spec);
  common.Read(reader);
  reader.Parameter("alpha", &params.alpha)
      .Parameter("eps", &params.epsilon)
      .Parameter("mu", &params.mu)
      .Uint64("seed", &seed)
      .String("cache_dir", &cache_dir);
  if (!default_indexed) {
    // The "-index" registry entries do not accept `indexed`: silently
    // honoring indexed=false would run the wrong variant under an
    // -index name.
    reader.Bool("indexed", &indexed);
  }
  if (kind == TwoPhaseSolver::Kind::kFora) {
    reader.Double("index_eps", &index_eps);
  }
  PPR_RETURN_IF_ERROR(reader.Finish());
  if (!cache_dir.empty() && !indexed) {
    return Status::InvalidArgument(
        "option 'cache_dir' needs an index; use the -index variant or "
        "indexed=true");
  }
  return FinishSolver(common, std::unique_ptr<Solver>(new TwoPhaseSolver(
                                  kind, params, indexed, index_eps, seed,
                                  std::move(cache_dir))));
}

Result<std::unique_ptr<Solver>> MakeDynTwoPhase(const SolverSpec& spec,
                                                TwoPhaseSolver::Kind kind) {
  ParamDefaults params;
  double index_eps = 0.0;
  double drift = DynamicWalkIndex::kDefaultDriftFactor;
  uint64_t seed = SolverContext::kDefaultSeed;
  CommonOptions common;
  OptionReader reader(spec);
  common.Read(reader);
  reader.Parameter("alpha", &params.alpha)
      .Parameter("eps", &params.epsilon)
      .Parameter("mu", &params.mu)
      .Uint64("seed", &seed);
  if (kind == TwoPhaseSolver::Kind::kFora) {
    // drift= only matters to the W-dependent kForaPlus sizing; the
    // d_v-sized dynspeedppr index has no ratio to re-derive.
    reader.Double("index_eps", &index_eps).Double("drift", &drift);
  }
  PPR_RETURN_IF_ERROR(reader.Finish());
  if (!std::isfinite(drift) || (drift != 0.0 && drift <= 1.0)) {
    return Status::InvalidArgument(
        "option 'drift' expects a factor > 1 (or 0 to disable); got " +
        std::to_string(drift));
  }
  return FinishSolver(common, std::unique_ptr<Solver>(new DynTwoPhaseSolver(
                                  kind, params, index_eps, seed, drift)));
}

Result<std::unique_ptr<Solver>> MakeResAcc(const SolverSpec& spec) {
  ParamDefaults params;
  CommonOptions common;
  OptionReader reader(spec);
  common.Read(reader);
  reader.Parameter("alpha", &params.alpha)
      .Parameter("eps", &params.epsilon)
      .Parameter("mu", &params.mu);
  PPR_RETURN_IF_ERROR(reader.Finish());
  return FinishSolver(common,
                      std::unique_ptr<Solver>(new ResAccSolver(params)));
}

Result<std::unique_ptr<Solver>> MakeBiPpr(const SolverSpec& spec) {
  ParamDefaults params;
  double delta = 0.0;
  double rmax = 0.0;
  CommonOptions common;
  OptionReader reader(spec);
  common.Read(reader);
  reader.Parameter("alpha", &params.alpha)
      .Parameter("eps", &params.epsilon)
      .Double("delta", &delta)
      .Double("rmax", &rmax);
  PPR_RETURN_IF_ERROR(reader.Finish());
  return FinishSolver(common, std::unique_ptr<Solver>(new BiPprSolver(
                                  params, delta, rmax)));
}

Result<std::unique_ptr<Solver>> MakeHubPpr(const SolverSpec& spec) {
  ParamDefaults params;
  uint64_t hubs = 0;
  double rmax = 1e-5;
  CommonOptions common;
  OptionReader reader(spec);
  common.Read(reader);
  reader.Parameter("alpha", &params.alpha)
      .Parameter("eps", &params.epsilon)
      .Uint64("hubs", &hubs)
      .Double("rmax", &rmax);
  PPR_RETURN_IF_ERROR(reader.Finish());
  return FinishSolver(common, std::unique_ptr<Solver>(new HubPprSolver(
                                  params, hubs, rmax)));
}

}  // namespace

void RegisterBuiltinSolvers(SolverRegistry* registry) {
  // Every solver additionally accepts the cross-cutting threads= and
  // order= options (see CommonOptions / docs/api.md).
  registry->Register(
      {"fwdpush", "FIFO Forward Push (Algorithm 2), l1 <= m*rmax",
       "alpha, lambda, rmax, threads, order",
       [](const SolverSpec& s) { return MakeForwardPush(s, false); }});
  registry->Register(
      {"prioritypush", "max-benefit-first Forward Push (push ablation)",
       "alpha, lambda, rmax, threads, order",
       [](const SolverSpec& s) { return MakeForwardPush(s, true); }});
  registry->Register(
      {"dynfwdpush",
       "incremental Forward Push on an evolving graph (ApplyUpdates)",
       "alpha, lambda, rmax, threads, order", MakeDynFwdPush});
  registry->Register(
      {"powerpush", "Power Iteration with Forward Push (Algorithm 3)",
       "alpha, lambda, epochs (0 = off), scan_threshold, queue_phase, "
       "relax (false = as published), threads, order",
       MakePowerPush});
  registry->Register({"powitr", "vanilla Power Iteration (Section 3.1)",
                      "alpha, lambda, threads, order",
                      MakePowerIteration});
  registry->Register({"pagerank",
                      "global PageRank (uniform teleport; ignores source)",
                      "alpha, lambda, threads, order", MakePageRank});
  registry->Register(
      {"bepi", "BePI block elimination (needs in-adjacency; lambda = delta)",
       "alpha, lambda, max_iterations, threads, order", MakeBepi});
  registry->Register({"mc", "plain Monte Carlo, W Chernoff-sized walks",
                      "alpha, eps, mu, threads, order", MakeMonteCarlo});
  registry->Register(
      {"fora", "FORA two-phase framework (Wang et al., KDD'17)",
       "alpha, eps, mu, indexed, index_eps, seed, cache_dir, threads, order",
       [](const SolverSpec& s) {
         return MakeTwoPhase(s, TwoPhaseSolver::Kind::kFora, false);
       }});
  registry->Register(
      {"fora-index", "FORA+ with a pre-built eps-bound walk index",
       "alpha, eps, mu, index_eps, seed, cache_dir, threads, order",
       [](const SolverSpec& s) {
         return MakeTwoPhase(s, TwoPhaseSolver::Kind::kFora, true);
       }});
  registry->Register(
      {"speedppr", "SpeedPPR (Algorithm 4), PowerPush + capped walks",
       "alpha, eps, mu, indexed, seed, cache_dir, threads, order",
       [](const SolverSpec& s) {
         return MakeTwoPhase(s, TwoPhaseSolver::Kind::kSpeedPpr, false);
       }});
  registry->Register(
      {"speedppr-index", "SpeedPPR with the eps-independent d_v walk index",
       "alpha, eps, mu, seed, cache_dir, threads, order",
       [](const SolverSpec& s) {
         return MakeTwoPhase(s, TwoPhaseSolver::Kind::kSpeedPpr, true);
       }});
  registry->Register(
      {"dynfora",
       "FORA+ on an evolving graph: maintained pushes + incremental walk "
       "refresh (ApplyUpdates)",
       "alpha, eps, mu, index_eps, drift, seed, threads, order",
       [](const SolverSpec& s) {
         return MakeDynTwoPhase(s, TwoPhaseSolver::Kind::kFora);
       }});
  registry->Register(
      {"dynspeedppr",
       "SpeedPPR-Index on an evolving graph: maintained pushes + "
       "incremental d_v walk refresh (ApplyUpdates)",
       "alpha, eps, mu, seed, threads, order",
       [](const SolverSpec& s) {
         return MakeDynTwoPhase(s, TwoPhaseSolver::Kind::kSpeedPpr);
       }});
  registry->Register({"resacc", "ResAcc residue accumulation (index-free)",
                      "alpha, eps, mu, threads, order", MakeResAcc});
  registry->Register(
      {"bippr",
       "BiPPR single-pair estimator (needs in-adjacency, no dead ends)",
       "alpha, eps, delta, rmax, threads, order", MakeBiPpr});
  registry->Register(
      {"hubppr", "HubPPR single-pair with precomputed hub oracles",
       "alpha, eps, hubs, rmax, threads, order", MakeHubPpr});
}

}  // namespace ppr
