#include "core/miner.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <unordered_map>

#include "common/logging.h"
#include "common/string_util.h"
#include "query/plan_cache.h"

namespace eba {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             Clock::now() - start)
      .count();
}

/// Builds a readable auto-name for a mined template from its path tables.
std::string AutoName(const MiningPath& path, int index) {
  std::vector<std::string> tables;
  for (const auto& e : path.edges()) {
    if (tables.empty() || tables.back() != e.to.table) {
      tables.push_back(e.to.table);
    }
  }
  if (!tables.empty()) tables.pop_back();  // last hop returns to the log
  std::string joined = tables.empty() ? "direct" : Join(tables, "_");
  return StrFormat("mined_%s_len%d_%d", joined.c_str(), path.length(), index);
}

/// Builds a description format with placeholders for the path's attributes.
std::string AutoDescription(const Database& db, const PathQuery& q) {
  std::string out =
      "[L.User] accessed [L.Patient]'s record; connected via ";
  std::vector<std::string> hops;
  for (size_t i = 1; i < q.vars.size(); ++i) {
    const TupleVar& v = q.vars[i];
    auto table = db.GetTable(v.table);
    if (!table.ok()) continue;
    // Show the values of the attributes the path touches on this variable.
    std::vector<std::string> cols;
    for (const auto& c : q.join_chain) {
      for (const QAttr& a : {c.lhs, c.rhs}) {
        if (a.var == static_cast<int>(i)) {
          const std::string& col_name =
              table.value()->schema().column(static_cast<size_t>(a.col)).name;
          std::string rendered =
              col_name + "=[" + v.alias + "." + col_name + "]";
          if (std::find(cols.begin(), cols.end(), rendered) == cols.end()) {
            cols.push_back(rendered);
          }
        }
      }
    }
    hops.push_back(v.table + "(" + Join(cols, ", ") + ")");
  }
  out += hops.empty() ? "the log itself" : Join(hops, " and ");
  return out;
}

}  // namespace

struct TemplateMiner::Context {
  SchemaGraph graph;
  PathRules rules;
  QAttr lid_attr;
  bool lid_fast_path = false;  // DistinctLids usable for support counting
  int64_t log_size = 0;
  double threshold = 0.0;  // S
  // Heap-allocated (and declared before executor): the executor's options
  // may point at it, and the pointer must survive Context being moved out
  // of MakeContext.
  std::shared_ptr<PlanCache> plan_cache = std::make_shared<PlanCache>();
  Executor executor;
  CardinalityEstimator estimator;

  // canonical key -> exact support
  std::unordered_map<std::string, int64_t> support_cache;
  // canonical key -> mined explanation (deduplicated)
  std::map<std::string, MinedTemplate> explanations;

  MiningStats stats;
  Clock::time_point start_time;

  Context(const Database* db, const MinerOptions& options)
      : executor(db, ExecutorOptionsFor(options, plan_cache.get())),
        estimator(db),
        // Baseline for FinishStats: a cache shared across mining runs
        // arrives with lifetime counters; this run reports only its delta.
        plan_cache_hits_before(executor.options().plan_cache->stats().hits) {}

  /// Routes support queries through the context-owned plan cache unless
  /// the caller supplied one.
  static ExecutorOptions ExecutorOptionsFor(const MinerOptions& options,
                                            PlanCache* owned) {
    ExecutorOptions exec = options.executor;
    if (exec.plan_cache == nullptr) exec.plan_cache = owned;
    return exec;
  }

  /// Folds this run's plan-cache hits into the mining stats.
  void FinishStats() {
    stats.plan_cache_hits =
        executor.options().plan_cache->stats().hits - plan_cache_hits_before;
  }

  uint64_t plan_cache_hits_before = 0;
};

TemplateMiner::TemplateMiner(const Database* db, MinerOptions options)
    : db_(db), options_(std::move(options)) {
  EBA_CHECK(db != nullptr);
}

StatusOr<TemplateMiner::Context> TemplateMiner::MakeContext() const {
  Context ctx(db_, options_);
  EBA_ASSIGN_OR_RETURN(const Table* log_table,
                       db_->GetTable(options_.log_table));
  int lid_col = log_table->schema().ColumnIndex(options_.lid_column);
  if (lid_col < 0) {
    return Status::InvalidArgument("log table has no column '" +
                                   options_.lid_column + "'");
  }
  if (!log_table->schema().HasColumn(options_.start_column) ||
      !log_table->schema().HasColumn(options_.end_column)) {
    return Status::InvalidArgument("log table lacks start/end columns");
  }
  EBA_ASSIGN_OR_RETURN(
      ctx.graph, SchemaGraph::Build(*db_, options_.excluded_tables));
  ctx.rules.start = AttrId{options_.log_table, options_.start_column};
  ctx.rules.end = AttrId{options_.log_table, options_.end_column};
  ctx.rules.max_length = options_.max_length;
  ctx.rules.max_tables = options_.max_tables;
  ctx.lid_attr = QAttr{0, lid_col};
  // The DistinctLids semi-join fast path returns non-NULL integer lids;
  // it is only an exact substitute for CountDistinct when the lid column
  // is integer-like with no NULL cells (always true for the standard log
  // schema). Otherwise every strategy routes through CountDistinct.
  const Column& lid_column = log_table->column(static_cast<size_t>(lid_col));
  ctx.lid_fast_path = lid_column.IsIntLike() && lid_column.NullCount() == 0;
  ctx.log_size = static_cast<int64_t>(log_table->num_rows());
  ctx.threshold =
      options_.support_fraction * static_cast<double>(ctx.log_size);
  ctx.start_time = Clock::now();
  return ctx;
}

StatusOr<int64_t> TemplateMiner::PathSupport(Context* ctx,
                                             const MiningPath& path,
                                             bool is_explanation) const {
  const std::string key = path.CanonicalKey();
  if (options_.cache_support) {
    auto it = ctx->support_cache.find(key);
    if (it != ctx->support_cache.end()) {
      ctx->stats.support_cache_hits++;
      return it->second;
    }
  }

  EBA_ASSIGN_OR_RETURN(PathQuery q, PathToQuery(*db_, ctx->rules, path));

  if (options_.skip_nonselective && !is_explanation) {
    EBA_ASSIGN_OR_RETURN(double est,
                         ctx->estimator.EstimateDistinctLogIds(q, ctx->lid_attr));
    if (est > ctx->threshold * options_.skip_constant_c) {
      ctx->stats.skipped_paths++;
      return -1;  // presumed supported; re-examined next iteration
    }
  }

  int64_t support = 0;
  if (ctx->lid_fast_path &&
      options_.support_strategy == Executor::SupportStrategy::kDedupFrontier) {
    // The semi-join fast path: distinct log ids without ever boxing a row.
    EBA_ASSIGN_OR_RETURN(std::vector<int64_t> lids,
                         ctx->executor.DistinctLids(q, ctx->lid_attr));
    support = static_cast<int64_t>(lids.size());
  } else {
    EBA_ASSIGN_OR_RETURN(support,
                         ctx->executor.CountDistinct(
                             q, ctx->lid_attr, options_.support_strategy));
  }
  ctx->stats.support_queries++;
  if (options_.cache_support) ctx->support_cache.emplace(key, support);
  return support;
}

Status TemplateMiner::RecordExplanation(Context* ctx,
                                        const MiningPath& path) const {
  // Support is evaluated before the duplicate check: equivalent paths found
  // through different traversal orders (e.g. the forward and backward
  // discoveries of the two-way algorithm) then resolve through the support
  // cache instead of re-querying — the §3.2.1 caching optimization.
  const std::string key = path.CanonicalKey();
  EBA_ASSIGN_OR_RETURN(int64_t support, PathSupport(ctx, path, true));
  if (ctx->explanations.count(key)) return Status::OK();
  EBA_CHECK(support >= 0);  // explanations are never skipped
  if (static_cast<double>(support) < ctx->threshold) return Status::OK();

  EBA_ASSIGN_OR_RETURN(PathQuery q, PathToQuery(*db_, ctx->rules, path));
  std::string name =
      AutoName(path, static_cast<int>(ctx->explanations.size()));
  std::string description = AutoDescription(*db_, q);
  MinedTemplate mined{
      ExplanationTemplate(name, std::move(q), ctx->lid_attr, description),
      path, support,
      ctx->log_size > 0
          ? static_cast<double>(support) / static_cast<double>(ctx->log_size)
          : 0.0};
  ctx->explanations.emplace(key, std::move(mined));
  return Status::OK();
}

StatusOr<std::vector<MiningPath>> TemplateMiner::SeedFrontier(
    Context* ctx, bool forward) const {
  std::vector<JoinEdge> seeds = forward ? ctx->graph.EdgesFrom(ctx->rules.start)
                                        : ctx->graph.EdgesTo(ctx->rules.end);
  std::vector<MiningPath> frontier;
  for (const auto& e : seeds) {
    MiningPath path({e});
    ctx->stats.candidates_considered++;
    if (!IsRestrictedSimplePath(*db_, ctx->rules, path, forward)) continue;
    if (IsExplanationPath(*db_, ctx->rules, path)) {
      EBA_RETURN_IF_ERROR(RecordExplanation(ctx, path));
      continue;
    }
    EBA_ASSIGN_OR_RETURN(int64_t support, PathSupport(ctx, path, false));
    if (support < 0 || static_cast<double>(support) >= ctx->threshold) {
      frontier.push_back(std::move(path));
    } else {
      ctx->stats.pruned_paths++;
    }
  }
  return frontier;
}

StatusOr<std::vector<MiningPath>> TemplateMiner::GrowFrontier(
    Context* ctx, const std::vector<MiningPath>& frontier,
    bool forward) const {
  std::vector<MiningPath> next;
  for (const auto& path : frontier) {
    const std::string& open_table =
        forward ? path.LastAttr().table : path.FirstAttr().table;
    for (const auto& edge : ctx->graph.edges()) {
      // Connectivity: the new edge must leave (forward) / enter (backward)
      // the table at the open end of the path.
      if (forward && edge.from.table != open_table) continue;
      if (!forward && edge.to.table != open_table) continue;
      MiningPath candidate =
          forward ? path.Extend(edge) : path.ExtendFront(edge);
      ctx->stats.candidates_considered++;
      if (!IsRestrictedSimplePath(*db_, ctx->rules, candidate, forward)) {
        continue;
      }
      if (IsExplanationPath(*db_, ctx->rules, candidate)) {
        EBA_RETURN_IF_ERROR(RecordExplanation(ctx, candidate));
        continue;  // closed paths have no valid extensions
      }
      EBA_ASSIGN_OR_RETURN(int64_t support,
                           PathSupport(ctx, candidate, false));
      if (support < 0 || static_cast<double>(support) >= ctx->threshold) {
        next.push_back(std::move(candidate));
        if (next.size() > options_.max_frontier_paths) {
          return Status::Internal("mining frontier exceeded safety bound");
        }
      } else {
        ctx->stats.pruned_paths++;
      }
    }
  }
  return next;
}

StatusOr<MiningResult> TemplateMiner::MineOneWay() const {
  EBA_ASSIGN_OR_RETURN(Context ctx, MakeContext());

  EBA_ASSIGN_OR_RETURN(std::vector<MiningPath> frontier,
                       SeedFrontier(&ctx, /*forward=*/true));
  ctx.stats.timings.push_back(LengthTiming{1, SecondsSince(ctx.start_time),
                                           frontier.size(),
                                           ctx.explanations.size()});

  for (int length = 2; length <= options_.max_length; ++length) {
    EBA_ASSIGN_OR_RETURN(frontier,
                         GrowFrontier(&ctx, frontier, /*forward=*/true));
    ctx.stats.timings.push_back(LengthTiming{length,
                                             SecondsSince(ctx.start_time),
                                             frontier.size(),
                                             ctx.explanations.size()});
  }

  MiningResult result;
  result.log_size = ctx.log_size;
  result.support_threshold = ctx.threshold;
  for (auto& [key, mined] : ctx.explanations) {
    result.templates.push_back(std::move(mined));
  }
  ctx.FinishStats();
  result.stats = std::move(ctx.stats);
  return result;
}

StatusOr<MiningResult> TemplateMiner::MineTwoWay() const {
  EBA_ASSIGN_OR_RETURN(Context ctx, MakeContext());

  EBA_ASSIGN_OR_RETURN(std::vector<MiningPath> fwd,
                       SeedFrontier(&ctx, /*forward=*/true));
  EBA_ASSIGN_OR_RETURN(std::vector<MiningPath> bwd,
                       SeedFrontier(&ctx, /*forward=*/false));
  ctx.stats.timings.push_back(LengthTiming{1, SecondsSince(ctx.start_time),
                                           fwd.size() + bwd.size(),
                                           ctx.explanations.size()});

  for (int length = 2; length <= options_.max_length; ++length) {
    EBA_ASSIGN_OR_RETURN(fwd, GrowFrontier(&ctx, fwd, /*forward=*/true));
    EBA_ASSIGN_OR_RETURN(bwd, GrowFrontier(&ctx, bwd, /*forward=*/false));
    ctx.stats.timings.push_back(LengthTiming{length,
                                             SecondsSince(ctx.start_time),
                                             fwd.size() + bwd.size(),
                                             ctx.explanations.size()});
  }

  MiningResult result;
  result.log_size = ctx.log_size;
  result.support_threshold = ctx.threshold;
  for (auto& [key, mined] : ctx.explanations) {
    result.templates.push_back(std::move(mined));
  }
  ctx.FinishStats();
  result.stats = std::move(ctx.stats);
  return result;
}

StatusOr<MiningResult> TemplateMiner::MineBridged(int bridge_length) const {
  if (bridge_length < 2) {
    return Status::InvalidArgument("bridge length must be >= 2");
  }
  EBA_ASSIGN_OR_RETURN(Context ctx, MakeContext());
  const int ell = std::min(bridge_length, options_.max_length);

  // Phase 1: two-way frontier growth to length ell with support pruning.
  std::vector<std::vector<MiningPath>> fwd_by_len(
      static_cast<size_t>(ell) + 1);
  std::vector<std::vector<MiningPath>> bwd_by_len(
      static_cast<size_t>(ell) + 1);
  EBA_ASSIGN_OR_RETURN(fwd_by_len[1], SeedFrontier(&ctx, /*forward=*/true));
  EBA_ASSIGN_OR_RETURN(bwd_by_len[1], SeedFrontier(&ctx, /*forward=*/false));
  ctx.stats.timings.push_back(
      LengthTiming{1, SecondsSince(ctx.start_time),
                   fwd_by_len[1].size() + bwd_by_len[1].size(),
                   ctx.explanations.size()});
  for (int length = 2; length <= ell; ++length) {
    EBA_ASSIGN_OR_RETURN(
        fwd_by_len[static_cast<size_t>(length)],
        GrowFrontier(&ctx, fwd_by_len[static_cast<size_t>(length) - 1],
                     /*forward=*/true));
    EBA_ASSIGN_OR_RETURN(
        bwd_by_len[static_cast<size_t>(length)],
        GrowFrontier(&ctx, bwd_by_len[static_cast<size_t>(length) - 1],
                     /*forward=*/false));
    ctx.stats.timings.push_back(
        LengthTiming{length, SecondsSince(ctx.start_time),
                     fwd_by_len[static_cast<size_t>(length)].size() +
                         bwd_by_len[static_cast<size_t>(length)].size(),
                     ctx.explanations.size()});
  }

  // Phase 2: assemble candidates of length n > ell from the two frontiers.
  auto try_candidate = [&](const MiningPath& candidate) -> Status {
    ctx.stats.candidates_considered++;
    if (!IsExplanationPath(*db_, ctx.rules, candidate)) return Status::OK();
    return RecordExplanation(&ctx, candidate);
  };

  for (int n = ell + 1; n <= options_.max_length; ++n) {
    if (n <= 2 * ell - 1) {
      // Bridge on a shared edge: forward length ell + backward length
      // n - ell + 1, overlapping in one edge (Figure 4).
      const int b = n - ell + 1;
      for (const auto& f : fwd_by_len[static_cast<size_t>(ell)]) {
        for (const auto& bp : bwd_by_len[static_cast<size_t>(b)]) {
          if (!(f.edges().back() == bp.edges().front())) continue;
          std::vector<JoinEdge> edges = f.edges();
          edges.insert(edges.end(), bp.edges().begin() + 1, bp.edges().end());
          EBA_RETURN_IF_ERROR(try_candidate(MiningPath(std::move(edges))));
        }
      }
    } else if (n == 2 * ell) {
      // Direct adjacency: the forward path's last table equals the backward
      // path's first table (implicit intra-tuple-variable hop).
      for (const auto& f : fwd_by_len[static_cast<size_t>(ell)]) {
        for (const auto& bp : bwd_by_len[static_cast<size_t>(ell)]) {
          if (f.LastAttr().table != bp.FirstAttr().table) continue;
          std::vector<JoinEdge> edges = f.edges();
          edges.insert(edges.end(), bp.edges().begin(), bp.edges().end());
          EBA_RETURN_IF_ERROR(try_candidate(MiningPath(std::move(edges))));
        }
      }
    } else {
      // Enumerate free middle edges (no support pruning possible): extend
      // the forward frontier by (n - 2*ell) unpruned hops, then attach the
      // backward frontier by adjacency.
      const int middles = n - 2 * ell;
      std::vector<MiningPath> extended = fwd_by_len[static_cast<size_t>(ell)];
      for (int step = 0; step < middles; ++step) {
        std::vector<MiningPath> grown;
        for (const auto& path : extended) {
          for (const auto& edge : ctx.graph.edges()) {
            if (edge.from.table != path.LastAttr().table) continue;
            MiningPath candidate = path.Extend(edge);
            ctx.stats.candidates_considered++;
            if (IsRestrictedSimplePath(*db_, ctx.rules, candidate, true)) {
              grown.push_back(std::move(candidate));
            }
          }
        }
        extended = std::move(grown);
      }
      for (const auto& f : extended) {
        for (const auto& bp : bwd_by_len[static_cast<size_t>(ell)]) {
          if (f.LastAttr().table != bp.FirstAttr().table) continue;
          std::vector<JoinEdge> edges = f.edges();
          edges.insert(edges.end(), bp.edges().begin(), bp.edges().end());
          EBA_RETURN_IF_ERROR(try_candidate(MiningPath(std::move(edges))));
        }
      }
    }
    ctx.stats.timings.push_back(LengthTiming{n, SecondsSince(ctx.start_time),
                                             0, ctx.explanations.size()});
  }

  MiningResult result;
  result.log_size = ctx.log_size;
  result.support_threshold = ctx.threshold;
  for (auto& [key, mined] : ctx.explanations) {
    result.templates.push_back(std::move(mined));
  }
  ctx.FinishStats();
  result.stats = std::move(ctx.stats);
  return result;
}

}  // namespace eba
