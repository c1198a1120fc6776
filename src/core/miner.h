// TemplateMiner: mines frequent explanation templates from the database
// (paper §3). Implements:
//   - the one-way bottom-up algorithm (Algorithm 1),
//   - the two-way algorithm (§3.3), and
//   - bridged mining (§3.3.1): grow both frontiers to length ℓ with support
//     pruning, then assemble longer candidates by sharing the bridge edge
//     (n <= 2ℓ-1), by direct adjacency (n = 2ℓ), or by enumerating free
//     middle edges (n > 2ℓ).
// All three return the same template set (monotonicity of support is
// property-tested); they differ in run time, which is what Figure 13
// measures.
//
// The three performance optimizations of §3.2.1 are individually
// switchable for the ablation benchmarks:
//   1. support caching keyed on the canonicalized selection-condition set,
//   2. intermediate-result deduplication (kDedupFrontier strategy),
//   3. skipping non-selective paths via the cardinality estimator
//      (threshold S*c; never applied to explanation candidates).

#ifndef EBA_CORE_MINER_H_
#define EBA_CORE_MINER_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/template.h"
#include "graph/schema_graph.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "storage/database.h"

namespace eba {

struct MinerOptions {
  /// Log table to mine over (often a first-access training slice).
  std::string log_table = "Log";
  std::string start_column = "Patient";  // path start (Definition 1)
  std::string end_column = "User";       // path end
  std::string lid_column = "Lid";

  /// Minimum support as a fraction of the log (s% in Definition 5).
  double support_fraction = 0.01;
  /// Maximum raw path length M.
  int max_length = 5;
  /// Maximum counted tables T (mapping tables exempt).
  int max_tables = 3;

  /// §3.2.1 optimization toggles.
  bool cache_support = true;
  Executor::SupportStrategy support_strategy =
      Executor::SupportStrategy::kDedupFrontier;
  /// Executor options for support evaluation. Support queries always run
  /// through a compiled-plan cache (join order, compiled checks,
  /// dictionary translations, index bindings, keyed on the canonical
  /// condition set and revalidated against the catalog generation and
  /// append watermarks): the run's own unless executor.plan_cache names a
  /// cache shared across mining runs. Orthogonal to cache_support, which
  /// caches final support *counts*: plan caching also pays off when the
  /// same template shape is re-executed (e.g. with support caching
  /// disabled for ablation, or across runs sharing a cache).
  ExecutorOptions executor;
  bool skip_nonselective = true;
  /// The constant c that widens the skip threshold to S*c.
  double skip_constant_c = 10.0;

  /// Tables to exclude from the schema graph entirely (e.g. other log
  /// slices living in the same database).
  std::vector<std::string> excluded_tables;

  /// Safety valve: abort if a frontier exceeds this many paths.
  size_t max_frontier_paths = 2'000'000;
};

/// Per-length progress record (drives Figure 13).
struct LengthTiming {
  int length = 0;
  double cumulative_seconds = 0;
  size_t frontier_paths = 0;       // supported paths alive at this length
  size_t explanations_total = 0;   // cumulative explanations found
};

struct MiningStats {
  size_t candidates_considered = 0;
  size_t support_queries = 0;
  /// Support-count cache hits (the §3.2.1 caching optimization): the query
  /// was skipped entirely because its canonical key already had a count.
  size_t support_cache_hits = 0;
  /// Compiled-plan cache hits: the query ran, but replayed a cached
  /// physical plan instead of planning from scratch.
  size_t plan_cache_hits = 0;
  size_t skipped_paths = 0;
  size_t pruned_paths = 0;  // candidates failing the support threshold
  std::vector<LengthTiming> timings;
};

/// A mined template with its measured support.
struct MinedTemplate {
  ExplanationTemplate tmpl;
  MiningPath path;
  int64_t support = 0;
  double support_fraction = 0.0;
};

struct MiningResult {
  std::vector<MinedTemplate> templates;
  MiningStats stats;
  int64_t log_size = 0;
  double support_threshold = 0.0;  // S = |Log| * s
};

class TemplateMiner {
 public:
  /// The database must outlive the miner.
  TemplateMiner(const Database* db, MinerOptions options);

  StatusOr<MiningResult> MineOneWay() const;
  StatusOr<MiningResult> MineTwoWay() const;
  /// Bridge-ℓ: `bridge_length` is ℓ (>= 2).
  StatusOr<MiningResult> MineBridged(int bridge_length) const;

  const MinerOptions& options() const { return options_; }

 private:
  struct Context;

  StatusOr<Context> MakeContext() const;

  /// Exact or assumed support of a path. Returns the exact count, or -1 if
  /// the path was skipped as presumed-supported (never for explanations).
  StatusOr<int64_t> PathSupport(Context* ctx, const MiningPath& path,
                                bool is_explanation) const;

  /// Extends every frontier path with every connected edge, keeping
  /// supported restricted-simple paths; explanations are recorded into ctx.
  StatusOr<std::vector<MiningPath>> GrowFrontier(
      Context* ctx, const std::vector<MiningPath>& frontier,
      bool forward) const;

  /// Seeds the length-1 frontier (forward: edges from start; backward:
  /// edges into end), applying support pruning.
  StatusOr<std::vector<MiningPath>> SeedFrontier(Context* ctx,
                                                 bool forward) const;

  Status RecordExplanation(Context* ctx, const MiningPath& path) const;

  const Database* db_;
  MinerOptions options_;
};

}  // namespace eba

#endif  // EBA_CORE_MINER_H_
