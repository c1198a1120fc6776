// Executor: evaluates PathQueries with pipelined hash joins.
//
// Intermediates are a struct-of-arrays *frame* — one std::vector<uint32_t>
// of row ids per bound tuple variable. Every condition is applied inside
// the step that binds the last tuple variable it references: the seed
// checks the conditions on the seeded variable alone, and a hash-join probe
// checks every chain condition, decoration and literal its binding
// completes against each candidate match — directly on Column raw payloads
// / dictionary codes — and appends row ids for the survivors only. There
// are no filter steps, so no step writes a row a later step drops. Each run
// of a step binds its probe column and integer and dictionary-code checks
// once to raw column views (Column::Reader, storage/column.h) and evaluates
// them inline. Boxed Values are materialized exactly once, at the final
// projection (Column::MaterializeInto). Distinct-lid evaluation takes a
// semi-join fast path: tuple-variable columns are dropped from the frame as
// soon as no unapplied condition touches them, a join that keeps no new
// column writes each input row at most once (at its first surviving
// match), and the row-id tuples left after a drop are deduplicated in place
// — the row-id analog of the paper's "reducing result multiplicity"
// optimization (§3.2.1), without ever building a boxed row. The dedup
// (common/flat_hash.h) keeps first occurrences in frame order and
// allocates nothing per tuple.
//
// Every run compiles, then runs: a compiler turns the query into a
// CompiledPlan (query/plan_cache.h) without touching a row — it tracks only
// the slot layout its steps produce — and one interpreter runs the plan's
// steps. A plan-cache hit skips the compile and runs the same interpreter.
// A row range of one tuple variable, the *seed range*, is the engine's only
// restriction and the interpreter's runtime input: every plan starts from
// a kSeedRange step — variable 0 over all its rows (Materialize,
// DistinctLids), variable 0 over the rows of the requested lids
// (MaterializeForLogIds, one run per contiguous row range), or the pivot
// variable of LogRowsJoinedTo over a caller's range — and every range
// is clamped to the snapshot bound of its table. A run over rows [a, c)
// therefore finds exactly the union of what runs over [a, b) and [b, c)
// find, so callers parallelize by splitting seed ranges over threads
// (ExplanationEngine::AuditRange); every run itself is serial.
//
// Join ordering is cost-based: since every binding step checks the
// conditions it completes, each pick is a chain condition that binds a new
// tuple variable, and the compiler asks the CardinalityEstimator for each
// candidate's fan-out (output rows per input row) and picks the smallest,
// breaking ties by declaration order so plans stay deterministic. Every
// candidate would be fed the same frame, so the pick never depends on the
// seed range. The chosen order and per-step cardinalities are surfaced in
// ExecStats::join_order.
//
// Support-evaluation strategies: kNaive enumerates the full join then
// counts distinct log ids — the paper's unoptimized baseline, kept for the
// ablation (bench_ablation_support); kDedupFrontier deduplicates the
// intermediate after every step, carrying only what is still needed
// downstream — the paper's "reducing result multiplicity" (§3.2.1): the
// intermediate stays bounded by |Log| x (frontier domain) instead of
// growing with event multiplicity.
//
// The boxed reference engine that checks this one row for row lives with
// the tests (tests/oracle/boxed_executor.h).

#ifndef EBA_QUERY_EXECUTOR_H_
#define EBA_QUERY_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "query/path_query.h"
#include "storage/database.h"

namespace eba {

class PlanCache;

/// A half-open row-id range [begin, end) of one table (e.g. the rows an
/// append batch added past the old watermark) — the executor's only way to
/// restrict a query.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end > begin ? end - begin : 0; }
  bool empty() const { return end <= begin; }
};

/// An intermediate or final relation: a header of query attributes plus rows.
struct Relation {
  std::vector<QAttr> attrs;
  std::vector<Row> rows;

  /// Position of `attr` in `attrs`, or -1.
  int AttrIndex(const QAttr& attr) const {
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (attrs[i] == attr) return static_cast<int>(i);
    }
    return -1;
  }
};

/// Execution knobs, threaded from MinerOptions and set by callers that
/// share a plan cache. There is no thread knob: a run is serial, and
/// callers fan out by seed range.
struct ExecutorOptions {
  /// Optional shared compiled-plan cache (not owned; see
  /// query/plan_cache.h). When set, each fully-compiled physical plan —
  /// chosen join order, compiled checks, pre-translated dictionary codes,
  /// index bindings — is cached under the query's canonical condition-set
  /// key, revalidated against the catalog generation and the referenced
  /// tables' append watermarks (appends re-bind the plan instead of
  /// discarding it), and structurally identical queries run it without
  /// compiling.
  PlanCache* plan_cache = nullptr;
};

/// Counters describing the last execution (exposed for tests/benchmarks).
struct ExecStats {
  size_t joins_executed = 0;
  size_t rows_emitted = 0;       // total rows produced across all joins
  size_t peak_intermediate = 0;  // max intermediate row count

  /// One entry per applied chain condition, in application order.
  struct JoinStep {
    int condition_index = -1;     // index into PathQuery::join_chain
    /// The condition bound no new variable: the seed or join that bound
    /// its last variable checked it, and rows_after is that step's.
    bool is_filter = false;
    size_t rows_after = 0;        // intermediate size after this step
    /// Cost-based prediction for the rows this run fed into the join: the
    /// plan's fan-out times the frame size entering it, on a compiling run
    /// and a replay alike. -1 for a checked (is_filter) condition.
    double estimated_rows = -1.0;
  };
  std::vector<JoinStep> join_order;

  /// True when the distinct-lid semi-join fast path ran (frame columns
  /// dropped + row-id dedup instead of boxed-row projection).
  bool used_semi_join = false;

  /// True when this execution ran a cached compiled plan instead of
  /// compiling one. The cache's own counters are PlanCache::stats().
  bool plan_cache_hit = false;
};

class Executor {
 public:
  enum class SupportStrategy { kNaive, kDedupFrontier };

  /// The database must outlive the executor. Each query entry point pins a
  /// fresh Database::Snapshot for its own duration, so every individual
  /// query is consistent under the single concurrent writer, but successive
  /// queries observe successive watermarks.
  explicit Executor(const Database* db);
  Executor(const Database* db, ExecutorOptions options);

  /// Evaluates every query against the given pinned read view: scans,
  /// probes, and literal resolution are clamped to the snapshot's
  /// watermarks, so results are identical to running against the database
  /// frozen at snapshot time — regardless of concurrent appends. The
  /// snapshot (and its database) must outlive the executor; this is the
  /// read-side handle of the single-writer/multi-reader contract.
  explicit Executor(const Database::Snapshot& snapshot);
  Executor(const Database::Snapshot& snapshot, ExecutorOptions options);

  const ExecutorOptions& options() const { return options_; }

  /// Materializes explanation instances: all qualifying bindings projected
  /// onto q.projection (or onto every referenced attribute if empty).
  StatusOr<Relation> Materialize(const PathQuery& q) const;

  /// Materializes instances for specific log records only (drives the
  /// per-access Explain operation). `lid_attr` must belong to variable 0.
  /// The lids are looked up in the Lid index once; each contiguous range
  /// of their rows seeds one run, and rows come out in `lids` order.
  /// last_stats() afterwards describes the FINAL range run only (each run
  /// resets it).
  StatusOr<Relation> MaterializeForLogIds(const PathQuery& q, QAttr lid_attr,
                                          const std::vector<Value>& lids) const;

  /// Support: COUNT(DISTINCT <lid_attr>) over the query result (§3.2).
  StatusOr<int64_t> CountDistinct(const PathQuery& q, QAttr lid_attr,
                                  SupportStrategy strategy) const;

  /// The distinct values of `lid_attr` in the query result (the explained
  /// log ids), in ascending Value order. Used by the metrics module.
  StatusOr<std::vector<Value>> DistinctValues(const PathQuery& q,
                                              QAttr lid_attr,
                                              SupportStrategy strategy) const;

  /// The distinct log ids in the query result as a sorted int64 vector —
  /// the hot entry point for the miner's support counting. `lid_attr` must
  /// belong to variable 0 and reference an integer-like column. This is
  /// LogRowsJoinedTo pivoted at variable 0 over every row, its rows' lids
  /// read from the lid column: the semi-join fast path end to end, and no
  /// boxed row is ever built. The only entry point that turns rows into
  /// lids.
  StatusOr<std::vector<int64_t>> DistinctLids(const PathQuery& q,
                                              QAttr lid_attr) const;

  /// The range-audit entry point: the distinct variable-0 rows of query
  /// results in which tuple variable `pivot_var` takes a row in `rows`
  /// (clamped to its table's snapshot bound) — one run, seeded at those
  /// rows and joined outward from them, so its cost scales with the range,
  /// not the log. Rows come in frame order, which ascends when `pivot_var`
  /// is 0. Appends are monotone — they only add witnesses — so the rows an
  /// appended suffix of a table can newly explain are the union of this
  /// over every variable bound to the table:
  ///   Rows(after) == Rows(before) ∪ ⋃_v JoinedTo(v, suffix),
  /// and a range's result is the union of its subranges' results. Each
  /// pivot variable compiles to its own cached plan (revalidated/re-bound
  /// like any other), with the row range as a runtime input; variable 0
  /// over every row is exactly DistinctLids (same plan). An empty range
  /// still runs (validating the query) and finds nothing. `lid_attr` must
  /// belong to variable 0 and be integer-like; it names the plan's output.
  StatusOr<std::vector<uint32_t>> LogRowsJoinedTo(const PathQuery& q,
                                                  QAttr lid_attr,
                                                  int pivot_var,
                                                  RowRange rows) const;

  const ExecStats& last_stats() const { return stats_; }

 private:
  /// Frame + the plan that produced it, from one run.
  struct FrameRun;

  /// One run against `snapshot`, seeded at the rows `range` of tuple
  /// variable `pivot_var`. Looks the plan up in options_.plan_cache; on a
  /// miss compiles it (and caches it); then runs it.
  StatusOr<FrameRun> RunFrame(const Database::Snapshot& snapshot,
                              const PathQuery& q,
                              const std::vector<QAttr>& output_attrs,
                              bool dedup_frontier, int pivot_var,
                              RowRange range) const;

  /// The read view this query runs against: the fixed snapshot when the
  /// executor was constructed from one (copies share the reclamation pin),
  /// else a freshly pinned snapshot of the live database.
  Database::Snapshot QuerySnapshot() const;

  const Database* db_;
  Database::Snapshot fixed_snapshot_;
  bool has_fixed_snapshot_ = false;
  ExecutorOptions options_;
  mutable ExecStats stats_;
};

}  // namespace eba

#endif  // EBA_QUERY_EXECUTOR_H_
