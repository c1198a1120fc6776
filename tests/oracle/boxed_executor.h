// BoxedExecutor: the boxed reference engine, kept as the test oracle of the
// late-materialization Executor (query/executor.h) and as the baseline of
// bench_micro's executor A/B.
//
// It evaluates a PathQuery the way the original executor did: the
// intermediate is a relation of boxed rows (Row = std::vector<Value>) that
// carries every attribute a condition or the output still needs; chain
// conditions apply greedily in declaration order (a condition whose two
// sides are bound filters first, else the first that binds a new variable
// through a hash-index probe), decorations and literals filter as soon as
// their variables are bound, and the result is projected at the end. With
// intermediate dedup the relation is projected onto the attributes still
// needed downstream after every step, deduplicating rows — the paper's
// "reducing result multiplicity" (§3.2.1) on boxed rows.
//
// It shares no evaluation code with the Executor it checks: it reads cells
// through Table::Get and probes through the boxed HashIndex::Lookup, and
// shares only the query and result types and EvalCmp. Each call pins its
// own Database::Snapshot and clamps every scan and probe to it — the same
// watermark semantics as the Executor. Variable 0 is the only place a query
// is restricted: to the rows of the requested lids (MaterializeForLogIds)
// or to a row range (DistinctLids). Errors carry the Executor's Status
// codes; there are no execution statistics.
//
// BoxedExplainAll is ExplanationEngine::ExplainAll's report computed with
// this engine alone, without the engine's range audit (its task split and
// the explained flags it marks), so it can check them.

#ifndef EBA_TESTS_ORACLE_BOXED_EXECUTOR_H_
#define EBA_TESTS_ORACLE_BOXED_EXECUTOR_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/template.h"
#include "query/executor.h"
#include "query/path_query.h"
#include "storage/database.h"

namespace eba {

class BoxedExecutor {
 public:
  /// The database must outlive the executor.
  explicit BoxedExecutor(const Database* db);

  /// All qualifying bindings projected onto q.projection (or onto every
  /// referenced attribute if empty), in variable-0 row order.
  StatusOr<Relation> Materialize(const PathQuery& q) const;

  /// Materialize restricted to the log rows holding `lids` (each row once,
  /// in `lids` order); `lid_attr` must belong to variable 0 and is added to
  /// the output when the projection lacks it.
  StatusOr<Relation> MaterializeForLogIds(const PathQuery& q, QAttr lid_attr,
                                          const std::vector<Value>& lids) const;

  /// COUNT(DISTINCT lid_attr) over the query result.
  StatusOr<int64_t> CountDistinct(const PathQuery& q, QAttr lid_attr,
                                  Executor::SupportStrategy strategy) const;

  /// The distinct values of `lid_attr` in the query result, ascending.
  StatusOr<std::vector<Value>> DistinctValues(
      const PathQuery& q, QAttr lid_attr,
      Executor::SupportStrategy strategy) const;

  /// The distinct non-NULL lids of query results whose variable-0 row lies
  /// in `rows` (clamped to the snapshot bound), ascending. `lid_attr` must
  /// belong to variable 0 and be integer-like.
  StatusOr<std::vector<int64_t>> DistinctLids(
      const PathQuery& q, QAttr lid_attr,
      RowRange rows = RowRange{0, std::numeric_limits<size_t>::max()}) const;

 private:
  /// One evaluation: variable 0 restricted to the rows holding
  /// `*lid_filter` when it is set, else to `rows`.
  StatusOr<Relation> Run(const PathQuery& q,
                         const std::vector<QAttr>& output_attrs,
                         bool dedup_intermediate,
                         const std::vector<Value>* lid_filter, QAttr lid_attr,
                         RowRange rows) const;

  const Database* db_;
};

/// The report ExplanationEngine::ExplainAll gives for `templates` (variable
/// 0 rebound to `log_table`, as AddTemplate does) over every row of
/// `log_table`: each row classified by BoxedExecutor::DistinctLids alone —
/// a row whose lid no other row holds by whether the whole-log run finds
/// its lid, any other row by a run seeded at that row — per template the
/// number of rows it explains, and the rows' lids, one per row and
/// ascending, split by whether any template explains them. The database
/// must not change during the call.
StatusOr<ExplanationReport> BoxedExplainAll(
    const Database& db, const std::string& log_table,
    const std::vector<ExplanationTemplate>& templates);

}  // namespace eba

#endif  // EBA_TESTS_ORACLE_BOXED_EXECUTOR_H_
