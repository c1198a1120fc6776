// CardinalityEstimator: plays the role of the DBMS optimizer in the paper's
// "skipping non-selective paths" optimization (§3.2.1) — the miner asks for
// the expected number of distinct log ids in a path query's result and skips
// computing exact support when the estimate exceeds S * c.
//
// Standard textbook estimation: equi-join size |R join S| =
// |R| * |S| / max(ndv(R.a), ndv(S.b)); comparison filters use 1/3
// selectivity; the final distinct-lid count applies a balls-into-bins
// correction so the estimate is bounded by |Log|. The executor's plan
// compiler also orders joins with it, by each join's fan-out
// |S| / max(ndv(R.a), ndv(S.b)) — the one factor that differs between
// candidates fed the same intermediate.

#ifndef EBA_QUERY_OPTIMIZER_H_
#define EBA_QUERY_OPTIMIZER_H_

#include "common/status.h"
#include "query/path_query.h"
#include "storage/database.h"

namespace eba {

class CardinalityEstimator {
 public:
  /// The database must outlive the estimator.
  explicit CardinalityEstimator(const Database* db);

  /// Expected number of rows in the query result.
  StatusOr<double> EstimateRows(const PathQuery& q) const;

  /// Expected COUNT(DISTINCT lid_attr); lid_attr must belong to variable 0.
  StatusOr<double> EstimateDistinctLogIds(const PathQuery& q,
                                          QAttr lid_attr) const;

  /// Expected fan-out of equi-joining an intermediate whose join key is
  /// `probe` (a column of `probe_table`) against the full `build_table` on
  /// `build`: output rows per input row, |S| / max(ndv(R.a), ndv(S.b)) —
  /// the textbook |R join S| = |R| * |S| / max(ndv(R.a), ndv(S.b)) divided
  /// by |R|. The plan compiler's cost-based join ordering asks this for
  /// every applicable chain condition and picks the smallest: every
  /// candidate is fed the same intermediate, so the smallest fan-out is the
  /// smallest predicted intermediate, whatever the intermediate's size.
  double EstimateJoinStep(const Table* probe_table, QAttr probe,
                          const Table* build_table, QAttr build) const;

 private:
  const Database* db_;
};

}  // namespace eba

#endif  // EBA_QUERY_OPTIMIZER_H_
