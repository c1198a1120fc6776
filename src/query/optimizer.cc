#include "query/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace eba {

namespace {
constexpr double kComparisonSelectivity = 1.0 / 3.0;
}  // namespace

CardinalityEstimator::CardinalityEstimator(const Database* db) : db_(db) {
  EBA_CHECK(db != nullptr);
}

StatusOr<double> CardinalityEstimator::EstimateRows(const PathQuery& q) const {
  EBA_RETURN_IF_ERROR(q.Validate(*db_));

  std::vector<const Table*> tables(q.vars.size());
  for (size_t i = 0; i < q.vars.size(); ++i) {
    EBA_ASSIGN_OR_RETURN(tables[i], db_->GetTable(q.vars[i].table));
  }
  auto ndv = [&](const QAttr& a) -> double {
    const ColumnStats& stats =
        tables[static_cast<size_t>(a.var)]->GetOrComputeStats(
            static_cast<size_t>(a.col));
    return std::max<double>(1.0, static_cast<double>(stats.num_distinct));
  };

  std::vector<bool> bound(q.vars.size(), false);
  bound[0] = true;
  double est = static_cast<double>(tables[0]->num_rows());

  // Mirror the executor's greedy application order.
  std::vector<VarCondition> joins = q.join_chain;
  std::vector<bool> applied(joins.size(), false);
  size_t remaining = joins.size();
  while (remaining > 0) {
    int pick = -1;
    bool is_filter = false;
    for (size_t i = 0; i < joins.size(); ++i) {
      if (applied[i]) continue;
      bool lb = bound[joins[i].lhs.var];
      bool rb = bound[joins[i].rhs.var];
      if (lb && rb) {
        pick = static_cast<int>(i);
        is_filter = true;
        break;
      }
      if ((lb || rb) && pick < 0) pick = static_cast<int>(i);
    }
    if (pick < 0) {
      return Status::InvalidArgument("disconnected query in estimator");
    }
    const VarCondition& c = joins[static_cast<size_t>(pick)];
    applied[static_cast<size_t>(pick)] = true;
    --remaining;

    if (is_filter) {
      est *= (c.op == CmpOp::kEq)
                 ? 1.0 / std::max(ndv(c.lhs), ndv(c.rhs))
                 : kComparisonSelectivity;
    } else {
      const bool lhs_bound = bound[c.lhs.var];
      const QAttr probe = lhs_bound ? c.lhs : c.rhs;
      const QAttr build = lhs_bound ? c.rhs : c.lhs;
      const Table* t = tables[static_cast<size_t>(build.var)];
      est = est * static_cast<double>(t->num_rows()) /
            std::max(ndv(probe), ndv(build));
      bound[static_cast<size_t>(build.var)] = true;
    }
  }

  for (const auto& c : q.extra_conditions) {
    est *= (c.op == CmpOp::kEq) ? 1.0 / std::max(ndv(c.lhs), ndv(c.rhs))
                                : kComparisonSelectivity;
  }
  for (const auto& c : q.const_conditions) {
    est *= (c.op == CmpOp::kEq) ? 1.0 / ndv(c.lhs) : kComparisonSelectivity;
  }
  return std::max(est, 0.0);
}

double CardinalityEstimator::EstimateJoinStep(const Table* probe_table,
                                              QAttr probe,
                                              const Table* build_table,
                                              QAttr build) const {
  auto ndv = [](const Table* t, int col) {
    const ColumnStats& stats = t->GetOrComputeStats(static_cast<size_t>(col));
    return std::max<double>(1.0, static_cast<double>(stats.num_distinct));
  };
  return static_cast<double>(build_table->num_rows()) /
         std::max(ndv(probe_table, probe.col), ndv(build_table, build.col));
}

StatusOr<double> CardinalityEstimator::EstimateDistinctLogIds(
    const PathQuery& q, QAttr lid_attr) const {
  if (lid_attr.var != 0) {
    return Status::InvalidArgument("lid attribute must belong to variable 0");
  }
  EBA_ASSIGN_OR_RETURN(double rows, EstimateRows(q));
  EBA_ASSIGN_OR_RETURN(const Table* log_table, db_->GetTable(q.vars[0].table));
  double n = static_cast<double>(log_table->num_rows());
  if (n <= 0) return 0.0;
  // Balls-into-bins: expected number of distinct lids hit by `rows` result
  // tuples assuming lids are uniformly represented.
  return n * (1.0 - std::exp(-rows / n));
}

}  // namespace eba
