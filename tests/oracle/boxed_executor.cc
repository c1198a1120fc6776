#include "tests/oracle/boxed_executor.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace eba {

namespace {

/// Every row of variable 0's table; clamped to its snapshot bound.
constexpr RowRange kAllRows{0, std::numeric_limits<size_t>::max()};

struct RowHasher {
  size_t operator()(const Row& row) const {
    size_t h = 0x51ed270b;
    for (const auto& v : row) h = HashCombine(h, v.Hash());
    return h;
  }
};

struct RowEq {
  bool operator()(const Row& a, const Row& b) const { return a == b; }
};

/// Projects `rel` onto `attrs` (all of which must be present), optionally
/// deduplicating rows. Takes the relation by value so callers can move it in
/// and the no-op fast path moves it back out instead of deep-copying.
Relation Project(Relation rel, const std::vector<QAttr>& attrs, bool dedup) {
  // Fast path: identical header, no dedup.
  if (!dedup && attrs == rel.attrs) return rel;
  std::vector<int> positions;
  positions.reserve(attrs.size());
  for (const auto& a : attrs) {
    int idx = rel.AttrIndex(a);
    EBA_CHECK_MSG(idx >= 0, "projection attribute missing from relation");
    positions.push_back(idx);
  }
  Relation out;
  out.attrs = attrs;
  out.rows.reserve(rel.rows.size());
  std::optional<std::unordered_set<Row, RowHasher, RowEq>> seen;
  if (dedup) seen.emplace();
  for (const auto& row : rel.rows) {
    Row projected;
    projected.reserve(positions.size());
    for (int p : positions) projected.push_back(row[static_cast<size_t>(p)]);
    if (seen) {
      if (!seen->insert(projected).second) continue;
    }
    out.rows.push_back(std::move(projected));
  }
  return out;
}

/// The table of `q`'s variable 0 when `lid_attr` names one of its columns
/// (the Executor's argument checks, with its Status codes).
StatusOr<const Table*> LidTable(const Database& db, const PathQuery& q,
                                QAttr lid_attr) {
  if (lid_attr.var != 0) {
    return Status::InvalidArgument("lid attribute must belong to variable 0");
  }
  if (q.vars.empty()) {
    return Status::InvalidArgument("query has no tuple variables");
  }
  EBA_ASSIGN_OR_RETURN(const Table* table, db.GetTable(q.vars[0].table));
  if (lid_attr.col < 0 ||
      static_cast<size_t>(lid_attr.col) >= table->num_columns()) {
    return Status::InvalidArgument("lid attribute column out of range");
  }
  return table;
}

}  // namespace

BoxedExecutor::BoxedExecutor(const Database* db) : db_(db) {
  EBA_CHECK(db != nullptr);
}

StatusOr<Relation> BoxedExecutor::Materialize(const PathQuery& q) const {
  std::vector<QAttr> output = q.projection;
  if (output.empty()) output = q.ReferencedAttrs();
  return Run(q, output, /*dedup_intermediate=*/false, /*lid_filter=*/nullptr,
             QAttr{}, kAllRows);
}

StatusOr<Relation> BoxedExecutor::MaterializeForLogIds(
    const PathQuery& q, QAttr lid_attr, const std::vector<Value>& lids) const {
  EBA_RETURN_IF_ERROR(LidTable(*db_, q, lid_attr).status());
  std::vector<QAttr> output = q.projection;
  if (output.empty()) output = q.ReferencedAttrs();
  if (std::find(output.begin(), output.end(), lid_attr) == output.end()) {
    output.insert(output.begin(), lid_attr);
  }
  return Run(q, output, /*dedup_intermediate=*/false, &lids, lid_attr,
             kAllRows);
}

StatusOr<int64_t> BoxedExecutor::CountDistinct(
    const PathQuery& q, QAttr lid_attr,
    Executor::SupportStrategy strategy) const {
  EBA_ASSIGN_OR_RETURN(auto values, DistinctValues(q, lid_attr, strategy));
  return static_cast<int64_t>(values.size());
}

StatusOr<std::vector<Value>> BoxedExecutor::DistinctValues(
    const PathQuery& q, QAttr lid_attr,
    Executor::SupportStrategy strategy) const {
  EBA_RETURN_IF_ERROR(LidTable(*db_, q, lid_attr).status());
  EBA_ASSIGN_OR_RETURN(
      Relation rel,
      Run(q, {lid_attr},
          strategy == Executor::SupportStrategy::kDedupFrontier,
          /*lid_filter=*/nullptr, lid_attr, kAllRows));
  std::set<Value> distinct;
  for (const auto& row : rel.rows) distinct.insert(row[0]);
  return std::vector<Value>(distinct.begin(), distinct.end());
}

StatusOr<std::vector<int64_t>> BoxedExecutor::DistinctLids(
    const PathQuery& q, QAttr lid_attr, RowRange rows) const {
  EBA_ASSIGN_OR_RETURN(const Table* log_table, LidTable(*db_, q, lid_attr));
  if (!log_table->column(static_cast<size_t>(lid_attr.col)).IsIntLike()) {
    return Status::InvalidArgument("the lid column must be integer-like");
  }
  EBA_ASSIGN_OR_RETURN(Relation rel,
                       Run(q, {lid_attr}, /*dedup_intermediate=*/true,
                           /*lid_filter=*/nullptr, lid_attr, rows));
  std::vector<int64_t> lids;
  for (const auto& row : rel.rows) {
    if (!row[0].is_null()) lids.push_back(row[0].RawInt64());
  }
  std::sort(lids.begin(), lids.end());
  lids.erase(std::unique(lids.begin(), lids.end()), lids.end());
  return lids;
}

StatusOr<Relation> BoxedExecutor::Run(const PathQuery& q,
                                      const std::vector<QAttr>& output_attrs,
                                      bool dedup_intermediate,
                                      const std::vector<Value>* lid_filter,
                                      QAttr lid_attr, RowRange rows) const {
  EBA_RETURN_IF_ERROR(q.Validate(*db_));

  // Resolve tuple variables to tables, and pin the read view every scan and
  // probe below clamps to.
  const Database::Snapshot snapshot = db_->CreateSnapshot();
  std::vector<const Table*> tables(q.vars.size());
  std::vector<size_t> bounds(q.vars.size());
  for (size_t i = 0; i < q.vars.size(); ++i) {
    EBA_ASSIGN_OR_RETURN(tables[i], db_->GetTable(q.vars[i].table));
    bounds[i] = snapshot.BoundOf(tables[i]);
  }

  // Condition bookkeeping.
  std::vector<VarCondition> joins = q.join_chain;
  std::vector<bool> join_applied(joins.size(), false);
  std::vector<VarCondition> extras = q.extra_conditions;
  std::vector<bool> extra_applied(extras.size(), false);
  std::vector<ConstCondition> consts = q.const_conditions;
  std::vector<bool> const_applied(consts.size(), false);

  std::vector<bool> bound(q.vars.size(), false);
  bound[0] = true;

  // The set of attributes a tuple variable must contribute when it is bound:
  // every attribute of that variable referenced by any condition or output.
  auto needed_for_var = [&](int var) {
    std::set<QAttr> needed;
    for (const auto& c : joins) {
      if (c.lhs.var == var) needed.insert(c.lhs);
      if (c.rhs.var == var) needed.insert(c.rhs);
    }
    for (const auto& c : extras) {
      if (c.lhs.var == var) needed.insert(c.lhs);
      if (c.rhs.var == var) needed.insert(c.rhs);
    }
    for (const auto& c : consts) {
      if (c.lhs.var == var) needed.insert(c.lhs);
    }
    for (const auto& a : output_attrs) {
      if (a.var == var) needed.insert(a);
    }
    return std::vector<QAttr>(needed.begin(), needed.end());
  };

  // Attributes still needed downstream of the current point: outputs plus
  // attributes of unapplied conditions.
  auto downstream_attrs = [&](const Relation& rel) {
    std::set<QAttr> needed(output_attrs.begin(), output_attrs.end());
    for (size_t i = 0; i < joins.size(); ++i) {
      if (join_applied[i]) continue;
      needed.insert(joins[i].lhs);
      needed.insert(joins[i].rhs);
    }
    for (size_t i = 0; i < extras.size(); ++i) {
      if (extra_applied[i]) continue;
      needed.insert(extras[i].lhs);
      needed.insert(extras[i].rhs);
    }
    for (size_t i = 0; i < consts.size(); ++i) {
      if (const_applied[i]) continue;
      needed.insert(consts[i].lhs);
    }
    std::vector<QAttr> present;
    for (const auto& a : needed) {
      if (rel.AttrIndex(a) >= 0) present.push_back(a);
    }
    return present;
  };

  // Applies every filter condition whose variables are all bound and whose
  // attributes are materialized in `rel`.
  auto apply_filters = [&](Relation* rel) {
    auto run_filter = [&](auto pass) {
      std::vector<Row> kept;
      kept.reserve(rel->rows.size());
      for (auto& row : rel->rows) {
        if (pass(row)) kept.push_back(std::move(row));
      }
      rel->rows = std::move(kept);
    };
    for (size_t i = 0; i < extras.size(); ++i) {
      if (extra_applied[i]) continue;
      const auto& c = extras[i];
      if (!bound[c.lhs.var] || !bound[c.rhs.var]) continue;
      int li = rel->AttrIndex(c.lhs);
      int ri = rel->AttrIndex(c.rhs);
      EBA_CHECK(li >= 0 && ri >= 0);
      extra_applied[i] = true;
      run_filter([&](const Row& row) {
        return EvalCmp(row[static_cast<size_t>(li)], c.op,
                       row[static_cast<size_t>(ri)]);
      });
    }
    for (size_t i = 0; i < consts.size(); ++i) {
      if (const_applied[i]) continue;
      const auto& c = consts[i];
      if (!bound[c.lhs.var]) continue;
      int li = rel->AttrIndex(c.lhs);
      EBA_CHECK(li >= 0);
      const_applied[i] = true;
      run_filter([&](const Row& row) {
        return EvalCmp(row[static_cast<size_t>(li)], c.op, c.rhs);
      });
    }
  };

  // --- Initial relation: variable 0 (the log), over the rows of the
  // --- requested lids or the row range `rows`. ---
  Relation rel;
  rel.attrs = needed_for_var(0);
  const Table* log_table = tables[0];
  auto emit_log_row = [&](size_t r) {
    Row row;
    row.reserve(rel.attrs.size());
    for (const auto& a : rel.attrs) {
      row.push_back(log_table->Get(r, static_cast<size_t>(a.col)));
    }
    rel.rows.push_back(std::move(row));
  };
  if (lid_filter != nullptr) {
    const HashIndex& idx =
        log_table->GetOrBuildIndex(static_cast<size_t>(lid_attr.col));
    std::unordered_set<size_t> rows_seen;
    rows_seen.reserve(2 * lid_filter->size());
    for (const auto& lid : *lid_filter) {
      for (uint32_t r : idx.Lookup(lid, bounds[0])) {
        if (rows_seen.insert(r).second) emit_log_row(r);
      }
    }
  } else {
    const size_t end = std::min(rows.end, bounds[0]);
    const size_t begin = std::min(rows.begin, end);
    rel.rows.reserve(end - begin);
    for (size_t r = begin; r < end; ++r) emit_log_row(r);
  }
  apply_filters(&rel);
  if (dedup_intermediate) {
    std::vector<QAttr> frontier = downstream_attrs(rel);
    rel = Project(std::move(rel), frontier, /*dedup=*/true);
  }

  // --- Join loop: greedily apply chain conditions. ---
  size_t remaining = joins.size();
  while (remaining > 0) {
    // Prefer a filter (both sides bound), otherwise the first join that
    // binds a new variable.
    int pick = -1;
    bool pick_is_filter = false;
    for (size_t i = 0; i < joins.size(); ++i) {
      if (join_applied[i]) continue;
      bool lb = bound[joins[i].lhs.var];
      bool rb = bound[joins[i].rhs.var];
      if (lb && rb) {
        pick = static_cast<int>(i);
        pick_is_filter = true;
        break;
      }
      if ((lb || rb) && pick < 0) pick = static_cast<int>(i);
    }
    if (pick < 0) {
      return Status::InvalidArgument(
          "query is disconnected: no join condition touches a bound variable");
    }
    const VarCondition& c = joins[static_cast<size_t>(pick)];
    join_applied[static_cast<size_t>(pick)] = true;
    --remaining;

    if (pick_is_filter) {
      int li = rel.AttrIndex(c.lhs);
      int ri = rel.AttrIndex(c.rhs);
      EBA_CHECK(li >= 0 && ri >= 0);
      std::vector<Row> kept;
      kept.reserve(rel.rows.size());
      for (auto& row : rel.rows) {
        if (EvalCmp(row[static_cast<size_t>(li)], c.op,
                    row[static_cast<size_t>(ri)])) {
          kept.push_back(std::move(row));
        }
      }
      rel.rows = std::move(kept);
    } else {
      if (c.op != CmpOp::kEq) {
        return Status::Unimplemented(
            "non-equality join in chain; put theta conditions in "
            "extra_conditions");
      }
      const bool lhs_bound = bound[c.lhs.var];
      const QAttr bound_attr = lhs_bound ? c.lhs : c.rhs;
      const QAttr new_attr = lhs_bound ? c.rhs : c.lhs;
      const int new_var = new_attr.var;
      const Table* new_table = tables[static_cast<size_t>(new_var)];
      const HashIndex& idx =
          new_table->GetOrBuildIndex(static_cast<size_t>(new_attr.col));

      const std::vector<QAttr> new_cols = needed_for_var(new_var);
      const int probe_idx = rel.AttrIndex(bound_attr);
      EBA_CHECK(probe_idx >= 0);

      Relation next;
      next.attrs = rel.attrs;
      next.attrs.insert(next.attrs.end(), new_cols.begin(), new_cols.end());
      for (const auto& row : rel.rows) {
        const Value& key = row[static_cast<size_t>(probe_idx)];
        if (key.is_null()) continue;
        for (uint32_t match :
             idx.Lookup(key, bounds[static_cast<size_t>(new_var)])) {
          Row combined = row;
          combined.reserve(next.attrs.size());
          for (const auto& a : new_cols) {
            combined.push_back(
                new_table->Get(match, static_cast<size_t>(a.col)));
          }
          next.rows.push_back(std::move(combined));
        }
      }
      bound[static_cast<size_t>(new_var)] = true;
      rel = std::move(next);
    }

    apply_filters(&rel);
    if (dedup_intermediate) {
      std::vector<QAttr> frontier = downstream_attrs(rel);
      rel = Project(std::move(rel), frontier, /*dedup=*/true);
    }
  }

  // Every variable must have been bound (otherwise the query was not a
  // connected path) and every decoration applied.
  for (size_t i = 0; i < q.vars.size(); ++i) {
    if (!bound[i]) {
      return Status::InvalidArgument("tuple variable '" + q.vars[i].alias +
                                     "' is not connected to the query path");
    }
  }
  for (size_t i = 0; i < extras.size(); ++i) {
    if (!extra_applied[i]) {
      return Status::Internal("decoration condition left unapplied");
    }
  }
  for (size_t i = 0; i < consts.size(); ++i) {
    if (!const_applied[i]) {
      return Status::Internal("literal condition left unapplied");
    }
  }

  return Project(std::move(rel), output_attrs, /*dedup=*/dedup_intermediate);
}

StatusOr<ExplanationReport> BoxedExplainAll(
    const Database& db, const std::string& log_table,
    const std::vector<ExplanationTemplate>& templates) {
  EBA_ASSIGN_OR_RETURN(const Table* log, db.GetTable(log_table));
  const int lid_col = log->schema().ColumnIndex("Lid");
  if (lid_col < 0) {
    return Status::InvalidArgument("log table '" + log_table +
                                   "' has no Lid column");
  }
  const BoxedExecutor executor(&db);
  ExplanationReport report;
  report.log_size = log->num_rows();
  std::vector<int64_t> row_lids;
  std::map<int64_t, size_t> rows_per_lid;
  for (size_t r = 0; r < report.log_size; ++r) {
    row_lids.push_back(log->Get(r, static_cast<size_t>(lid_col)).AsInt64());
    ++rows_per_lid[row_lids.back()];
  }
  std::vector<bool> explained(report.log_size, false);
  for (const ExplanationTemplate& tmpl : templates) {
    const ExplanationTemplate bound = tmpl.WithLogTable(log_table);
    EBA_ASSIGN_OR_RETURN(
        const std::vector<int64_t> lids,
        executor.DistinctLids(bound.query(), bound.lid_attr()));
    size_t count = 0;
    for (size_t r = 0; r < report.log_size; ++r) {
      // A unique lid is found iff its row is; a repeated one's row is
      // classified by a run seeded at that row alone.
      bool found = std::binary_search(lids.begin(), lids.end(), row_lids[r]);
      if (found && rows_per_lid[row_lids[r]] > 1) {
        EBA_ASSIGN_OR_RETURN(
            const std::vector<int64_t> own,
            executor.DistinctLids(bound.query(), bound.lid_attr(),
                                  RowRange{r, r + 1}));
        found = !own.empty();
      }
      if (!found) continue;
      ++count;
      explained[r] = true;
    }
    report.per_template_counts.push_back(count);
  }
  for (size_t r = 0; r < report.log_size; ++r) {
    (explained[r] ? report.explained_lids : report.unexplained_lids)
        .push_back(row_lids[r]);
  }
  std::sort(report.explained_lids.begin(), report.explained_lids.end());
  std::sort(report.unexplained_lids.begin(), report.unexplained_lids.end());
  return report;
}

}  // namespace eba
