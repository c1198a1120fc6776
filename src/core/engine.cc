#include "core/engine.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "log/access_log.h"

namespace eba {

namespace {

/// The fewest rows one audit task seeds when a range is split over
/// threads: a smaller range stays one executor run, whose fixed cost (plan
/// lookup, frame setup, its own sort and dedup) would outweigh the rows a
/// split hands another thread.
constexpr size_t kMinSeedRows = 4096;

/// The ascending, duplicate-free union of ascending, duplicate-free lists,
/// merged pairwise; the merges of one round run concurrently on `pool`. A
/// lone list moves through without a copy.
std::vector<int64_t> UnionOfSorted(std::vector<std::vector<int64_t>> lists,
                                   ThreadPool* pool) {
  if (lists.empty()) return {};
  while (lists.size() > 1) {
    const size_t pairs = lists.size() / 2;
    std::vector<std::vector<int64_t>> merged(pairs + lists.size() % 2);
    ParallelFor(pool, pairs, [&](size_t p) {
      const std::vector<int64_t>& x = lists[2 * p];
      const std::vector<int64_t>& y = lists[2 * p + 1];
      std::vector<int64_t>& out = merged[p];
      out.reserve(x.size() + y.size());
      std::set_union(x.begin(), x.end(), y.begin(), y.end(),
                     std::back_inserter(out));
    });
    if (lists.size() % 2 != 0) merged.back() = std::move(lists.back());
    lists = std::move(merged);
  }
  return std::move(lists[0]);
}

}  // namespace

ExplanationEngine::ExplanationEngine(const Database* db, std::string log_table,
                                     QAttr lid_attr)
    : db_(db), log_table_(std::move(log_table)), lid_attr_(lid_attr) {}

StatusOr<ExplanationEngine> ExplanationEngine::Create(
    const Database* db, const std::string& log_table) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  EBA_ASSIGN_OR_RETURN(const Table* table, db->GetTable(log_table));
  int lid_col = table->schema().ColumnIndex("Lid");
  if (lid_col < 0) {
    return Status::InvalidArgument("log table '" + log_table +
                                   "' has no Lid column");
  }
  return ExplanationEngine(db, log_table, QAttr{0, lid_col});
}

Status ExplanationEngine::AddTemplate(const ExplanationTemplate& tmpl) {
  ExplanationTemplate bound = tmpl.WithLogTable(log_table_);
  EBA_RETURN_IF_ERROR(bound.query().Validate(*db_));
  if (bound.lid_attr() != lid_attr_) {
    return Status::InvalidArgument(
        "template lid attribute does not match engine log table");
  }
  templates_.push_back(std::move(bound));
  return Status::OK();
}

StatusOr<std::vector<ExplanationInstance>> ExplanationEngine::Explain(
    int64_t lid) const {
  return Explain(lid, db_->CreateSnapshot());
}

StatusOr<std::vector<ExplanationInstance>> ExplanationEngine::Explain(
    int64_t lid, const Database::Snapshot& snapshot) const {
  // Per-access explains are planning-bound (tiny frames): share the
  // engine's persistent plan cache so the serving loop replays compiled
  // plans instead of re-planning per request.
  ExecutorOptions options;
  options.plan_cache = plan_cache_.get();
  Executor executor(snapshot, options);
  std::vector<ExplanationInstance> instances;
  std::vector<Value> lids = {Value::Int64(lid)};
  for (const auto& tmpl : templates_) {
    EBA_ASSIGN_OR_RETURN(
        Relation rel,
        executor.MaterializeForLogIds(tmpl.query(), tmpl.lid_attr(), lids));
    for (auto& row : rel.rows) {
      instances.emplace_back(&tmpl, rel.attrs, std::move(row));
    }
  }
  std::stable_sort(instances.begin(), instances.end(),
                   ExplanationInstance::RankLess);
  return instances;
}

StatusOr<std::vector<int64_t>> ExplanationEngine::ExplainedLids(
    size_t index) const {
  if (index >= templates_.size()) {
    return Status::OutOfRange("template index out of range");
  }
  Executor executor(db_);
  const auto& tmpl = templates_[index];
  // DistinctLids is the semi-join fast path: row ids flow through the whole
  // pipeline and the sorted lid vector is materialized straight from the
  // log's Lid column.
  return executor.DistinctLids(tmpl.query(), tmpl.lid_attr());
}

StatusOr<ExplanationReport> ExplanationEngine::ExplainAll() const {
  return ExplainAll(ExplainAllOptions{});
}

StatusOr<ExplanationReport> ExplanationEngine::ExplainAll(
    const ExplainAllOptions& options) const {
  return ExplainAll(options, db_->CreateSnapshot());
}

StatusOr<ExplanationReport> ExplanationEngine::ExplainAll(
    const ExplainAllOptions& options,
    const Database::Snapshot& snapshot) const {
  EBA_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(log_table_));
  // One pool serves the whole audit (spawn/join threads once per call).
  std::unique_ptr<ThreadPool> pool;
  EBA_ASSIGN_OR_RETURN(
      RangeAudit audit,
      AuditRange(snapshot, /*log_from=*/0, /*appends=*/{},
                 /*accumulated=*/{}, options, &pool));
  ExplanationReport report;
  report.log_size = snapshot.BoundOf(table);
  report.per_template_counts = std::move(audit.per_template_counts);
  report.explained_lids = std::move(audit.explained_lids);
  report.unexplained_lids = std::move(audit.unexplained_lids);
  return report;
}

StatusOr<RangeAudit> ExplanationEngine::AuditRange(
    const Database::Snapshot& snapshot, size_t log_from,
    const std::vector<CatalogDrift::Append>& appends,
    const std::vector<int64_t>& accumulated,
    const ExplainAllOptions& options,
    std::unique_ptr<ThreadPool>* workers) const {
  EBA_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(log_table_));
  EBA_ASSIGN_OR_RETURN(AccessLog log, AccessLog::Wrap(table));
  const size_t log_end = snapshot.BoundOf(table);
  const RowRange log_rows{std::min(log_from, log_end), log_end};
  const bool from_zero = log_rows.begin == 0;

  // The calling thread participates in every ParallelFor round, so the
  // pool holds threads - 1 workers; null when serial, which ParallelFor
  // runs inline.
  const size_t threads = std::max<size_t>(1, options.num_threads);
  if (threads <= 1) {
    workers->reset();
  } else if (*workers == nullptr || (*workers)->num_threads() != threads - 1) {
    *workers = std::make_unique<ThreadPool>(threads - 1);
  }
  ThreadPool* pool = workers->get();

  // Tasks share the engine's persistent plan cache.
  ExecutorOptions exec;
  exec.plan_cache = plan_cache_.get();

  // --- One task list: for each appended table — the log with the audited
  // --- rows, each non-log table of `appends` with its new rows — every
  // --- template variable bound to it pivots over those rows, one task per
  // --- near-equal cut of them (at most one per thread, none under
  // --- kMinSeedRows rows). The seed range is a run's only restriction, so
  // --- a template's tasks together find what one run per pivot would.
  // --- From row 0 variable 0 alone pivots: seeded at every log row, it
  // --- finds every explained lid.
  RangeAudit audit;
  struct Task {
    size_t template_index;
    int pivot;
    RowRange rows;
  };
  std::vector<Task> tasks;
  // An empty range (an empty log, from row 0) still runs once, validating
  // the query.
  auto add_tasks = [&](size_t i, int pivot, RowRange rows) {
    std::vector<ShardRange> cuts =
        SplitShards(rows.size(), threads, kMinSeedRows);
    if (cuts.empty()) cuts.emplace_back();
    for (const ShardRange& cut : cuts) {
      tasks.push_back(Task{
          i, pivot, RowRange{rows.begin + cut.begin, rows.begin + cut.end}});
    }
  };
  if (from_zero) {
    for (size_t i = 0; i < templates_.size(); ++i) add_tasks(i, 0, log_rows);
  } else {
    std::vector<std::pair<const std::string*, RowRange>> appended;
    if (!log_rows.empty()) appended.emplace_back(&log_table_, log_rows);
    for (const CatalogDrift::Append& append : appends) {
      if (append.table == log_table_) continue;
      ++audit.delta_tables;
      appended.emplace_back(
          &append.table, RowRange{static_cast<size_t>(append.from_watermark),
                                  static_cast<size_t>(append.to_watermark)});
    }
    for (const auto& [name, rows] : appended) {
      for (size_t i = 0; i < templates_.size(); ++i) {
        const std::vector<TupleVar>& vars = templates_[i].query().vars;
        size_t pivots = 0;
        for (size_t v = 0; v < vars.size(); ++v) {
          if (vars[v].table != *name) continue;
          add_tasks(i, static_cast<int>(v), rows);
          ++pivots;
        }
        // A delta query seeds more than the log's variable 0.
        if (pivots > (*name == log_table_ ? 1u : 0u)) ++audit.delta_queries;
      }
    }
  }

  // Each slot is written by one worker through a private Executor; tables
  // serialize lazy index construction internally.
  std::vector<StatusOr<std::vector<int64_t>>> results(
      tasks.size(),
      StatusOr<std::vector<int64_t>>(Status::Internal("not evaluated")));
  ParallelFor(pool, tasks.size(), [&](size_t k) {
    const ExplanationTemplate& tmpl = templates_[tasks[k].template_index];
    Executor executor(snapshot, exec);
    results[k] = executor.DistinctLidsJoinedTo(
        tmpl.query(), tmpl.lid_attr(), tasks[k].pivot, tasks[k].rows);
  });
  // Per template: its tasks' results, in task order.
  std::vector<std::vector<std::vector<int64_t>>> cuts(templates_.size());
  for (size_t k = 0; k < tasks.size(); ++k) {
    if (!results[k].ok()) return results[k].status();
    cuts[tasks[k].template_index].push_back(std::move(*results[k]));
  }

  // The audited rows' lids, read in row order and sorted only when they do
  // not already ascend.
  const Column& lid_col = table->column(static_cast<size_t>(log.lid_col()));
  std::vector<int64_t> row_lids(log_rows.size());
  lid_col.ForEachInt64Span(
      log_rows.begin, log_rows.end,
      [&](size_t first_row, const int64_t* data, size_t count) {
        std::copy(data, data + count,
                  row_lids.begin() +
                      static_cast<long>(first_row - log_rows.begin));
      });
  if (!std::is_sorted(row_lids.begin(), row_lids.end())) {
    std::sort(row_lids.begin(), row_lids.end());
  }

  // --- Per template: the ascending union of its tasks' results (a lid
  // --- whose rows fall in two cuts is found by both). The lids on audited
  // --- rows count for it — every one is explained; the rest lie on older
  // --- rows.
  auto held = [&accumulated](int64_t lid) {
    return std::binary_search(accumulated.begin(), accumulated.end(), lid);
  };
  std::vector<std::vector<int64_t>> found(templates_.size());
  audit.per_template_counts.assign(templates_.size(), 0);
  audit.delta_lids.assign(templates_.size(), {});
  ParallelFor(pool, templates_.size(), [&](size_t i) {
    found[i] = UnionOfSorted(std::move(cuts[i]), /*pool=*/nullptr);
    auto row = row_lids.begin();
    for (int64_t lid : found[i]) {
      while (row != row_lids.end() && *row < lid) ++row;
      if (row != row_lids.end() && *row == lid) {
        ++audit.per_template_counts[i];
      } else if (!held(lid)) {
        audit.delta_lids[i].push_back(lid);
      }
    }
  });

  // --- Classify the audited rows by one merge: their lids walk the union
  // --- of every template's lids and `accumulated` from the first audited
  // --- lid. A lid is explained iff either holds it, and both lists come out
  // --- ascending.
  const std::vector<int64_t> any = UnionOfSorted(std::move(found), pool);
  const int64_t first_lid = row_lids.empty() ? 0 : row_lids.front();
  auto u = std::lower_bound(any.begin(), any.end(), first_lid);
  auto a = std::lower_bound(accumulated.begin(), accumulated.end(), first_lid);
  for (int64_t lid : row_lids) {
    while (u != any.end() && *u < lid) ++u;
    while (a != accumulated.end() && *a < lid) ++a;
    const bool explained = (u != any.end() && *u == lid) ||
                           (a != accumulated.end() && *a == lid);
    (explained ? audit.explained_lids : audit.unexplained_lids).push_back(lid);
  }
  return audit;
}

}  // namespace eba
