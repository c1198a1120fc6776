#include "core/engine.h"

#include <algorithm>
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
/// lookup, frame setup, its own dedup) would outweigh the rows a split
/// hands another thread.
constexpr size_t kMinSeedRows = 4096;

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
  // One pool serves the whole audit (spawn/join threads once per call).
  std::unique_ptr<ThreadPool> pool;
  std::vector<uint8_t> explained;
  EBA_ASSIGN_OR_RETURN(
      StreamingReport audit,
      AuditRange(snapshot, /*appends=*/{}, &explained, options, &pool));
  ExplanationReport report;
  report.log_size = audit.audited_to;
  report.per_template_counts = std::move(audit.per_template_counts);
  report.explained_lids = std::move(audit.explained_lids);
  report.unexplained_lids = std::move(audit.unexplained_lids);
  return report;
}

StatusOr<StreamingReport> ExplanationEngine::AuditRange(
    const Database::Snapshot& snapshot,
    const std::vector<CatalogDrift::Append>& appends,
    std::vector<uint8_t>* explained, const ExplainAllOptions& options,
    std::unique_ptr<ThreadPool>* workers) const {
  EBA_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(log_table_));
  EBA_ASSIGN_OR_RETURN(AccessLog log, AccessLog::Wrap(table));
  const size_t log_end = snapshot.BoundOf(table);
  const RowRange log_rows{std::min(explained->size(), log_end), log_end};
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
  // --- finds every explained row.
  StreamingReport report;
  report.audited_from = log_rows.begin;
  report.audited_to = log_end;
  struct Task {
    size_t template_index;
    int pivot;
    RowRange rows;
  };
  std::vector<Task> tasks;
  // Per cut of the audited rows: its variable-0 tasks, one per template.
  std::vector<std::vector<size_t>> log_cuts;
  // An empty range (an empty log, from row 0) still runs once, validating
  // the query.
  auto add_tasks = [&](size_t i, int pivot, RowRange rows) {
    std::vector<ShardRange> cuts =
        SplitShards(rows.size(), threads, kMinSeedRows);
    if (cuts.empty()) cuts.emplace_back();
    if (pivot == 0) log_cuts.resize(cuts.size());
    for (size_t c = 0; c < cuts.size(); ++c) {
      if (pivot == 0) log_cuts[c].push_back(tasks.size());
      tasks.push_back(Task{i, pivot,
                           RowRange{rows.begin + cuts[c].begin,
                                    rows.begin + cuts[c].end}});
    }
  };
  if (from_zero) {
    for (size_t i = 0; i < templates_.size(); ++i) add_tasks(i, 0, log_rows);
  } else {
    std::vector<std::pair<const std::string*, RowRange>> appended;
    if (!log_rows.empty()) appended.emplace_back(&log_table_, log_rows);
    for (const CatalogDrift::Append& append : appends) {
      if (append.table == log_table_) continue;
      ++report.delta_tables;
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
        if (pivots > (*name == log_table_ ? 1u : 0u)) ++report.delta_queries;
      }
    }
  }

  // Each slot is written by one worker through a private Executor; tables
  // serialize lazy index construction internally.
  std::vector<StatusOr<std::vector<uint32_t>>> results(
      tasks.size(),
      StatusOr<std::vector<uint32_t>>(Status::Internal("not evaluated")));
  ParallelFor(pool, tasks.size(), [&](size_t k) {
    const ExplanationTemplate& tmpl = templates_[tasks[k].template_index];
    Executor executor(snapshot, exec);
    results[k] = executor.LogRowsJoinedTo(tmpl.query(), tmpl.lid_attr(),
                                          tasks[k].pivot, tasks[k].rows);
  });

  // --- Variable-0 tasks find audited rows only, each task in its own cut,
  // --- so they count for their template as they are. Every other task's
  // --- rows below the audited ones that are not yet explained are older
  // --- rows the appends newly explain; its audited rows repeat variable
  // --- 0's.
  report.per_template_counts.assign(templates_.size(), 0);
  std::vector<std::vector<uint32_t>> older(templates_.size());
  for (size_t k = 0; k < tasks.size(); ++k) {
    if (!results[k].ok()) return results[k].status();
    const size_t i = tasks[k].template_index;
    if (tasks[k].pivot == 0) {
      report.per_template_counts[i] += results[k]->size();
      continue;
    }
    for (uint32_t r : *results[k]) {
      if (r < log_rows.begin && (*explained)[r] == 0) older[i].push_back(r);
    }
  }

  // --- Mark the audited rows found, once every task succeeded (the new
  // --- rows' flags start unexplained): one thread per cut, so no two
  // --- threads write one flag.
  explained->resize(log_end);
  ParallelFor(pool, log_cuts.size(), [&](size_t c) {
    for (size_t k : log_cuts[c]) {
      for (uint32_t r : *results[k]) (*explained)[r] = 1;
    }
  });

  // --- Mark the older rows: a template counts each once (two of its
  // --- pivots can reach one row), and the report lists each once however
  // --- many templates reach it.
  std::vector<uint32_t> delta_rows;
  for (std::vector<uint32_t>& rows : older) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    report.per_template_delta_counts.push_back(rows.size());
    for (uint32_t r : rows) {
      if ((*explained)[r] != 0) continue;
      (*explained)[r] = 1;
      delta_rows.push_back(r);
    }
  }

  // --- The report's lists: the lids of the audited rows, split by their
  // --- flags, and of the newly explained older rows; sorted only when the
  // --- log's lids do not ascend in row order.
  const Column& lid_col = table->column(static_cast<size_t>(log.lid_col()));
  lid_col.ForEachInt64Span(
      log_rows.begin, log_rows.end,
      [&](size_t first_row, const int64_t* data, size_t count) {
        for (size_t j = 0; j < count; ++j) {
          ((*explained)[first_row + j] != 0 ? report.explained_lids
                                            : report.unexplained_lids)
              .push_back(data[j]);
        }
      });
  for (uint32_t r : delta_rows) {
    report.delta_explained_lids.push_back(lid_col.Int64At(r));
  }
  for (std::vector<int64_t>* lids :
       {&report.explained_lids, &report.unexplained_lids,
        &report.delta_explained_lids}) {
    if (!std::is_sorted(lids->begin(), lids->end())) {
      std::sort(lids->begin(), lids->end());
    }
  }
  return report;
}

}  // namespace eba
