// ExplanationEngine: the runtime side of explanation-based auditing.
// Holds a registry of explanation templates over one log table and answers:
//   - Explain(lid): all explanation instances for a single access, ranked
//     by ascending path length (the user-centric audit portal operation);
//   - ExplainAll(): which accesses each template explains, combined
//     coverage, and the unexplained remainder (the misuse-detection
//     operation of §1).
// ExplainAll and the streaming ExplainNew (core/ingest.h) are one range
// audit (AuditRange), with the log as one more appended table. Explain and
// every range audit run their queries through the engine's persistent plan
// cache (plan_cache()), whose PlanCache::stats() are their plan-cache
// counters. The boxed test oracle's BoxedExplainAll
// (tests/oracle/boxed_executor.h) computes ExplainAll's report without
// AuditRange, to check it.
//
// Thread safety: the const query surface (Explain/ExplainedLids/ExplainAll)
// is safe to call concurrently — the shared PlanCache and each Table's lazy
// index/stats construction carry their own capability-annotated locks
// (common/thread_annotations.h), so ExplainAll's template fan-out needs no
// external locking. Each call pins one Database::Snapshot (or takes the
// caller's) and evaluates everything against that read view, so queries are
// also safe under the single concurrent appending writer: a call observes
// exactly the rows below its snapshot's watermarks. Registering templates
// (AddTemplate) and structural database mutations still require external
// serialization against all concurrent queries.

#ifndef EBA_CORE_ENGINE_H_
#define EBA_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/instance.h"
#include "core/template.h"
#include "query/executor.h"
#include "query/plan_cache.h"
#include "storage/database.h"

namespace eba {

/// Tuning knobs for a range audit: ExplainAll, and the streaming
/// ExplainNew (core/ingest.h; StreamingOptions is this struct).
struct ExplainAllOptions {
  /// Worker threads. <= 1 evaluates everything on the calling thread, one
  /// executor run per template and pivot variable; any higher value also
  /// cuts each run's seed rows into up to that many subranges and fans the
  /// runs out over a fixed pool (the log's rows are classified by one
  /// merge). The report is byte-identical regardless of the thread count.
  size_t num_threads = 1;
};

/// What one range audit (ExplanationEngine::AuditRange) found.
struct RangeAudit {
  /// Per registered template: the distinct lids of audited rows its tasks
  /// found. A lid that repeats an older row's counts only if the template
  /// explains it through a witness involving an appended row.
  std::vector<size_t> per_template_counts;
  /// Lids of the audited log rows, one per row, ascending.
  std::vector<int64_t> explained_lids;
  std::vector<int64_t> unexplained_lids;
  /// Per registered template: lids of older rows its tasks found that the
  /// accumulated set lacks (ascending) — accesses the appends newly explain.
  std::vector<std::vector<int64_t>> delta_lids;
  /// Appended non-log tables, and the (template, appended table) pairs
  /// whose tasks seed anything but the log's variable 0 (see
  /// StreamingReport).
  size_t delta_tables = 0;
  size_t delta_queries = 0;
};

/// Result of ExplainAll.
struct ExplanationReport {
  size_t log_size = 0;
  /// Per registered template: number of log records it explains.
  std::vector<size_t> per_template_counts;
  /// Lids explained by at least one template.
  std::vector<int64_t> explained_lids;
  /// Lids explained by no template (candidates for compliance review).
  std::vector<int64_t> unexplained_lids;

  double Coverage() const {
    return log_size == 0
               ? 0.0
               : static_cast<double>(explained_lids.size()) /
                     static_cast<double>(log_size);
  }
};

class ExplanationEngine {
 public:
  /// `db` must contain `log_table` (standard log schema) and outlive the
  /// engine.
  static StatusOr<ExplanationEngine> Create(const Database* db,
                                            const std::string& log_table);

  /// Registers a template. The template's variable-0 table is rebound to
  /// this engine's log table automatically.
  Status AddTemplate(const ExplanationTemplate& tmpl);

  const std::vector<ExplanationTemplate>& templates() const {
    return templates_;
  }
  size_t num_templates() const { return templates_.size(); }

  const std::string& log_table() const { return log_table_; }

  /// All explanation instances for one access, ranked by path length. The
  /// snapshot-less overload pins a fresh read view for the call; pass a
  /// Database::Snapshot to audit a specific pinned view (e.g. many explains
  /// against one consistent state while the writer keeps appending).
  StatusOr<std::vector<ExplanationInstance>> Explain(int64_t lid) const;
  StatusOr<std::vector<ExplanationInstance>> Explain(
      int64_t lid, const Database::Snapshot& snapshot) const;

  /// Lids explained by template `index` (ascending). Evaluated through
  /// Executor::DistinctLids — the semi-join fast path that never builds a
  /// boxed row.
  StatusOr<std::vector<int64_t>> ExplainedLids(size_t index) const;

  /// Full-log coverage report (serial; equivalent to ExplainAll({})).
  StatusOr<ExplanationReport> ExplainAll() const;

  /// Full-log coverage report: AuditRange from row 0. With
  /// options.num_threads > 1, each template's log rows are split into
  /// subranges evaluated concurrently (one executor per task); the log's
  /// rows are then classified by one sorted merge, so the report is
  /// deterministic and identical to the serial one. The whole report —
  /// template evaluation and classification — runs against one snapshot:
  /// the caller's, or a fresh one pinned at call entry.
  StatusOr<ExplanationReport> ExplainAll(const ExplainAllOptions& options) const;
  StatusOr<ExplanationReport> ExplainAll(
      const ExplainAllOptions& options,
      const Database::Snapshot& snapshot) const;

  /// The one audit path behind ExplainAll and StreamingAuditor::ExplainNew:
  /// audits log rows [log_from, bound) of `snapshot` on `*workers`, a pool
  /// sized to options.num_threads (kept across audits when it fits). One
  /// task list (Executor::DistinctLidsJoinedTo calls, one ParallelFor)
  /// holds a (template, pivot variable, subrange) task for every template
  /// variable bound to an appended table — the log with the audited rows,
  /// each non-log table of `appends` with its new rows — and every cut of
  /// those rows (at most options.num_threads near-equal cuts of at least
  /// 4096 rows); from row 0 the log's variable 0 alone (it then finds every
  /// explained lid). A template's lids are the union of its tasks'. One
  /// merge then classifies the audited rows: by monotonicity a lid is
  /// explained iff some task's result or `accumulated` (lids earlier
  /// audits explained, ascending) holds it.
  StatusOr<RangeAudit> AuditRange(
      const Database::Snapshot& snapshot, size_t log_from,
      const std::vector<CatalogDrift::Append>& appends,
      const std::vector<int64_t>& accumulated,
      const ExplainAllOptions& options,
      std::unique_ptr<ThreadPool>* workers) const;

  /// The engine's persistent compiled-plan cache: every Explain and range
  /// audit runs its queries through it. Its counters (PlanCache::stats())
  /// are the audits' plan-cache statistics.
  PlanCache* plan_cache() const { return plan_cache_.get(); }

 private:
  ExplanationEngine(const Database* db, std::string log_table, QAttr lid_attr);

  const Database* db_;
  std::string log_table_;
  QAttr lid_attr_;
  std::vector<ExplanationTemplate> templates_;
  // shared_ptr (not a member by value) keeps the engine movable/copyable;
  // copies deliberately share the cache.
  std::shared_ptr<PlanCache> plan_cache_ = std::make_shared<PlanCache>();
};

}  // namespace eba

#endif  // EBA_CORE_ENGINE_H_
