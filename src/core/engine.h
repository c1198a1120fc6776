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
// Thread safety: the const query surface (Explain/ExplainAll) is safe to
// call concurrently — the shared PlanCache and each Table's lazy
// index/stats construction carry their own capability-annotated locks
// (common/thread_annotations.h), so ExplainAll's template fan-out needs no
// external locking. Each call pins one Database::Snapshot (or takes the
// caller's) and evaluates everything against that read view, so queries are
// also safe under the single concurrent appending writer: a call observes
// exactly the rows below its snapshot's watermarks. Registering templates
// (AddTemplate) and catalog changes (create/drop/add table) still require
// external serialization against all concurrent queries.

#ifndef EBA_CORE_ENGINE_H_
#define EBA_CORE_ENGINE_H_

#include <cstddef>
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
  /// runs out over a fixed pool (each cut's rows are then marked explained
  /// by one thread). The report is byte-identical regardless of the thread
  /// count.
  size_t num_threads = 1;
};

/// What one range audit (ExplanationEngine::AuditRange) found: the report
/// of StreamingAuditor::ExplainNew (core/ingest.h), covering the accesses
/// in log rows [audited_from, audited_to) plus any older rows the
/// foreign-append delta pass newly explained. Every log row is one access,
/// classified by its own witnesses, so a lid on two rows is two accesses
/// and can be listed twice.
struct StreamingReport {
  size_t audited_from = 0;
  size_t audited_to = 0;
  /// True when a catalog change forced a re-audit from row 0
  /// (the persistent explained flags were discarded first). Appends — to
  /// the log or any other table — never set this.
  bool full_reaudit = false;

  /// Per registered template: number of the new rows it explains.
  std::vector<size_t> per_template_counts;
  /// Lids of the new rows explained by at least one template (one per row,
  /// ascending).
  std::vector<int64_t> explained_lids;
  /// Lids of the new rows explained by no template (one per row, ascending;
  /// the incremental compliance-review queue).
  std::vector<int64_t> unexplained_lids;

  // --- Reverse semi-join delta pass (appends to non-log tables, plus
  // --- log self-join positions). ---
  /// Lids of previously-audited, previously-unexplained rows newly
  /// explained by rows appended since the last audit (one per row,
  /// ascending; the rows are disjoint from the new ones). These leave the
  /// compliance-review queue retroactively.
  std::vector<int64_t> delta_explained_lids;
  /// Per registered template: how many of the previously-unexplained rows
  /// the delta pass newly explained for it.
  std::vector<size_t> per_template_delta_counts;
  /// Non-log tables whose appends were classified as append-only drift and
  /// handled incrementally this audit (instead of forcing a full re-audit)
  /// — with reverse semi-joins where a template references the table, at
  /// zero cost otherwise (an unreferenced table cannot change any
  /// explanation; see delta_queries for the evaluations actually run).
  size_t delta_tables = 0;
  /// (template, appended table) pairs whose tasks seed anything but the
  /// log's variable 0: the template references a non-log table, or the log
  /// at a self-join position.
  size_t delta_queries = 0;

  size_t new_rows() const { return audited_to - audited_from; }
  double Coverage() const {
    const size_t total = explained_lids.size() + unexplained_lids.size();
    return total == 0 ? 0.0
                      : static_cast<double>(explained_lids.size()) /
                            static_cast<double>(total);
  }
};

/// Result of ExplainAll.
struct ExplanationReport {
  size_t log_size = 0;
  /// Per registered template: number of log records it explains.
  std::vector<size_t> per_template_counts;
  /// Lids of the records explained by at least one template (one per
  /// record, ascending).
  std::vector<int64_t> explained_lids;
  /// Lids of the records explained by no template (candidates for
  /// compliance review; one per record, ascending).
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

  /// Full-log coverage report (serial; equivalent to ExplainAll({})).
  StatusOr<ExplanationReport> ExplainAll() const;

  /// Full-log coverage report: AuditRange from row 0. With
  /// options.num_threads > 1, each template's log rows are split into
  /// subranges evaluated concurrently (one executor per task), so the
  /// report is deterministic and identical to the serial one. The whole
  /// report — template evaluation and classification — runs against one
  /// snapshot: the caller's, or a fresh one pinned at call entry.
  StatusOr<ExplanationReport> ExplainAll(const ExplainAllOptions& options) const;
  StatusOr<ExplanationReport> ExplainAll(
      const ExplainAllOptions& options,
      const Database::Snapshot& snapshot) const;

  /// The one audit path behind ExplainAll and StreamingAuditor::ExplainNew.
  /// `*explained` holds one flag per log row audited so far (1 when some
  /// template explains the row); AuditRange audits the log rows past them
  /// up to `snapshot`'s bound, and the rows `appends` added to other
  /// tables, on `*workers`, a pool sized to options.num_threads (kept
  /// across audits when it fits), and leaves one flag per row below the
  /// bound. One task list (Executor::LogRowsJoinedTo calls, one
  /// ParallelFor) holds a (template, pivot variable, subrange) task for
  /// every template variable bound to an appended table — the log with the
  /// audited rows, each non-log table of `appends` with its new rows — and
  /// every cut of those rows (at most options.num_threads near-equal cuts
  /// of at least 4096 rows); from row 0 the log's variable 0 alone (it then
  /// finds every explained row). Variable-0 tasks find audited rows only,
  /// each in its own cut, so a template's count is the sum of theirs; the
  /// other tasks' rows below the audited ones are older rows the appends
  /// may newly explain (by monotonicity an explained row stays explained).
  /// After the fan-out one thread per cut marks the audited rows found, and
  /// the report's lists read the lids of the audited and newly explained
  /// rows.
  StatusOr<StreamingReport> AuditRange(
      const Database::Snapshot& snapshot,
      const std::vector<CatalogDrift::Append>& appends,
      std::vector<uint8_t>* explained, const ExplainAllOptions& options,
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
