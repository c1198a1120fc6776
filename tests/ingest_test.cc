// Streaming ingest suite: ExplainNew must equal a full ExplainAll
// restricted to the new lids at every watermark, the persistent explained
// set must converge to the full report's, appends must keep the plan cache
// hot (rebinds, not invalidations), and non-append drift must force a full
// re-audit. Storage-level pieces (incremental index/stats extension) are
// covered in storage_test.cc.

#include "core/ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "careweb/generator.h"
#include "careweb/workload.h"
#include "common/date.h"
#include "core/auditor.h"
#include "core/engine.h"
#include "log/access_log.h"
#include "tests/oracle/boxed_executor.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::BuildPaperToyDatabase;
using testing_util::UnwrapOrDie;

/// A streaming fixture over the generated hospital: the "LogStream" table
/// starts with the rows of days [1, seed_days] and the remaining rows are
/// returned as the append backlog, in row order.
struct StreamingFixture {
  CareWebData data;
  std::vector<Row> backlog;
  std::vector<ExplanationTemplate> templates;
};

StreamingFixture MakeFixture(int seed_days) {
  StreamingFixture f;
  f.data = UnwrapOrDie(GenerateCareWeb(CareWebConfig::Tiny()));
  const Table* log = UnwrapOrDie(f.data.db.GetTable("Log"));
  AccessLog access_log = UnwrapOrDie(AccessLog::Wrap(log));
  (void)UnwrapOrDie(AddLogSlice(&f.data.db, "Log", "LogStream", 1, seed_days,
                                /*first_only=*/false));
  std::unordered_set<size_t> seeded;
  for (size_t r : access_log.RowsInDayRange(1, seed_days)) seeded.insert(r);
  for (size_t r = 0; r < log->num_rows(); ++r) {
    if (!seeded.count(r)) f.backlog.push_back(log->GetRow(r));
  }
  f.templates = UnwrapOrDie(TemplatesHandcraftedDirect(f.data.db, true));
  return f;
}

StreamingAuditor MakeAuditor(StreamingFixture* f) {
  StreamingAuditor auditor =
      UnwrapOrDie(StreamingAuditor::Create(&f->data.db, "LogStream"));
  for (const auto& tmpl : f->templates) {
    const Status s = auditor.AddTemplate(tmpl);
    EBA_CHECK_MSG(s.ok(), s.ToString());  // value-returning helper: no ASSERT
  }
  return auditor;
}

/// The oracle: a full ExplainAll over the current LogStream, restricted to
/// `lids`.
struct RestrictedReport {
  std::vector<int64_t> explained;
  std::vector<int64_t> unexplained;
};

RestrictedReport FullReportRestrictedTo(const StreamingAuditor& auditor,
                                        const std::vector<int64_t>& lids) {
  const ExplanationReport full =
      UnwrapOrDie(auditor.engine().ExplainAll());
  std::unordered_set<int64_t> explained(full.explained_lids.begin(),
                                        full.explained_lids.end());
  RestrictedReport out;
  for (int64_t lid : lids) {
    if (explained.count(lid)) {
      out.explained.push_back(lid);
    } else {
      out.unexplained.push_back(lid);
    }
  }
  std::sort(out.explained.begin(), out.explained.end());
  std::sort(out.unexplained.begin(), out.unexplained.end());
  return out;
}

/// True when some explained log row of `auditor` holds `lid`.
bool HoldsExplained(const StreamingAuditor& auditor, int64_t lid) {
  return auditor.explained_lids().count(lid) > 0;
}

std::vector<int64_t> LidsOf(const std::vector<Row>& rows, int lid_col) {
  std::vector<int64_t> lids;
  lids.reserve(rows.size());
  for (const Row& row : rows) {
    lids.push_back(row[static_cast<size_t>(lid_col)].AsInt64());
  }
  return lids;
}

TEST(StreamingAuditorTest, ExplainNewMatchesFullExplainAllRestrictedToNewLids) {
  StreamingFixture f = MakeFixture(/*seed_days=*/4);
  StreamingAuditor auditor = MakeAuditor(&f);
  ASSERT_FALSE(f.backlog.empty());
  const Table* stream = UnwrapOrDie(
      static_cast<const Database&>(f.data.db).GetTable("LogStream"));
  const int lid_col = stream->schema().ColumnIndex("Lid");

  // First audit covers the seeded prefix.
  const size_t seed_rows = stream->num_rows();
  const StreamingReport first = UnwrapOrDie(auditor.ExplainNew());
  EXPECT_EQ(first.audited_from, 0u);
  EXPECT_EQ(first.audited_to, seed_rows);
  const ExplanationReport seed_full =
      UnwrapOrDie(auditor.engine().ExplainAll());
  EXPECT_EQ(first.explained_lids, seed_full.explained_lids);
  EXPECT_EQ(first.unexplained_lids, seed_full.unexplained_lids);
  EXPECT_EQ(first.per_template_counts, seed_full.per_template_counts);

  // Stream the backlog in three batches; every incremental report must
  // equal the full report restricted to that batch's lids.
  const size_t batch_size = (f.backlog.size() + 2) / 3;
  for (size_t start = 0; start < f.backlog.size(); start += batch_size) {
    const size_t end = std::min(start + batch_size, f.backlog.size());
    const std::vector<Row> batch(f.backlog.begin() + start,
                                 f.backlog.begin() + end);
    EBA_ASSERT_OK(auditor.AppendAccessBatch(batch));
    const StreamingReport report = UnwrapOrDie(auditor.ExplainNew());
    EXPECT_FALSE(report.full_reaudit);
    EXPECT_EQ(report.new_rows(), batch.size());
    const RestrictedReport oracle =
        FullReportRestrictedTo(auditor, LidsOf(batch, lid_col));
    EXPECT_EQ(report.explained_lids, oracle.explained);
    EXPECT_EQ(report.unexplained_lids, oracle.unexplained);
  }

  // The accumulated explained set equals the full report's.
  const ExplanationReport final_full =
      UnwrapOrDie(auditor.engine().ExplainAll());
  std::unordered_set<int64_t> full_set(final_full.explained_lids.begin(),
                                       final_full.explained_lids.end());
  EXPECT_TRUE(auditor.ExplainedSetEquals(full_set));
  EXPECT_EQ(auditor.explained_count(), full_set.size());
  EXPECT_EQ(auditor.audited_rows(), stream->num_rows());
  EXPECT_EQ(auditor.rows_appended(), f.backlog.size());
}

TEST(StreamingAuditorTest, ExplainNewIsDeterministicAcrossThreadCounts) {
  StreamingFixture f1 = MakeFixture(/*seed_days=*/4);
  StreamingFixture f2 = MakeFixture(/*seed_days=*/4);
  StreamingAuditor serial = MakeAuditor(&f1);
  StreamingAuditor parallel = MakeAuditor(&f2);
  StreamingOptions par_options;
  par_options.num_threads = 4;

  (void)UnwrapOrDie(serial.ExplainNew());
  (void)UnwrapOrDie(parallel.ExplainNew(par_options));
  const size_t batch = (f1.backlog.size() + 1) / 2;
  for (size_t start = 0; start < f1.backlog.size(); start += batch) {
    const size_t end = std::min(start + batch, f1.backlog.size());
    const std::vector<Row> rows(f1.backlog.begin() + start,
                                f1.backlog.begin() + end);
    EBA_ASSERT_OK(serial.AppendAccessBatch(rows));
    EBA_ASSERT_OK(parallel.AppendAccessBatch(rows));
    const StreamingReport a = UnwrapOrDie(serial.ExplainNew());
    const StreamingReport b = UnwrapOrDie(parallel.ExplainNew(par_options));
    EXPECT_EQ(a.explained_lids, b.explained_lids);
    EXPECT_EQ(a.unexplained_lids, b.unexplained_lids);
    EXPECT_EQ(a.per_template_counts, b.per_template_counts);
  }
}

TEST(StreamingAuditorTest, AppendsKeepThePlanCacheHot) {
  StreamingFixture f = MakeFixture(/*seed_days=*/4);
  StreamingAuditor auditor = MakeAuditor(&f);
  (void)UnwrapOrDie(auditor.ExplainNew());
  const PlanCache::Stats cold = auditor.engine().plan_cache()->stats();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.misses, f.templates.size());

  // Interleave appends and audits: every subsequent template evaluation
  // must re-bind and replay — zero additional misses or invalidations.
  // Log appends additionally run the self-join reverse pass for the one
  // template that references the log at a non-zero variable
  // (repeat_access), which compiles exactly one extra pivot plan on its
  // first appended audit and replays it afterwards.
  const size_t kBatches = 10;
  const size_t batch = (f.backlog.size() + kBatches - 1) / kBatches;
  size_t audits = 0;
  PlanCache::Stats before_last;
  for (size_t start = 0; start < f.backlog.size(); start += batch) {
    const size_t end = std::min(start + batch, f.backlog.size());
    EBA_ASSERT_OK(auditor.AppendAccessBatch(std::vector<Row>(
        f.backlog.begin() + start, f.backlog.begin() + end)));
    before_last = auditor.engine().plan_cache()->stats();
    (void)UnwrapOrDie(auditor.ExplainNew());
    ++audits;
  }
  const size_t plans = f.templates.size() + 1;  // + repeat_access pivot plan
  const PlanCache::Stats hot = auditor.engine().plan_cache()->stats();
  EXPECT_EQ(hot.misses, plans);
  EXPECT_EQ(hot.invalidations, 0u);
  EXPECT_EQ(hot.hits, audits * plans - 1);
  EXPECT_GT(hot.rebinds, 0u);
  const double hit_rate = static_cast<double>(hot.hits) /
                          static_cast<double>(hot.hits + hot.misses);
  EXPECT_GE(hit_rate, 0.9);

  // The last audit replayed every plan, re-bound past its append.
  EXPECT_EQ(hot.hits - before_last.hits, plans);
  EXPECT_EQ(hot.misses, before_last.misses);
  EXPECT_GT(hot.rebinds - before_last.rebinds, 0u);
}

/// A toy fixture with the appointment template registered and the seed log
/// audited: lid 1 explained, lid 2 unexplained.
struct ToyAuditor {
  Database db;
  std::unique_ptr<StreamingAuditor> auditor;
};

ToyAuditor MakeToyAuditor() {
  ToyAuditor t;
  t.db = BuildPaperToyDatabase();
  t.auditor = std::make_unique<StreamingAuditor>(
      UnwrapOrDie(StreamingAuditor::Create(&t.db, "Log")));
  ExplanationTemplate tmpl = UnwrapOrDie(ExplanationTemplate::Parse(
      t.db, "appt", "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User",
      "[L.Patient] had an appointment with [L.User]"));
  const Status s = t.auditor->AddTemplate(tmpl);
  EBA_CHECK_MSG(s.ok(), s.ToString());
  return t;
}

TEST(StreamingAuditorTest, ForeignTableAppendTakesDeltaPassNotFullReaudit) {
  ToyAuditor t = MakeToyAuditor();
  const StreamingReport first = UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_EQ(first.explained_lids, (std::vector<int64_t>{1}));
  EXPECT_EQ(first.unexplained_lids, (std::vector<int64_t>{2}));
  EXPECT_EQ(first.delta_tables, 0u);

  // An appointment appended to a *non-log* table newly explains the
  // already-audited access L2. The happy path is the reverse semi-join
  // delta pass — NOT a full re-audit.
  EBA_ASSERT_OK(t.auditor->AppendRows(
      "Appointments",
      {{Value::Int64(testing_util::kBob),
        Value::Timestamp(Date::FromCivil(2010, 2, 2, 9, 0, 0).ToSeconds()),
        Value::Int64(testing_util::kDave)}}));
  EXPECT_EQ(t.auditor->foreign_rows_appended(), 1u);

  const StreamingReport second = UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_FALSE(second.full_reaudit);
  EXPECT_EQ(second.new_rows(), 0u);  // no new log rows
  EXPECT_EQ(second.delta_tables, 1u);
  EXPECT_EQ(second.delta_queries, 1u);
  EXPECT_EQ(second.delta_explained_lids, (std::vector<int64_t>{2}));
  EXPECT_EQ(second.per_template_delta_counts, (std::vector<size_t>{1}));
  EXPECT_TRUE(second.explained_lids.empty());
  EXPECT_TRUE(second.unexplained_lids.empty());
  EXPECT_TRUE(HoldsExplained(*t.auditor, 2));

  // With no further changes the next audit is incremental and empty.
  const StreamingReport third = UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_FALSE(third.full_reaudit);
  EXPECT_EQ(third.new_rows(), 0u);
  EXPECT_EQ(third.delta_tables, 0u);
}

TEST(StreamingAuditorTest, GroupExtensionIsAppendOnlyDriftNotRebuild) {
  Database db = BuildPaperToyDatabase();

  // The batch facade owns the hierarchy; build it from the seed log, where
  // only Dave appears — the lone depth-1 group is {Dave}.
  Auditor batch = UnwrapOrDie(Auditor::Create(&db));
  EBA_ASSERT_OK(batch.BuildCollaborativeGroups());

  StreamingAuditor auditor =
      UnwrapOrDie(StreamingAuditor::Create(&db, "Log"));
  ExplanationTemplate tmpl = UnwrapOrDie(ExplanationTemplate::Parse(
      db, "group", "Log L, Appointments A, Groups G1, Groups G2",
      "L.Patient = A.Patient AND A.Doctor = G1.User AND "
      "G1.Group_id = G2.Group_id AND G2.User = L.User",
      "[L.User] collaborates with [L.Patient]'s doctor"));
  EBA_ASSERT_OK(auditor.AddTemplate(tmpl));

  // L1 (Dave views Alice, doctor Dave): explained through Dave's own group.
  // L2 (Dave views Bob, doctor Mike): Mike is not grouped yet.
  const StreamingReport first = UnwrapOrDie(auditor.ExplainNew());
  EXPECT_EQ(first.explained_lids, (std::vector<int64_t>{1}));
  EXPECT_EQ(first.unexplained_lids, (std::vector<int64_t>{2}));

  // Mike starts using the system: he opens Alice's record. The co-access
  // with Dave ties them in the collaboration graph, but the access itself
  // stays unexplained for now.
  const int64_t t3 = Date::FromCivil(2010, 3, 3, 9, 0, 0).ToSeconds();
  EBA_ASSERT_OK(auditor.AppendAccessBatch(
      {{Value::Int64(3), Value::Timestamp(t3), Value::Int64(testing_util::kMike),
        Value::Int64(testing_util::kAlice), Value::String("viewed record")}}));
  const StreamingReport second = UnwrapOrDie(auditor.ExplainNew());
  EXPECT_FALSE(second.full_reaudit);
  EXPECT_EQ(second.unexplained_lids, (std::vector<int64_t>{3}));

  // Fold Mike into the existing hierarchy. This APPENDS membership rows to
  // Groups — no drop/rebuild — so the catalog generation must not move.
  const Table* groups =
      UnwrapOrDie(static_cast<const Database&>(db).GetTable("Groups"));
  const size_t groups_before = groups->num_rows();
  const uint64_t generation = db.catalog_generation();
  const size_t appended = UnwrapOrDie(batch.ExtendCollaborativeGroups());
  EXPECT_GE(appended, 1u);
  EXPECT_EQ(groups->num_rows(), groups_before + appended);
  EXPECT_EQ(db.catalog_generation(), generation);

  // The next audit absorbs the group change as append-only drift: both old
  // unexplained accesses flip in the delta pass. L2 joins through the new
  // row at the G1 position, L3 through the same row at the G2 position —
  // the pass must seed every Groups occurrence in the template.
  const StreamingReport third = UnwrapOrDie(auditor.ExplainNew());
  EXPECT_FALSE(third.full_reaudit);
  EXPECT_EQ(third.new_rows(), 0u);
  EXPECT_GE(third.delta_tables, 1u);
  EXPECT_EQ(third.delta_explained_lids, (std::vector<int64_t>{2, 3}));
  EXPECT_TRUE(HoldsExplained(auditor, 2));
  EXPECT_TRUE(HoldsExplained(auditor, 3));

  // Idempotent: a second extension finds nobody new and changes nothing.
  EXPECT_EQ(UnwrapOrDie(batch.ExtendCollaborativeGroups()), size_t{0});
  const StreamingReport fourth = UnwrapOrDie(auditor.ExplainNew());
  EXPECT_FALSE(fourth.full_reaudit);
  EXPECT_EQ(fourth.delta_tables, 0u);
}

TEST(StreamingAuditorTest, ReplacedTableForcesFullReaudit) {
  ToyAuditor t = MakeToyAuditor();
  (void)UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_TRUE(HoldsExplained(*t.auditor, 1));

  // Replacing a table is a catalog change: a same-name table may hold any
  // rows, so the monotone-append invariant is gone and the next audit
  // starts over — even though this replacement holds the same rows.
  testing_util::ReplaceTable(
      &t.db, testing_util::CopyTable(*t.db.GetTable("Appointments").value()));
  const StreamingReport report = UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_TRUE(report.full_reaudit);
  EXPECT_EQ(report.audited_from, 0u);
  EXPECT_EQ(report.explained_lids, (std::vector<int64_t>{1}));
  EXPECT_EQ(report.unexplained_lids, (std::vector<int64_t>{2}));
  EXPECT_TRUE(report.delta_explained_lids.empty());
}

TEST(StreamingAuditorTest, EmptyAppendBatchesAreFreeAndDriftless) {
  ToyAuditor t = MakeToyAuditor();
  (void)UnwrapOrDie(t.auditor->ExplainNew());
  const PlanCache::Stats before = t.auditor->engine().plan_cache()->stats();

  EBA_ASSERT_OK(t.auditor->AppendAccessBatch({}));
  EBA_ASSERT_OK(t.auditor->AppendRows("Appointments", {}));
  EXPECT_EQ(t.auditor->foreign_rows_appended(), 0u);

  const StreamingReport report = UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_FALSE(report.full_reaudit);
  EXPECT_EQ(report.new_rows(), 0u);
  EXPECT_EQ(report.delta_tables, 0u);
  EXPECT_EQ(report.delta_queries, 0u);
  EXPECT_TRUE(report.delta_explained_lids.empty());
  // No template was evaluated: the cache counters did not move at all.
  const PlanCache::Stats after = t.auditor->engine().plan_cache()->stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(StreamingAuditorTest, ForeignAppendExplainingZeroNewLids) {
  ToyAuditor t = MakeToyAuditor();
  (void)UnwrapOrDie(t.auditor->ExplainNew());

  // An appointment for a patient nobody accessed: joinable to nothing.
  EBA_ASSERT_OK(t.auditor->AppendRows(
      "Appointments",
      {{Value::Int64(999),
        Value::Timestamp(Date::FromCivil(2010, 3, 3, 9, 0, 0).ToSeconds()),
        Value::Int64(998)}}));
  const StreamingReport report = UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_FALSE(report.full_reaudit);
  EXPECT_EQ(report.delta_tables, 1u);
  EXPECT_EQ(report.delta_queries, 1u);
  EXPECT_TRUE(report.delta_explained_lids.empty());
  EXPECT_EQ(report.per_template_delta_counts, (std::vector<size_t>{0}));
}

TEST(StreamingAuditorTest, ForeignAppendJoinableToExplainedLidDoesNotDoubleCount) {
  ToyAuditor t = MakeToyAuditor();
  (void)UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_TRUE(HoldsExplained(*t.auditor, 1));

  // A second appointment witnessing the ALREADY-explained lid 1: the delta
  // pass finds it joinable but must not re-report or double-insert it.
  EBA_ASSERT_OK(t.auditor->AppendRows(
      "Appointments",
      {{Value::Int64(testing_util::kAlice),
        Value::Timestamp(Date::FromCivil(2010, 1, 1, 10, 0, 0).ToSeconds()),
        Value::Int64(testing_util::kDave)}}));
  const StreamingReport report = UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_FALSE(report.full_reaudit);
  EXPECT_EQ(report.delta_queries, 1u);
  EXPECT_TRUE(report.delta_explained_lids.empty());
  EXPECT_EQ(report.per_template_delta_counts, (std::vector<size_t>{0}));
  EXPECT_TRUE(HoldsExplained(*t.auditor, 1));
  EXPECT_FALSE(HoldsExplained(*t.auditor, 2));
}

TEST(StreamingAuditorTest, ResetFollowedByMixedAppends) {
  ToyAuditor t = MakeToyAuditor();
  (void)UnwrapOrDie(t.auditor->ExplainNew());
  t.auditor->ResetAudit();
  EXPECT_EQ(t.auditor->audited_rows(), 0u);
  EXPECT_EQ(t.auditor->explained_count(), 0u);

  // Mixed appends against the reset state: a foreign row explaining lid 2
  // and a fresh log access (lid 3, Alice by Dave — explained by the
  // original appointment). The audit after a reset covers everything via
  // the full new-lid pass; the delta pass is skipped (nothing audited yet)
  // and nothing is lost or double-counted.
  EBA_ASSERT_OK(t.auditor->AppendRows(
      "Appointments",
      {{Value::Int64(testing_util::kBob),
        Value::Timestamp(Date::FromCivil(2010, 2, 2, 9, 0, 0).ToSeconds()),
        Value::Int64(testing_util::kDave)}}));
  const int64_t mar1 = Date::FromCivil(2010, 3, 1, 9, 0, 0).ToSeconds();
  EBA_ASSERT_OK(t.auditor->AppendAccessBatch(
      {{Value::Int64(3), Value::Timestamp(mar1),
        Value::Int64(testing_util::kDave), Value::Int64(testing_util::kAlice),
        Value::String("viewed record")}}));

  const StreamingReport report = UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_FALSE(report.full_reaudit);  // an explicit Reset is not drift
  EXPECT_EQ(report.audited_from, 0u);
  EXPECT_EQ(report.new_rows(), 3u);
  EXPECT_EQ(report.delta_queries, 0u);  // nothing audited before this pass
  EXPECT_EQ(report.explained_lids, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_TRUE(report.unexplained_lids.empty());
  EXPECT_TRUE(report.delta_explained_lids.empty());
}

TEST(StreamingAuditorTest, DeltaPassDeduplicatesLidsAcrossTemplates) {
  ToyAuditor t = MakeToyAuditor();
  // A second template over the same foreign table: appointment on the same
  // DAY (coarser than the exact-witness template, still explains lid 2
  // once the new appointment lands).
  ExplanationTemplate by_doctor = UnwrapOrDie(ExplanationTemplate::Parse(
      t.db, "appt_any", "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User AND L.Date >= A.Date",
      "[L.Patient] had an appointment"));
  EBA_ASSERT_OK(t.auditor->AddTemplate(by_doctor));
  (void)UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_FALSE(HoldsExplained(*t.auditor, 2));

  EBA_ASSERT_OK(t.auditor->AppendRows(
      "Appointments",
      {{Value::Int64(testing_util::kBob),
        Value::Timestamp(Date::FromCivil(2010, 2, 2, 9, 0, 0).ToSeconds()),
        Value::Int64(testing_util::kDave)}}));
  const StreamingReport report = UnwrapOrDie(t.auditor->ExplainNew());
  // Both templates newly explain lid 2; the union reports it exactly once
  // while the per-template counts see it twice.
  EXPECT_EQ(report.delta_queries, 2u);
  EXPECT_EQ(report.delta_explained_lids, (std::vector<int64_t>{2}));
  EXPECT_EQ(report.per_template_delta_counts, (std::vector<size_t>{1, 1}));
  EXPECT_TRUE(HoldsExplained(*t.auditor, 2));
}

TEST(StreamingAuditorTest, LateArrivingLogRowExplainsOldAccessViaSelfJoin) {
  Database db = BuildPaperToyDatabase();
  StreamingAuditor auditor =
      UnwrapOrDie(StreamingAuditor::Create(&db, "Log"));
  ExplanationTemplate repeat = UnwrapOrDie(ExplanationTemplate::Parse(
      db, "repeat", "Log L, Log L2",
      "L.Patient = L2.Patient AND L2.User = L.User AND L.Date > L2.Date",
      "[L.User] previously accessed [L.Patient]'s record"));
  EBA_ASSERT_OK(auditor.AddTemplate(repeat));

  const StreamingReport first = UnwrapOrDie(auditor.ExplainNew());
  EXPECT_TRUE(first.explained_lids.empty());  // no earlier accesses exist

  // A late-arriving log row dated BEFORE the audited L1: it newly explains
  // L1 through the self-join's L2 side. The log-append delta pass (reverse
  // semi-join over the log at variable 1) must catch this retroactive
  // explanation; the plain new-lid pass alone would miss it.
  const int64_t before_l1 = Date::FromCivil(2010, 1, 1, 8, 0, 0).ToSeconds();
  EBA_ASSERT_OK(auditor.AppendAccessBatch(
      {{Value::Int64(3), Value::Timestamp(before_l1),
        Value::Int64(testing_util::kDave), Value::Int64(testing_util::kAlice),
        Value::String("viewed record")}}));
  const StreamingReport second = UnwrapOrDie(auditor.ExplainNew());
  EXPECT_FALSE(second.full_reaudit);
  EXPECT_EQ(second.delta_tables, 0u);   // the log is not a foreign table
  EXPECT_EQ(second.delta_queries, 1u);  // ...but its self-join position runs
  EXPECT_EQ(second.delta_explained_lids, (std::vector<int64_t>{1}));
  EXPECT_EQ(second.unexplained_lids, (std::vector<int64_t>{3}));
  EXPECT_TRUE(HoldsExplained(auditor, 1));

  // The streamed state now matches a fresh full audit exactly.
  const ExplanationReport full = UnwrapOrDie(auditor.engine().ExplainAll());
  std::unordered_set<int64_t> full_set(full.explained_lids.begin(),
                                       full.explained_lids.end());
  EXPECT_TRUE(auditor.ExplainedSetEquals(full_set));
}

// The Lid column is documented as a primary key, but only non-NULL-ness is
// enforced, not uniqueness: an appended row may repeat an audited lid. Each
// row is one access, explained by its own witnesses, so the new row neither
// borrows nor hides the older row's state.

TEST(StreamingAuditorTest, RepeatedLidKeepsItsExplainedOlderRow) {
  ToyAuditor t = MakeToyAuditor();
  (void)UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_TRUE(HoldsExplained(*t.auditor, 1));

  // Lid 1 again, for an access no template explains (user 999 on Alice).
  EBA_ASSERT_OK(t.auditor->AppendAccessBatch(
      {{Value::Int64(1),
        Value::Timestamp(Date::FromCivil(2010, 3, 3, 9, 0, 0).ToSeconds()),
        Value::Int64(999), Value::Int64(testing_util::kAlice),
        Value::String("viewed record")}}));
  const StreamingReport report = UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_EQ(report.new_rows(), 1u);
  EXPECT_TRUE(report.explained_lids.empty());
  EXPECT_EQ(report.unexplained_lids, (std::vector<int64_t>{1}));
  EXPECT_EQ(report.per_template_counts, (std::vector<size_t>{0}));
  // The older row stays explained; the new one does not count.
  EXPECT_TRUE(HoldsExplained(*t.auditor, 1));
  EXPECT_EQ(t.auditor->explained_count(), 1u);
}

TEST(StreamingAuditorTest, RepeatedLidSeesItsOlderRowNewlyExplained) {
  ToyAuditor t = MakeToyAuditor();
  (void)UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_FALSE(HoldsExplained(*t.auditor, 2));

  // One audit window: an appointment that explains lid 2's older row (Dave
  // viewing Bob), and lid 2 again for an access nothing explains.
  EBA_ASSERT_OK(t.auditor->AppendRows(
      "Appointments",
      {{Value::Int64(testing_util::kBob),
        Value::Timestamp(Date::FromCivil(2010, 2, 2, 9, 0, 0).ToSeconds()),
        Value::Int64(testing_util::kDave)}}));
  EBA_ASSERT_OK(t.auditor->AppendAccessBatch(
      {{Value::Int64(2),
        Value::Timestamp(Date::FromCivil(2010, 3, 3, 9, 0, 0).ToSeconds()),
        Value::Int64(999), Value::Int64(testing_util::kBob),
        Value::String("viewed record")}}));
  const StreamingReport report = UnwrapOrDie(t.auditor->ExplainNew());
  EXPECT_FALSE(report.full_reaudit);
  // The older row is newly explained by the delta pass; the new row is an
  // unexplained access of its own.
  EXPECT_EQ(report.delta_explained_lids, (std::vector<int64_t>{2}));
  EXPECT_EQ(report.per_template_delta_counts, (std::vector<size_t>{1}));
  EXPECT_TRUE(report.explained_lids.empty());
  EXPECT_EQ(report.unexplained_lids, (std::vector<int64_t>{2}));
  EXPECT_TRUE(HoldsExplained(*t.auditor, 2));
  EXPECT_EQ(t.auditor->explained_count(), 2u);
}

/// The lids of `log_table`'s rows [from, to), one per row and ascending,
/// split as `all` — a report over the whole log — splits them: a lid held
/// by k of these rows is listed as often as `all` lists it, up to k (a lid
/// must not repeat across the range's ends).
RestrictedReport RowsOf(const ExplanationReport& all, const Database& db,
                        const std::string& log_table, size_t from, size_t to) {
  const Table* log = UnwrapOrDie(db.GetTable(log_table));
  const size_t lid_col =
      static_cast<size_t>(log->schema().ColumnIndex("Lid"));
  std::vector<int64_t> lids;
  for (size_t r = from; r < to; ++r) {
    lids.push_back(log->Get(r, lid_col).AsInt64());
  }
  std::sort(lids.begin(), lids.end());
  RestrictedReport out;
  std::set_intersection(lids.begin(), lids.end(), all.explained_lids.begin(),
                        all.explained_lids.end(),
                        std::back_inserter(out.explained));
  std::set_intersection(lids.begin(), lids.end(),
                        all.unexplained_lids.begin(),
                        all.unexplained_lids.end(),
                        std::back_inserter(out.unexplained));
  return out;
}

// Lids that descend in row order, one of them on two rows: no audited
// range's lids ascend, so AuditRange sorts its report lists. ExplainAll at
// every thread count, a from-zero ExplainNew and an ExplainNew after a
// foreign append must still agree with the boxed oracle (BoxedExplainAll,
// which classifies the repeated lid's rows one by one; the last on a
// cloned database). Without `split`, the repeated lid joins an explained
// row to an unexplained one, and each row keeps its own state. With it,
// the log is long enough that 2-thread audits cut its first 2/3 in two,
// and the repeated lid's rows lie on both sides of the cut, both explained
// by the first template: each of its two tasks finds one row, and the
// template counts both.
void ExpectDescendingAndRepeatedLidsMatchOracles(const CareWebConfig& config,
                                                 bool split) {
  CareWebData data = UnwrapOrDie(GenerateCareWeb(config));
  const std::vector<ExplanationTemplate> templates =
      UnwrapOrDie(TemplatesHandcraftedDirect(data.db, true));
  const Table* source = UnwrapOrDie(
      static_cast<const Database&>(data.db).GetTable("Log"));
  const size_t n = source->num_rows();
  const size_t prefix = 2 * n / 3;
  const size_t lid_col =
      static_cast<size_t>(source->schema().ColumnIndex("Lid"));

  // Which prefix rows the generated log's own audit explains: the repeated
  // lid joins an explained row to an unexplained one, and the foreign
  // append below explains another unexplained row.
  ExplanationEngine plain = UnwrapOrDie(ExplanationEngine::Create(&data.db, "Log"));
  for (const auto& tmpl : templates) EBA_ASSERT_OK(plain.AddTemplate(tmpl));
  const ExplanationReport plain_report = UnwrapOrDie(plain.ExplainAll());
  const std::unordered_set<int64_t> plain_explained(
      plain_report.explained_lids.begin(), plain_report.explained_lids.end());
  std::vector<size_t> explained_rows, unexplained_rows;
  for (size_t r = 0; r < prefix; ++r) {
    (plain_explained.count(source->Get(r, lid_col).AsInt64())
         ? explained_rows
         : unexplained_rows)
        .push_back(r);
  }
  ASSERT_FALSE(explained_rows.empty());
  ASSERT_GE(unexplained_rows.size(), 2u);
  size_t shared_row = explained_rows.front();
  size_t repeat_row = unexplained_rows.front();
  const size_t foreign_row = unexplained_rows.back();
  ExplainAllOptions two_threads;
  two_threads.num_threads = 2;
  const StreamingOptions new_options = split ? two_threads : StreamingOptions{};
  if (split) {
    // A 2-thread audit of the prefix cuts it into [0, cut) and
    // [cut, prefix) once it holds two 4096-row cuts.
    ASSERT_GE(prefix, 2u * 4096u);
    const size_t cut = (prefix + 1) / 2;
    const ExplanationTemplate& bound = plain.templates()[0];
    const std::vector<int64_t> first = UnwrapOrDie(
        Executor(&data.db).DistinctLids(bound.query(), bound.lid_attr()));
    auto by_first = [&](size_t r) {
      return std::binary_search(first.begin(), first.end(),
                                source->Get(r, lid_col).AsInt64());
    };
    shared_row = repeat_row = prefix;
    for (size_t r = 0; r < prefix; ++r) {
      if (!by_first(r)) continue;
      if (r < cut && shared_row == prefix) shared_row = r;
      if (r >= cut && repeat_row == prefix) repeat_row = r;
    }
    ASSERT_LT(shared_row, cut);
    ASSERT_LT(repeat_row, prefix);
  }

  EBA_ASSERT_OK(data.db.CreateTable(AccessLog::StandardSchema("LogDesc")));
  Table* desc = data.db.GetTable("LogDesc").value();
  auto row_with_lid = [&](size_t r) {
    Row row = source->GetRow(r);
    const size_t lid_row = r == repeat_row ? shared_row : r;
    row[lid_col] = Value::Int64(static_cast<int64_t>(n - lid_row));
    return row;
  };
  for (size_t r = 0; r < prefix; ++r) {
    EBA_ASSERT_OK(desc->AppendRow(row_with_lid(r)));
  }
  ASSERT_EQ(desc->Get(repeat_row, lid_col), desc->Get(shared_row, lid_col));

  // ExplainAll at every thread count against the boxed oracle.
  StreamingAuditor auditor =
      UnwrapOrDie(StreamingAuditor::Create(&data.db, "LogDesc"));
  for (const auto& tmpl : templates) EBA_ASSERT_OK(auditor.AddTemplate(tmpl));
  const ExplanationReport oracle =
      UnwrapOrDie(BoxedExplainAll(data.db, "LogDesc", templates));
  ASSERT_EQ(oracle.log_size, prefix);
  ASSERT_FALSE(oracle.explained_lids.empty());
  ASSERT_FALSE(oracle.unexplained_lids.empty());
  for (size_t threads : {1, 2, 4, 8}) {
    ExplainAllOptions options;
    options.num_threads = threads;
    const ExplanationReport all =
        UnwrapOrDie(auditor.engine().ExplainAll(options));
    EXPECT_EQ(all.log_size, oracle.log_size) << threads;
    EXPECT_EQ(all.explained_lids, oracle.explained_lids) << threads;
    EXPECT_EQ(all.unexplained_lids, oracle.unexplained_lids) << threads;
    EXPECT_EQ(all.per_template_counts, oracle.per_template_counts) << threads;
  }

  // From zero, ExplainNew reports what ExplainAll reports.
  const StreamingReport first = UnwrapOrDie(auditor.ExplainNew(new_options));
  EXPECT_EQ(first.explained_lids, oracle.explained_lids);
  EXPECT_EQ(first.unexplained_lids, oracle.unexplained_lids);
  EXPECT_EQ(first.per_template_counts, oracle.per_template_counts);

  // A foreign appointment explains an older row, and the rest of the log
  // arrives with still smaller lids.
  const int64_t foreign_lid = desc->Get(foreign_row, lid_col).AsInt64();
  EXPECT_FALSE(HoldsExplained(auditor, foreign_lid));
  const size_t user_col =
      static_cast<size_t>(source->schema().ColumnIndex("User"));
  const size_t patient_col =
      static_cast<size_t>(source->schema().ColumnIndex("Patient"));
  EBA_ASSERT_OK(auditor.AppendRows(
      "Appointments",
      {{desc->Get(foreign_row, patient_col),
        Value::Timestamp(Date::FromCivil(2010, 3, 3, 9, 0, 0).ToSeconds()),
        desc->Get(foreign_row, user_col)}}));
  std::vector<Row> rest;
  for (size_t r = prefix; r < n; ++r) rest.push_back(row_with_lid(r));
  EBA_ASSERT_OK(auditor.AppendAccessBatch(rest));
  const StreamingReport next = UnwrapOrDie(auditor.ExplainNew(new_options));
  EXPECT_FALSE(next.full_reaudit);

  const Database clone = data.db.Clone();
  const ExplanationReport clone_all =
      UnwrapOrDie(BoxedExplainAll(clone, "LogDesc", templates));
  ASSERT_EQ(clone_all.log_size, n);
  const RestrictedReport new_rows =
      RowsOf(clone_all, clone, "LogDesc", prefix, n);
  EXPECT_EQ(next.explained_lids, new_rows.explained);
  EXPECT_EQ(next.unexplained_lids, new_rows.unexplained);
  const RestrictedReport old_rows =
      RowsOf(clone_all, clone, "LogDesc", 0, prefix);
  std::vector<int64_t> newly_explained;
  std::set_difference(old_rows.explained.begin(), old_rows.explained.end(),
                      oracle.explained_lids.begin(),
                      oracle.explained_lids.end(),
                      std::back_inserter(newly_explained));
  EXPECT_EQ(next.delta_explained_lids, newly_explained);
  EXPECT_TRUE(std::binary_search(next.delta_explained_lids.begin(),
                                 next.delta_explained_lids.end(),
                                 foreign_lid));
  std::unordered_set<int64_t> all_explained(old_rows.explained.begin(),
                                            old_rows.explained.end());
  all_explained.insert(new_rows.explained.begin(), new_rows.explained.end());
  EXPECT_TRUE(auditor.ExplainedSetEquals(all_explained));
}

TEST(StreamingAuditorTest, DescendingAndRepeatedLidsMatchOracles) {
  ExpectDescendingAndRepeatedLidsMatchOracles(CareWebConfig::Tiny(),
                                              /*split=*/false);
}

TEST(StreamingAuditorTest, DescendingLidRepeatedAcrossCutsMatchesOracles) {
  CareWebConfig config = CareWebConfig::Small();
  config.num_days = 12;  // ~13k accesses: the audited 2/3 holds two cuts
  ExpectDescendingAndRepeatedLidsMatchOracles(config, /*split=*/true);
}

TEST(StreamingAuditorTest, EmptyAuditAndBadBatchRows) {
  Database db = BuildPaperToyDatabase();
  StreamingAuditor auditor =
      UnwrapOrDie(StreamingAuditor::Create(&db, "Log"));
  const StreamingReport empty = UnwrapOrDie(auditor.ExplainNew());
  EXPECT_EQ(empty.new_rows(), 2u);  // the toy log's seed rows
  const StreamingReport none = UnwrapOrDie(auditor.ExplainNew());
  EXPECT_EQ(none.new_rows(), 0u);
  EXPECT_TRUE(none.explained_lids.empty());
  EXPECT_TRUE(none.unexplained_lids.empty());

  // Arity mismatch is rejected.
  EXPECT_FALSE(auditor.AppendAccessBatch({Row{Value::Int64(9)}}).ok());
}

}  // namespace
}  // namespace eba
