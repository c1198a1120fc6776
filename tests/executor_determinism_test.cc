// Determinism suite for seed-range splitting and the compiled plan cache.
// A run's seed range is its only restriction, so the runs over any cut of a
// pivot variable's rows together find what one run over all of them finds —
// the property ExplanationEngine::AuditRange splits its tasks over threads
// by — and ExplainAll reports are byte-identical at every tested thread
// count {2, 4, 8}. Plan-cache tests assert that a replay is bit-identical
// to the compiling run, that an append re-binds the plan (watermark move)
// instead of discarding it, and that a catalog change still invalidates
// it; they read the cache's counters (PlanCache::stats()).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "careweb/generator.h"
#include "careweb/workload.h"
#include "common/date.h"
#include "core/engine.h"
#include "core/miner.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/plan_cache.h"
#include "tests/oracle/boxed_executor.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::BuildPaperToyDatabase;
using testing_util::CutRunLids;
using testing_util::JoinedLids;
using testing_util::UnwrapOrDie;

constexpr size_t kThreadCounts[] = {2, 4, 8};

/// The Figure 3 toy queries the semi-join unit tests use, plus a decorated
/// variant, parsed fresh per call.
std::vector<PathQuery> ToyQueries(const Database& db) {
  std::vector<PathQuery> queries;
  queries.push_back(UnwrapOrDie(ParsePathQuery(
      db, "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User")));
  queries.push_back(UnwrapOrDie(ParsePathQuery(
      db, "Log L, Appointments A, Doctor_Info I1, Doctor_Info I2",
      "L.Patient = A.Patient AND A.Doctor = I1.Doctor AND "
      "I1.Department = I2.Department AND I2.Doctor = L.User")));
  return queries;
}

/// For each toy query, each pivot variable and every cut point b of the
/// pivot's n-row table, the runs over [0, b) and [b, n) together find what
/// the run over [0, n) finds — DistinctLids, whichever variable pivots. The
/// boxed oracle's variable-0 scan honours the same cuts.
TEST(SeedRangeSplitTest, CutRunsUnionToTheWholeRun) {
  Database db = BuildPaperToyDatabase();
  const QAttr lid{0, 0};
  const Executor late(&db);
  const BoxedExecutor boxed(&db);
  const std::vector<PathQuery> queries = ToyQueries(db);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const PathQuery& q = queries[qi];
    const std::vector<int64_t> all = UnwrapOrDie(late.DistinctLids(q, lid));
    ASSERT_FALSE(all.empty());
    for (int v = 0; v < static_cast<int>(q.vars.size()); ++v) {
      const size_t n = UnwrapOrDie(db.GetTable(q.vars[v].table))->num_rows();
      EXPECT_EQ(JoinedLids(late, db, q, lid, v, RowRange{0, n}), all)
          << "query " << qi << " var " << v;
      for (size_t b = 0; b <= n; ++b) {
        EXPECT_EQ(CutRunLids(late, db, q, lid, v, RowRange{0, n}, b), all)
            << "query " << qi << " var " << v << " cut " << b;
        if (v == 0) {
          std::set<int64_t> cut_lids;
          for (RowRange rows : {RowRange{0, b}, RowRange{b, n}}) {
            for (int64_t l : UnwrapOrDie(boxed.DistinctLids(q, lid, rows))) {
              cut_lids.insert(l);
            }
          }
          EXPECT_EQ(std::vector<int64_t>(cut_lids.begin(), cut_lids.end()), all)
              << "boxed query " << qi << " cut " << b;
        }
      }
    }
  }
}

TEST(ExecutorDeterminismTest, ExplainAllReportIdenticalAcrossThreadCounts) {
  CareWebData data = UnwrapOrDie(GenerateCareWeb(CareWebConfig::Tiny()));
  ExplanationEngine engine =
      UnwrapOrDie(ExplanationEngine::Create(&data.db, "Log"));
  for (auto& tmpl : UnwrapOrDie(TemplatesHandcraftedDirect(data.db, true))) {
    EBA_ASSERT_OK(engine.AddTemplate(tmpl));
  }
  ASSERT_GT(engine.num_templates(), 0u);

  const ExplanationReport reference = UnwrapOrDie(engine.ExplainAll());
  for (size_t threads : kThreadCounts) {
    ExplainAllOptions options;
    options.num_threads = threads;
    const ExplanationReport report = UnwrapOrDie(engine.ExplainAll(options));
    EXPECT_EQ(report.log_size, reference.log_size) << threads;
    EXPECT_EQ(report.per_template_counts, reference.per_template_counts)
        << threads;
    EXPECT_EQ(report.explained_lids, reference.explained_lids) << threads;
    EXPECT_EQ(report.unexplained_lids, reference.unexplained_lids) << threads;
  }
}

// --------------------------- Plan cache tests ---------------------------

class PlanCacheTest : public ::testing::Test {
 protected:
  PlanCacheTest() : db_(BuildPaperToyDatabase()) {}

  ExecutorOptions Cached() {
    ExecutorOptions options;
    options.plan_cache = &cache_;
    return options;
  }

  PathQuery ApptQuery() {
    return UnwrapOrDie(ParsePathQuery(
        db_, "Log L, Appointments A",
        "L.Patient = A.Patient AND A.Doctor = L.User"));
  }
  QAttr Lid() { return QAttr{0, 0}; }

  Database db_;
  PlanCache cache_;
};

TEST_F(PlanCacheTest, SecondExecutionReplaysCachedPlan) {
  Executor cached(&db_, Cached());
  Executor fresh(&db_);
  const PathQuery q = ApptQuery();

  const std::vector<int64_t> first = UnwrapOrDie(cached.DistinctLids(q, Lid()));
  EXPECT_FALSE(cached.last_stats().plan_cache_hit);
  EXPECT_EQ(cache_.stats().misses, 1u);
  EXPECT_EQ(cache_.size(), 1u);
  const ExecStats recorded = cached.last_stats();

  const std::vector<int64_t> second =
      UnwrapOrDie(cached.DistinctLids(q, Lid()));
  EXPECT_TRUE(cached.last_stats().plan_cache_hit);
  EXPECT_EQ(cache_.stats().hits, 1u);
  EXPECT_EQ(second, first);
  EXPECT_EQ(second, UnwrapOrDie(fresh.DistinctLids(q, Lid())));

  // The replayed execution reports the same frozen join order and
  // intermediate cardinalities as the compiling run.
  const ExecStats& replayed = cached.last_stats();
  ASSERT_EQ(replayed.join_order.size(), recorded.join_order.size());
  for (size_t i = 0; i < replayed.join_order.size(); ++i) {
    EXPECT_EQ(replayed.join_order[i].condition_index,
              recorded.join_order[i].condition_index);
    EXPECT_EQ(replayed.join_order[i].is_filter,
              recorded.join_order[i].is_filter);
    EXPECT_EQ(replayed.join_order[i].rows_after,
              recorded.join_order[i].rows_after);
  }
  EXPECT_EQ(replayed.joins_executed, recorded.joins_executed);
  EXPECT_EQ(replayed.used_semi_join, recorded.used_semi_join);
}

TEST_F(PlanCacheTest, AppendRebindsPlanInsteadOfInvalidating) {
  Executor cached(&db_, Cached());
  const PathQuery q = ApptQuery();

  const std::vector<int64_t> before =
      UnwrapOrDie(cached.DistinctLids(q, Lid()));
  EXPECT_EQ(before, (std::vector<int64_t>{1}));

  // Appending to a joined table moves its watermark and nothing else: the
  // cached plan is re-bound (index extended past the watermark) and
  // replayed — a hit plus a rebind, never an invalidation.
  Table* appt = db_.GetTable("Appointments").value();
  EBA_ASSERT_OK(appt->AppendRow(
      {Value::Int64(testing_util::kBob),
       Value::Timestamp(Date::FromCivil(2010, 2, 2, 9, 0, 0).ToSeconds()),
       Value::Int64(testing_util::kDave)}));

  const std::vector<int64_t> after =
      UnwrapOrDie(cached.DistinctLids(q, Lid()));
  EXPECT_TRUE(cached.last_stats().plan_cache_hit);
  EXPECT_EQ(cache_.stats().rebinds, 1u);
  EXPECT_EQ(cache_.stats().invalidations, 0u);
  // The new appointment (Bob with Dave) explains L2 as well — a dangling
  // replay of the stale bindings would have answered {1}.
  EXPECT_EQ(after, (std::vector<int64_t>{1, 2}));
  Executor fresh(&db_);
  EXPECT_EQ(after, UnwrapOrDie(fresh.DistinctLids(q, Lid())));

  // The rebound plan is stamped with the new watermark: the next lookup is
  // a plain hit, no further rebind.
  const std::vector<int64_t> again = UnwrapOrDie(cached.DistinctLids(q, Lid()));
  EXPECT_TRUE(cached.last_stats().plan_cache_hit);
  EXPECT_EQ(cache_.stats().rebinds, 1u);
  EXPECT_EQ(again, after);
}

TEST_F(PlanCacheTest, AppendToLogRebindsAndSeesNewRows) {
  Executor cached(&db_, Cached());
  Executor fresh(&db_);
  const PathQuery q = ApptQuery();
  EXPECT_EQ(UnwrapOrDie(cached.DistinctLids(q, Lid())),
            (std::vector<int64_t>{1}));

  // A new access by Mike to Bob's record: explained by Bob's existing
  // appointment with Mike. Variable 0 grew, so the initial scan must cover
  // the appended suffix and the (extended) lid index must find it.
  Table* log = db_.GetTable("Log").value();
  EBA_ASSERT_OK(log->AppendRow(
      {Value::Int64(3),
       Value::Timestamp(Date::FromCivil(2010, 3, 3, 9, 0, 0).ToSeconds()),
       Value::Int64(testing_util::kMike), Value::Int64(testing_util::kBob),
       Value::String("viewed record")}));

  const std::vector<int64_t> after = UnwrapOrDie(cached.DistinctLids(q, Lid()));
  EXPECT_TRUE(cached.last_stats().plan_cache_hit);
  EXPECT_EQ(cache_.stats().rebinds, 1u);
  EXPECT_EQ(after, (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(after, UnwrapOrDie(fresh.DistinctLids(q, Lid())));

  // The per-access explain shape re-binds too, and the lid filter resolves
  // against the extended index.
  const std::vector<Value> new_lid = {Value::Int64(3)};
  const Relation cached_rel =
      UnwrapOrDie(cached.MaterializeForLogIds(q, Lid(), new_lid));
  const Relation fresh_rel =
      UnwrapOrDie(fresh.MaterializeForLogIds(q, Lid(), new_lid));
  EXPECT_EQ(cached_rel.rows, fresh_rel.rows);
  EXPECT_FALSE(cached_rel.rows.empty());
}

TEST_F(PlanCacheTest, AppendRebindResolvesNewStringLiteral) {
  Executor cached(&db_, Cached());
  Executor fresh(&db_);
  // Department = "Oncology" does not occur yet: the literal compiles to a
  // never-matches filter.
  const PathQuery q = UnwrapOrDie(ParsePathQuery(
      db_, "Log L, Appointments A, Doctor_Info I",
      "L.Patient = A.Patient AND A.Doctor = I.Doctor AND "
      "I.Department = 'Oncology'"));
  EXPECT_EQ(UnwrapOrDie(cached.DistinctLids(q, Lid())),
            (std::vector<int64_t>{}));

  // The append mints the "Oncology" dictionary code; the rebind must
  // re-resolve the literal instead of replaying the frozen never-matches.
  Table* info = db_.GetTable("Doctor_Info").value();
  EBA_ASSERT_OK(info->AppendRow(
      {Value::Int64(testing_util::kDave), Value::String("Oncology")}));

  const std::vector<int64_t> after = UnwrapOrDie(cached.DistinctLids(q, Lid()));
  EXPECT_TRUE(cached.last_stats().plan_cache_hit);
  EXPECT_EQ(cache_.stats().rebinds, 1u);
  EXPECT_EQ(after, UnwrapOrDie(fresh.DistinctLids(q, Lid())));
  EXPECT_EQ(after, (std::vector<int64_t>{1}));
}

TEST_F(PlanCacheTest, AppendRebindExtendsCodeTranslations) {
  // A cross-column string join (Log.Action joined to a second table's
  // string column through an admin relationship is overkill here; use a
  // dedicated two-table database instead).
  Database db;
  EBA_ASSERT_OK(db.CreateTable(TableSchema(
      "Log", {ColumnDef{"Lid", DataType::kInt64, "lid", true},
              ColumnDef{"Tag", DataType::kString, "tag", false}})));
  EBA_ASSERT_OK(db.CreateTable(TableSchema(
      "Tags", {ColumnDef{"Tag", DataType::kString, "tag", false},
               ColumnDef{"Weight", DataType::kInt64, "", false}})));
  Table* log = db.GetTable("Log").value();
  Table* tags = db.GetTable("Tags").value();
  EBA_ASSERT_OK(log->AppendRow({Value::Int64(1), Value::String("alpha")}));
  EBA_ASSERT_OK(log->AppendRow({Value::Int64(2), Value::String("beta")}));
  EBA_ASSERT_OK(tags->AppendRow({Value::String("alpha"), Value::Int64(10)}));

  PlanCache cache;
  ExecutorOptions options;
  options.plan_cache = &cache;
  Executor cached(&db, options);
  Executor fresh(&db);
  const PathQuery q =
      UnwrapOrDie(ParsePathQuery(db, "Log L, Tags T", "L.Tag = T.Tag"));
  const QAttr lid{0, 0};
  EXPECT_EQ(UnwrapOrDie(cached.DistinctLids(q, lid)),
            (std::vector<int64_t>{1}));

  // Appends mint codes on both sides: "gamma" only in the log (probe side
  // grows), "beta" in Tags (build side grows — the previously untranslatable
  // probe code for "beta" must now resolve).
  EBA_ASSERT_OK(log->AppendRow({Value::Int64(3), Value::String("gamma")}));
  EBA_ASSERT_OK(tags->AppendRow({Value::String("beta"), Value::Int64(20)}));

  const std::vector<int64_t> after = UnwrapOrDie(cached.DistinctLids(q, lid));
  EXPECT_TRUE(cached.last_stats().plan_cache_hit);
  EXPECT_EQ(cache.stats().rebinds, 1u);
  EXPECT_EQ(after, UnwrapOrDie(fresh.DistinctLids(q, lid)));
  EXPECT_EQ(after, (std::vector<int64_t>{1, 2}));
}

TEST_F(PlanCacheTest, DropAndRecreateTableInvalidatesPlan) {
  Executor cached(&db_, Cached());
  const PathQuery q = ApptQuery();
  EXPECT_EQ(UnwrapOrDie(cached.DistinctLids(q, Lid())),
            (std::vector<int64_t>{1}));

  // Replace the Appointments table wholesale. The cached plan holds
  // pointers into the dropped table; the catalog-generation check must
  // reject the plan without ever dereferencing them.
  TableSchema schema = db_.GetTable("Appointments").value()->schema();
  EBA_ASSERT_OK(db_.DropTable("Appointments"));
  EBA_ASSERT_OK(db_.CreateTable(schema));
  Table* appt = db_.GetTable("Appointments").value();
  EBA_ASSERT_OK(appt->AppendRow(
      {Value::Int64(testing_util::kBob),
       Value::Timestamp(Date::FromCivil(2010, 2, 2, 9, 0, 0).ToSeconds()),
       Value::Int64(testing_util::kDave)}));

  const std::vector<int64_t> after = UnwrapOrDie(cached.DistinctLids(q, Lid()));
  EXPECT_FALSE(cached.last_stats().plan_cache_hit);
  EXPECT_GE(cache_.stats().invalidations, 1u);
  // Only Bob has an appointment now, so only L2 (Dave -> Bob) is explained.
  EXPECT_EQ(after, (std::vector<int64_t>{2}));
  Executor fresh(&db_);
  EXPECT_EQ(after, UnwrapOrDie(fresh.DistinctLids(q, Lid())));
}

TEST_F(PlanCacheTest, LidFilterReplaysAcrossDifferentFilters) {
  Executor cached(&db_, Cached());
  Executor fresh(&db_);
  const PathQuery q = ApptQuery();
  const std::vector<Value> lids1 = {Value::Int64(1)};
  const std::vector<Value> lids2 = {Value::Int64(2)};

  // The lid filter is a runtime input, not part of the plan: the plan
  // recorded for lids1 replays for lids2 and must match a fresh execution.
  const Relation r1 = UnwrapOrDie(cached.MaterializeForLogIds(q, Lid(), lids1));
  const Relation r2 = UnwrapOrDie(cached.MaterializeForLogIds(q, Lid(), lids2));
  EXPECT_TRUE(cached.last_stats().plan_cache_hit);
  const Relation f1 = UnwrapOrDie(fresh.MaterializeForLogIds(q, Lid(), lids1));
  const Relation f2 = UnwrapOrDie(fresh.MaterializeForLogIds(q, Lid(), lids2));
  EXPECT_EQ(r1.rows, f1.rows);
  EXPECT_EQ(r2.rows, f2.rows);
}

TEST(MinerPlanCacheTest, RepeatedSupportQueriesHitThePlanCache) {
  Database db = BuildPaperToyDatabase();
  MinerOptions options;
  options.log_table = "Log";
  options.support_fraction = 0.5;
  options.max_length = 4;
  options.max_tables = 3;
  options.skip_nonselective = false;
  // Disable support-count caching so equivalent paths re-execute: the
  // re-executions must replay cached plans.
  options.cache_support = false;

  MiningResult mined = UnwrapOrDie(TemplateMiner(&db, options).MineTwoWay());
  EXPECT_GT(mined.stats.plan_cache_hits, 0u);
  EXPECT_EQ(mined.stats.support_cache_hits, 0u);

  // Plan caching never changes what is mined: an uncached executor finds
  // each mined template's support.
  ASSERT_FALSE(mined.templates.empty());
  Executor uncached(&db);
  for (const MinedTemplate& m : mined.templates) {
    EXPECT_EQ(static_cast<int64_t>(
                  UnwrapOrDie(uncached.DistinctLids(m.tmpl.query(),
                                                    m.tmpl.lid_attr()))
                      .size()),
              m.support)
        << m.tmpl.name();
  }
}

TEST(EnginePlanCacheTest, RepeatedExplainAllReusesPlans) {
  CareWebData data = UnwrapOrDie(GenerateCareWeb(CareWebConfig::Tiny()));
  ExplanationEngine engine =
      UnwrapOrDie(ExplanationEngine::Create(&data.db, "Log"));
  for (auto& tmpl : UnwrapOrDie(TemplatesHandcraftedDirect(data.db, true))) {
    EBA_ASSERT_OK(engine.AddTemplate(tmpl));
  }
  ASSERT_GT(engine.num_templates(), 0u);

  const ExplanationReport first = UnwrapOrDie(engine.ExplainAll());
  EXPECT_EQ(engine.plan_cache()->stats().hits, 0u);
  EXPECT_EQ(engine.plan_cache()->size(), engine.num_templates());

  const ExplanationReport second = UnwrapOrDie(engine.ExplainAll());
  EXPECT_EQ(engine.plan_cache()->stats().hits, engine.num_templates());
  EXPECT_EQ(second.per_template_counts, first.per_template_counts);
  EXPECT_EQ(second.explained_lids, first.explained_lids);
  EXPECT_EQ(second.unexplained_lids, first.unexplained_lids);
}

/// A lid with no row still runs once, from an empty seed range, so the plan
/// is compiled there. The compile never looks at the seed, so a later call
/// for a lid that has rows replays that plan and must return the rows and
/// the join order of an uncached executor.
TEST_F(PlanCacheTest, EmptySeedCompilesThePlanALaterLidReplays) {
  const QAttr lid = Lid();
  for (const PathQuery& q : ToyQueries(db_)) {
    PlanCache cache;
    ExecutorOptions options;
    options.plan_cache = &cache;
    Executor cached(&db_, options);
    Executor fresh(&db_);
    const Relation none =
        UnwrapOrDie(cached.MaterializeForLogIds(q, lid, {Value::Int64(999)}));
    EXPECT_TRUE(none.rows.empty());
    EXPECT_FALSE(cached.last_stats().plan_cache_hit);
    EXPECT_EQ(cache.size(), 1u);

    const std::vector<Value> lids = {Value::Int64(1), Value::Int64(2)};
    const Relation got = UnwrapOrDie(cached.MaterializeForLogIds(q, lid, lids));
    const ExecStats replayed = cached.last_stats();
    EXPECT_TRUE(replayed.plan_cache_hit);
    EXPECT_EQ(cache.size(), 1u);
    const Relation want = UnwrapOrDie(fresh.MaterializeForLogIds(q, lid, lids));
    const ExecStats& compiled = fresh.last_stats();
    EXPECT_FALSE(compiled.plan_cache_hit);
    EXPECT_FALSE(want.rows.empty());
    EXPECT_EQ(got.attrs, want.attrs);
    EXPECT_EQ(got.rows, want.rows);
    ASSERT_EQ(replayed.join_order.size(), compiled.join_order.size());
    for (size_t i = 0; i < compiled.join_order.size(); ++i) {
      EXPECT_EQ(replayed.join_order[i].condition_index,
                compiled.join_order[i].condition_index);
      EXPECT_EQ(replayed.join_order[i].is_filter,
                compiled.join_order[i].is_filter);
      EXPECT_EQ(replayed.join_order[i].rows_after,
                compiled.join_order[i].rows_after);
      EXPECT_EQ(replayed.join_order[i].estimated_rows,
                compiled.join_order[i].estimated_rows);
    }
  }
}

// --------------------- Reverse semi-join (LogRowsJoinedTo) ---------------

/// Restricting a variable to its table's FULL row range is no restriction:
/// JoinedTo must reproduce DistinctLids exactly, whichever variable the
/// pivot seeds, and so must the runs over two halves of the range.
TEST(ReverseSemiJoinTest, FullRangeEqualsDistinctLids) {
  CareWebData data = UnwrapOrDie(GenerateCareWeb(CareWebConfig::Tiny()));
  const QAttr lid_attr{
      0, UnwrapOrDie(data.db.GetTable("Log"))->schema().ColumnIndex("Lid")};
  for (const auto& tmpl :
       UnwrapOrDie(TemplatesHandcraftedDirect(data.db, true))) {
    const PathQuery& q = tmpl.query();
    Executor serial(&data.db);
    const std::vector<int64_t> reference =
        UnwrapOrDie(serial.DistinctLids(q, lid_attr));
    for (int v = 0; v < static_cast<int>(q.vars.size()); ++v) {
      const size_t rows =
          UnwrapOrDie(data.db.GetTable(q.vars[v].table))->num_rows();
      EXPECT_EQ(JoinedLids(serial, data.db, q, lid_attr, v, RowRange{0, rows}),
                reference)
          << tmpl.name() << " var " << v;
      EXPECT_EQ(
          CutRunLids(serial, data.db, q, lid_attr, v, RowRange{0, rows},
                     rows / 2),
          reference)
          << tmpl.name() << " var " << v << " halves";
    }
  }
}

/// The monotone-append property the streaming delta audit rests on:
///   DistinctLids(after) == DistinctLids(before) ∪ JoinedTo(suffix).
TEST(ReverseSemiJoinTest, AppendedSuffixIsExactlyTheDelta) {
  Database db = BuildPaperToyDatabase();
  const PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User"));
  const QAttr lid{0, 0};
  Executor executor(&db);
  const std::vector<int64_t> before = UnwrapOrDie(executor.DistinctLids(q, lid));
  EXPECT_EQ(before, (std::vector<int64_t>{1}));

  Table* appt = db.GetTable("Appointments").value();
  const size_t suffix_begin = appt->num_rows();
  EBA_ASSERT_OK(appt->AppendRow(
      {Value::Int64(testing_util::kBob),
       Value::Timestamp(Date::FromCivil(2010, 2, 2, 9, 0, 0).ToSeconds()),
       Value::Int64(testing_util::kDave)}));

  const std::vector<int64_t> delta = JoinedLids(
      executor, db, q, lid, /*pivot=*/1,
      RowRange{suffix_begin, appt->num_rows()});
  EXPECT_EQ(delta, (std::vector<int64_t>{2}));
  const std::vector<int64_t> after = UnwrapOrDie(executor.DistinctLids(q, lid));
  EXPECT_EQ(after, (std::vector<int64_t>{1, 2}));
}

/// A bulk load: more rows appended to a joined table than the log holds.
/// The pivot run is seeded at the appended rows even then, and the delta
/// property holds, also when the suffix is cut in two.
TEST(ReverseSemiJoinTest, BulkLoadLargerThanTheLogIsExactlyTheDelta) {
  Database db = BuildPaperToyDatabase();
  const QAttr lid{0, 0};
  const std::vector<PathQuery> queries = ToyQueries(db);
  std::vector<std::vector<int64_t>> before;
  {
    Executor executor(&db);
    for (const PathQuery& q : queries) {
      before.push_back(UnwrapOrDie(executor.DistinctLids(q, lid)));
    }
  }

  Table* appt = db.GetTable("Appointments").value();
  const size_t log_rows = db.GetTable("Log").value()->num_rows();
  const size_t suffix_begin = appt->num_rows();
  const int64_t feb2 = Date::FromCivil(2010, 2, 2, 9, 0, 0).ToSeconds();
  // Bob with Dave explains L2 (Dave viewed Bob); the filler patients have
  // no access in the log, so they explain nothing.
  EBA_ASSERT_OK(appt->AppendRow({Value::Int64(testing_util::kBob),
                                 Value::Timestamp(feb2),
                                 Value::Int64(testing_util::kDave)}));
  for (int64_t p = 0; p < static_cast<int64_t>(2 * log_rows + 3); ++p) {
    EBA_ASSERT_OK(appt->AppendRow({Value::Int64(1000 + p),
                                   Value::Timestamp(feb2 + p),
                                   Value::Int64(testing_util::kMike)}));
  }
  const RowRange suffix{suffix_begin, appt->num_rows()};
  ASSERT_GT(suffix.size(), log_rows);

  Executor executor(&db);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const PathQuery& q = queries[qi];
    // Appointments is variable 1 of both toy queries.
    const std::vector<int64_t> delta =
        JoinedLids(executor, db, q, lid, /*pivot=*/1, suffix);
    EXPECT_EQ(CutRunLids(executor, db, q, lid, 1, suffix,
                         suffix.begin + suffix.size() / 2),
              delta)
        << "query " << qi;
    std::vector<int64_t> expected = before[qi];
    expected.insert(expected.end(), delta.begin(), delta.end());
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    EXPECT_EQ(UnwrapOrDie(executor.DistinctLids(q, lid)), expected)
        << "query " << qi;
    if (qi == 0) {
      EXPECT_EQ(delta, (std::vector<int64_t>{2}));
    }
  }
}

TEST(ReverseSemiJoinTest, EmptyRangeBadPivotAndBoxedEngine) {
  Database db = BuildPaperToyDatabase();
  const PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User"));
  const QAttr lid{0, 0};
  Executor executor(&db);
  // Empty range: nothing to join to.
  EXPECT_TRUE(
      UnwrapOrDie(executor.LogRowsJoinedTo(q, lid, 1, RowRange{1, 1})).empty());
  // Range clamped past the table end.
  EXPECT_TRUE(
      UnwrapOrDie(executor.LogRowsJoinedTo(q, lid, 1, RowRange{100, 200}))
          .empty());
  // A pivot past the query's variables names no table.
  EXPECT_FALSE(executor.LogRowsJoinedTo(q, lid, 2, RowRange{0, 2}).ok());
  EXPECT_FALSE(executor.LogRowsJoinedTo(q, lid, -1, RowRange{0, 2}).ok());
  // The boxed oracle has no row-id pivot machinery; its variable-0 scan
  // takes the range.
  const BoxedExecutor boxed(&db);
  EXPECT_EQ(UnwrapOrDie(boxed.DistinctLids(q, lid, RowRange{0, 1})),
            (std::vector<int64_t>{1}));
  EXPECT_TRUE(UnwrapOrDie(boxed.DistinctLids(q, lid, RowRange{1, 2})).empty());
}

/// A self-join query pivoted at its non-log occurrence: seeding variable 1
/// of "Log L, Log L2" with an appended suffix finds the OLD lids the new
/// rows retroactively explain.
TEST(ReverseSemiJoinTest, SelfJoinPivotFindsRetroactiveWitnesses) {
  Database db = BuildPaperToyDatabase();
  const PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Log L2",
      "L.Patient = L2.Patient AND L2.User = L.User AND L.Date > L2.Date"));
  const QAttr lid{0, 0};
  Table* log = db.GetTable("Log").value();
  const size_t suffix_begin = log->num_rows();
  // Dated before L1: explains L1 via the L2 side.
  EBA_ASSERT_OK(log->AppendRow(
      {Value::Int64(3),
       Value::Timestamp(Date::FromCivil(2010, 1, 1, 8, 0, 0).ToSeconds()),
       Value::Int64(testing_util::kDave), Value::Int64(testing_util::kAlice),
       Value::String("viewed record")}));
  Executor executor(&db);
  EXPECT_EQ(JoinedLids(executor, db, q, lid, /*pivot=*/1,
                       RowRange{suffix_begin, log->num_rows()}),
            (std::vector<int64_t>{1}));
}

/// Pivot plans are first-class plan-cache citizens: cached per (query,
/// pivot variable) with the row range as a runtime input, re-bound on
/// appends.
TEST_F(PlanCacheTest, PivotPlansCacheAndRebindAcrossAppends) {
  Executor cached(&db_, Cached());
  Executor fresh(&db_);
  const PathQuery q = ApptQuery();
  Table* appt = db_.GetTable("Appointments").value();

  // Cold: the pivot plan is recorded and cached under its own key.
  const std::vector<int64_t> cold = JoinedLids(
      cached, db_, q, Lid(), /*pivot=*/1, RowRange{0, appt->num_rows()});
  EXPECT_FALSE(cached.last_stats().plan_cache_hit);
  EXPECT_EQ(cold, (std::vector<int64_t>{1}));
  EXPECT_EQ(cache_.size(), 1u);

  // Warm, different runtime range, same plan: a pure hit.
  const std::vector<int64_t> warm =
      JoinedLids(cached, db_, q, Lid(), 1, RowRange{0, 1});
  EXPECT_TRUE(cached.last_stats().plan_cache_hit);
  EXPECT_EQ(cache_.stats().rebinds, 0u);
  EXPECT_EQ(warm, (std::vector<int64_t>{1}));

  // Append a row: the next pivot run over the suffix re-binds (extended
  // index bindings), never invalidates, and matches a fresh executor.
  const size_t suffix_begin = appt->num_rows();
  EBA_ASSERT_OK(appt->AppendRow(
      {Value::Int64(testing_util::kBob),
       Value::Timestamp(Date::FromCivil(2010, 2, 2, 9, 0, 0).ToSeconds()),
       Value::Int64(testing_util::kDave)}));
  const std::vector<int64_t> delta = JoinedLids(
      cached, db_, q, Lid(), 1, RowRange{suffix_begin, appt->num_rows()});
  EXPECT_TRUE(cached.last_stats().plan_cache_hit);
  EXPECT_EQ(cache_.stats().rebinds, 1u);
  EXPECT_EQ(cache_.stats().invalidations, 0u);
  EXPECT_EQ(delta, (std::vector<int64_t>{2}));
  EXPECT_EQ(delta, JoinedLids(fresh, db_, q, Lid(), 1,
                              RowRange{suffix_begin, appt->num_rows()}));
}

}  // namespace
}  // namespace eba
