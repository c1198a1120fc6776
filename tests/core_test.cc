// Unit tests for src/core: templates, natural-language instances, the
// explanation engine, and precision/recall metrics.

#include <gtest/gtest.h>

#include <set>

#include "careweb/generator.h"
#include "careweb/workload.h"
#include "core/engine.h"
#include "core/instance.h"
#include "core/metrics.h"
#include "core/template.h"
#include "log/fake_log.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::BuildPaperToyDatabase;
using testing_util::kAlice;
using testing_util::kDave;
using testing_util::UnwrapOrDie;

StatusOr<ExplanationTemplate> ApptTemplate(const Database& db) {
  return ExplanationTemplate::Parse(
      db, "appt_with_doctor", "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User",
      "[L.Patient] had an appointment with [L.User] on [A.Date]");
}

StatusOr<ExplanationTemplate> DeptTemplate(const Database& db) {
  return ExplanationTemplate::Parse(
      db, "same_dept", "Log L, Appointments A, Doctor_Info I1, Doctor_Info I2",
      "L.Patient = A.Patient AND A.Doctor = I1.Doctor AND "
      "I1.Department = I2.Department AND I2.Doctor = L.User",
      "[L.Patient] had an appointment with [A.Doctor], and [L.User] works "
      "with them in [I1.Department]");
}

// --------------------------- Template ---------------------------

TEST(TemplateTest, ClassificationSimpleVsDecorated) {
  Database db = BuildPaperToyDatabase();
  ExplanationTemplate appt = UnwrapOrDie(ApptTemplate(db));
  EXPECT_TRUE(appt.IsSimple());
  EXPECT_FALSE(appt.IsDecorated());
  EXPECT_EQ(appt.RawLength(), 2);
  EXPECT_EQ(appt.ReportedLength(db), 2);
  EXPECT_EQ(appt.CountedTables(db), 2);

  ExplanationTemplate repeat = UnwrapOrDie(ExplanationTemplate::Parse(
      db, "repeat", "Log L, Log L2",
      "L.Patient = L2.Patient AND L2.User = L.User AND L.Date > L2.Date",
      "repeat access"));
  EXPECT_TRUE(repeat.IsDecorated());
  EXPECT_EQ(repeat.CountedTables(db), 1);  // self-join counts once
}

TEST(TemplateTest, MappingTableExcludedFromCounts) {
  Database db = BuildPaperToyDatabase();
  EBA_ASSERT_OK(db.MarkMappingTable("Doctor_Info"));
  ExplanationTemplate dept = UnwrapOrDie(DeptTemplate(db));
  EXPECT_EQ(dept.RawLength(), 4);
  EXPECT_EQ(dept.ReportedLength(db), 2);  // two Doctor_Info instances
  EXPECT_EQ(dept.CountedTables(db), 2);   // Log + Appointments
}

TEST(TemplateTest, CanonicalKeyNormalizesLogTable) {
  Database db = BuildPaperToyDatabase();
  // A second log table with identical schema.
  EBA_ASSERT_OK(db.CreateTable(AccessLog::StandardSchema("TrainLog")));
  ExplanationTemplate a = UnwrapOrDie(ApptTemplate(db));
  ExplanationTemplate b = UnwrapOrDie(ExplanationTemplate::Parse(
      db, "other_name", "TrainLog L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User", "desc"));
  EXPECT_EQ(UnwrapOrDie(a.CanonicalKey(db)), UnwrapOrDie(b.CanonicalKey(db)));

  ExplanationTemplate c = UnwrapOrDie(DeptTemplate(db));
  EXPECT_NE(UnwrapOrDie(a.CanonicalKey(db)), UnwrapOrDie(c.CanonicalKey(db)));
}

TEST(TemplateTest, CanonicalKeyOrderInvariant) {
  Database db = BuildPaperToyDatabase();
  ExplanationTemplate fwd = UnwrapOrDie(ApptTemplate(db));
  // Same conditions, reversed textual order and flipped sides.
  ExplanationTemplate rev = UnwrapOrDie(ExplanationTemplate::Parse(
      db, "reversed", "Log L, Appointments A",
      "L.User = A.Doctor AND A.Patient = L.Patient", "desc"));
  EXPECT_EQ(UnwrapOrDie(fwd.CanonicalKey(db)),
            UnwrapOrDie(rev.CanonicalKey(db)));
}

TEST(TemplateTest, WithLogTableRebindsAllLogVars) {
  Database db = BuildPaperToyDatabase();
  EBA_ASSERT_OK(db.CreateTable(AccessLog::StandardSchema("Eval")));
  ExplanationTemplate repeat = UnwrapOrDie(ExplanationTemplate::Parse(
      db, "repeat", "Log L, Log L2",
      "L.Patient = L2.Patient AND L2.User = L.User", "desc"));
  ExplanationTemplate rebased = repeat.WithLogTable("Eval");
  EXPECT_EQ(rebased.query().vars[0].table, "Eval");
  EXPECT_EQ(rebased.query().vars[1].table, "Eval");
  EXPECT_TRUE(rebased.query().Validate(db).ok());
}

TEST(TemplateTest, ToSqlRendersCountDistinct) {
  Database db = BuildPaperToyDatabase();
  ExplanationTemplate appt = UnwrapOrDie(ApptTemplate(db));
  SqlRenderOptions opts;
  opts.count_distinct_lid = true;
  std::string sql = UnwrapOrDie(appt.ToSql(db, opts));
  EXPECT_NE(sql.find("COUNT(DISTINCT L.Lid)"), std::string::npos);
}

// --------------------------- Engine + instances ---------------------------

TEST(EngineTest, ExplainProducesRankedNaturalLanguage) {
  Database db = BuildPaperToyDatabase();
  ExplanationEngine engine =
      UnwrapOrDie(ExplanationEngine::Create(&db, "Log"));
  EBA_ASSERT_OK(engine.AddTemplate(UnwrapOrDie(DeptTemplate(db))));
  EBA_ASSERT_OK(engine.AddTemplate(UnwrapOrDie(ApptTemplate(db))));

  // L1 = Dave accessed Alice: explained by both templates.
  std::vector<ExplanationInstance> instances =
      UnwrapOrDie(engine.Explain(1));
  ASSERT_GE(instances.size(), 2u);
  // Ranked ascending by path length: appointment (2) before dept (4).
  EXPECT_EQ(instances[0].tmpl().name(), "appt_with_doctor");
  std::string text = instances[0].ToNaturalLanguage(db);
  EXPECT_NE(text.find("1 had an appointment with 10"), std::string::npos)
      << text;

  // L2 = Dave accessed Bob: only the department template applies.
  std::vector<ExplanationInstance> l2 = UnwrapOrDie(engine.Explain(2));
  ASSERT_GE(l2.size(), 1u);
  EXPECT_EQ(l2[0].tmpl().name(), "same_dept");
  std::string l2_text = l2[0].ToNaturalLanguage(db);
  EXPECT_NE(l2_text.find("Pediatrics"), std::string::npos) << l2_text;
}

TEST(EngineTest, InstanceValueAccessors) {
  Database db = BuildPaperToyDatabase();
  ExplanationEngine engine =
      UnwrapOrDie(ExplanationEngine::Create(&db, "Log"));
  EBA_ASSERT_OK(engine.AddTemplate(UnwrapOrDie(ApptTemplate(db))));
  std::vector<ExplanationInstance> instances =
      UnwrapOrDie(engine.Explain(1));
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].LogId(), Value::Int64(1));
  EXPECT_EQ(instances[0].ValueOf(db, "L", "Patient"), Value::Int64(kAlice));
  EXPECT_EQ(instances[0].ValueOf(db, "L", "User"), Value::Int64(kDave));
  EXPECT_TRUE(instances[0].ValueOf(db, "Z", "Nope").is_null());
}

TEST(EngineTest, UnknownPlaceholderRendersQuestionMark) {
  Database db = BuildPaperToyDatabase();
  ExplanationTemplate tmpl = UnwrapOrDie(ExplanationTemplate::Parse(
      db, "t", "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User",
      "[L.Patient] saw [Z.Nope] and [not-a-placeholder"));
  ExplanationEngine engine =
      UnwrapOrDie(ExplanationEngine::Create(&db, "Log"));
  EBA_ASSERT_OK(engine.AddTemplate(tmpl));
  auto instances = UnwrapOrDie(engine.Explain(1));
  ASSERT_EQ(instances.size(), 1u);
  std::string text = instances[0].ToNaturalLanguage(db);
  EXPECT_NE(text.find("saw ?"), std::string::npos) << text;
  EXPECT_NE(text.find("[not-a-placeholder"), std::string::npos) << text;
}

TEST(EngineTest, ExplainAllReportsCoverageAndUnexplained) {
  Database db = BuildPaperToyDatabase();
  ExplanationEngine engine =
      UnwrapOrDie(ExplanationEngine::Create(&db, "Log"));
  EBA_ASSERT_OK(engine.AddTemplate(UnwrapOrDie(ApptTemplate(db))));
  ExplanationReport report = UnwrapOrDie(engine.ExplainAll());
  EXPECT_EQ(report.log_size, 2u);
  EXPECT_EQ(report.explained_lids, (std::vector<int64_t>{1}));
  EXPECT_EQ(report.unexplained_lids, (std::vector<int64_t>{2}));
  EXPECT_DOUBLE_EQ(report.Coverage(), 0.5);

  EBA_ASSERT_OK(engine.AddTemplate(UnwrapOrDie(DeptTemplate(db))));
  report = UnwrapOrDie(engine.ExplainAll());
  EXPECT_DOUBLE_EQ(report.Coverage(), 1.0);
  EXPECT_TRUE(report.unexplained_lids.empty());
}

// The multithreaded report must be byte-identical to the serial one: same
// per-template counts, same (sorted) explained/unexplained lids.
TEST(EngineTest, ExplainAllParallelMatchesSerialOnToyDatabase) {
  Database db = BuildPaperToyDatabase();
  ExplanationEngine engine =
      UnwrapOrDie(ExplanationEngine::Create(&db, "Log"));
  EBA_ASSERT_OK(engine.AddTemplate(UnwrapOrDie(ApptTemplate(db))));
  EBA_ASSERT_OK(engine.AddTemplate(UnwrapOrDie(DeptTemplate(db))));

  // ExplainAll is the function under test here: assert on its StatusOr
  // directly (ASSERT semantics) rather than going through UnwrapOrDie.
  EBA_ASSERT_OK_AND_ASSIGN(ExplanationReport serial, engine.ExplainAll());
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    ExplainAllOptions options;
    options.num_threads = threads;
    EBA_ASSERT_OK_AND_ASSIGN(ExplanationReport parallel,
                             engine.ExplainAll(options));
    EXPECT_EQ(parallel.log_size, serial.log_size) << threads << " threads";
    EXPECT_EQ(parallel.per_template_counts, serial.per_template_counts)
        << threads << " threads";
    EXPECT_EQ(parallel.explained_lids, serial.explained_lids)
        << threads << " threads";
    EXPECT_EQ(parallel.unexplained_lids, serial.unexplained_lids)
        << threads << " threads";
  }
}

TEST(EngineTest, ExplainAllParallelMatchesSerialOnCareWebLog) {
  CareWebConfig config = CareWebConfig::Small();
  config.num_days = 14;  // ~18k accesses, > the 10k the determinism spec asks
  CareWebData data = UnwrapOrDie(GenerateCareWeb(config));
  const Table* log = UnwrapOrDie(data.db.GetTable("Log"));
  ASSERT_GE(log->num_rows(), 10000u);

  ExplanationEngine engine =
      UnwrapOrDie(ExplanationEngine::Create(&data.db, "Log"));
  for (auto& tmpl : UnwrapOrDie(TemplatesHandcraftedDirect(data.db, true))) {
    EBA_ASSERT_OK(engine.AddTemplate(tmpl));
  }
  ASSERT_GT(engine.num_templates(), 0u);

  EBA_ASSERT_OK_AND_ASSIGN(ExplanationReport serial, engine.ExplainAll());
  EXPECT_EQ(serial.explained_lids.size() + serial.unexplained_lids.size(),
            serial.log_size);

  // At 4096 rows per cut at least, the log splits into 2, 4 and 4 cuts.
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    ExplainAllOptions options;
    options.num_threads = threads;
    EBA_ASSERT_OK_AND_ASSIGN(ExplanationReport parallel,
                             engine.ExplainAll(options));
    EXPECT_EQ(parallel.log_size, serial.log_size) << threads << " threads";
    EXPECT_EQ(parallel.per_template_counts, serial.per_template_counts)
        << threads << " threads";
    EXPECT_EQ(parallel.explained_lids, serial.explained_lids)
        << threads << " threads";
    EXPECT_EQ(parallel.unexplained_lids, serial.unexplained_lids)
        << threads << " threads";
  }
}

TEST(EngineTest, TemplatesRebindToEngineLog) {
  Database db = BuildPaperToyDatabase();
  // Copy the log into a new table "Audit" and run an engine against it.
  const Table* log = db.GetTable("Log").value();
  Table copy(AccessLog::StandardSchema("Audit"));
  for (size_t r = 0; r < log->num_rows(); ++r) {
    EBA_ASSERT_OK(copy.AppendRow(log->GetRow(r)));
  }
  EBA_ASSERT_OK(db.AddTable(std::move(copy)));

  ExplanationEngine engine =
      UnwrapOrDie(ExplanationEngine::Create(&db, "Audit"));
  EBA_ASSERT_OK(engine.AddTemplate(UnwrapOrDie(ApptTemplate(db))));
  const ExplanationTemplate& bound = engine.templates()[0];
  EXPECT_EQ(bound.query().vars[0].table, "Audit");
  auto lids = UnwrapOrDie(
      Executor(&db).DistinctLids(bound.query(), bound.lid_attr()));
  EXPECT_EQ(lids, (std::vector<int64_t>{1}));
}

// --------------------------- Metrics ---------------------------

TEST(MetricsTest, PrecisionRecallDefinitions) {
  PrecisionRecall pr;
  pr.real_total = 100;
  pr.fake_total = 100;
  pr.real_explained = 40;
  pr.fake_explained = 10;
  pr.real_with_events = 80;
  EXPECT_DOUBLE_EQ(pr.Recall(), 0.4);
  EXPECT_DOUBLE_EQ(pr.Precision(), 0.8);
  EXPECT_DOUBLE_EQ(pr.NormalizedRecall(), 0.5);

  PrecisionRecall empty;
  EXPECT_DOUBLE_EQ(empty.Precision(), 1.0);  // nothing claimed, nothing wrong
  EXPECT_DOUBLE_EQ(empty.Recall(), 0.0);
}

TEST(MetricsTest, EvaluateOnCombinedToyLog) {
  Database db = BuildPaperToyDatabase();

  // Fake log: one access that cannot match any appointment (user 99).
  Table fake(AccessLog::StandardSchema("FakePart"));
  EBA_ASSERT_OK(fake.AppendRow({Value::Int64(100), Value::Timestamp(1000),
                                Value::Int64(99), Value::Int64(kAlice),
                                Value::String("viewed")}));
  const Table* real = db.GetTable("Log").value();
  CombinedLog combined = UnwrapOrDie(CombineRealAndFake("Eval", *real, fake));
  EBA_ASSERT_OK(db.AddTable(std::move(combined.table)));

  MetricsEvaluator evaluator(&db, "Eval");
  std::vector<ExplanationTemplate> templates = {
      UnwrapOrDie(ApptTemplate(db))};
  PrecisionRecall pr = UnwrapOrDie(evaluator.Evaluate(
      templates, combined.real_lids, combined.fake_lids,
      combined.real_lids));
  EXPECT_EQ(pr.real_explained, 1u);  // only L1
  EXPECT_EQ(pr.fake_explained, 0u);
  EXPECT_DOUBLE_EQ(pr.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(pr.Recall(), 0.5);
}

TEST(MetricsTest, LidsWithEvent) {
  Database db = BuildPaperToyDatabase();
  MetricsEvaluator evaluator(&db, "Log");
  auto lids = UnwrapOrDie(evaluator.LidsWithEvent("Appointments", "Patient"));
  // Both Alice and Bob have appointments.
  EXPECT_EQ(lids, (std::vector<int64_t>{1, 2}));
  auto any = UnwrapOrDie(
      evaluator.LidsWithAnyEvent({{"Appointments", "Patient"}}));
  EXPECT_EQ(any, lids);
}

}  // namespace
}  // namespace eba
