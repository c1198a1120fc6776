// Second-wave tests: edge cases and failure paths across modules —
// empty/degenerate inputs, safety bounds, engine behaviour on missing data,
// and executor projection handling.

#include <gtest/gtest.h>

#include <set>

#include "careweb/generator.h"
#include "careweb/workload.h"
#include "core/engine.h"
#include "core/miner.h"
#include "graph/hierarchy.h"
#include "query/executor.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::BuildPaperToyDatabase;
using testing_util::UnwrapOrDie;

// --------------------------- Executor edges ---------------------------

TEST(ExecutorEdgeTest, EmptyLogYieldsEmptyResults) {
  Database db = BuildPaperToyDatabase();
  EBA_ASSERT_OK(db.CreateTable(AccessLog::StandardSchema("EmptyLog")));
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "EmptyLog L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User"));
  Executor executor(&db);
  EXPECT_EQ(UnwrapOrDie(executor.CountDistinct(
                q, QAttr{0, 0}, Executor::SupportStrategy::kNaive)),
            0);
  Relation rel = UnwrapOrDie(executor.Materialize(q));
  EXPECT_TRUE(rel.rows.empty());
}

TEST(ExecutorEdgeTest, EmptyEventTableYieldsEmptyJoin) {
  Database db = BuildPaperToyDatabase();
  EBA_ASSERT_OK(db.CreateTable(TableSchema(
      "Referrals", {ColumnDef{"Patient", DataType::kInt64, "patient", false},
                    ColumnDef{"Specialist", DataType::kInt64, "user",
                              false}})));
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Referrals R",
      "L.Patient = R.Patient AND R.Specialist = L.User"));
  Executor executor(&db);
  EXPECT_EQ(UnwrapOrDie(executor.CountDistinct(
                q, QAttr{0, 0}, Executor::SupportStrategy::kDedupFrontier)),
            0);
}

TEST(ExecutorEdgeTest, ProjectionControlsOutputColumns) {
  Database db = BuildPaperToyDatabase();
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User"));
  q.projection = {UnwrapOrDie(q.Resolve(db, "A", "Date"))};
  Executor executor(&db);
  Relation rel = UnwrapOrDie(executor.Materialize(q));
  ASSERT_EQ(rel.attrs.size(), 1u);
  ASSERT_EQ(rel.rows.size(), 1u);
  EXPECT_EQ(rel.rows[0][0].type(), DataType::kTimestamp);
}

TEST(ExecutorEdgeTest, MaterializeForUnknownLidIsEmpty) {
  Database db = BuildPaperToyDatabase();
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User"));
  Executor executor(&db);
  Relation rel = UnwrapOrDie(executor.MaterializeForLogIds(
      q, QAttr{0, 0}, {Value::Int64(424242)}));
  EXPECT_TRUE(rel.rows.empty());
}

TEST(ExecutorEdgeTest, LidAttrMustBeOnVariableZero) {
  Database db = BuildPaperToyDatabase();
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Appointments A", "L.Patient = A.Patient"));
  Executor executor(&db);
  EXPECT_FALSE(executor
                   .CountDistinct(q, QAttr{1, 0},
                                  Executor::SupportStrategy::kNaive)
                   .ok());
  EXPECT_FALSE(
      executor.MaterializeForLogIds(q, QAttr{1, 0}, {Value::Int64(1)}).ok());
}

TEST(ExecutorEdgeTest, SingleTableQueryWithLiteralFilter) {
  Database db = BuildPaperToyDatabase();
  PathQuery q = UnwrapOrDie(ParsePathQuery(db, "Log L", "L.Lid >= 2"));
  Executor executor(&db);
  auto values = UnwrapOrDie(executor.DistinctValues(
      q, QAttr{0, 0}, Executor::SupportStrategy::kNaive));
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], Value::Int64(2));
}

// --------------------------- Miner edges ---------------------------

TEST(MinerEdgeTest, FrontierSafetyBoundTriggers) {
  Database db = BuildPaperToyDatabase();
  MinerOptions options;
  options.log_table = "Log";
  options.support_fraction = 0.0;  // keep everything alive
  options.max_length = 4;
  options.max_tables = 3;
  options.skip_nonselective = false;
  options.max_frontier_paths = 0;  // absurdly small bound
  auto result = TemplateMiner(&db, options).MineOneWay();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
}

TEST(MinerEdgeTest, EmptyLogMinesNothing) {
  Database db = BuildPaperToyDatabase();
  EBA_ASSERT_OK(db.CreateTable(AccessLog::StandardSchema("EmptyLog")));
  MinerOptions options;
  options.log_table = "EmptyLog";
  options.support_fraction = 0.01;
  options.skip_nonselective = false;
  options.excluded_tables = {"Log"};
  MiningResult result = UnwrapOrDie(TemplateMiner(&db, options).MineOneWay());
  // Threshold is 0 on an empty log, so templates are found but explain 0.
  for (const auto& mined : result.templates) {
    EXPECT_EQ(mined.support, 0);
  }
}

TEST(MinerEdgeTest, BridgeLengthAboveMaxDegeneratesToTwoWay) {
  Database db = BuildPaperToyDatabase();
  MinerOptions options;
  options.log_table = "Log";
  options.support_fraction = 0.5;
  options.max_length = 4;
  options.skip_nonselective = false;
  TemplateMiner miner(&db, options);
  MiningResult bridged = UnwrapOrDie(miner.MineBridged(10));
  MiningResult two_way = UnwrapOrDie(miner.MineTwoWay());
  std::set<std::string> a, b;
  for (const auto& m : bridged.templates) {
    a.insert(UnwrapOrDie(m.tmpl.CanonicalKey(db)));
  }
  for (const auto& m : two_way.templates) {
    b.insert(UnwrapOrDie(m.tmpl.CanonicalKey(db)));
  }
  EXPECT_EQ(a, b);
}

// --------------------------- Engine edges ---------------------------

TEST(EngineEdgeTest, ExplainUnknownLidReturnsEmpty) {
  Database db = BuildPaperToyDatabase();
  ExplanationEngine engine =
      UnwrapOrDie(ExplanationEngine::Create(&db, "Log"));
  EBA_ASSERT_OK(engine.AddTemplate(UnwrapOrDie(ExplanationTemplate::Parse(
      db, "appt", "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User", "d"))));
  auto instances = UnwrapOrDie(engine.Explain(999999));
  EXPECT_TRUE(instances.empty());
}

TEST(EngineEdgeTest, NoTemplatesMeansNothingExplained) {
  Database db = BuildPaperToyDatabase();
  ExplanationEngine engine =
      UnwrapOrDie(ExplanationEngine::Create(&db, "Log"));
  ExplanationReport report = UnwrapOrDie(engine.ExplainAll());
  EXPECT_EQ(report.explained_lids.size(), 0u);
  EXPECT_EQ(report.unexplained_lids.size(), 2u);
  EXPECT_DOUBLE_EQ(report.Coverage(), 0.0);
}

TEST(EngineEdgeTest, CreateRejectsBadLogTable) {
  Database db = BuildPaperToyDatabase();
  EXPECT_FALSE(ExplanationEngine::Create(&db, "Nope").ok());
  EXPECT_FALSE(ExplanationEngine::Create(nullptr, "Log").ok());
  // Appointments has no Lid column.
  EXPECT_FALSE(ExplanationEngine::Create(&db, "Appointments").ok());
}

// --------------------------- Hierarchy edges ---------------------------

TEST(HierarchyEdgeTest, MaxDepthZeroGivesOnlyGlobalGroup) {
  Table table(AccessLog::StandardSchema("L"));
  for (int i = 0; i < 4; ++i) {
    EBA_ASSERT_OK(table.AppendRow({Value::Int64(i + 1),
                                   Value::Timestamp(i * 100),
                                   Value::Int64(i % 2), Value::Int64(7),
                                   Value::String("v")}));
  }
  AccessLog log = UnwrapOrDie(AccessLog::Wrap(&table));
  UserGraph graph = UnwrapOrDie(UserGraph::Build(log));
  HierarchyOptions options;
  options.max_depth = 0;
  GroupHierarchy h = UnwrapOrDie(GroupHierarchy::Build(graph, options));
  EXPECT_EQ(h.max_depth(), 0);
  EXPECT_EQ(h.nodes().size(), 1u);
  EXPECT_FALSE(GroupHierarchy::Build(graph, HierarchyOptions{-1, 1, {}}).ok());
}

TEST(HierarchyEdgeTest, EmptyGraph) {
  Table table(AccessLog::StandardSchema("L"));
  AccessLog log = UnwrapOrDie(AccessLog::Wrap(&table));
  UserGraph graph = UnwrapOrDie(UserGraph::Build(log));
  GroupHierarchy h = UnwrapOrDie(GroupHierarchy::Build(graph));
  EXPECT_EQ(h.GroupsAtDepth(0).size(), 1u);
  EXPECT_TRUE(h.GroupsAtDepth(0)[0]->users.empty());
  Table groups = UnwrapOrDie(h.ToGroupsTable("G"));
  EXPECT_EQ(groups.num_rows(), 0u);
}

// --------------------------- Workload edges ---------------------------

TEST(WorkloadEdgeTest, SliceOfMissingTableFails) {
  Database db = BuildPaperToyDatabase();
  EXPECT_FALSE(AddLogSlice(&db, "Nope", "S", 1, 1, false).ok());
}

TEST(WorkloadEdgeTest, SliceOutsideDayRangeIsEmpty) {
  CareWebData data = UnwrapOrDie(GenerateCareWeb(CareWebConfig::Tiny()));
  LogSlice slice =
      UnwrapOrDie(AddLogSlice(&data.db, "Log", "S", 100, 200, false));
  EXPECT_TRUE(slice.lids.empty());
  EXPECT_EQ(UnwrapOrDie(data.db.GetTable("S"))->num_rows(), 0u);
}

TEST(WorkloadEdgeTest, ReAddingSliceReplacesIt) {
  CareWebData data = UnwrapOrDie(GenerateCareWeb(CareWebConfig::Tiny()));
  LogSlice a = UnwrapOrDie(AddLogSlice(&data.db, "Log", "S", 1, 2, false));
  LogSlice b = UnwrapOrDie(AddLogSlice(&data.db, "Log", "S", 1, 1, false));
  EXPECT_LT(b.lids.size(), a.lids.size());
  EXPECT_EQ(UnwrapOrDie(data.db.GetTable("S"))->num_rows(), b.lids.size());
}

TEST(WorkloadEdgeTest, DifferentSeedsProduceDifferentLogs) {
  CareWebConfig c1 = CareWebConfig::Tiny();
  CareWebConfig c2 = CareWebConfig::Tiny();
  c2.seed = c1.seed + 1;
  CareWebData a = UnwrapOrDie(GenerateCareWeb(c1));
  CareWebData b = UnwrapOrDie(GenerateCareWeb(c2));
  const Table* la = UnwrapOrDie(a.db.GetTable("Log"));
  const Table* lb = UnwrapOrDie(b.db.GetTable("Log"));
  bool differs = la->num_rows() != lb->num_rows();
  for (size_t r = 0; !differs && r < std::min(la->num_rows(), lb->num_rows());
       ++r) {
    if (la->GetRow(r) != lb->GetRow(r)) differs = true;
  }
  EXPECT_TRUE(differs);
}

// --------------------------- Template edges ---------------------------

TEST(TemplateEdgeTest, ParseRejectsLogWithoutLid) {
  Database db = BuildPaperToyDatabase();
  // First FROM item is Appointments, which lacks a Lid column.
  EXPECT_FALSE(ExplanationTemplate::Parse(db, "t", "Appointments A, Log L",
                                          "A.Patient = L.Patient", "d")
                   .ok());
}

TEST(TemplateEdgeTest, EngineRejectsTemplateInvalidAfterRebind) {
  Database db = BuildPaperToyDatabase();
  // A log-like table whose schema differs (extra leading column), so column
  // indexes shift and the rebind check must fail.
  EBA_ASSERT_OK(db.CreateTable(TableSchema(
      "WeirdLog", {ColumnDef{"Extra", DataType::kInt64, "", false},
                   ColumnDef{"Lid", DataType::kInt64, "lid", true},
                   ColumnDef{"Date", DataType::kTimestamp, "", false},
                   ColumnDef{"User", DataType::kInt64, "user", false},
                   ColumnDef{"Patient", DataType::kInt64, "patient", false},
                   ColumnDef{"Action", DataType::kString, "", false}})));
  ExplanationEngine engine =
      UnwrapOrDie(ExplanationEngine::Create(&db, "WeirdLog"));
  ExplanationTemplate tmpl = UnwrapOrDie(ExplanationTemplate::Parse(
      db, "appt", "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User", "d"));
  EXPECT_FALSE(engine.AddTemplate(tmpl).ok());
}

}  // namespace
}  // namespace eba
