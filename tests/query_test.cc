// Unit tests for src/query: expressions, path queries, the executor (against
// the paper's Figure 3 worked example), the cardinality estimator, SQL
// rendering, and the template parser.

#include <gtest/gtest.h>

#include "query/executor.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/plan_cache.h"
#include "query/sql.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::BuildPaperToyDatabase;
using testing_util::kAlice;
using testing_util::kBob;
using testing_util::kDave;
using testing_util::kMike;
using testing_util::UnwrapOrDie;

// --------------------------- Plan cache ---------------------------

// A database move-assigned over another keeps its address, so only its
// catalog generation tells a plan cached against the old tables from one
// for the new: generations are unique in the process, and the cached plan,
// whose table pointers were freed, is dropped instead of replayed.
TEST(PlanCacheGenerationTest, DatabaseAssignedOverAnotherMissesTheCache) {
  Database db = BuildPaperToyDatabase();
  PlanCache cache;
  ExecutorOptions options;
  options.plan_cache = &cache;
  const auto run = [&] {
    Executor executor(&db, options);
    const PathQuery q = UnwrapOrDie(
        ParsePathQuery(db, "Log L, Appointments A",
                       "L.Patient = A.Patient AND A.Doctor = L.User"));
    return UnwrapOrDie(executor.DistinctLids(q, QAttr{0, 0}));
  };
  EXPECT_EQ(run(), (std::vector<int64_t>{1}));
  ASSERT_EQ(cache.size(), 1u);

  db = BuildPaperToyDatabase();
  const PlanCache::Stats before = cache.stats();
  EXPECT_EQ(run(), (std::vector<int64_t>{1}));
  EXPECT_EQ(cache.stats().hits - before.hits, 0u);
  EXPECT_EQ(cache.stats().misses - before.misses, 1u);
  EXPECT_EQ(cache.stats().invalidations - before.invalidations, 1u);
}

// --------------------------- Expr ---------------------------

TEST(ExprTest, CmpOpStrings) {
  EXPECT_STREQ(CmpOpToString(CmpOp::kLt), "<");
  EXPECT_STREQ(CmpOpToString(CmpOp::kLe), "<=");
  EXPECT_STREQ(CmpOpToString(CmpOp::kEq), "=");
  EXPECT_STREQ(CmpOpToString(CmpOp::kGe), ">=");
  EXPECT_STREQ(CmpOpToString(CmpOp::kGt), ">");
}

TEST(ExprTest, EvalCmpSemantics) {
  EXPECT_TRUE(EvalCmp(Value::Int64(1), CmpOp::kLt, Value::Int64(2)));
  EXPECT_TRUE(EvalCmp(Value::Int64(2), CmpOp::kEq, Value::Int64(2)));
  EXPECT_FALSE(EvalCmp(Value::Int64(2), CmpOp::kGt, Value::Int64(2)));
  EXPECT_TRUE(EvalCmp(Value::String("b"), CmpOp::kGe, Value::String("a")));
  // NULL never compares true (SQL semantics).
  EXPECT_FALSE(EvalCmp(Value::Null(), CmpOp::kEq, Value::Null()));
  EXPECT_FALSE(EvalCmp(Value::Int64(1), CmpOp::kLt, Value::Null()));
}

// --------------------------- Parser + PathQuery ---------------------------

TEST(ParserTest, ParsesTemplateA) {
  Database db = BuildPaperToyDatabase();
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User"));
  EXPECT_EQ(q.vars.size(), 2u);
  EXPECT_EQ(q.vars[0].table, "Log");
  EXPECT_EQ(q.vars[0].alias, "L");
  EXPECT_EQ(q.join_chain.size(), 2u);
  EXPECT_TRUE(q.extra_conditions.empty());
  EXPECT_TRUE(q.const_conditions.empty());
  EXPECT_TRUE(q.Validate(db).ok());
}

TEST(ParserTest, ClassifiesDecorations) {
  Database db = BuildPaperToyDatabase();
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Log L2",
      "L.Patient = L2.Patient AND L2.User = L.User AND L.Date > L2.Date"));
  EXPECT_EQ(q.join_chain.size(), 2u);        // the equalities
  EXPECT_EQ(q.extra_conditions.size(), 1u);  // the temporal decoration
  EXPECT_EQ(q.extra_conditions[0].op, CmpOp::kGt);
}

TEST(ParserTest, ParsesLiterals) {
  Database db = BuildPaperToyDatabase();
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Doctor_Info I",
      "L.User = I.Doctor AND I.Department = 'Pediatrics' AND L.Lid >= 1"));
  ASSERT_EQ(q.const_conditions.size(), 2u);
  EXPECT_EQ(q.const_conditions[0].rhs, Value::String("Pediatrics"));
  EXPECT_EQ(q.const_conditions[1].rhs, Value::Int64(1));
  EXPECT_EQ(q.const_conditions[1].op, CmpOp::kGe);
}

TEST(ParserTest, ErrorsOnBadInput) {
  Database db = BuildPaperToyDatabase();
  EXPECT_FALSE(ParsePathQuery(db, "Nope N", "").ok());
  EXPECT_FALSE(ParsePathQuery(db, "Log L", "L.Nope = 1").ok());
  EXPECT_FALSE(ParsePathQuery(db, "Log L", "L.Lid").ok());  // no operator
  EXPECT_FALSE(ParsePathQuery(db, "Log L", "1 = L.Lid").ok());  // lhs literal
  EXPECT_FALSE(ParsePathQuery(db, "Log L L2 L3", "").ok());
  EXPECT_FALSE(
      ParsePathQuery(db, "Log L, Log L", "L.Lid = L.Lid").ok());  // dup alias
}

TEST(ParserTest, AliasDefaultsToTableName) {
  Database db = BuildPaperToyDatabase();
  PathQuery q = UnwrapOrDie(
      ParsePathQuery(db, "Log", "Log.Patient = Log.User"));
  EXPECT_EQ(q.vars[0].alias, "Log");
}

TEST(PathQueryTest, ResolveAndAttrName) {
  Database db = BuildPaperToyDatabase();
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User"));
  QAttr attr = UnwrapOrDie(q.Resolve(db, "A", "Doctor"));
  EXPECT_EQ(attr.var, 1);
  EXPECT_EQ(UnwrapOrDie(q.AttrName(db, attr)), "A.Doctor");
  EXPECT_FALSE(q.Resolve(db, "Z", "Doctor").ok());
}

TEST(PathQueryTest, ReferencedAttrsDeduplicated) {
  Database db = BuildPaperToyDatabase();
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User"));
  EXPECT_EQ(q.ReferencedAttrs().size(), 4u);
}

// --------------------------- Executor: Figure 3 ---------------------------

class Figure3Test : public ::testing::Test {
 protected:
  Figure3Test() : db_(BuildPaperToyDatabase()), executor_(&db_) {}

  PathQuery TemplateA() {
    return UnwrapOrDie(ParsePathQuery(
        db_, "Log L, Appointments A",
        "L.Patient = A.Patient AND A.Doctor = L.User"));
  }
  PathQuery TemplateB() {
    return UnwrapOrDie(ParsePathQuery(
        db_,
        "Log L, Appointments A, Doctor_Info I1, Doctor_Info I2",
        "L.Patient = A.Patient AND A.Doctor = I1.Doctor AND "
        "I1.Department = I2.Department AND I2.Doctor = L.User"));
  }
  QAttr Lid() { return QAttr{0, 0}; }

  Database db_;
  Executor executor_;
};

TEST_F(Figure3Test, TemplateASupportIs50Percent) {
  // Example 3.1: template (A) has support 50% (only L1: Dave had an
  // appointment with Alice, not with Bob).
  for (auto strategy : {Executor::SupportStrategy::kNaive,
                        Executor::SupportStrategy::kDedupFrontier}) {
    int64_t support =
        UnwrapOrDie(executor_.CountDistinct(TemplateA(), Lid(), strategy));
    EXPECT_EQ(support, 1);
  }
}

TEST_F(Figure3Test, TemplateBSupportIs100Percent) {
  // Example 3.1: template (B) has support 100% (both accesses explained via
  // the shared Pediatrics department).
  for (auto strategy : {Executor::SupportStrategy::kNaive,
                        Executor::SupportStrategy::kDedupFrontier}) {
    int64_t support =
        UnwrapOrDie(executor_.CountDistinct(TemplateB(), Lid(), strategy));
    EXPECT_EQ(support, 2);
  }
}

TEST_F(Figure3Test, MaterializeTemplateAInstance) {
  PathQuery q = TemplateA();
  q.projection = {UnwrapOrDie(q.Resolve(db_, "L", "Lid")),
                  UnwrapOrDie(q.Resolve(db_, "L", "Patient")),
                  UnwrapOrDie(q.Resolve(db_, "L", "User")),
                  UnwrapOrDie(q.Resolve(db_, "A", "Date"))};
  Relation rel = UnwrapOrDie(executor_.Materialize(q));
  ASSERT_EQ(rel.rows.size(), 1u);
  EXPECT_EQ(rel.rows[0][0], Value::Int64(1));       // Lid L1
  EXPECT_EQ(rel.rows[0][1], Value::Int64(kAlice));  // patient
  EXPECT_EQ(rel.rows[0][2], Value::Int64(kDave));   // user
}

TEST_F(Figure3Test, MaterializeForLogIdsFiltersToOneAccess) {
  Relation rel = UnwrapOrDie(executor_.MaterializeForLogIds(
      TemplateB(), Lid(), {Value::Int64(2)}));
  ASSERT_GE(rel.rows.size(), 1u);
  int lid_idx = rel.AttrIndex(Lid());
  ASSERT_GE(lid_idx, 0);
  for (const auto& row : rel.rows) {
    EXPECT_EQ(row[static_cast<size_t>(lid_idx)], Value::Int64(2));
  }
}

TEST_F(Figure3Test, MultiplicityProducesMultipleInstances) {
  // Add a second appointment of Alice with Dave: template (A) yields two
  // instances for L1 but the support (distinct lids) stays 1.
  Table* appt = db_.GetTable("Appointments").value();
  EBA_ASSERT_OK(appt->AppendRow(
      {Value::Int64(kAlice),
       Value::Timestamp(Date::FromCivil(2010, 1, 15).ToSeconds()),
       Value::Int64(kDave)}));
  Relation rel = UnwrapOrDie(executor_.Materialize(TemplateA()));
  EXPECT_EQ(rel.rows.size(), 2u);
  EXPECT_EQ(UnwrapOrDie(executor_.CountDistinct(
                TemplateA(), Lid(), Executor::SupportStrategy::kNaive)),
            1);
}

TEST_F(Figure3Test, DecoratedRepeatAccessTemplate) {
  // Add a repeat access: Dave accesses Alice again later.
  Table* log = db_.GetTable("Log").value();
  EBA_ASSERT_OK(
      log->AppendRow({Value::Int64(3),
                      Value::Timestamp(
                          Date::FromCivil(2010, 3, 1, 9, 0, 0).ToSeconds()),
                      Value::Int64(kDave), Value::Int64(kAlice),
                      Value::String("viewed record")}));
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db_, "Log L, Log L2",
      "L.Patient = L2.Patient AND L2.User = L.User AND L.Date > L2.Date"));
  // Only lid 3 has an earlier access by the same user to the same patient.
  auto values = UnwrapOrDie(executor_.DistinctValues(
      q, Lid(), Executor::SupportStrategy::kDedupFrontier));
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], Value::Int64(3));
}

TEST_F(Figure3Test, ConstConditionFilters) {
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db_, "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User AND L.Lid = 2"));
  EXPECT_EQ(UnwrapOrDie(executor_.CountDistinct(
                q, Lid(), Executor::SupportStrategy::kNaive)),
            0);  // L2 is not explained by template (A)
}

TEST_F(Figure3Test, DisconnectedQueryRejected) {
  PathQuery q;
  q.vars = {TupleVar{"Log", "L"}, TupleVar{"Appointments", "A"},
            TupleVar{"Doctor_Info", "I"}};
  // Only condition: A joins I; L is never connected.
  q.join_chain.push_back(
      VarCondition{UnwrapOrDie(q.Resolve(db_, "A", "Doctor")), CmpOp::kEq,
                   UnwrapOrDie(q.Resolve(db_, "I", "Doctor"))});
  EXPECT_FALSE(executor_.Materialize(q).ok());
}

TEST_F(Figure3Test, NullJoinKeysNeverMatch) {
  Table* appt = db_.GetTable("Appointments").value();
  EBA_ASSERT_OK(appt->AppendRow(
      {Value::Null(), Value::Timestamp(0), Value::Int64(kDave)}));
  // The NULL-patient appointment must not join with anything.
  EXPECT_EQ(UnwrapOrDie(executor_.CountDistinct(
                TemplateA(), Lid(), Executor::SupportStrategy::kNaive)),
            1);
}

TEST_F(Figure3Test, StatsTrackIntermediateSizes) {
  (void)UnwrapOrDie(executor_.CountDistinct(
      TemplateB(), Lid(), Executor::SupportStrategy::kNaive));
  EXPECT_EQ(executor_.last_stats().joins_executed, 3u);
  EXPECT_GT(executor_.last_stats().peak_intermediate, 0u);
}

// --------------------------- Estimator ---------------------------

TEST_F(Figure3Test, EstimatorBoundedByLogSize) {
  double est = UnwrapOrDie(
      CardinalityEstimator(&db_).EstimateDistinctLogIds(TemplateA(), Lid()));
  EXPECT_GE(est, 0.0);
  EXPECT_LE(est, 2.0);  // |Log| = 2
}

TEST_F(Figure3Test, EstimatorMonotoneInConditions) {
  CardinalityEstimator est(&db_);
  PathQuery partial = UnwrapOrDie(
      ParsePathQuery(db_, "Log L, Appointments A", "L.Patient = A.Patient"));
  double rows_partial = UnwrapOrDie(est.EstimateRows(partial));
  double rows_full = UnwrapOrDie(est.EstimateRows(TemplateA()));
  EXPECT_LE(rows_full, rows_partial + 1e-9);
}

// --------------------------- SQL rendering ---------------------------

TEST_F(Figure3Test, SqlRenderingBasic) {
  std::string sql = UnwrapOrDie(ToSql(db_, TemplateA()));
  EXPECT_NE(sql.find("FROM Log L, Appointments A"), std::string::npos);
  EXPECT_NE(sql.find("L.Patient = A.Patient"), std::string::npos);
  EXPECT_NE(sql.find("A.Doctor = L.User"), std::string::npos);
}

TEST_F(Figure3Test, SqlRenderingCountDistinct) {
  SqlRenderOptions opts;
  opts.count_distinct_lid = true;
  opts.lid_attr = Lid();
  std::string sql = UnwrapOrDie(ToSql(db_, TemplateA(), opts));
  EXPECT_NE(sql.find("SELECT COUNT(DISTINCT L.Lid)"), std::string::npos);
}

TEST_F(Figure3Test, SqlRenderingDedupSubqueries) {
  SqlRenderOptions opts;
  opts.count_distinct_lid = true;
  opts.lid_attr = Lid();
  opts.dedup_subqueries = true;
  std::string sql = UnwrapOrDie(ToSql(db_, TemplateA(), opts));
  // The §3.2.1 rewrite: (SELECT DISTINCT Doctor, Patient FROM Appointments).
  EXPECT_NE(sql.find("SELECT DISTINCT"), std::string::npos);
  EXPECT_NE(sql.find("FROM Appointments)"), std::string::npos);
}

TEST_F(Figure3Test, SqlRenderingLiterals) {
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db_, "Log L, Doctor_Info I",
      "L.User = I.Doctor AND I.Department = 'Pediatrics'"));
  std::string sql = UnwrapOrDie(ToSql(db_, q));
  EXPECT_NE(sql.find("I.Department = 'Pediatrics'"), std::string::npos);
}

}  // namespace
}  // namespace eba
