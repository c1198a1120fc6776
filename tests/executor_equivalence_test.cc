// Equivalence tests for the late-materialization executor: the boxed
// reference engine (BoxedExecutor, tests/oracle/boxed_executor.h) is the
// oracle, and the row-id frame engine — uncached and replaying cached plans
// — must return the same results across randomized path queries over the
// Figure 3 toy database and a generated CareWeb database (rows compare as
// sorted multisets: cost-based join ordering permutes them), plus targeted
// unit tests for the distinct-lid semi-join fast path and for the checks
// a binding step fuses (NULLs, cross-type and cross-dictionary pairs,
// doubles, literals, seed-only conditions) and for checks that read
// column views across a 64k-row chunk seam. The engine's range audit is
// checked against BoxedExplainAll in explain_all_oracle_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "careweb/generator.h"
#include "common/date.h"
#include "common/random.h"
#include "graph/schema_graph.h"
#include "log/access_log.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/plan_cache.h"
#include "storage/chunk.h"
#include "tests/oracle/boxed_executor.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::BuildPaperToyDatabase;
using testing_util::CutRunLids;
using testing_util::UnwrapOrDie;

/// Rows of a relation as a sorted multiset (join order permutes row order,
/// so equivalence is on content).
std::vector<Row> SortedRows(Relation rel) {
  std::sort(rel.rows.begin(), rel.rows.end());
  return std::move(rel.rows);
}

/// MaterializeForLogIds of the two engines: the same header and the same
/// rows, and in both the rows of one lid's log rows come out together, in
/// `lids` order — so the lid column reads the same sequence — while join
/// order may permute the rows within them.
void ExpectSameLidRows(Relation ref, Relation late, QAttr lid) {
  ASSERT_EQ(ref.attrs, late.attrs);
  const int col = ref.AttrIndex(lid);
  ASSERT_GE(col, 0);
  auto lid_sequence = [col](const Relation& rel) {
    std::vector<Value> seq;
    for (const Row& row : rel.rows) {
      seq.push_back(row[static_cast<size_t>(col)]);
    }
    return seq;
  };
  EXPECT_EQ(lid_sequence(ref), lid_sequence(late));
  EXPECT_EQ(SortedRows(std::move(ref)), SortedRows(std::move(late)));
}

std::string DescribeQuery(const Database& db, const PathQuery& q) {
  std::string out = "FROM ";
  for (const auto& v : q.vars) out += v.table + " " + v.alias + ", ";
  out += "| " + std::to_string(q.join_chain.size()) + " chain, " +
         std::to_string(q.extra_conditions.size()) + " extra, " +
         std::to_string(q.const_conditions.size()) + " const";
  (void)db;
  return out;
}

/// Generates a random executable path query: a restricted simple path grown
/// forward from Log.Patient (so variable 0 is always connected), decorated
/// with random literal/attribute conditions and a random projection.
struct QueryGenerator {
  const Database* db;
  SchemaGraph graph;
  PathRules rules;
  Random rng;

  QueryGenerator(const Database* database, uint64_t seed)
      : db(database), rng(seed) {
    graph = UnwrapOrDie(SchemaGraph::Build(*db));
    rules.start = AttrId{"Log", "Patient"};
    rules.end = AttrId{"Log", "User"};
    rules.max_length = 5;
    rules.max_tables = 3;
  }

  StatusOr<PathQuery> Next() {
    const int target_len = 1 + static_cast<int>(rng.Uniform(3));
    MiningPath path;
    for (int step = 0; step < target_len; ++step) {
      std::vector<MiningPath> extensions;
      for (const auto& edge : graph.edges()) {
        MiningPath candidate =
            path.empty() ? MiningPath({edge}) : path.Extend(edge);
        if (candidate.FirstAttr() != rules.start) continue;
        if (IsRestrictedSimplePath(*db, rules, candidate,
                                   /*anchored_forward=*/true)) {
          extensions.push_back(std::move(candidate));
        }
      }
      if (extensions.empty()) break;
      path = rng.Choice(extensions);
    }
    if (path.empty()) return Status::Internal("no extensions from start");
    EBA_ASSIGN_OR_RETURN(PathQuery q, PathToQuery(*db, rules, path));
    Decorate(&q);
    return q;
  }

  void Decorate(PathQuery* q) {
    // Literal decoration: an actual cell value of a random referenced
    // column, so the condition is satisfiable but selective.
    if (rng.Bernoulli(0.5)) {
      const int var = static_cast<int>(rng.Uniform(q->vars.size()));
      const Table* table =
          UnwrapOrDie(db->GetTable(q->vars[static_cast<size_t>(var)].table));
      if (table->num_rows() > 0) {
        const int col = static_cast<int>(rng.Uniform(table->num_columns()));
        const size_t row = static_cast<size_t>(rng.Uniform(table->num_rows()));
        Value literal = table->Get(row, static_cast<size_t>(col));
        const CmpOp op = rng.Bernoulli(0.7) ? CmpOp::kEq
                         : rng.Bernoulli(0.5) ? CmpOp::kLe
                                              : CmpOp::kGe;
        q->const_conditions.push_back(
            ConstCondition{QAttr{var, col}, op, std::move(literal)});
      }
    }
    // Attribute-attribute decoration between two same-type columns.
    if (rng.Bernoulli(0.3)) {
      std::vector<std::pair<QAttr, DataType>> attrs;
      for (size_t v = 0; v < q->vars.size(); ++v) {
        const Table* table = UnwrapOrDie(db->GetTable(q->vars[v].table));
        for (size_t c = 0; c < table->num_columns(); ++c) {
          attrs.push_back({QAttr{static_cast<int>(v), static_cast<int>(c)},
                           table->column(c).type()});
        }
      }
      for (int attempt = 0; attempt < 8; ++attempt) {
        const auto& a = attrs[rng.Uniform(attrs.size())];
        const auto& b = attrs[rng.Uniform(attrs.size())];
        if (a.first == b.first || a.second != b.second) continue;
        const CmpOp op = rng.Bernoulli(0.5) ? CmpOp::kEq : CmpOp::kLt;
        q->extra_conditions.push_back(VarCondition{a.first, op, b.first});
        break;
      }
    }
    // Random projection over referenced attributes (empty = all referenced).
    if (rng.Bernoulli(0.5)) {
      std::vector<QAttr> referenced = q->ReferencedAttrs();
      rng.Shuffle(&referenced);
      const size_t keep = 1 + rng.Uniform(referenced.size());
      referenced.resize(keep);
      q->projection = std::move(referenced);
    }
  }
};

/// Runs one query through the oracle, the frame executor, and a
/// plan-cached frame executor (executed twice: the first run records the
/// compiled plan, the second replays it) and asserts identical result sets,
/// distinct values, and counts.
void ExpectEquivalent(const Database& db, const PathQuery& q, QAttr lid_attr) {
  const BoxedExecutor reference(&db);
  Executor late_cost(&db);
  PlanCache cache;
  ExecutorOptions cached_options;
  cached_options.plan_cache = &cache;
  Executor late_cached(&db, cached_options);
  const std::string desc = DescribeQuery(db, q);

  auto ref_rel = reference.Materialize(q);
  auto cost_rel = late_cost.Materialize(q);
  auto cached_rel = late_cached.Materialize(q);
  auto replay_rel = late_cached.Materialize(q);
  ASSERT_EQ(ref_rel.ok(), cost_rel.ok()) << desc;
  ASSERT_EQ(ref_rel.ok(), cached_rel.ok()) << desc;
  ASSERT_EQ(ref_rel.ok(), replay_rel.ok()) << desc;
  if (ref_rel.ok()) {
    ASSERT_EQ(ref_rel->attrs, cost_rel->attrs) << desc;
    // The cached executor runs the same cost-based plan: its recording run
    // matches the uncached cost-based executor row for row, and the replay
    // matches the recording byte for byte.
    EXPECT_EQ(cached_rel->rows, cost_rel->rows) << desc;
    EXPECT_EQ(replay_rel->rows, cached_rel->rows) << desc;
    EXPECT_TRUE(late_cached.last_stats().plan_cache_hit) << desc;
    EXPECT_EQ(SortedRows(std::move(*ref_rel)), SortedRows(std::move(*cost_rel)))
        << desc;
  }

  for (auto strategy : {Executor::SupportStrategy::kNaive,
                        Executor::SupportStrategy::kDedupFrontier}) {
    auto ref_vals = reference.DistinctValues(q, lid_attr, strategy);
    auto cost_vals = late_cost.DistinctValues(q, lid_attr, strategy);
    ASSERT_EQ(ref_vals.ok(), cost_vals.ok()) << desc;
    if (ref_vals.ok()) {
      EXPECT_EQ(*ref_vals, *cost_vals) << desc;
    }
  }

  auto ref_lids = reference.DistinctLids(q, lid_attr);
  auto cost_lids = late_cost.DistinctLids(q, lid_attr);
  auto cached_lids = late_cached.DistinctLids(q, lid_attr);
  auto replay_lids = late_cached.DistinctLids(q, lid_attr);
  ASSERT_EQ(ref_lids.ok(), cost_lids.ok()) << desc;
  ASSERT_EQ(ref_lids.ok(), cached_lids.ok()) << desc;
  if (ref_lids.ok()) {
    EXPECT_EQ(*ref_lids, *cost_lids) << desc;
    EXPECT_EQ(*ref_lids, *cached_lids) << desc;
    EXPECT_EQ(*ref_lids, *replay_lids) << desc;
  }
}

/// Property sweep over one database; `queries` counts executed (non-skipped)
/// queries. Oversized plans (estimator predicts a huge boxed intermediate)
/// are skipped so the oracle stays fast.
void RunPropertySweep(const Database& db, uint64_t seed, int queries) {
  QueryGenerator gen(&db, seed);
  CardinalityEstimator estimator(&db);
  const Table* log = UnwrapOrDie(db.GetTable("Log"));
  const int lid_col = log->schema().ColumnIndex("Lid");
  ASSERT_GE(lid_col, 0);
  const QAttr lid_attr{0, lid_col};

  int executed = 0;
  int attempts = 0;
  while (executed < queries && attempts < queries * 20) {
    ++attempts;
    auto q = gen.Next();
    if (!q.ok()) continue;
    auto est = estimator.EstimateRows(*q);
    if (!est.ok() || *est > 5e4) continue;
    ExpectEquivalent(db, *q, lid_attr);
    if (::testing::Test::HasFatalFailure()) return;
    ++executed;
  }
  EXPECT_EQ(executed, queries) << "generator starved after " << attempts
                               << " attempts";
}

TEST(ExecutorEquivalenceTest, RandomQueriesOnPaperToyDatabase) {
  Database db = BuildPaperToyDatabase();
  RunPropertySweep(db, /*seed=*/0x5eed0001, /*queries=*/60);
}

TEST(ExecutorEquivalenceTest, RandomQueriesOnCareWebDatabase) {
  CareWebData data = UnwrapOrDie(GenerateCareWeb(CareWebConfig::Tiny()));
  RunPropertySweep(data.db, /*seed=*/0x5eed0002, /*queries=*/60);
}

// --------------------- Semi-join fast path unit tests ---------------------

class SemiJoinTest : public ::testing::Test {
 protected:
  SemiJoinTest() : db_(BuildPaperToyDatabase()) {}

  /// Template (B): Appointments, Doctor_Info x2 — every non-log variable is
  /// dangling (never projected) when only distinct lids are requested.
  PathQuery TemplateB() {
    return UnwrapOrDie(ParsePathQuery(
        db_, "Log L, Appointments A, Doctor_Info I1, Doctor_Info I2",
        "L.Patient = A.Patient AND A.Doctor = I1.Doctor AND "
        "I1.Department = I2.Department AND I2.Doctor = L.User"));
  }
  QAttr Lid() { return QAttr{0, 0}; }

  Database db_;
};

TEST_F(SemiJoinTest, DistinctLidsTakesSemiJoinPath) {
  Executor late(&db_);
  auto lids = UnwrapOrDie(late.DistinctLids(TemplateB(), Lid()));
  EXPECT_EQ(lids, (std::vector<int64_t>{1, 2}));
  EXPECT_TRUE(late.last_stats().used_semi_join);
  EXPECT_EQ(late.last_stats().joins_executed, 3u);
}

TEST_F(SemiJoinTest, DanglingVariableDedupBoundsIntermediate) {
  // Multiply the dangling Appointments variable: 6 duplicate appointments
  // explode the naive intermediate but the semi-join frontier stays at the
  // distinct (lid) domain after the dangling variable is dropped.
  Table* appt = db_.GetTable("Appointments").value();
  for (int i = 0; i < 6; ++i) {
    EBA_ASSERT_OK(appt->AppendRow(
        {Value::Int64(testing_util::kAlice),
         Value::Timestamp(Date::FromCivil(2011, 1, 1 + i).ToSeconds()),
         Value::Int64(testing_util::kDave)}));
  }
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db_, "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User"));

  Executor late(&db_);
  EXPECT_EQ(UnwrapOrDie(late.CountDistinct(
                q, Lid(), Executor::SupportStrategy::kNaive)),
            1);
  const size_t naive_peak = late.last_stats().peak_intermediate;

  EXPECT_EQ(UnwrapOrDie(late.CountDistinct(
                q, Lid(), Executor::SupportStrategy::kDedupFrontier)),
            1);
  EXPECT_TRUE(late.last_stats().used_semi_join);
  EXPECT_LE(late.last_stats().peak_intermediate, naive_peak);

  // The boxed oracle agrees.
  const BoxedExecutor reference(&db_);
  EXPECT_EQ(UnwrapOrDie(reference.CountDistinct(
                q, Lid(), Executor::SupportStrategy::kDedupFrontier)),
            1);
}

TEST_F(SemiJoinTest, CostBasedOrderRecordedInStats) {
  Executor late_cost(&db_);
  (void)UnwrapOrDie(late_cost.DistinctLids(TemplateB(), Lid()));
  const ExecStats& stats = late_cost.last_stats();
  ASSERT_EQ(stats.join_order.size(), 4u);  // 3 binding joins + 1 filter
  for (const auto& step : stats.join_order) {
    EXPECT_GE(step.condition_index, 0);
    EXPECT_LT(step.condition_index, 4);
    if (!step.is_filter) {
      EXPECT_GE(step.estimated_rows, 0.0);  // the estimator was consulted
    }
  }
}

TEST_F(SemiJoinTest, MaterializeForLogIdsMatchesReference) {
  PathQuery q = TemplateB();
  const std::vector<Value> lids = {Value::Int64(2), Value::Int64(1)};
  const BoxedExecutor reference(&db_);
  Executor late(&db_);
  ExpectSameLidRows(UnwrapOrDie(reference.MaterializeForLogIds(q, Lid(), lids)),
                    UnwrapOrDie(late.MaterializeForLogIds(q, Lid(), lids)),
                    Lid());
}

// ------------------------ Fused checks (edge cases) ------------------------

/// A hospital whose binding steps each complete several conditions at once:
/// NULLs on both sides of fused equalities, two string columns with their
/// own dictionaries, NULL doubles, and log rows whose User equals their
/// Patient (for a self-equality on variable 0).
Database BuildFusedCheckDatabase() {
  Database db;
  auto must = [](const Status& s) { EBA_CHECK_MSG(s.ok(), s.ToString()); };
  must(db.CreateTable(AccessLog::StandardSchema("Log")));
  must(db.CreateTable(TableSchema(
      "Events", {ColumnDef{"Patient", DataType::kInt64, "patient", false},
                 ColumnDef{"Worker", DataType::kInt64, "user", false},
                 ColumnDef{"Kind", DataType::kString, "", false},
                 ColumnDef{"Ward", DataType::kString, "ward", false},
                 ColumnDef{"Score", DataType::kDouble, "", false},
                 ColumnDef{"At", DataType::kTimestamp, "", false}})));
  must(db.CreateTable(TableSchema(
      "Staff", {ColumnDef{"Worker", DataType::kInt64, "user", false},
                ColumnDef{"Ward", DataType::kString, "ward", false},
                ColumnDef{"Score", DataType::kDouble, "", false}})));
  auto day = [](int d) {
    return Value::Timestamp(Date::FromCivil(2011, 1, d, 9, 0, 0).ToSeconds());
  };
  auto i64 = [](int64_t v) { return Value::Int64(v); };
  const Value null = Value::Null();

  Table* log = db.GetTable("Log").value();
  const struct {
    int64_t lid;
    int day;
    Value user, patient;
    const char* action;
  } accesses[] = {
      {1, 1, i64(10), i64(1), "viewed"}, {2, 2, i64(11), i64(1), "viewed"},
      {3, 3, i64(10), i64(1), "edited"}, {4, 1, i64(12), i64(2), "viewed"},
      {5, 2, null, i64(2), "viewed"},    {6, 4, i64(12), i64(2), "viewed"},
      {7, 2, i64(13), i64(3), "viewed"}, {8, 5, i64(13), i64(3), "printed"},
      {9, 3, i64(11), null, "viewed"},   {10, 6, i64(3), i64(3), "viewed"},
      {11, 6, i64(2), i64(2), "viewed"}, {12, 7, i64(10), i64(1), "viewed"},
  };
  for (const auto& a : accesses) {
    must(log->AppendRow({i64(a.lid), day(a.day), a.user, a.patient,
                         Value::String(a.action)}));
  }

  Table* events = db.GetTable("Events").value();
  auto str = [](const char* s) {
    return s == nullptr ? Value::Null() : Value::String(s);
  };
  auto dbl = [](double d) {
    return d < 0 ? Value::Null() : Value::Double(d);  // -1 stands for NULL
  };
  const struct {
    Value patient, worker;
    const char* kind;
    const char* ward;
    double score;
    int day;
  } rows[] = {
      {i64(1), i64(10), "visit", "north", 1.5, 1},
      {i64(1), i64(11), "lab", "south", -1, 2},
      {i64(1), null, "visit", "north", 2.0, 2},
      {null, i64(10), "visit", "north", 0.5, 1},
      {i64(2), i64(12), "visit", "east", 3.0, 1},
      {i64(2), i64(12), "lab", "east", 1.0, 3},
      {i64(2), i64(2), "visit", "east", 2.5, 5},
      {i64(3), i64(13), "lab", "west", 4.0, 2},
      {i64(3), i64(3), "visit", nullptr, 1.0, 6},
      {i64(3), i64(12), "visit", "west", 5.0, 4},
  };
  for (const auto& e : rows) {
    must(events->AppendRow({e.patient, e.worker, str(e.kind), str(e.ward),
                            dbl(e.score), day(e.day)}));
  }

  // Staff.Ward mints its codes in another order than Events.Ward.
  Table* staff = db.GetTable("Staff").value();
  const struct {
    int64_t worker;
    const char* ward;
    double score;
  } members[] = {{10, "north", 2.0}, {11, "north", 0.1}, {12, "east", 2.0},
                 {12, "west", -1},   {13, "west", 3.5},  {2, "east", 9.0},
                 {3, nullptr, 1.0}};
  for (const auto& m : members) {
    must(staff->AppendRow({i64(m.worker), str(m.ward), dbl(m.score)}));
  }
  return db;
}

TEST(FusedCheckTest, EdgeCasesMatchReference) {
  const Database db = BuildFusedCheckDatabase();
  const QAttr lid{0, 0};
  const struct {
    const char* name;
    const char* from;
    const char* where;
    bool expect_rows;
  } cases[] = {
      // NULLs on both sides of the equality fused into the Events join.
      {"null_equality", "Log L, Events E",
       "L.Patient = E.Patient AND E.Worker = L.User", true},
      // Timestamp against int64: the boxed EvalCmp path.
      {"cross_type_decoration", "Log L, Events E",
       "L.Patient = E.Patient AND E.Worker = L.User AND E.At > L.User", true},
      // Ward equality across two dictionaries, fused with Worker = User.
      {"cross_dictionary_string", "Log L, Events E, Staff S",
       "L.Patient = E.Patient AND E.Worker = S.Worker AND S.Ward = E.Ward "
       "AND S.Worker = L.User",
       true},
      {"double_comparison", "Log L, Events E, Staff S",
       "L.Patient = E.Patient AND E.Worker = S.Worker AND S.Worker = L.User "
       "AND S.Score > E.Score",
       true},
      {"literal_on_joined_variable", "Log L, Events E",
       "L.Patient = E.Patient AND E.Worker = L.User AND E.Kind = 'visit' "
       "AND E.At >= '2011-01-01'",
       true},
      {"absent_literal_on_joined_variable", "Log L, Events E",
       "L.Patient = E.Patient AND E.Worker = L.User AND E.Kind = 'surgery'",
       false},
      // Both checks bind nothing but variable 0: the seed applies them.
      {"seed_literal_and_self_equality", "Log L, Events E",
       "L.Patient = E.Patient AND L.User = L.Patient AND "
       "L.Action = 'viewed' AND E.Worker = L.User",
       true},
      // Two chain equalities and a decoration completed by one join.
      {"repeat_access_shape", "Log L, Log L2",
       "L.Patient = L2.Patient AND L2.User = L.User AND L.Date > L2.Date",
       true},
  };
  const std::vector<Value> some_lids = {
      Value::Int64(12), Value::Int64(1), Value::Int64(5), Value::Int64(99),
      Value::Int64(7),  Value::Int64(3), Value::Int64(10), Value::Int64(11),
      Value::Int64(2),  Value::Int64(6)};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const PathQuery q = UnwrapOrDie(ParsePathQuery(db, c.from, c.where));
    ExpectEquivalent(db, q, lid);

    const BoxedExecutor reference(&db);
    Executor late_cost(&db);
    const Relation ref_rel = UnwrapOrDie(reference.Materialize(q));
    EXPECT_EQ(!ref_rel.rows.empty(), c.expect_rows);

    ExpectSameLidRows(
        UnwrapOrDie(reference.MaterializeForLogIds(q, lid, some_lids)),
        UnwrapOrDie(late_cost.MaterializeForLogIds(q, lid, some_lids)), lid);

    // Runs over the two sides of any cut of any pivot's rows check the
    // same candidates as one run over all of them.
    const std::vector<int64_t> ref_lids =
        UnwrapOrDie(reference.DistinctLids(q, lid));
    for (int v = 0; v < static_cast<int>(q.vars.size()); ++v) {
      const size_t n = UnwrapOrDie(db.GetTable(q.vars[v].table))->num_rows();
      for (size_t b = 0; b <= n; ++b) {
        EXPECT_EQ(CutRunLids(late_cost, db, q, lid, v, RowRange{0, n}, b),
                  ref_lids)
            << "var " << v << " cut " << b;
      }
    }
  }
}

// ---------------------- Column views at a chunk seam -----------------------

/// A log one 64k-row chunk and a bit long. Each patient's accesses lie
/// kPatients rows apart, so every probe row past the seam has candidates on
/// both sides of it. User's first NULL falls in the second chunk, so its
/// null flags were backfilled there; the third pass over the patients gets
/// other users, so the fused User equality rejects some candidates.
constexpr size_t kSeamRows = kColumnChunkRows + 4096;
constexpr size_t kPatients = 20000;
constexpr size_t kFirstNullUser = kColumnChunkRows + 464;

Database BuildChunkSeamDatabase() {
  Database db;
  auto must = [](const Status& s) { EBA_CHECK_MSG(s.ok(), s.ToString()); };
  must(db.CreateTable(AccessLog::StandardSchema("Log")));
  Table* log = db.GetTable("Log").value();
  const int64_t start = Date::FromCivil(2011, 1, 1, 0, 0, 0).ToSeconds();
  for (size_t r = 0; r < kSeamRows; ++r) {
    const int64_t patient = static_cast<int64_t>(r % kPatients);
    const int64_t pass = static_cast<int64_t>(r / kPatients);
    const bool null_user =
        r == kFirstNullUser || (r > kFirstNullUser && r % 97 == 0);
    must(log->AppendRow(
        {Value::Int64(static_cast<int64_t>(r) + 1),
         Value::Timestamp(start + static_cast<int64_t>(r)),
         null_user ? Value::Null()
                   : Value::Int64((patient + (pass == 2 ? 1 : 0)) % 3),
         Value::Int64(patient), Value::String("viewed")}));
  }
  return db;
}

TEST(ColumnViewTest, ChecksAcrossChunkSeamMatchReference) {
  const Database db = BuildChunkSeamDatabase();
  const Table* log = db.GetTable("Log").value();
  ASSERT_GT(log->column(2).size(), kColumnChunkRows);
  ASSERT_FALSE(log->column(2).IsNull(kFirstNullUser - 1));
  ASSERT_TRUE(log->column(2).IsNull(kFirstNullUser));

  const QAttr lid{0, 0};
  const char* const wheres[] = {
      "L.Patient = L2.Patient AND L2.User = L.User AND L.Date > L2.Date",
      // A literal check on the candidate next to the attribute checks.
      "L.Patient = L2.Patient AND L2.User = L.User AND L2.User = 1",
  };
  // Lids of rows on both sides of the seam, of NULL-user rows, and of rows
  // whose candidates the User check rejects.
  std::vector<Value> lids;
  for (size_t r : {size_t{0}, size_t{45000}, kColumnChunkRows - 1,
                   kColumnChunkRows, kColumnChunkRows + 1, kFirstNullUser,
                   kFirstNullUser + 1, kSeamRows - 1}) {
    lids.push_back(Value::Int64(static_cast<int64_t>(r) + 1));
  }
  for (const char* where : wheres) {
    SCOPED_TRACE(where);
    const PathQuery q = UnwrapOrDie(ParsePathQuery(db, "Log L, Log L2", where));
    const BoxedExecutor reference(&db);
    const std::vector<int64_t> ref_lids =
        UnwrapOrDie(reference.DistinctLids(q, lid));
    ASSERT_FALSE(ref_lids.empty());
    EXPECT_GT(ref_lids.back(), static_cast<int64_t>(kColumnChunkRows));

    Executor late(&db);
    EXPECT_EQ(UnwrapOrDie(late.DistinctLids(q, lid)), ref_lids);
    // Runs cut at the seam, from either occurrence of the log.
    for (int pivot : {0, 1}) {
      EXPECT_EQ(CutRunLids(late, db, q, lid, pivot, RowRange{0, kSeamRows},
                           kColumnChunkRows),
                ref_lids)
          << "pivot " << pivot;
    }

    Relation ref_rel =
        UnwrapOrDie(reference.MaterializeForLogIds(q, lid, lids));
    ASSERT_FALSE(ref_rel.rows.empty());
    ExpectSameLidRows(std::move(ref_rel),
                      UnwrapOrDie(late.MaterializeForLogIds(q, lid, lids)),
                      lid);
  }
}

}  // namespace
}  // namespace eba
