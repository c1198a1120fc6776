// Property-based (parameterized) tests of the library's core invariants:
//   - support monotonicity: extending a path never increases support
//     (the pruning property Algorithm 1 relies on),
//   - executor strategy agreement on randomized databases, and binding
//     joins that write only the rows their checks keep,
//   - canonical-key reversal invariance on random paths,
//   - date round-trips across a wide sweep,
//   - estimator sanity (never negative, bounded by log size).

#include <gtest/gtest.h>

#include <set>

#include "common/date.h"
#include "common/random.h"
#include "core/miner.h"
#include "log/access_log.h"
#include "graph/schema_graph.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::UnwrapOrDie;

/// Builds a randomized mini-hospital: Log + Events(Patient, Worker) with
/// `n_log` accesses, `n_events` events over `n_users` users and
/// `n_patients` patients, driven by `seed`.
Database RandomDatabase(uint64_t seed, size_t n_log, size_t n_events,
                        int64_t n_users, int64_t n_patients) {
  Random rng(seed);
  Database db;
  EBA_CHECK(db
                .CreateTable(TableSchema(
                    "Events",
                    {ColumnDef{"Patient", DataType::kInt64, "patient", false},
                     ColumnDef{"Worker", DataType::kInt64, "user", false},
                     ColumnDef{"Backup", DataType::kInt64, "user", false}}))
                .ok());
  EBA_CHECK(db.CreateTable(AccessLog::StandardSchema("Log")).ok());
  Table* events = db.GetTable("Events").value();
  Table* log = db.GetTable("Log").value();
  for (size_t i = 0; i < n_events; ++i) {
    EBA_CHECK(events
                  ->AppendRow({Value::Int64(rng.UniformRange(1, n_patients)),
                               Value::Int64(rng.UniformRange(1, n_users)),
                               Value::Int64(rng.UniformRange(1, n_users))})
                  .ok());
  }
  for (size_t i = 0; i < n_log; ++i) {
    EBA_CHECK(log
                  ->AppendRow({Value::Int64(static_cast<int64_t>(i) + 1),
                               Value::Timestamp(static_cast<int64_t>(i) * 60),
                               Value::Int64(rng.UniformRange(1, n_users)),
                               Value::Int64(rng.UniformRange(1, n_patients)),
                               Value::String("viewed")})
                  .ok());
  }
  return db;
}

class RandomDbTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDbTest,
                         ::testing::Values(1u, 7u, 13u, 101u, 9999u));

TEST_P(RandomDbTest, SupportMonotonicity) {
  Database db = RandomDatabase(GetParam(), 300, 150, 20, 40);
  Executor executor(&db);
  QAttr lid{0, 0};

  PathQuery partial = UnwrapOrDie(
      ParsePathQuery(db, "Log L, Events E", "L.Patient = E.Patient"));
  PathQuery full = UnwrapOrDie(
      ParsePathQuery(db, "Log L, Events E",
                     "L.Patient = E.Patient AND E.Worker = L.User"));
  int64_t s_partial = UnwrapOrDie(executor.CountDistinct(
      partial, lid, Executor::SupportStrategy::kDedupFrontier));
  int64_t s_full = UnwrapOrDie(executor.CountDistinct(
      full, lid, Executor::SupportStrategy::kDedupFrontier));
  EXPECT_LE(s_full, s_partial);
  EXPECT_LE(s_partial, 300);
}

TEST_P(RandomDbTest, StrategiesAgreeOnRandomQueries) {
  Database db = RandomDatabase(GetParam(), 200, 120, 15, 30);
  Executor executor(&db);
  QAttr lid{0, 0};
  const char* wheres[] = {
      "L.Patient = E.Patient",
      "L.Patient = E.Patient AND E.Worker = L.User",
      "L.Patient = E.Patient AND E.Backup = L.User",
  };
  for (const char* where : wheres) {
    PathQuery q = UnwrapOrDie(ParsePathQuery(db, "Log L, Events E", where));
    int64_t naive = UnwrapOrDie(executor.CountDistinct(
        q, lid, Executor::SupportStrategy::kNaive));
    int64_t dedup = UnwrapOrDie(executor.CountDistinct(
        q, lid, Executor::SupportStrategy::kDedupFrontier));
    EXPECT_EQ(naive, dedup) << where;
  }
}

TEST_P(RandomDbTest, DecorationOnlyShrinksResults) {
  Database db = RandomDatabase(GetParam(), 200, 120, 15, 30);
  Executor executor(&db);
  QAttr lid{0, 0};
  PathQuery simple = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Events E",
      "L.Patient = E.Patient AND E.Worker = L.User"));
  PathQuery decorated = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Events E",
      "L.Patient = E.Patient AND E.Worker = L.User AND L.Lid <= 100"));
  int64_t s_simple = UnwrapOrDie(executor.CountDistinct(
      simple, lid, Executor::SupportStrategy::kNaive));
  int64_t s_decorated = UnwrapOrDie(executor.CountDistinct(
      decorated, lid, Executor::SupportStrategy::kNaive));
  EXPECT_LE(s_decorated, s_simple);
}

TEST_P(RandomDbTest, BindingJoinWritesOnlySurvivingRows) {
  // Each join checks every condition its binding completes before it writes
  // a row, so it emits exactly the result: one row per explained lid in the
  // semi-join (lids are unique here), one per result row otherwise.
  Database db = RandomDatabase(GetParam(), 300, 150, 20, 40);
  Executor executor(&db);
  const QAttr lid{0, 0};
  const struct {
    const char* from;
    const char* where;
  } queries[] = {
      {"Log L, Events E", "L.Patient = E.Patient AND E.Worker = L.User"},
      {"Log L, Log L2",
       "L.Patient = L2.Patient AND L2.User = L.User AND L.Date > L2.Date"},
  };
  for (const auto& text : queries) {
    const PathQuery q = UnwrapOrDie(ParsePathQuery(db, text.from, text.where));
    const std::vector<int64_t> lids = UnwrapOrDie(executor.DistinctLids(q, lid));
    EXPECT_FALSE(lids.empty()) << text.where;
    EXPECT_EQ(executor.last_stats().rows_emitted, lids.size()) << text.where;
    const Relation rel = UnwrapOrDie(executor.Materialize(q));
    EXPECT_EQ(executor.last_stats().rows_emitted, rel.rows.size())
        << text.where;
  }
}

TEST_P(RandomDbTest, EstimatorBoundedAndNonNegative) {
  Database db = RandomDatabase(GetParam(), 250, 100, 12, 25);
  CardinalityEstimator estimator(&db);
  QAttr lid{0, 0};
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Events E",
      "L.Patient = E.Patient AND E.Worker = L.User"));
  double est = UnwrapOrDie(estimator.EstimateDistinctLogIds(q, lid));
  EXPECT_GE(est, 0.0);
  EXPECT_LE(est, 250.0);
}

TEST_P(RandomDbTest, MinerAlgorithmsAgreeOnRandomData) {
  Database db = RandomDatabase(GetParam(), 150, 80, 10, 20);
  MinerOptions options;
  options.log_table = "Log";
  options.support_fraction = 0.05;
  options.max_length = 3;
  options.max_tables = 3;
  options.skip_nonselective = false;
  TemplateMiner miner(&db, options);

  auto keys = [&](const MiningResult& r) {
    std::set<std::string> out;
    for (const auto& m : r.templates) {
      out.insert(UnwrapOrDie(m.tmpl.CanonicalKey(db)));
    }
    return out;
  };
  auto one = keys(UnwrapOrDie(miner.MineOneWay()));
  auto two = keys(UnwrapOrDie(miner.MineTwoWay()));
  auto bridge = keys(UnwrapOrDie(miner.MineBridged(2)));
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, bridge);
}

// --------------------------- Path properties ---------------------------

class PathPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PathPropertyTest,
                         ::testing::Values(3u, 17u, 23u, 555u));

TEST_P(PathPropertyTest, CanonicalKeyReversalInvariance) {
  Random rng(GetParam());
  // Random edges over synthetic attribute names.
  auto random_attr = [&]() {
    return AttrId{"T" + std::to_string(rng.Uniform(4)),
                  "c" + std::to_string(rng.Uniform(3))};
  };
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<JoinEdge> edges;
    size_t len = 1 + rng.Uniform(4);
    for (size_t i = 0; i < len; ++i) {
      edges.push_back(JoinEdge{random_attr(), random_attr()});
    }
    MiningPath fwd(edges);
    std::vector<JoinEdge> reversed;
    for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
      reversed.push_back(JoinEdge{it->to, it->from});
    }
    MiningPath bwd(reversed);
    EXPECT_EQ(fwd.CanonicalKey(), bwd.CanonicalKey());
  }
}

// --------------------------- Date sweep ---------------------------

class DateSweepTest : public ::testing::TestWithParam<int64_t> {};

INSTANTIATE_TEST_SUITE_P(Seconds, DateSweepTest,
                         ::testing::Values(0L, 86399L, 86400L, 1262304000L,
                                           1262563017L, 2147483647L,
                                           -86400L, 4102444800L));

TEST_P(DateSweepTest, SecondsRoundTrip) {
  int64_t seconds = GetParam();
  Date d = Date::FromSeconds(seconds);
  EXPECT_EQ(d.ToSeconds(), seconds);
  // Day arithmetic consistency.
  EXPECT_EQ(d.AddDays(1).ToSeconds(), seconds + 86400);
  EXPECT_EQ(d.AddDays(-1).ToSeconds(), seconds - 86400);
}

class DateRandomSweep : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, DateRandomSweep,
                         ::testing::Values(11u, 22u, 33u));

TEST_P(DateRandomSweep, RandomRoundTrips) {
  Random rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    // Years ~1900..2100.
    int64_t seconds = rng.UniformRange(-2208988800LL, 4102444800LL);
    Date d = Date::FromSeconds(seconds);
    EXPECT_EQ(d.ToSeconds(), seconds);
    EXPECT_GE(d.month(), 1);
    EXPECT_LE(d.month(), 12);
    EXPECT_GE(d.day(), 1);
    EXPECT_LE(d.day(), 31);
  }
}

// --------------------------- Value hashing sweep ---------------------------

class ValueHashSweep : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ValueHashSweep, ::testing::Values(5u, 50u));

TEST_P(ValueHashSweep, EqualValuesHashEqual) {
  Random rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    int64_t x = static_cast<int64_t>(rng.Next());
    EXPECT_EQ(Value::Int64(x).Hash(), Value::Int64(x).Hash());
    EXPECT_EQ(Value::Timestamp(x).Hash(), Value::Timestamp(x).Hash());
    std::string s = std::to_string(x);
    EXPECT_EQ(Value::String(s).Hash(), Value::String(s).Hash());
  }
}

}  // namespace
}  // namespace eba
