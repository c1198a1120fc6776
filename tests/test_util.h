// Shared test fixtures: the paper's Figure 3 toy database and helpers.

#ifndef EBA_TESTS_TEST_UTIL_H_
#define EBA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/date.h"
#include "common/logging.h"
#include "log/access_log.h"
#include "query/executor.h"
#include "storage/database.h"

namespace eba {
namespace testing_util {

/// Asserts a Status is OK with a useful failure message.
#define EBA_ASSERT_OK(expr)                                 \
  do {                                                      \
    const ::eba::Status _s = (expr);                        \
    ASSERT_TRUE(_s.ok()) << _s.ToString();                  \
  } while (0)

#define EBA_EXPECT_OK(expr)                                 \
  do {                                                      \
    const ::eba::Status _s = (expr);                        \
    EXPECT_TRUE(_s.ok()) << _s.ToString();                  \
  } while (0)

/// Unwraps a StatusOr, or records a *fatal* gtest assertion and stops the
/// test binary. A value-returning helper cannot use ASSERT_* directly (those
/// require a void context), and throwing — the previous behaviour — sends an
/// exception through unrelated stack frames where code under test may catch
/// and swallow it. Instead the fatal failure is recorded from a void lambda
/// (so gtest prints the full message and marks the test failed) and the
/// process exits: an unwrap failure means the fixture itself is broken, so
/// nothing after it can produce meaningful results.
template <typename T>
T UnwrapOrDie(StatusOr<T> s, const char* what = "StatusOr") {
  if (!s.ok()) {
    [&] { FAIL() << what << ": " << s.status().ToString(); }();
    std::exit(EXIT_FAILURE);
  }
  return std::move(s).value();
}

/// Fatal unwrap-and-assign for statement contexts:
///   EBA_ASSERT_OK_AND_ASSIGN(AccessLog log, AccessLog::Wrap(&table));
/// Unlike UnwrapOrDie this aborts only the current test (standard ASSERT
/// semantics), so prefer it in new code; it requires a void context.
#define EBA_ASSERT_OK_AND_ASSIGN(lhs, rexpr)                          \
  EBA_ASSERT_OK_AND_ASSIGN_IMPL(                                      \
      EBA_MACRO_CONCAT(_eba_test_statusor_, __LINE__), lhs, rexpr)

#define EBA_ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, rexpr)               \
  auto tmp = (rexpr);                                                 \
  ASSERT_TRUE(tmp.ok()) << #rexpr << ": " << tmp.status().ToString(); \
  lhs = std::move(tmp).value()

// Ids used in the Figure 3 toy database.
inline constexpr int64_t kAlice = 1;
inline constexpr int64_t kBob = 2;
inline constexpr int64_t kDave = 10;
inline constexpr int64_t kMike = 11;

/// Builds the example database of Figure 3:
///   Appointments(Patient, Date, Doctor): (Alice, 1/1/2010, Dave),
///                                        (Bob,   2/2/2010, Mike)
///   Doctor_Info(Doctor, Department):     (Mike, Pediatrics),
///                                        (Dave, Pediatrics)
///   Log(Lid, Date, User, Patient, Action):
///     L1 = (1, 1/1/2010, Dave, Alice), L2 = (2, 2/2/2010, Dave, Bob)
/// with a Doctor_Info.Department self-join allowance.
inline Database BuildPaperToyDatabase() {
  Database db;
  auto must = [](const Status& s) {
    EBA_CHECK_MSG(s.ok(), s.ToString());
  };
  must(db.CreateTable(TableSchema(
      "Appointments",
      {ColumnDef{"Patient", DataType::kInt64, "patient", false},
       ColumnDef{"Date", DataType::kTimestamp, "", false},
       ColumnDef{"Doctor", DataType::kInt64, "user", false}})));
  must(db.CreateTable(TableSchema(
      "Doctor_Info", {ColumnDef{"Doctor", DataType::kInt64, "user", false},
                      ColumnDef{"Department", DataType::kString, "dept",
                                false}})));
  must(db.CreateTable(AccessLog::StandardSchema("Log")));
  must(db.AllowSelfJoin(AttrId{"Doctor_Info", "Department"}));

  Table* appt = db.GetTable("Appointments").value();
  int64_t jan1 = Date::FromCivil(2010, 1, 1, 9, 0, 0).ToSeconds();
  int64_t feb2 = Date::FromCivil(2010, 2, 2, 9, 0, 0).ToSeconds();
  must(appt->AppendRow({Value::Int64(kAlice), Value::Timestamp(jan1),
                        Value::Int64(kDave)}));
  must(appt->AppendRow({Value::Int64(kBob), Value::Timestamp(feb2),
                        Value::Int64(kMike)}));

  Table* info = db.GetTable("Doctor_Info").value();
  must(info->AppendRow({Value::Int64(kMike), Value::String("Pediatrics")}));
  must(info->AppendRow({Value::Int64(kDave), Value::String("Pediatrics")}));

  Table* log = db.GetTable("Log").value();
  must(log->AppendRow({Value::Int64(1), Value::Timestamp(jan1 + 3600),
                       Value::Int64(kDave), Value::Int64(kAlice),
                       Value::String("viewed record")}));
  must(log->AppendRow({Value::Int64(2), Value::Timestamp(feb2 + 3600),
                       Value::Int64(kDave), Value::Int64(kBob),
                       Value::String("viewed record")}));
  return db;
}

/// The lids of the variable-0 rows that `executor`'s run seeded at `rows`
/// of tuple variable `pivot` finds (Executor::LogRowsJoinedTo), ascending
/// and distinct: its result in the terms DistinctLids answers in.
inline std::vector<int64_t> JoinedLids(const Executor& executor,
                                       const Database& db, const PathQuery& q,
                                       QAttr lid, int pivot, RowRange rows) {
  const Table* log = UnwrapOrDie(db.GetTable(q.vars[0].table));
  std::vector<int64_t> lids;
  for (uint32_t r :
       UnwrapOrDie(executor.LogRowsJoinedTo(q, lid, pivot, rows))) {
    lids.push_back(log->Get(r, static_cast<size_t>(lid.col)).AsInt64());
  }
  std::sort(lids.begin(), lids.end());
  lids.erase(std::unique(lids.begin(), lids.end()), lids.end());
  return lids;
}

/// The lids the runs of `executor` seeded at rows [rows.begin, cut) and
/// [cut, rows.end) of tuple variable `pivot` find together (ascending,
/// distinct) — what one run over `rows` finds, since the seed range is a
/// run's only restriction.
inline std::vector<int64_t> CutRunLids(const Executor& executor,
                                       const Database& db, const PathQuery& q,
                                       QAttr lid, int pivot, RowRange rows,
                                       size_t cut) {
  std::vector<int64_t> lids =
      JoinedLids(executor, db, q, lid, pivot, RowRange{rows.begin, cut});
  const std::vector<int64_t> tail =
      JoinedLids(executor, db, q, lid, pivot, RowRange{cut, rows.end});
  lids.insert(lids.end(), tail.begin(), tail.end());
  std::sort(lids.begin(), lids.end());
  lids.erase(std::unique(lids.begin(), lids.end()), lids.end());
  return lids;
}

/// Deep-copies a database. Differential tests run their oracle engine on
/// the clone so nothing the oracle does (index builds, stats, plan caches)
/// can leak into — or depend on — the system under test.
inline Database CloneDatabase(const Database& src) { return src.Clone(); }

/// A new table with `src`'s schema and rows.
inline Table CopyTable(const Table& src) {
  Table copy(src.schema());
  copy.Reserve(src.num_rows());
  for (size_t r = 0; r < src.num_rows(); ++r) {
    const Status s = copy.AppendRow(src.GetRow(r));
    EBA_CHECK_MSG(s.ok(), s.ToString());
  }
  return copy;
}

/// Drops the table named like `replacement` and adds `replacement` in its
/// place: a catalog change (the generation moves), whatever rows it holds.
/// The drop also forgets the join metadata naming the table; audits do not
/// read it.
inline void ReplaceTable(Database* db, Table replacement) {
  Status s = db->DropTable(replacement.name());
  EBA_CHECK_MSG(s.ok(), s.ToString());
  s = db->AddTable(std::move(replacement));
  EBA_CHECK_MSG(s.ok(), s.ToString());
}

}  // namespace testing_util
}  // namespace eba

#endif  // EBA_TESTS_TEST_UTIL_H_
