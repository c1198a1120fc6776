// Unit tests for src/common: Status/StatusOr, Value, Date, Random, string
// utilities, CSV round-trips, and the flat hash kernels.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/csv.h"
#include "common/date.h"
#include "common/flat_hash.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/value.h"
#include "tests/test_util.h"

namespace eba {
namespace {

// --------------------------- Status ---------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such table");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "no such table");
  EXPECT_EQ(s.ToString(), "NotFound: no such table");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_NE(Status::Internal("x"), Status::Internal("y"));
  EXPECT_NE(Status::Internal("x"), Status::NotFound("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= 7; ++code) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(code)), "Unknown");
  }
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UsesReturnIfError(int x) {
  EBA_RETURN_IF_ERROR(ParsePositive(x).status());
  return Status::OK();
}

StatusOr<int> UsesAssignOrReturn(int x) {
  EBA_ASSIGN_OR_RETURN(int a, ParsePositive(x));
  EBA_ASSIGN_OR_RETURN(int b, ParsePositive(x + 1));
  return a + b;
}

TEST(StatusOrTest, ValueAndErrorPaths) {
  StatusOr<int> good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);
  EXPECT_EQ(good.value_or(-1), 5);

  StatusOr<int> bad = ParsePositive(-5);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(StatusOrTest, MacrosPropagate) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_FALSE(UsesReturnIfError(0).ok());
  StatusOr<int> combined = UsesAssignOrReturn(2);
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(*combined, 5);
  EXPECT_FALSE(UsesAssignOrReturn(0).ok());
}

TEST(StatusOrTest, MoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> p = std::make_unique<int>(7);
  ASSERT_TRUE(p.ok());
  std::unique_ptr<int> owned = std::move(p).value();
  EXPECT_EQ(*owned, 7);
}

// --------------------------- Value ---------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int64(-42).AsInt64(), -42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_EQ(Value::Timestamp(12345).AsTimestamp(), 12345);
}

TEST(ValueTest, TypeMismatchThrowsCheckFailure) {
  EXPECT_THROW(Value::Int64(1).AsString(), CheckFailure);
  EXPECT_THROW(Value::String("x").AsInt64(), CheckFailure);
  EXPECT_THROW(Value::Double(1.0).RawInt64(), CheckFailure);
}

TEST(ValueTest, EqualityWithinType) {
  EXPECT_EQ(Value::Int64(3), Value::Int64(3));
  EXPECT_NE(Value::Int64(3), Value::Int64(4));
  EXPECT_NE(Value::Int64(3), Value::Timestamp(3));  // type matters
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_EQ(Value::String("a"), Value::String("a"));
}

TEST(ValueTest, OrderingWithinAndAcrossTypes) {
  EXPECT_LT(Value::Int64(1), Value::Int64(2));
  EXPECT_LT(Value::String("a"), Value::String("b"));
  // Cross-type: ordered by type tag; NULL sorts first.
  EXPECT_LT(Value::Null(), Value::Int64(-100));
  EXPECT_FALSE(Value::Null() < Value::Null());
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int64(9).Hash(), Value::Int64(9).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_NE(Value::Int64(9).Hash(), Value::Timestamp(9).Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Int64(17).ToString(), "17");
  EXPECT_EQ(Value::String("x").ToString(), "x");
  int64_t t = Date::FromCivil(2010, 1, 3, 10, 16, 57).ToSeconds();
  EXPECT_EQ(Value::Timestamp(t).ToString(), "2010-01-03 10:16:57");
}

// --------------------------- Date ---------------------------

TEST(DateTest, CivilRoundTrip) {
  Date d = Date::FromCivil(2010, 1, 3, 10, 16, 57);
  EXPECT_EQ(d.year(), 2010);
  EXPECT_EQ(d.month(), 1);
  EXPECT_EQ(d.day(), 3);
  Date back = Date::FromSeconds(d.ToSeconds());
  EXPECT_EQ(back, d);
  EXPECT_EQ(back.hour(), 10);
  EXPECT_EQ(back.minute(), 16);
  EXPECT_EQ(back.second(), 57);
}

TEST(DateTest, EpochOrigin) {
  Date epoch = Date::FromSeconds(0);
  EXPECT_EQ(epoch.year(), 1970);
  EXPECT_EQ(epoch.month(), 1);
  EXPECT_EQ(epoch.day(), 1);
  EXPECT_EQ(epoch.DayOfWeek(), 4);  // Thursday
}

TEST(DateTest, LogStringMatchesCareWebFormat) {
  // The paper's example log line: "Mon Jan 03 10:16:57 2010".
  Date d = Date::FromCivil(2010, 1, 3, 10, 16, 57);
  // Jan 3 2010 was actually a Sunday.
  EXPECT_EQ(d.ToLogString(), "Sun Jan 03 10:16:57 2010");
  Date monday = Date::FromCivil(2010, 1, 4, 8, 0, 0);
  EXPECT_EQ(monday.ToLogString(), "Mon Jan 04 08:00:00 2010");
}

TEST(DateTest, ParseFormats) {
  Date d1 = testing_util::UnwrapOrDie(Date::Parse("2010-04-28"));
  EXPECT_EQ(d1.month(), 4);
  EXPECT_EQ(d1.hour(), 0);
  Date d2 = testing_util::UnwrapOrDie(Date::Parse("2010-04-28 14:29:08"));
  EXPECT_EQ(d2.second(), 8);
  EXPECT_FALSE(Date::Parse("not a date").ok());
  EXPECT_FALSE(Date::Parse("2010-13-01").ok());
}

TEST(DateTest, AddDaysAcrossMonthAndLeapYear) {
  Date d = Date::FromCivil(2012, 2, 28, 12, 0, 0);
  EXPECT_EQ(d.AddDays(1).day(), 29);  // 2012 is a leap year
  EXPECT_EQ(d.AddDays(2).month(), 3);
  Date d2 = Date::FromCivil(2010, 12, 31);
  EXPECT_EQ(d2.AddDays(1).year(), 2011);
}

TEST(DateTest, NegativeSecondsBeforeEpoch) {
  Date d = Date::FromSeconds(-1);
  EXPECT_EQ(d.year(), 1969);
  EXPECT_EQ(d.month(), 12);
  EXPECT_EQ(d.day(), 31);
  EXPECT_EQ(d.hour(), 23);
  EXPECT_EQ(d.second(), 59);
}

TEST(DateTest, EpochDaysInverse) {
  for (int64_t days : {-1000L, -1L, 0L, 1L, 365L, 14610L, 20000L}) {
    int y, m, dd;
    Date::CivilFromEpochDays(days, &y, &m, &dd);
    EXPECT_EQ(Date::EpochDaysFromCivil(y, m, dd), days);
  }
}

// --------------------------- Random ---------------------------

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformBounds) {
  Random rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t r = rng.UniformRange(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, ZipfSkewsTowardLowRanks) {
  Random rng(3);
  size_t low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(100, 1.0) < 10) ++low;
  }
  // With s=1 over 100 items, ranks 0-9 carry ~52% of the mass.
  EXPECT_GT(low, static_cast<size_t>(n) * 40 / 100);
  // Uniform (s=0) should not skew.
  low = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(100, 0.0) < 10) ++low;
  }
  EXPECT_LT(low, static_cast<size_t>(n) * 15 / 100);
}

TEST(RandomTest, PoissonMeanRoughlyLambda) {
  Random rng(4);
  for (double lambda : {0.5, 3.0, 20.0, 100.0}) {
    double sum = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(lambda));
    double mean = sum / n;
    EXPECT_NEAR(mean, lambda, std::max(0.3, lambda * 0.1));
  }
}

TEST(RandomTest, SampleWithoutReplacementDistinct) {
  Random rng(5);
  for (size_t k : {0ul, 1ul, 5ul, 50ul, 100ul}) {
    auto sample = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (size_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(RandomTest, WeightedIndexRespectsWeights) {
  Random rng(6);
  std::vector<double> weights = {0.0, 9.0, 1.0};
  size_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) counts[rng.WeightedIndex(weights)]++;
  EXPECT_EQ(counts[0], 0u);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(RandomTest, ShuffleIsPermutation) {
  Random rng(7);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// --------------------------- String utils ---------------------------

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join(std::vector<std::string>{"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join(std::vector<std::string>{}, ","), "");
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, TrimAndCase) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("AND", "and"));
  EXPECT_FALSE(EqualsIgnoreCase("AND", "an"));
}

TEST(StringUtilTest, AffixChecks) {
  EXPECT_TRUE(StartsWith("Log.Patient", "Log"));
  EXPECT_FALSE(StartsWith("Log", "Log.Patient"));
  EXPECT_TRUE(EndsWith("Log.Patient", "Patient"));
}

TEST(StringUtilTest, StrFormatAndReplace) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(ReplaceAll("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(ReplaceAll("aaa", "a", "aa"), "aaaaaa");
}

TEST(StringUtilTest, FormatCount) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(4512345), "4,512,345");
  EXPECT_EQ(FormatCount(-1234), "-1,234");
}

// --------------------------- CSV ---------------------------

TEST(CsvTest, EncodeDecodeRoundTrip) {
  std::vector<std::string> fields = {"plain", "with,comma", "with\"quote",
                                     ""};
  std::string line = CsvEncodeRow(fields);
  auto decoded = testing_util::UnwrapOrDie(CsvDecodeRow(line));
  EXPECT_EQ(decoded, fields);
}

TEST(CsvTest, DecodeRejectsMalformed) {
  EXPECT_FALSE(CsvDecodeRow("a,\"unterminated").ok());
  EXPECT_FALSE(CsvDecodeRow("a,b\"mid").ok());
}

TEST(CsvTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/eba_csv_test.csv";
  std::vector<std::vector<std::string>> rows = {
      {"h1", "h2"}, {"1", "x,y"}, {"2", "z"}};
  {
    std::ofstream out(path);
    for (const auto& row : rows) out << CsvEncodeRow(row) << '\n';
    ASSERT_TRUE(out.good());
  }
  auto read = testing_util::UnwrapOrDie(CsvReadFile(path));
  EXPECT_EQ(read, rows);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsNotFound) {
  EXPECT_TRUE(CsvReadFile("/nonexistent/path.csv").status().IsNotFound());
}

// --------------------------- ThreadPool ---------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { ++count; });
    }
  }  // the destructor runs every queued task before joining
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  std::atomic<bool> ran{false};
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.num_threads(), 1u);
    pool.Submit([&ran] { ran = true; });
  }
  EXPECT_TRUE(ran.load());
}

TEST(ParallelForTest, CoversEachShardExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
    // The calling thread runs shards too; one thread means no pool.
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
    // Each shard owns its slot, and ParallelFor joins before the reads, so
    // plain ints suffice.
    std::vector<int> hits(17, 0);
    ParallelFor(pool.get(), hits.size(), [&hits](size_t s) { ++hits[s]; });
    for (size_t s = 0; s < hits.size(); ++s) {
      EXPECT_EQ(hits[s], 1) << "shard " << s << ", " << threads << " threads";
    }
  }
}

TEST(ParallelForTest, ZeroShardsIsANoop) {
  ThreadPool pool(3);
  ParallelFor(&pool, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForTest, RethrowsFirstShardError) {
  ThreadPool pool(3);
  EXPECT_THROW(
      ParallelFor(&pool, 8,
                  [](size_t s) {
                    if (s % 2 == 1) throw std::runtime_error("shard failed");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, InlinePathRunsAllShardsDespiteError) {
  // The inline (no pool) path has the same contract as the pooled one:
  // every shard runs before the first error is rethrown.
  std::vector<int> hits(5, 0);
  EXPECT_THROW(ParallelFor(nullptr, hits.size(),
                           [&hits](size_t s) {
                             ++hits[s];
                             if (s == 1) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1, 1, 1}));
}

TEST(ParallelForTest, NestedCallsOnSharedPoolComplete) {
  // An inner ParallelFor issued from inside an outer shard on the same pool
  // must not deadlock: completion is tracked per call and the calling
  // thread participates, so every inner call can finish even when all pool
  // workers are tied up in outer shards.
  ThreadPool pool(2);
  std::array<std::array<std::atomic<int>, 4>, 4> hits{};
  ParallelFor(&pool, 4, [&](size_t outer) {
    ParallelFor(&pool, 4, [&, outer](size_t inner) { ++hits[outer][inner]; });
  });
  for (const auto& row : hits) {
    for (const auto& cell : row) EXPECT_EQ(cell.load(), 1);
  }
}

TEST(ParallelForTest, ConcurrentCallsOnSharedPoolAreIndependent) {
  // Two ParallelFor rounds issued from different threads over one pool must
  // each wait only for their own shards.
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::thread other(
      [&] { ParallelFor(&pool, 16, [&](size_t) { ++total; }); });
  ParallelFor(&pool, 16, [&](size_t) { ++total; });
  other.join();
  EXPECT_EQ(total.load(), 32);
}

TEST(SplitShardsTest, PartitionsWithoutGapsOrOverlap) {
  auto shards = SplitShards(1000, 4, 1);
  ASSERT_EQ(shards.size(), 4u);
  size_t expect_begin = 0;
  size_t total = 0;
  for (const auto& s : shards) {
    EXPECT_EQ(s.begin, expect_begin);
    EXPECT_LT(s.begin, s.end);
    total += s.end - s.begin;
    expect_begin = s.end;
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(shards.back().end, 1000u);
}

TEST(SplitShardsTest, RespectsMinimumShardSize) {
  // 100 rows with a 64-row minimum: only one shard fits.
  auto shards = SplitShards(100, 8, 64);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].begin, 0u);
  EXPECT_EQ(shards[0].end, 100u);
}

TEST(SplitShardsTest, EmptyInputYieldsNoShards) {
  EXPECT_TRUE(SplitShards(0, 4, 1).empty());
}

TEST(ThreadPoolTest, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(HardwareThreads(), 1u);
}

TEST(SplitShardsTest, UnevenRemainderSpreadsOverLeadingShards) {
  auto shards = SplitShards(10, 4, 1);
  ASSERT_EQ(shards.size(), 4u);
  std::vector<size_t> sizes;
  for (const auto& s : shards) sizes.push_back(s.end - s.begin);
  EXPECT_EQ(sizes, (std::vector<size_t>{3, 3, 2, 2}));
}

TEST(SplitShardsTest, ShardSizesNeverDifferByMoreThanOne) {
  // The balance invariant: a remainder is spread one element at a time over
  // the leading shards, never accumulated onto the last shard (which would
  // make it up to ~2x the others and set the wall-clock of the whole wave).
  for (size_t n : {1u, 7u, 100u, 101u, 999u, 1000u, 65536u, 65537u}) {
    for (size_t max_shards : {1u, 2u, 3u, 4u, 7u, 16u}) {
      for (size_t min_per : {1u, 10u, 4096u}) {
        auto shards = SplitShards(n, max_shards, min_per);
        ASSERT_FALSE(shards.empty());
        size_t lo = n, hi = 0, total = 0, expect_begin = 0;
        for (const auto& s : shards) {
          ASSERT_EQ(s.begin, expect_begin);
          ASSERT_LT(s.begin, s.end);
          const size_t len = s.end - s.begin;
          lo = std::min(lo, len);
          hi = std::max(hi, len);
          total += len;
          expect_begin = s.end;
        }
        EXPECT_EQ(total, n) << "n=" << n;
        EXPECT_LE(hi - lo, 1u)
            << "n=" << n << " max_shards=" << max_shards
            << " min_per=" << min_per;
        EXPECT_LE(shards.size(), max_shards);
      }
    }
  }
}

// --------------------------- FlatSet64 ---------------------------

// FlatSet64 marks free slots with INT64_MIN's bit pattern; to a caller that
// value is an ordinary key, as are 0 and -1.
TEST(FlatSet64Test, ReservedValueZeroAndMinusOneAreKeys) {
  const uint64_t reserved = uint64_t{1} << 63;
  const uint64_t minus_one = static_cast<uint64_t>(int64_t{-1});
  FlatSet64 set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(reserved));
  EXPECT_TRUE(set.Insert(reserved));
  EXPECT_FALSE(set.Insert(reserved));
  EXPECT_TRUE(set.Contains(reserved));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_FALSE(set.Contains(0));
  EXPECT_TRUE(set.Insert(0));
  EXPECT_FALSE(set.Contains(minus_one));
  EXPECT_TRUE(set.Insert(minus_one));
  EXPECT_FALSE(set.Insert(0));
  EXPECT_FALSE(set.Insert(minus_one));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.Contains(reserved));
  EXPECT_TRUE(set.Contains(0));
  EXPECT_TRUE(set.Contains(minus_one));
  EXPECT_FALSE(set.Contains(1));
  EXPECT_FALSE(set.Contains(reserved - 1));
  EXPECT_FALSE(set.Contains(reserved + 1));
}

TEST(FlatSet64Test, KeepsEveryKeyAcrossDoublings) {
  // The smallest array holds 8 keys; 4096 keys take it through 9 doublings.
  // Keys differ only in their high halves, as packed row-id pairs do.
  FlatSet64 set;
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 4096; ++k) keys.push_back(k << 32 | 7);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(set.Insert(keys[i]));
    EXPECT_EQ(set.size(), i + 1);
    if ((i & (i + 1)) == 0) {  // after 1, 2, 4, ... keys: every one held
      for (size_t j = 0; j <= i; ++j) ASSERT_TRUE(set.Contains(keys[j]));
      ASSERT_FALSE(set.Contains(keys[i] + 1));
    }
  }
  for (uint64_t key : keys) {
    EXPECT_TRUE(set.Contains(key));
    EXPECT_FALSE(set.Insert(key));
  }
  EXPECT_EQ(set.size(), keys.size());
}

TEST(FlatSet64Test, MatchesUnorderedSetOnDuplicatedStream) {
  Random rng(1701);
  std::unordered_set<uint64_t> reference;
  FlatSet64 grown;          // doubles as it fills
  FlatSet64 sized(20000);   // sized up front for every draw
  for (int i = 0; i < 20000; ++i) {
    // Mostly a few hundred small keys, so most inserts are duplicates;
    // sometimes a wide one, the reserved value, 0 or -1.
    uint64_t key = rng.Uniform(300);
    switch (rng.Uniform(16)) {
      case 0:
        key = rng.Next();
        break;
      case 1:
        key = uint64_t{1} << 63;
        break;
      case 2:
        key = static_cast<uint64_t>(int64_t{-1});
        break;
      default:
        break;
    }
    const bool fresh = reference.insert(key).second;
    ASSERT_EQ(grown.Insert(key), fresh) << "draw " << i;
    ASSERT_EQ(sized.Insert(key), fresh) << "draw " << i;
    ASSERT_EQ(grown.size(), reference.size());
    ASSERT_EQ(sized.size(), reference.size());
  }
  for (int i = 0; i < 5000; ++i) {
    const uint64_t probe = i % 2 == 0 ? rng.Uniform(600) : rng.Next();
    EXPECT_EQ(grown.Contains(probe), reference.count(probe) > 0);
    EXPECT_EQ(sized.Contains(probe), reference.count(probe) > 0);
  }
}

// --------------------------- FirstOccurrences ---------------------------

/// The first-occurrence reference: a std::set of whole tuples.
std::vector<uint32_t> ReferenceFirstOccurrences(
    const std::vector<std::vector<uint32_t>>& columns) {
  std::vector<uint32_t> keep;
  std::set<std::vector<uint32_t>> seen;
  const size_t n = columns.empty() ? 0 : columns[0].size();
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> tuple;
    for (const auto& col : columns) tuple.push_back(col[i]);
    if (seen.insert(tuple).second) keep.push_back(static_cast<uint32_t>(i));
  }
  return keep;
}

/// A frame of `width` columns whose tuple i is `make(i, slot)`.
template <typename Fn>
std::vector<std::vector<uint32_t>> MakeFrame(size_t width, size_t n, Fn make) {
  std::vector<std::vector<uint32_t>> columns(width);
  for (size_t s = 0; s < width; ++s) {
    for (size_t i = 0; i < n; ++i) columns[s].push_back(make(i, s));
  }
  return columns;
}

TEST(FirstOccurrencesTest, EmptyFramesKeepNothing) {
  EXPECT_TRUE(FirstOccurrences({}).empty());
  for (size_t width = 1; width <= 4; ++width) {
    EXPECT_TRUE(
        FirstOccurrences(std::vector<std::vector<uint32_t>>(width)).empty());
  }
}

TEST(FirstOccurrencesTest, MatchesSetReferenceForOneToFourSlots) {
  constexpr uint32_t kMax = 0xFFFFFFFFu;
  for (size_t width = 1; width <= 4; ++width) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<std::vector<std::vector<uint32_t>>> frames;
    // All equal, once at the largest row id.
    frames.push_back(MakeFrame(width, 50, [](size_t, size_t) { return 7u; }));
    frames.push_back(
        MakeFrame(width, 50, [](size_t, size_t) { return kMax; }));
    // All distinct.
    frames.push_back(MakeFrame(width, 300, [](size_t i, size_t s) {
      return static_cast<uint32_t>(i * 3 + s);
    }));
    // 0 and the largest row id mixed: a sparse id range.
    frames.push_back(MakeFrame(width, 40, [](size_t i, size_t s) {
      return (i + s) % 3 == 0 ? kMax : static_cast<uint32_t>((i * s) % 2);
    }));
    // A dense range just below the largest row id.
    frames.push_back(MakeFrame(width, 200, [](size_t i, size_t s) {
      return kMax - static_cast<uint32_t>((i * (s + 1)) % 9);
    }));
    // Row ids 2^31 and 0: the pair that packs to the free-slot mark.
    frames.push_back(MakeFrame(width, 30, [](size_t i, size_t s) {
      return s == 0 ? 0x80000000u : static_cast<uint32_t>(i % 2 == 0 ? 0 : 5);
    }));
    // Seeded streams with heavy duplication, narrow and wide.
    for (uint64_t domain : {uint64_t{3}, uint64_t{40}, uint64_t{1} << 32}) {
      Random rng(domain * 31 + width);
      frames.push_back(MakeFrame(width, 2000, [&](size_t, size_t) {
        return static_cast<uint32_t>(rng.Uniform(domain));
      }));
    }
    for (const auto& frame : frames) {
      EXPECT_EQ(FirstOccurrences(frame), ReferenceFirstOccurrences(frame));
    }
  }
}

}  // namespace
}  // namespace eba
