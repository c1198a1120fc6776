// Unit tests for src/storage: schemas, columns, tables, indexes, statistics
// and the database catalog.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/chunk.h"
#include "storage/database.h"
#include "storage/index.h"
#include "storage/io.h"
#include "storage/statistics.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::UnwrapOrDie;

TableSchema SimpleSchema() {
  return TableSchema("T", {ColumnDef{"id", DataType::kInt64, "id", true},
                           ColumnDef{"name", DataType::kString, "", false},
                           ColumnDef{"score", DataType::kDouble, "", false}});
}

// --------------------------- Schema ---------------------------

TEST(SchemaTest, ColumnLookup) {
  TableSchema s = SimpleSchema();
  EXPECT_EQ(s.ColumnIndex("id"), 0);
  EXPECT_EQ(s.ColumnIndex("score"), 2);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
  EXPECT_TRUE(s.HasColumn("name"));
  EXPECT_EQ(s.PrimaryKeyIndex(), 0);
}

TEST(SchemaTest, ColumnsInDomain) {
  TableSchema s("E", {ColumnDef{"a", DataType::kInt64, "user", false},
                      ColumnDef{"b", DataType::kInt64, "user", false},
                      ColumnDef{"c", DataType::kInt64, "patient", false}});
  EXPECT_EQ(s.ColumnsInDomain("user").size(), 2u);
  EXPECT_EQ(s.ColumnsInDomain("patient").size(), 1u);
  EXPECT_TRUE(s.ColumnsInDomain("").empty());
}

TEST(SchemaTest, ValidationCatchesErrors) {
  EXPECT_FALSE(TableSchema("", {ColumnDef{"a", DataType::kInt64, "", false}})
                   .Validate()
                   .ok());
  EXPECT_FALSE(TableSchema("T", {}).Validate().ok());
  EXPECT_FALSE(TableSchema("T", {ColumnDef{"a", DataType::kInt64, "", false},
                                 ColumnDef{"a", DataType::kInt64, "", false}})
                   .Validate()
                   .ok());
  // Primary key without a domain.
  EXPECT_FALSE(
      TableSchema("T", {ColumnDef{"a", DataType::kInt64, "", true}})
          .Validate()
          .ok());
  // Two primary keys.
  EXPECT_FALSE(TableSchema("T", {ColumnDef{"a", DataType::kInt64, "d", true},
                                 ColumnDef{"b", DataType::kInt64, "d", true}})
                   .Validate()
                   .ok());
  EXPECT_TRUE(SimpleSchema().Validate().ok());
}

// A table name is one field of a checkpoint manifest line and part of a
// file name in the store (storage/checkpoint.h): whitespace, control bytes,
// path separators and the names "." and ".." are refused.
TEST(SchemaTest, TableNamesAManifestLineAndAFileNameCanCarry) {
  const std::vector<ColumnDef> columns = {
      ColumnDef{"a", DataType::kInt64, "", false}};
  for (const std::string& name :
       {std::string("a b"), std::string("a\tb"), std::string("a\nb"),
        std::string("a\rb"), std::string("trailing "), std::string(" lead"),
        std::string("nul\0byte", 8), std::string("\x01"),
        std::string("del\x7f"), std::string("a/b"), std::string("/abs"),
        std::string("../escaped"), std::string("a\\b"), std::string("."),
        std::string("..")}) {
    const Status s = TableSchema(name, columns).Validate();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << name;
    Database db;
    EXPECT_FALSE(db.CreateTable(TableSchema(name, columns)).ok()) << name;
  }
  // Every table name the library, its tools, benchmarks and tests create,
  // and names that merely hold dots or bytes past ASCII.
  for (const std::string name :
       {"Appointments", "Audit", "Big", "Child", "Day7All", "Doctor_Info",
        "Doctors", "Documents", "E", "Empty", "EmptyLog", "Eval", "EvalLog",
        "Events", "FakePart", "FirstD7", "FirstLog", "Groups", "L", "Labs",
        "Log", "LogDesc", "LogStream", "Medications", "MicroTrain",
        "Mine_1_7", "Notes", "Orders", "Parent", "Patients", "Radiology",
        "Referrals", "S", "Series", "Staff", "T", "TS", "Tags", "TestFirst",
        "TestLog", "TrainFirst", "TrainLog", "UserMap", "Users", "Visits",
        "WeirdLog", "X", "Y", "a.b", "..a", "caf\xc3\xa9"}) {
    EXPECT_TRUE(TableSchema(name, columns).Validate().ok()) << name;
  }
}

TEST(AttrIdTest, EqualityAndOrdering) {
  AttrId a{"Log", "User"};
  AttrId b{"Log", "User"};
  AttrId c{"Log", "Patient"};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(c, a);  // Patient < User
  EXPECT_EQ(a.ToString(), "Log.User");
}

// --------------------------- Column ---------------------------

TEST(ColumnTest, IntAppendAndGet) {
  Column col(DataType::kInt64);
  col.AppendInt64(5);
  col.AppendInt64(-3);
  EXPECT_EQ(col.size(), 2u);
  EXPECT_EQ(col.Get(0), Value::Int64(5));
  EXPECT_EQ(col.Int64At(1), -3);
  EXPECT_TRUE(col.IsIntLike());
}

TEST(ColumnTest, StringDictionaryEncoding) {
  Column col(DataType::kString);
  col.AppendString("alpha");
  col.AppendString("beta");
  col.AppendString("alpha");
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.DictionarySize(), 2u);
  EXPECT_EQ(col.StringCodeAt(0), col.StringCodeAt(2));
  EXPECT_NE(col.StringCodeAt(0), col.StringCodeAt(1));
  EXPECT_EQ(col.StringAt(2), "alpha");
  EXPECT_EQ(*col.FindStringCode("beta"), col.StringCodeAt(1));
  EXPECT_FALSE(col.FindStringCode("gamma").has_value());
}

TEST(ColumnTest, NullHandling) {
  Column col(DataType::kInt64);
  col.AppendInt64(1);
  col.AppendNull();
  col.AppendInt64(3);
  EXPECT_EQ(col.NullCount(), 1u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_TRUE(col.Get(1).is_null());
  EXPECT_EQ(col.Get(2), Value::Int64(3));
}

TEST(ColumnTest, AppendValueTypeChecked) {
  Column col(DataType::kInt64);
  EXPECT_TRUE(col.Append(Value::Int64(1)).ok());
  EXPECT_TRUE(col.Append(Value::Null()).ok());
  EXPECT_FALSE(col.Append(Value::String("x")).ok());
  EXPECT_THROW(col.AppendString("x"), CheckFailure);
}

/// Little-endian 8-byte slots, the chunk-image payload layout.
std::string Slots(std::initializer_list<uint64_t> values) {
  std::string out;
  for (const uint64_t v : values) {
    for (int byte = 0; byte < 8; ++byte) {
      out.push_back(static_cast<char>((v >> (8 * byte)) & 0xFF));
    }
  }
  return out;
}

TEST(ColumnTest, ChunkImageRoundTrips) {
  Column src(DataType::kString);
  src.AppendString("alpha");
  src.AppendNull();
  src.AppendString("beta");
  src.AppendString("alpha");
  size_t dict_size = 0;
  const ColumnChunk chunk = src.ExportChunk(0, 4, &dict_size);
  EXPECT_EQ(dict_size, 2u);
  EXPECT_EQ(chunk.values, Slots({0, 0, 1, 0}));
  EXPECT_EQ(chunk.nulls, std::string("\0\1\0\0", 4));

  Column dst(DataType::kString);
  EBA_ASSERT_OK(dst.AppendChunk(chunk));
  ASSERT_EQ(dst.size(), 4u);
  for (size_t r = 0; r < 4; ++r) EXPECT_EQ(dst.Get(r), src.Get(r)) << r;
  EXPECT_EQ(dst.NullCount(), 1u);
  EXPECT_EQ(*dst.FindStringCode("beta"), 1);
}

TEST(ColumnTest, ChunkImageRejectsInvalidSlots) {
  // A rejected image leaves the column empty.
  const auto loads = [](DataType type, const ColumnChunk& chunk) {
    Column col(type);
    const bool ok = col.AppendChunk(chunk).ok();
    EXPECT_EQ(col.size(), ok ? chunk.values.size() / 8 : 0u);
    return ok;
  };
  const std::string null1("\1", 1);
  // A code at the dictionary size, a repeated dictionary entry.
  EXPECT_FALSE(loads(DataType::kString, {Slots({1}), "", {"a"}}));
  EXPECT_FALSE(loads(DataType::kString, {Slots({0, 1}), "", {"a", "a"}}));
  EXPECT_TRUE(loads(DataType::kString, {Slots({0, 1}), "", {"a", "b"}}));
  // A bool other than 0/1, a NULL row with a nonzero slot, a null flag
  // other than 0/1.
  EXPECT_FALSE(loads(DataType::kBool, {Slots({2}), "", {}}));
  EXPECT_TRUE(loads(DataType::kBool, {Slots({1}), "", {}}));
  EXPECT_FALSE(loads(DataType::kInt64, {Slots({7}), null1, {}}));
  EXPECT_TRUE(loads(DataType::kInt64, {Slots({0}), null1, {}}));
  EXPECT_FALSE(loads(DataType::kInt64, {Slots({0}), "\2", {}}));
  // Slot and flag counts that disagree, a partial slot.
  EXPECT_FALSE(loads(DataType::kInt64, {Slots({0, 0}), null1, {}}));
  EXPECT_FALSE(loads(DataType::kInt64, {"1234567", "", {}}));
}

// --------------------------- Index ---------------------------

TEST(IndexTest, IntLookup) {
  Column col(DataType::kInt64);
  for (int64_t v : {7, 8, 7, 9, 7}) col.AppendInt64(v);
  HashIndex idx(&col);
  EXPECT_EQ(idx.NumDistinctKeys(), 3u);
  EXPECT_EQ(idx.LookupInt64(7).size(), 3u);
  EXPECT_EQ(idx.Lookup(Value::Int64(9), col.size()).size(), 1u);
  EXPECT_TRUE(idx.Lookup(Value::Int64(100), col.size()).empty());
  EXPECT_TRUE(idx.Lookup(Value::Null(), col.size()).empty());
  EXPECT_TRUE(idx.Lookup(Value::String("7"), col.size()).empty());  // wrong type
}

TEST(IndexTest, ClampToCutsAtTheBound) {
  const uint32_t rows[] = {2, 5, 9};
  const RowIdSpan span{rows, 3};
  auto clamped = [&](size_t bound) { return span.ClampTo(bound).size(); };
  EXPECT_TRUE(RowIdSpan{}.ClampTo(0).empty());
  EXPECT_TRUE(RowIdSpan{}.ClampTo(10).empty());
  // Every id below the bound: the span itself.
  EXPECT_EQ(span.ClampTo(10).data, rows);
  EXPECT_EQ(clamped(10), 3u);
  // The bound inside the span, at an id, and at the last id.
  EXPECT_EQ(clamped(6), 2u);
  EXPECT_EQ(clamped(5), 1u);
  EXPECT_EQ(clamped(9), 2u);
  EXPECT_EQ(clamped(0), 0u);
  EXPECT_EQ(span.ClampTo(0).data, rows);
}

TEST(IndexTest, StringLookupThroughDictionary) {
  Column col(DataType::kString);
  for (const char* v : {"a", "b", "a"}) col.AppendString(v);
  HashIndex idx(&col);
  EXPECT_EQ(idx.Lookup(Value::String("a"), col.size()).size(), 2u);
  EXPECT_TRUE(idx.Lookup(Value::String("zzz"), col.size()).empty());
}

TEST(IndexTest, NullsNotIndexed) {
  Column col(DataType::kInt64);
  col.AppendInt64(1);
  col.AppendNull();
  HashIndex idx(&col);
  EXPECT_EQ(idx.NumDistinctKeys(), 1u);
}

TEST(IndexTest, DoubleColumnFallback) {
  Column col(DataType::kDouble);
  col.AppendDouble(1.5);
  col.AppendDouble(1.5);
  col.AppendDouble(2.5);
  HashIndex idx(&col);
  EXPECT_EQ(idx.Lookup(Value::Double(1.5), col.size()).size(), 2u);
  EXPECT_EQ(idx.NumDistinctKeys(), 2u);
}

// --------------------------- Statistics ---------------------------

TEST(StatisticsTest, IntStats) {
  Column col(DataType::kInt64);
  for (int64_t v : {5, 1, 5, 9}) col.AppendInt64(v);
  col.AppendNull();
  ColumnStats stats = ComputeColumnStats(col);
  EXPECT_EQ(stats.num_rows, 5u);
  EXPECT_EQ(stats.num_nulls, 1u);
  EXPECT_EQ(stats.num_distinct, 3u);
  EXPECT_EQ(stats.min, Value::Int64(1));
  EXPECT_EQ(stats.max, Value::Int64(9));
}

TEST(StatisticsTest, StringStatsUseDictionary) {
  Column col(DataType::kString);
  for (const char* v : {"m", "a", "z", "a"}) col.AppendString(v);
  ColumnStats stats = ComputeColumnStats(col);
  EXPECT_EQ(stats.num_distinct, 3u);
  EXPECT_EQ(stats.min, Value::String("a"));
  EXPECT_EQ(stats.max, Value::String("z"));
}

TEST(StatisticsTest, EmptyColumn) {
  Column col(DataType::kInt64);
  ColumnStats stats = ComputeColumnStats(col);
  EXPECT_EQ(stats.num_rows, 0u);
  EXPECT_EQ(stats.num_distinct, 0u);
}

// --------------------------- Table ---------------------------

TEST(TableTest, AppendAndGet) {
  Table t(SimpleSchema());
  EBA_ASSERT_OK(t.AppendRow(
      {Value::Int64(1), Value::String("x"), Value::Double(0.5)}));
  EBA_ASSERT_OK(t.AppendRow(
      {Value::Int64(2), Value::String("y"), Value::Null()}));
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Get(0, 1), Value::String("x"));
  EXPECT_TRUE(t.Get(1, 2).is_null());
  Row row = t.GetRow(1);
  EXPECT_EQ(row[0], Value::Int64(2));
}

TEST(TableTest, AppendValidation) {
  Table t(SimpleSchema());
  EXPECT_FALSE(t.AppendRow({Value::Int64(1)}).ok());  // wrong arity
  EXPECT_FALSE(
      t.AppendRow({Value::String("not an int"), Value::String("x"),
                   Value::Double(1)})
          .ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, IndexAndStatsExtendPastAppendWatermark) {
  Table t(SimpleSchema());
  EBA_ASSERT_OK(t.AppendRow(
      {Value::Int64(1), Value::String("x"), Value::Double(0.5)}));
  const HashIndex& idx1 = t.GetOrBuildIndex(0);
  EXPECT_EQ(idx1.LookupInt64(1).size(), 1u);
  EXPECT_EQ(t.GetOrComputeStats(0).num_distinct, 1u);

  EBA_ASSERT_OK(t.AppendRow(
      {Value::Int64(1), Value::String("y"), Value::Double(1.5)}));
  const HashIndex& idx2 = t.GetOrBuildIndex(0);
  // Appends extend the cached index in place: same object, new rows
  // visible — pointers held by compiled plans stay valid.
  EXPECT_EQ(&idx1, &idx2);
  EXPECT_EQ(idx2.LookupInt64(1).size(), 2u);
  EXPECT_EQ(t.GetOrComputeStats(1).num_distinct, 2u);
}

TEST(TableTest, AppendMovesWatermark) {
  Table t(SimpleSchema());
  EXPECT_EQ(t.append_watermark(), 0u);
  EBA_ASSERT_OK(t.AppendRow(
      {Value::Int64(1), Value::String("x"), Value::Double(0.5)}));
  EXPECT_EQ(t.append_watermark(), 1u);
}

TEST(IndexTest, ExtendToFoldsOnlyTheSuffix) {
  Column c(DataType::kString);
  c.AppendString("a");
  c.AppendString("b");
  HashIndex index(&c);
  EXPECT_EQ(index.indexed_rows(), 2u);
  EXPECT_EQ(index.NumDistinctKeys(), 2u);

  // New rows mint a new dictionary code and revisit an old one; ExtendTo
  // must index both without disturbing the prefix postings.
  c.AppendString("c");
  c.AppendString("a");
  c.AppendNull();
  index.ExtendTo(c.size());
  EXPECT_EQ(index.indexed_rows(), 5u);
  EXPECT_EQ(index.NumDistinctKeys(), 3u);
  EXPECT_EQ(index.Lookup(Value::String("a"), c.size()),
            (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(index.Lookup(Value::String("c"), c.size()),
            (std::vector<uint32_t>{2}));
  index.ExtendTo(c.size());  // idempotent
  EXPECT_EQ(index.Lookup(Value::String("a"), c.size()),
            (std::vector<uint32_t>{0, 3}));
}

TEST(StatisticsTest, IncrementalExtensionMatchesRecompute) {
  Column c(DataType::kInt64);
  IncrementalColumnStats incremental;
  for (int64_t v : {5, 3, 9, 3}) c.AppendInt64(v);
  incremental.ExtendTo(c);
  EXPECT_EQ(incremental.stats().num_distinct, 3u);

  c.AppendInt64(1);
  c.AppendNull();
  c.AppendInt64(12);
  incremental.ExtendTo(c);
  const ColumnStats& ext = incremental.stats();
  const ColumnStats full = ComputeColumnStats(c);
  EXPECT_EQ(ext.num_rows, full.num_rows);
  EXPECT_EQ(ext.num_nulls, full.num_nulls);
  EXPECT_EQ(ext.num_distinct, full.num_distinct);
  EXPECT_EQ(ext.min, full.min);
  EXPECT_EQ(ext.max, full.max);
  EXPECT_EQ(ext.min, Value::Int64(1));
  EXPECT_EQ(ext.max, Value::Int64(12));
}

TEST(StatisticsTest, TimestampExtremaKeepTheColumnType) {
  Column c(DataType::kTimestamp);
  IncrementalColumnStats incremental;
  c.AppendTimestamp(500);
  c.AppendTimestamp(300);
  incremental.ExtendTo(c);
  EXPECT_EQ(incremental.stats().min, Value::Timestamp(300));
  EXPECT_EQ(incremental.stats().max, Value::Timestamp(500));

  // The second extension brings a new minimum and a new maximum.
  c.AppendTimestamp(100);
  c.AppendNull();
  c.AppendTimestamp(900);
  incremental.ExtendTo(c);
  const ColumnStats& ext = incremental.stats();
  EXPECT_EQ(ext.min.type(), DataType::kTimestamp);
  EXPECT_EQ(ext.max.type(), DataType::kTimestamp);
  EXPECT_EQ(ext.min, Value::Timestamp(100));
  EXPECT_EQ(ext.max, Value::Timestamp(900));
  EXPECT_EQ(ext.num_distinct, 4u);
  EXPECT_EQ(ext.num_nulls, 1u);
}

// Double distinct counts follow Value equality: -0.0 equals 0.0, and a NaN
// equals no value, itself included.
TEST(StatisticsTest, DoubleDistinctFollowsValueEquality) {
  Column c(DataType::kDouble);
  for (double v : {1.5, 0.0, -0.0, 1.5, -2.0}) c.AppendDouble(v);
  IncrementalColumnStats incremental;
  incremental.ExtendTo(c);
  EXPECT_EQ(incremental.stats().num_distinct, 3u);

  c.AppendDouble(std::nan(""));
  c.AppendDouble(std::nan(""));
  c.AppendNull();
  c.AppendDouble(-2.0);
  incremental.ExtendTo(c);
  const ColumnStats& ext = incremental.stats();
  EXPECT_EQ(ext.num_distinct, 5u);
  EXPECT_EQ(ext.num_nulls, 1u);
  EXPECT_EQ(ext.min, Value::Double(-2.0));
  EXPECT_EQ(ext.max, Value::Double(1.5));
  EXPECT_EQ(ComputeColumnStats(c).num_distinct, 5u);
}

TEST(StatisticsTest, BoolExtremaAreBools) {
  Column c(DataType::kBool);
  for (bool v : {true, false, true}) c.AppendBool(v);
  const ColumnStats stats = ComputeColumnStats(c);
  EXPECT_EQ(stats.min.type(), DataType::kBool);
  EXPECT_EQ(stats.max.type(), DataType::kBool);
  EXPECT_EQ(stats.min, Value::Bool(false));
  EXPECT_EQ(stats.max, Value::Bool(true));
  EXPECT_EQ(stats.num_distinct, 2u);
}

TEST(TableTest, ColumnByName) {
  Table t(SimpleSchema());
  EXPECT_EQ(t.schema().ColumnIndex("name"), 1);
  EXPECT_LT(t.schema().ColumnIndex("nope"), 0);
}

TEST(TableTest, CsvRoundTrip) {
  Table t(SimpleSchema());
  EBA_ASSERT_OK(t.AppendRow(
      {Value::Int64(1), Value::String("a,b"), Value::Double(0.25)}));
  EBA_ASSERT_OK(
      t.AppendRow({Value::Int64(2), Value::Null(), Value::Double(1)}));
  std::string path = ::testing::TempDir() + "/eba_table_test.csv";
  EBA_ASSERT_OK(RealEnv()->WriteFile(path, t.ToCsvString(0, t.num_rows())));
  Table loaded = UnwrapOrDie(Table::ReadCsv(path, SimpleSchema()));
  ASSERT_EQ(loaded.num_rows(), 2u);
  EXPECT_EQ(loaded.Get(0, 1), Value::String("a,b"));
  EXPECT_TRUE(loaded.Get(1, 1).is_null());
  EXPECT_DOUBLE_EQ(loaded.Get(0, 2).AsDouble(), 0.25);
  std::remove(path.c_str());
}

TEST(TableTest, CsvTimestampRoundTrip) {
  TableSchema schema("TS", {ColumnDef{"t", DataType::kTimestamp, "", false}});
  Table t(schema);
  int64_t when = Date::FromCivil(2010, 4, 28, 14, 29, 8).ToSeconds();
  EBA_ASSERT_OK(t.AppendRow({Value::Timestamp(when)}));
  std::string path = ::testing::TempDir() + "/eba_ts_test.csv";
  EBA_ASSERT_OK(RealEnv()->WriteFile(path, t.ToCsvString(0, t.num_rows())));
  Table loaded = UnwrapOrDie(Table::ReadCsv(path, schema));
  EXPECT_EQ(loaded.Get(0, 0).AsTimestamp(), when);
  std::remove(path.c_str());
}

// --------------------------- Database ---------------------------

TEST(DatabaseTest, CreateGetDrop) {
  Database db;
  EBA_ASSERT_OK(db.CreateTable(SimpleSchema()));
  EXPECT_TRUE(db.HasTable("T"));
  EXPECT_TRUE(db.CreateTable(SimpleSchema()).IsAlreadyExists());
  EXPECT_TRUE(db.GetTable("T").ok());
  EXPECT_TRUE(db.GetTable("missing").status().IsNotFound());
  EBA_ASSERT_OK(db.DropTable("T"));
  EXPECT_FALSE(db.HasTable("T"));
  EXPECT_TRUE(db.DropTable("T").IsNotFound());
}

TEST(DatabaseTest, ForeignKeyRequiresPrimaryKeyTarget) {
  Database db;
  EBA_ASSERT_OK(db.CreateTable(SimpleSchema()));  // T.id is PK
  EBA_ASSERT_OK(db.CreateTable(TableSchema(
      "Child", {ColumnDef{"ref", DataType::kInt64, "id", false}})));
  EBA_ASSERT_OK(db.AddForeignKey(AttrId{"Child", "ref"}, AttrId{"T", "id"}));
  // Non-PK target rejected.
  EXPECT_FALSE(
      db.AddForeignKey(AttrId{"T", "id"}, AttrId{"Child", "ref"}).ok());
  // Missing attr rejected.
  EXPECT_FALSE(
      db.AddForeignKey(AttrId{"Child", "nope"}, AttrId{"T", "id"}).ok());
  EXPECT_EQ(db.foreign_keys().size(), 1u);
}

TEST(DatabaseTest, SelfJoinAllowance) {
  Database db = testing_util::BuildPaperToyDatabase();
  EXPECT_TRUE(db.IsSelfJoinAllowed(AttrId{"Doctor_Info", "Department"}));
  EXPECT_FALSE(db.IsSelfJoinAllowed(AttrId{"Doctor_Info", "Doctor"}));
  // Idempotent.
  EBA_ASSERT_OK(db.AllowSelfJoin(AttrId{"Doctor_Info", "Department"}));
  EXPECT_EQ(db.self_join_attrs().size(), 1u);
}

TEST(DatabaseTest, AdminRelationshipValidation) {
  Database db = testing_util::BuildPaperToyDatabase();
  EBA_ASSERT_OK(db.AddAdminRelationship(AttrId{"Appointments", "Doctor"},
                                        AttrId{"Doctor_Info", "Doctor"}));
  EXPECT_FALSE(db.AddAdminRelationship(AttrId{"Appointments", "Doctor"},
                                       AttrId{"Appointments", "Doctor"})
                   .ok());
}

TEST(DatabaseTest, MappingTables) {
  Database db = testing_util::BuildPaperToyDatabase();
  EXPECT_FALSE(db.MarkMappingTable("nope").ok());
  EBA_ASSERT_OK(db.MarkMappingTable("Doctor_Info"));
  EXPECT_TRUE(db.IsMappingTable("Doctor_Info"));
  EXPECT_FALSE(db.IsMappingTable("Log"));
}

TEST(DatabaseTest, DropTableCleansMetadata) {
  Database db = testing_util::BuildPaperToyDatabase();
  EBA_ASSERT_OK(db.CreateTable(TableSchema(
      "Doctors", {ColumnDef{"Doctor", DataType::kInt64, "user", true}})));
  EBA_ASSERT_OK(db.AddAdminRelationship(AttrId{"Appointments", "Doctor"},
                                        AttrId{"Doctor_Info", "Doctor"}));
  EBA_ASSERT_OK(db.AddForeignKey(AttrId{"Doctor_Info", "Doctor"},
                                 AttrId{"Doctors", "Doctor"}));
  EBA_ASSERT_OK(db.AddForeignKey(AttrId{"Appointments", "Doctor"},
                                 AttrId{"Doctors", "Doctor"}));
  EBA_ASSERT_OK(db.MarkMappingTable("Doctor_Info"));
  EBA_ASSERT_OK(db.DropTable("Doctor_Info"));
  EXPECT_TRUE(db.admin_relationships().empty());
  EXPECT_TRUE(db.self_join_attrs().empty());
  EXPECT_FALSE(db.IsMappingTable("Doctor_Info"));
  // Only the foreign key that names the dropped table goes.
  ASSERT_EQ(db.foreign_keys().size(), 1u);
  EXPECT_EQ(db.foreign_keys()[0].from, (AttrId{"Appointments", "Doctor"}));

  // A same-name table added back starts without the dropped metadata.
  EBA_ASSERT_OK(db.CreateTable(TableSchema(
      "Doctor_Info", {ColumnDef{"Doctor", DataType::kInt64, "user", false}})));
  EXPECT_FALSE(db.IsMappingTable("Doctor_Info"));
  EXPECT_EQ(db.foreign_keys().size(), 1u);
}

TEST(DatabaseTest, ResolveColumnAndTotals) {
  Database db = testing_util::BuildPaperToyDatabase();
  EXPECT_EQ(*db.ResolveColumn(AttrId{"Log", "Patient"}), 3);
  EXPECT_FALSE(db.ResolveColumn(AttrId{"Log", "nope"}).ok());
  EXPECT_EQ(db.TotalRows(), 6u);  // 2 appts + 2 doctors + 2 log rows
  EXPECT_EQ(db.TableNames().size(), 3u);
}

// ------------------ Chunk-boundary properties ------------------
//
// Column payloads live in fixed 64k-row chunks (storage/chunk.h); these
// tests pin every chunk-aware consumer to a monolithic (plain std::vector)
// reference across ranges that start exactly on, end exactly on, and
// straddle chunk boundaries. The mirror vector is the pre-chunking storage
// layout, so agreement here is byte-identical-to-the-old-code evidence.

/// A ~2.02-chunk int64 column plus its monolithic mirror. Values repeat
/// (i % kDistinct) so index buckets span chunks; every 97th row is NULL.
struct ChunkedFixture {
  static constexpr int64_t kDistinct = 1000;
  Column column{DataType::kInt64};
  std::vector<int64_t> values;  // mirror payload (NULL rows hold 0)
  std::vector<bool> nulls;

  explicit ChunkedFixture(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (i % 97 == 0) {
        column.AppendNull();
        values.push_back(0);
        nulls.push_back(true);
      } else {
        const int64_t v = static_cast<int64_t>(i) % kDistinct;
        column.AppendInt64(v);
        values.push_back(v);
        nulls.push_back(false);
      }
    }
  }
};

/// Range edges exercising both chunk boundaries of a 2-chunk-plus column:
/// on/off by one around kColumnChunkRows and 2*kColumnChunkRows, plus the
/// extremes. Built as watermark sequences and (begin, end) pairs below.
std::vector<size_t> BoundaryEdges(size_t n) {
  const size_t c = kColumnChunkRows;
  return {0, 1, c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1, n};
}

const std::vector<uint32_t> empty_rows;

TEST(ChunkBoundaryTest, ForEachInt64SpanCoversRangesExactly) {
  const size_t n = 2 * kColumnChunkRows + 1234;
  ChunkedFixture fx(n);
  for (size_t begin : BoundaryEdges(n)) {
    for (size_t end : BoundaryEdges(n)) {
      if (end < begin) continue;
      std::vector<int64_t> seen;
      size_t expected_next = begin;
      fx.column.ForEachInt64Span(
          begin, end, [&](size_t first_row, const int64_t* data, size_t count) {
            EXPECT_EQ(first_row, expected_next);
            expected_next = first_row + count;
            seen.insert(seen.end(), data, data + count);
          });
      EXPECT_EQ(expected_next, end);
      ASSERT_EQ(seen.size(), end - begin);
      for (size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i], fx.values[begin + i]) << "row " << begin + i;
      }
    }
  }
}

TEST(ChunkBoundaryTest, MaterializeIntoMatchesMonolithicGather) {
  const size_t n = 2 * kColumnChunkRows + 1234;
  ChunkedFixture fx(n);
  // Row ids deliberately hop across chunks: stride-heavy permutation
  // covering head, both boundaries, and tail.
  std::vector<uint32_t> row_ids;
  for (size_t i = 0; i < n; i += 1009) {
    row_ids.push_back(static_cast<uint32_t>(i));
    row_ids.push_back(static_cast<uint32_t>(n - 1 - i));
  }
  for (size_t boundary : {kColumnChunkRows, 2 * kColumnChunkRows}) {
    row_ids.push_back(static_cast<uint32_t>(boundary - 1));
    row_ids.push_back(static_cast<uint32_t>(boundary));
  }
  std::vector<Value> all;
  fx.column.MaterializeInto(row_ids, &all);
  ASSERT_EQ(all.size(), row_ids.size());
  for (size_t i = 0; i < row_ids.size(); ++i) {
    const size_t row = row_ids[i];
    const Value expected =
        fx.nulls[row] ? Value::Null() : Value::Int64(fx.values[row]);
    EXPECT_TRUE(all[i] == expected) << "slot " << i << " row " << row;
  }
}

TEST(ChunkBoundaryTest, HashIndexExtendToMatchesMonolithicBuild) {
  const size_t n = 2 * kColumnChunkRows + 1234;
  // Grow a column to each boundary watermark, fold the new suffix into the
  // index at every step (the streaming-append path), and compare lookups
  // against a monolithic reference rebuilt from the mirror prefix.
  ChunkedFixture fx(n);
  Column column(DataType::kInt64);
  std::unique_ptr<HashIndex> index;
  size_t grown = 0;
  for (size_t upto : BoundaryEdges(n)) {
    if (upto == 0) continue;
    while (grown < upto) {
      if (fx.nulls[grown]) {
        column.AppendNull();
      } else {
        column.AppendInt64(fx.values[grown]);
      }
      ++grown;
    }
    if (index == nullptr) {
      index = std::make_unique<HashIndex>(&column);
    } else {
      index->ExtendTo(column.size());
    }
    ASSERT_EQ(index->indexed_rows(), upto);
    std::unordered_map<int64_t, std::vector<uint32_t>> reference;
    for (size_t i = 0; i < upto; ++i) {
      if (!fx.nulls[i]) {
        reference[fx.values[i]].push_back(static_cast<uint32_t>(i));
      }
    }
    for (int64_t key = 0; key < ChunkedFixture::kDistinct; key += 123) {
      const auto it = reference.find(key);
      const std::vector<uint32_t>& expected =
          it == reference.end() ? empty_rows : it->second;
      const RowIdSpan span = index->LookupInt64(key);
      EXPECT_EQ(std::vector<uint32_t>(span.begin(), span.end()), expected)
          << "key " << key;
    }
  }
  EXPECT_EQ(index->indexed_rows(), n);
}

TEST(ChunkBoundaryTest, IncrementalStatsMatchMonolithicFold) {
  const size_t n = 2 * kColumnChunkRows + 1234;
  ChunkedFixture fx(n);
  IncrementalColumnStats incremental;
  for (size_t upto : BoundaryEdges(n)) {
    if (upto == 0) continue;
    // ExtendTo folds [rows_seen, column.size()); emulate partial growth by
    // folding the full column only at the last watermark — intermediate
    // checks use a prefix column grown to each boundary instead.
    Column prefix(DataType::kInt64);
    IncrementalColumnStats prefix_stats;
    size_t grown = 0;
    for (size_t step : BoundaryEdges(n)) {
      if (step > upto || step <= grown) continue;
      while (grown < step) {
        if (fx.nulls[grown]) {
          prefix.AppendNull();
        } else {
          prefix.AppendInt64(fx.values[grown]);
        }
        ++grown;
      }
      prefix_stats.ExtendTo(prefix);  // boundary-straddling increments
    }
    // Monolithic reference over the mirror prefix.
    size_t ref_nulls = 0;
    std::unordered_set<int64_t> ref_distinct;
    int64_t ref_min = 0, ref_max = 0;
    bool any = false;
    for (size_t i = 0; i < upto; ++i) {
      if (fx.nulls[i]) {
        ++ref_nulls;
        continue;
      }
      ref_distinct.insert(fx.values[i]);
      if (!any || fx.values[i] < ref_min) ref_min = fx.values[i];
      if (!any || fx.values[i] > ref_max) ref_max = fx.values[i];
      any = true;
    }
    const ColumnStats& got = prefix_stats.stats();
    EXPECT_EQ(got.num_rows, upto);
    EXPECT_EQ(got.num_nulls, ref_nulls);
    EXPECT_EQ(got.num_distinct, ref_distinct.size());
    if (any) {
      EXPECT_TRUE(got.min == Value::Int64(ref_min)) << "upto " << upto;
      EXPECT_TRUE(got.max == Value::Int64(ref_max)) << "upto " << upto;
    }
  }
  // The one-shot ComputeColumnStats over the chunked column must agree with
  // the incremental fold at full size.
  incremental.ExtendTo(fx.column);
  const ColumnStats one_shot = ComputeColumnStats(fx.column);
  EXPECT_EQ(incremental.stats().num_rows, one_shot.num_rows);
  EXPECT_EQ(incremental.stats().num_nulls, one_shot.num_nulls);
  EXPECT_EQ(incremental.stats().num_distinct, one_shot.num_distinct);
  EXPECT_TRUE(incremental.stats().min == one_shot.min);
  EXPECT_TRUE(incremental.stats().max == one_shot.max);
}

}  // namespace
}  // namespace eba
