#include "storage/table.h"

#include <cerrno>
#include <cstdlib>

#include "common/csv.h"
#include "common/date.h"
#include "common/logging.h"

namespace eba {

Table::Table(TableSchema schema)
    : schema_(std::move(schema)), lazy_mu_(std::make_unique<Mutex>()) {
  Status s = schema_.Validate();
  EBA_CHECK_MSG(s.ok(), s.ToString());
  columns_.reserve(schema_.num_columns());
  for (const auto& def : schema_.columns()) {
    columns_.emplace_back(def.type);
  }
  indexes_.resize(columns_.size());
  stats_.resize(columns_.size());
}

void Table::Reserve(size_t rows) {
  for (auto& col : columns_) col.Reserve(rows);
}

void Table::AttachEpochManager(EpochManager* epochs) {
  epochs_ = epochs;
  for (auto& col : columns_) col.AttachEpochManager(epochs);
  MutexLock lock(*lazy_mu_);
  for (auto& idx : indexes_) {
    if (idx) idx->SetEpochManager(epochs);
  }
}

Status Table::ValidateRow(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(columns_.size()) + " for table '" + name() + "'");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) {
      // Integer columns read a NULL back as the raw payload 0, so a NULL
      // key would be audited as key 0: keys are never NULL.
      if (!schema_.column(i).is_primary_key) continue;
      return Status::InvalidArgument("NULL in primary-key column '" +
                                     schema_.column(i).name + "' of table '" +
                                     name() + "'");
    }
    if (row[i].type() != schema_.column(i).type) {
      return Status::InvalidArgument(
          "type mismatch in column '" + schema_.column(i).name + "': " +
          DataTypeToString(row[i].type()) + " vs " +
          DataTypeToString(schema_.column(i).type));
    }
  }
  return Status::OK();
}

Status Table::AppendRow(const Row& row) {
  EBA_RETURN_IF_ERROR(ValidateRow(row));
  AppendValidatedRow(row);
  return Status::OK();
}

void Table::AppendValidatedRow(const Row& row) {
  for (size_t i = 0; i < row.size(); ++i) {
    Status s = columns_[i].Append(row[i]);
    EBA_CHECK_MSG(s.ok(), s.ToString());  // types were pre-validated
  }
  // Appends advance the watermark only (num_rows_ doubles as the
  // watermark); cached indexes/stats stay live and extend on next access.
  // The release publish — after every column published its own append —
  // is what lets a snapshot reader that observed the new count read the
  // whole row.
  num_rows_.Publish(num_rows_.LoadRelaxed() + 1);
}

Row Table::GetRow(size_t row) const {
  EBA_CHECK(row < num_rows());
  Row out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col.Get(row));
  return out;
}

const HashIndex& Table::GetOrBuildIndex(size_t col) const {
  EBA_CHECK(col < columns_.size());
  MutexLock lock(*lazy_mu_);
  if (!indexes_[col]) {
    auto idx = std::make_unique<HashIndex>(&columns_[col]);
    // Attach reclamation after the initial build: the index is private
    // until stored below, so build-time supersessions free eagerly.
    idx->SetEpochManager(epochs_);
    indexes_[col] = std::move(idx);
  } else {
    // Extend past the append watermark (no-op when already current). The
    // fold clamps to the columns' published sizes, so it is safe under a
    // concurrent writer; after it returns the index covers at least every
    // watermark the caller observed before this call.
    indexes_[col]->ExtendTo(columns_[col].size());
  }
  return *indexes_[col];
}

ColumnStats Table::GetOrComputeStats(size_t col) const {
  EBA_CHECK(col < columns_.size());
  MutexLock lock(*lazy_mu_);
  if (!stats_[col]) {
    stats_[col] = std::make_unique<IncrementalColumnStats>();
  }
  stats_[col]->ExtendTo(columns_[col]);
  return stats_[col]->stats();
}

std::string Table::ToCsvString(size_t from_row, size_t to_row) const {
  std::string out;
  std::vector<std::string> fields;
  for (const auto& def : schema_.columns()) fields.push_back(def.name);
  out += CsvEncodeRow(fields);
  out += '\n';
  for (size_t r = from_row; r < to_row && r < num_rows(); ++r) {
    fields.clear();
    for (const auto& col : columns_) {
      Value v = col.Get(r);
      fields.push_back(v.is_null() ? "" : v.ToString());
    }
    out += CsvEncodeRow(fields);
    out += '\n';
  }
  return out;
}

namespace {

/// strtoll/strtod with full-consumption and range checks: garbage or
/// truncated numeric fields become errors instead of exceptions (std::stoll
/// throws) or silent prefixes (raw strtoll).
StatusOr<int64_t> ParseInt64Field(const std::string& f) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(f.c_str(), &end, 10);
  if (end == f.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("not an int64: '" + f + "'");
  }
  return static_cast<int64_t>(v);
}

StatusOr<double> ParseDoubleField(const std::string& f) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(f.c_str(), &end);
  if (end == f.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("not a double: '" + f + "'");
  }
  return v;
}

StatusOr<Value> ParseCsvField(const std::string& f, const ColumnDef& def) {
  if (f.empty()) return Value::Null();
  switch (def.type) {
    case DataType::kBool:
      return Value::Bool(f == "true" || f == "1");
    case DataType::kInt64: {
      EBA_ASSIGN_OR_RETURN(int64_t v, ParseInt64Field(f));
      return Value::Int64(v);
    }
    case DataType::kDouble: {
      EBA_ASSIGN_OR_RETURN(double v, ParseDoubleField(f));
      return Value::Double(v);
    }
    case DataType::kString:
      return Value::String(f);
    case DataType::kTimestamp: {
      EBA_ASSIGN_OR_RETURN(Date d, Date::Parse(f));
      return Value::Timestamp(d.ToSeconds());
    }
    case DataType::kNull:
      return Value::Null();
  }
  return Status::InvalidArgument("unknown column type");
}

}  // namespace

StatusOr<Table> Table::ReadCsv(const std::string& path, TableSchema schema) {
  EBA_ASSIGN_OR_RETURN(auto rows, CsvReadFile(path));
  Table table(std::move(schema));
  if (rows.empty()) {
    return Status::InvalidArgument("empty csv: " + path);
  }
  const auto& header = rows[0];
  if (header.size() != table.num_columns()) {
    return Status::InvalidArgument("csv header arity mismatch in " + path);
  }
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] != table.schema_.column(i).name) {
      return Status::InvalidArgument("csv header mismatch at column " +
                                     std::to_string(i) + " in " + path);
    }
  }
  table.Reserve(rows.size() - 1);
  for (size_t r = 1; r < rows.size(); ++r) {
    const auto& fields = rows[r];
    if (fields.size() != table.num_columns()) {
      return Status::InvalidArgument(
          "csv row arity mismatch (truncated row?) at line " +
          std::to_string(r + 1) + " in " + path + " for table '" +
          table.name() + "'");
    }
    Row row;
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      const ColumnDef& def = table.schema_.column(c);
      StatusOr<Value> v = ParseCsvField(fields[c], def);
      if (!v.ok()) {
        return Status::InvalidArgument(
            "bad field in table '" + table.name() + "', column '" +
            def.name + "', line " + std::to_string(r + 1) + " of " + path +
            ": " + v.status().message());
      }
      row.push_back(std::move(*v));
    }
    EBA_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

Status Table::AppendColumnChunk(size_t col, const ColumnChunk& chunk) {
  EBA_CHECK(col < columns_.size());
  return columns_[col].AppendChunk(chunk);
}

Status Table::PublishColumnRows() {
  const size_t rows = columns_.empty() ? num_rows() : columns_[0].size();
  for (const Column& col : columns_) {
    if (col.size() != rows) {
      return Status::Internal("columns of table '" + name() +
                              "' disagree on their length");
    }
  }
  num_rows_.Publish(rows);
  return Status::OK();
}

}  // namespace eba
