#include "storage/schema.h"

#include <unordered_set>

namespace eba {

TableSchema::TableSchema(std::string name, std::vector<ColumnDef> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {}

int TableSchema::ColumnIndex(const std::string& column_name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == column_name) return static_cast<int>(i);
  }
  return -1;
}

int TableSchema::PrimaryKeyIndex() const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].is_primary_key) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> TableSchema::ColumnsInDomain(const std::string& domain) const {
  std::vector<int> out;
  if (domain.empty()) return out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].domain == domain) out.push_back(static_cast<int>(i));
  }
  return out;
}

Status TableSchema::Validate() const {
  if (name_.empty()) return Status::InvalidArgument("table name is empty");
  // A table name is one field of a checkpoint manifest line and part of a
  // file name in the store (storage/checkpoint.h).
  for (const char ch : name_) {
    const auto byte = static_cast<unsigned char>(ch);
    if (byte <= 0x20 || byte == 0x7f || ch == '/' || ch == '\\') {
      return Status::InvalidArgument(
          "table name '" + name_ +
          "' holds whitespace, a control byte, '/' or '\\'");
    }
  }
  if (name_ == "." || name_ == "..") {
    return Status::InvalidArgument("table name '" + name_ +
                                   "' names a directory");
  }
  if (columns_.empty()) {
    return Status::InvalidArgument("table '" + name_ + "' has no columns");
  }
  std::unordered_set<std::string> seen;
  int pk_count = 0;
  for (const auto& col : columns_) {
    if (col.name.empty()) {
      return Status::InvalidArgument("table '" + name_ +
                                     "' has an unnamed column");
    }
    if (!seen.insert(col.name).second) {
      return Status::InvalidArgument("table '" + name_ +
                                     "' has duplicate column '" + col.name +
                                     "'");
    }
    if (col.type == DataType::kNull) {
      return Status::InvalidArgument("column '" + name_ + "." + col.name +
                                     "' has null type");
    }
    if (col.is_primary_key) {
      ++pk_count;
      if (col.domain.empty()) {
        return Status::InvalidArgument("primary key '" + name_ + "." +
                                       col.name + "' must declare a domain");
      }
    }
  }
  if (pk_count > 1) {
    return Status::InvalidArgument("table '" + name_ +
                                   "' has multiple primary keys");
  }
  return Status::OK();
}

}  // namespace eba
