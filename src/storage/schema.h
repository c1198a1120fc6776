// Table schemas and attribute identities.
//
// A ColumnDef may carry a *key domain* label (e.g. "patient", "user",
// "dept", "group"). Attributes that share a domain reference the same
// underlying key space — this is how the catalog models key/foreign-key
// relationships for the purpose of generating join edges (paper §3.1
// restriction 2: equi-joins are only considered along key/FK relationships
// or administrator-provided relationships).

#ifndef EBA_STORAGE_SCHEMA_H_
#define EBA_STORAGE_SCHEMA_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace eba {

/// Definition of a single column.
struct ColumnDef {
  std::string name;
  DataType type = DataType::kNull;
  /// Key-domain label; empty means "not a key attribute".
  std::string domain;
  /// True if this column is the table's primary key within its domain.
  bool is_primary_key = false;
};

/// An attribute identified by (table name, column name).
struct AttrId {
  std::string table;
  std::string column;

  bool operator==(const AttrId& o) const {
    return table == o.table && column == o.column;
  }
  bool operator!=(const AttrId& o) const { return !(*this == o); }
  bool operator<(const AttrId& o) const {
    return table != o.table ? table < o.table : column < o.column;
  }

  /// "Table.Column".
  std::string ToString() const { return table + "." + column; }
};

/// Schema of one table: a name plus an ordered list of column definitions.
class TableSchema {
 public:
  TableSchema() = default;
  TableSchema(std::string name, std::vector<ColumnDef> columns);

  const std::string& name() const { return name_; }
  const std::vector<ColumnDef>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }
  const ColumnDef& column(size_t idx) const { return columns_[idx]; }

  /// Index of a column by name, or -1 if absent. Case-sensitive.
  int ColumnIndex(const std::string& column_name) const;

  /// True if a column with the given name exists.
  bool HasColumn(const std::string& column_name) const {
    return ColumnIndex(column_name) >= 0;
  }

  /// Index of the primary-key column, or -1 if the table has none.
  int PrimaryKeyIndex() const;

  /// Columns whose domain equals `domain`.
  std::vector<int> ColumnsInDomain(const std::string& domain) const;

  /// Verifies the schema is well-formed: a non-empty name without
  /// whitespace, control bytes, '/' or '\' that is not "." or "..",
  /// unique non-empty column names, at most one primary key.
  Status Validate() const;

 private:
  std::string name_;
  std::vector<ColumnDef> columns_;
};

}  // namespace eba

namespace std {
template <>
struct hash<eba::AttrId> {
  size_t operator()(const eba::AttrId& a) const {
    return std::hash<std::string>{}(a.table) * 1000003 ^
           std::hash<std::string>{}(a.column);
  }
};
}  // namespace std

#endif  // EBA_STORAGE_SCHEMA_H_
