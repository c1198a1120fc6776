#include "storage/database.h"

#include <algorithm>

#include "common/logging.h"

namespace eba {

Database::Database() : epochs_(std::make_unique<EpochManager>()) {}

Status Database::CreateTable(TableSchema schema) {
  EBA_RETURN_IF_ERROR(schema.Validate());
  if (HasTable(schema.name())) {
    return Status::AlreadyExists("table '" + schema.name() + "' exists");
  }
  std::string name = schema.name();
  auto [it, inserted] = tables_.emplace(name, Table(std::move(schema)));
  it->second.AttachEpochManager(epochs_.get());
  ++catalog_generation_;
  return Status::OK();
}

Database Database::Clone() const {
  Database clone;
  for (const auto& [name, table] : tables_) {
    const Status created = clone.CreateTable(table.schema());
    EBA_CHECK_MSG(created.ok(), created.ToString());
    Table& copy = clone.tables_.at(name);
    copy.Reserve(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Status appended = copy.AppendRow(table.GetRow(r));
      EBA_CHECK_MSG(appended.ok(), appended.ToString());
    }
  }
  // Metadata was validated against the same schemas when first declared.
  clone.fks_ = fks_;
  clone.admin_rels_ = admin_rels_;
  clone.self_join_attrs_ = self_join_attrs_;
  clone.mapping_tables_ = mapping_tables_;
  return clone;
}

Status Database::AddTable(Table table) {
  if (HasTable(table.name())) {
    return Status::AlreadyExists("table '" + table.name() + "' exists");
  }
  std::string name = table.name();
  auto [it, inserted] = tables_.emplace(name, std::move(table));
  it->second.AttachEpochManager(epochs_.get());
  ++catalog_generation_;
  return Status::OK();
}

Status Database::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table '" + name + "'");
  }
  tables_.erase(it);
  ++catalog_generation_;
  mapping_tables_.erase(name);
  auto drop_attr = [&name](const AttrId& a) { return a.table == name; };
  fks_.erase(std::remove_if(fks_.begin(), fks_.end(),
                            [&](const ForeignKey& fk) {
                              return drop_attr(fk.from) || drop_attr(fk.to);
                            }),
             fks_.end());
  admin_rels_.erase(std::remove_if(admin_rels_.begin(), admin_rels_.end(),
                                   [&](const AdminRelationship& rel) {
                                     return drop_attr(rel.a) ||
                                            drop_attr(rel.b);
                                   }),
                    admin_rels_.end());
  self_join_attrs_.erase(std::remove_if(self_join_attrs_.begin(),
                                        self_join_attrs_.end(), drop_attr),
                         self_join_attrs_.end());
  return Status::OK();
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

StatusOr<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table '" + name + "'");
  return &it->second;
}

StatusOr<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table '" + name + "'");
  return &it->second;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

StatusOr<int> Database::ResolveColumn(const AttrId& attr) const {
  EBA_ASSIGN_OR_RETURN(const Table* table, GetTable(attr.table));
  int idx = table->schema().ColumnIndex(attr.column);
  if (idx < 0) {
    return Status::NotFound("no column '" + attr.ToString() + "'");
  }
  return idx;
}

Status Database::ValidateAttr(const AttrId& attr) const {
  return ResolveColumn(attr).status();
}

Status Database::AddForeignKey(const AttrId& from, const AttrId& to) {
  EBA_RETURN_IF_ERROR(ValidateAttr(from));
  EBA_RETURN_IF_ERROR(ValidateAttr(to));
  EBA_ASSIGN_OR_RETURN(const Table* parent, GetTable(to.table));
  int pk = parent->schema().PrimaryKeyIndex();
  if (pk < 0 || parent->schema().column(static_cast<size_t>(pk)).name != to.column) {
    return Status::InvalidArgument("FK target " + to.ToString() +
                                   " is not a primary key");
  }
  fks_.push_back(ForeignKey{from, to});
  return Status::OK();
}

Status Database::AddAdminRelationship(const AttrId& a, const AttrId& b) {
  EBA_RETURN_IF_ERROR(ValidateAttr(a));
  EBA_RETURN_IF_ERROR(ValidateAttr(b));
  if (a == b) {
    return Status::InvalidArgument(
        "admin relationship endpoints are identical: " + a.ToString() +
        " (use AllowSelfJoin for self-joins)");
  }
  admin_rels_.push_back(AdminRelationship{a, b});
  return Status::OK();
}

Status Database::AllowSelfJoin(const AttrId& attr) {
  EBA_RETURN_IF_ERROR(ValidateAttr(attr));
  if (!IsSelfJoinAllowed(attr)) self_join_attrs_.push_back(attr);
  return Status::OK();
}

bool Database::IsSelfJoinAllowed(const AttrId& attr) const {
  for (const auto& a : self_join_attrs_) {
    if (a == attr) return true;
  }
  return false;
}

Status Database::MarkMappingTable(const std::string& name) {
  if (!HasTable(name)) return Status::NotFound("no table '" + name + "'");
  mapping_tables_.insert(name);
  return Status::OK();
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (const auto& [name, table] : tables_) total += table.num_rows();
  return total;
}

Database::Snapshot Database::CreateSnapshot() const {
  Snapshot snapshot;
  snapshot.db_ = this;
  // Pin FIRST: the pin's mutex acquisition orders this snapshot after any
  // retirement that already ran, so every pointer published before our pin
  // is either current or protected until we unpin. Watermarks read after
  // the pin are therefore always dereferenceable through it.
  snapshot.pin_ =
      std::make_shared<EpochPin>(epochs_.get(), epochs_->Pin());
  snapshot.generation_ = catalog_generation_;
  snapshot.tables_.reserve(tables_.size());
  // tables_ is name-ordered, so the view vector comes out name-ordered.
  for (const auto& [name, table] : tables_) {
    snapshot.tables_.push_back(
        Snapshot::TableView{&table, name, table.append_watermark()});
  }
  return snapshot;
}

const Database::Snapshot::TableView* Database::Snapshot::Find(
    const std::string& name) const {
  auto it = std::lower_bound(
      tables_.begin(), tables_.end(), name,
      [](const TableView& tv, const std::string& n) { return tv.name < n; });
  if (it == tables_.end() || it->name != name) return nullptr;
  return &*it;
}

size_t Database::Snapshot::BoundOf(const Table* table) const {
  for (const auto& tv : tables_) {
    if (tv.table == table) return static_cast<size_t>(tv.watermark);
  }
  // Not part of this snapshot (created after it): nothing is visible.
  return 0;
}

void Database::Snapshot::SetWatermark(const std::string& name,
                                      uint64_t watermark) {
  for (TableView& tv : tables_) {
    if (tv.name == name) {
      tv.watermark = watermark;
      return;
    }
  }
}

CatalogDrift Database::Snapshot::DriftSince(const Snapshot& older) const {
  CatalogDrift drift;
  drift.catalog_changed = generation_ != older.generation_;
  // Pure counter comparison between the two captured views — never reads
  // live state, so the result is exact for this snapshot even while the
  // writer keeps appending.
  for (const TableView& tv : tables_) {
    const TableView* prev = older.Find(tv.name);
    if (prev == nullptr) continue;  // new table: catalog_changed
    if (tv.watermark != prev->watermark) {
      drift.appends.push_back(
          CatalogDrift::Append{tv.name, prev->watermark, tv.watermark});
    }
  }
  return drift;
}

}  // namespace eba
