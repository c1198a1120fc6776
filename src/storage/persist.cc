#include "storage/persist.h"

#include <filesystem>
#include <set>
#include <sstream>

#include "common/string_util.h"

namespace eba {

namespace {

constexpr char kHeader[] = "# eba database manifest v1";

const char* TypeName(DataType type) { return DataTypeToString(type); }

StatusOr<DataType> TypeFromName(const std::string& name) {
  for (DataType t : {DataType::kBool, DataType::kInt64, DataType::kDouble,
                     DataType::kString, DataType::kTimestamp}) {
    if (name == DataTypeToString(t)) return t;
  }
  return Status::InvalidArgument("unknown column type: " + name);
}

StatusOr<AttrId> ParseAttr(const std::string& text) {
  size_t dot = text.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= text.size()) {
    return Status::InvalidArgument("expected Table.Column, got: " + text);
  }
  return AttrId{Trim(text.substr(0, dot)), Trim(text.substr(dot + 1))};
}

}  // namespace

Status Catalog::ApplyJoinMetadata(Database* db) const {
  for (const auto& name : mapping_tables) {
    EBA_RETURN_IF_ERROR(db->MarkMappingTable(name));
  }
  for (const auto& attr : self_joins) {
    EBA_RETURN_IF_ERROR(db->AllowSelfJoin(attr));
  }
  for (const auto& rel : admin_relationships) {
    EBA_RETURN_IF_ERROR(db->AddAdminRelationship(rel.a, rel.b));
  }
  for (const auto& fk : foreign_keys) {
    EBA_RETURN_IF_ERROR(db->AddForeignKey(fk.from, fk.to));
  }
  return Status::OK();
}

std::string CatalogToText(const Database& db) {
  std::ostringstream manifest;
  manifest << kHeader << "\n";
  for (const std::string& name : db.TableNames()) {
    const Table* table = db.GetTable(name).value();
    manifest << "\nTABLE " << name << "\n";
    for (const auto& def : table->schema().columns()) {
      manifest << "COLUMN " << def.name << " " << TypeName(def.type);
      if (!def.domain.empty()) manifest << " domain=" << def.domain;
      if (def.is_primary_key) manifest << " pk";
      manifest << "\n";
    }
    manifest << "END\n";
  }
  manifest << "\n";
  for (const std::string& name : db.mapping_tables()) {
    manifest << "MAPPING " << name << "\n";
  }
  for (const auto& attr : db.self_join_attrs()) {
    manifest << "SELFJOIN " << attr.ToString() << "\n";
  }
  for (const auto& rel : db.admin_relationships()) {
    manifest << "ADMINREL " << rel.a.ToString() << " = " << rel.b.ToString()
             << "\n";
  }
  for (const auto& fk : db.foreign_keys()) {
    manifest << "FK " << fk.from.ToString() << " -> " << fk.to.ToString()
             << "\n";
  }
  return manifest.str();
}

StatusOr<Catalog> ParseCatalog(const std::string& text) {
  std::istringstream manifest(text);
  Catalog catalog;
  std::string line;
  int line_number = 0;
  bool saw_header = false;
  std::string current_table;
  std::vector<ColumnDef> current_columns;
  std::set<std::string> declared_tables;
  auto parse_error = [&](const std::string& message) {
    return Status::InvalidArgument("manifest line " +
                                   std::to_string(line_number) + ": " +
                                   message);
  };

  while (std::getline(manifest, line)) {
    ++line_number;
    std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    if (trimmed[0] == '#') {
      if (StartsWith(trimmed, kHeader)) saw_header = true;
      continue;
    }
    if (StartsWith(trimmed, "TABLE ")) {
      if (!current_table.empty()) return parse_error("TABLE inside TABLE");
      current_table = Trim(trimmed.substr(6));
      if (!declared_tables.insert(current_table).second) {
        return parse_error("duplicate TABLE '" + current_table + "'");
      }
    } else if (StartsWith(trimmed, "COLUMN ")) {
      if (current_table.empty()) return parse_error("COLUMN outside TABLE");
      std::vector<std::string> parts;
      for (const auto& p : Split(Trim(trimmed.substr(7)), ' ')) {
        if (!Trim(p).empty()) parts.push_back(Trim(p));
      }
      if (parts.size() < 2) return parse_error("COLUMN needs name and type");
      ColumnDef def;
      def.name = parts[0];
      EBA_ASSIGN_OR_RETURN(def.type, TypeFromName(parts[1]));
      for (size_t i = 2; i < parts.size(); ++i) {
        if (StartsWith(parts[i], "domain=")) {
          def.domain = parts[i].substr(7);
        } else if (parts[i] == "pk") {
          def.is_primary_key = true;
        } else {
          return parse_error("unknown COLUMN attribute: " + parts[i]);
        }
      }
      current_columns.push_back(std::move(def));
    } else if (trimmed == "END") {
      if (current_table.empty()) return parse_error("END outside TABLE");
      TableSchema schema(current_table, std::move(current_columns));
      // Validate here: Table's constructor CHECK-fails on a bad schema, but
      // a corrupt manifest (e.g. duplicate COLUMN names) must surface as a
      // load error naming the table, not a crash.
      if (Status s = schema.Validate(); !s.ok()) {
        return Status::InvalidArgument("table '" + current_table +
                                       "': " + s.message());
      }
      catalog.tables.push_back(std::move(schema));
      current_table.clear();
      current_columns.clear();
    } else if (StartsWith(trimmed, "MAPPING ")) {
      catalog.mapping_tables.push_back(Trim(trimmed.substr(8)));
    } else if (StartsWith(trimmed, "SELFJOIN ")) {
      EBA_ASSIGN_OR_RETURN(AttrId attr, ParseAttr(Trim(trimmed.substr(9))));
      catalog.self_joins.push_back(attr);
    } else if (StartsWith(trimmed, "ADMINREL ")) {
      auto parts = Split(trimmed.substr(9), '=');
      if (parts.size() != 2) return parse_error("ADMINREL needs a = b");
      EBA_ASSIGN_OR_RETURN(AttrId a, ParseAttr(Trim(parts[0])));
      EBA_ASSIGN_OR_RETURN(AttrId b, ParseAttr(Trim(parts[1])));
      catalog.admin_relationships.push_back({a, b});
    } else if (StartsWith(trimmed, "FK ")) {
      std::string body = trimmed.substr(3);
      size_t arrow = body.find("->");
      if (arrow == std::string::npos) return parse_error("FK needs a -> b");
      EBA_ASSIGN_OR_RETURN(AttrId from, ParseAttr(Trim(body.substr(0, arrow))));
      EBA_ASSIGN_OR_RETURN(AttrId to, ParseAttr(Trim(body.substr(arrow + 2))));
      catalog.foreign_keys.push_back({from, to});
    } else {
      return parse_error("unrecognized directive: " + trimmed);
    }
  }
  if (!current_table.empty()) {
    return Status::InvalidArgument("manifest ends inside a TABLE block");
  }
  if (!saw_header) {
    return Status::InvalidArgument("missing manifest header");
  }
  return catalog;
}

Status SaveDatabase(const Database& db, const std::string& directory,
                    Env* env) {
  if (env == nullptr) env = RealEnv();

  // Stage the complete save in a sibling temp directory, then swap it into
  // place with renames: `directory` is never observable half-written.
  const std::string tmp_dir = directory + ".tmp-save";
  const std::string old_dir = directory + ".old";
  if (env->FileExists(tmp_dir)) EBA_RETURN_IF_ERROR(env->RemoveAll(tmp_dir));
  if (env->FileExists(old_dir)) EBA_RETURN_IF_ERROR(env->RemoveAll(old_dir));
  EBA_RETURN_IF_ERROR(env->CreateDirs(tmp_dir));

  for (const std::string& name : db.TableNames()) {
    EBA_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
    EBA_RETURN_IF_ERROR(
        env->WriteFile(tmp_dir + "/" + name + ".csv",
                       table->ToCsvString(0, table->num_rows())));
  }
  EBA_RETURN_IF_ERROR(
      env->WriteFile(tmp_dir + "/manifest.txt", CatalogToText(db)));
  EBA_RETURN_IF_ERROR(env->SyncDir(tmp_dir));

  // Swap: existing dir (if any) steps aside, temp takes its place. A crash
  // between the renames leaves either the old save under `.old` plus the
  // complete new save under `directory`, or the complete new save still
  // under `.tmp-save` — never a torn `directory`.
  if (env->FileExists(directory)) {
    EBA_RETURN_IF_ERROR(env->RenameFile(directory, old_dir));
  }
  EBA_RETURN_IF_ERROR(env->RenameFile(tmp_dir, directory));
  if (env->FileExists(old_dir)) EBA_RETURN_IF_ERROR(env->RemoveAll(old_dir));
  const std::string parent =
      std::filesystem::path(directory).parent_path().string();
  return env->SyncDir(parent.empty() ? "." : parent);
}

StatusOr<Database> LoadDatabase(const std::string& directory) {
  StatusOr<std::string> manifest_text =
      RealEnv()->ReadFileToString(directory + "/manifest.txt");
  if (!manifest_text.ok()) {
    return Status::NotFound("no manifest.txt in '" + directory + "'");
  }
  EBA_ASSIGN_OR_RETURN(Catalog catalog, ParseCatalog(*manifest_text));
  Database db;
  for (TableSchema& schema : catalog.tables) {
    const std::string path = directory + "/" + schema.name() + ".csv";
    EBA_ASSIGN_OR_RETURN(Table table, Table::ReadCsv(path, std::move(schema)));
    EBA_RETURN_IF_ERROR(db.AddTable(std::move(table)));
  }
  EBA_RETURN_IF_ERROR(catalog.ApplyJoinMetadata(&db));
  return db;
}

}  // namespace eba
