// Whole-database import and export: a directory with a human-readable
// schema manifest plus one CSV file per table. This is how a deployment
// would load a real EHR extract into the engine (the paper's study received
// flat extracts of the CareWeb tables), and how synthetic data sets are
// frozen for reproducibility. Checkpoints store rows as binary column
// images instead (storage/checkpoint.h) but share the manifest's catalog
// text.
//
// manifest.txt format:
//
//   # eba database manifest v1
//   TABLE Users
//   COLUMN uid int64 domain=user pk
//   COLUMN Name string
//   ...
//   END
//   MAPPING UserMap
//   SELFJOIN Users.Department
//   ADMINREL Appointments.Doctor = Doctor_Info.Doctor
//   FK Appointments.Doctor -> Users.uid

#ifndef EBA_STORAGE_PERSIST_H_
#define EBA_STORAGE_PERSIST_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/database.h"
#include "storage/io.h"

namespace eba {

/// A database's schemas and join metadata: the TABLE/COLUMN/END, MAPPING,
/// SELFJOIN, ADMINREL and FK lines of the manifest format above.
/// SaveDatabase writes it as manifest.txt; a checkpoint frames it as its
/// catalog record (storage/checkpoint.h).
struct Catalog {
  /// In manifest order; each passed TableSchema::Validate.
  std::vector<TableSchema> tables;
  std::vector<std::string> mapping_tables;
  std::vector<AttrId> self_joins;
  std::vector<AdminRelationship> admin_relationships;
  std::vector<ForeignKey> foreign_keys;

  /// Declares the join metadata on `db`, whose tables must already exist.
  Status ApplyJoinMetadata(Database* db) const;
};

/// Renders `db`'s catalog as manifest text, header included.
std::string CatalogToText(const Database& db);

/// Parses CatalogToText output. Rejects malformed input with a Status
/// naming the offending line: duplicate TABLE directives, duplicate COLUMN
/// names within a table, unknown directives, a missing header.
StatusOr<Catalog> ParseCatalog(const std::string& text);

/// Writes `db` into `directory`: manifest.txt plus one <table>.csv per
/// table. Crash-safe: everything is staged in a sibling temp directory,
/// synced, and renamed into place, so `directory` either keeps its previous
/// contents or holds the complete new save — a crash mid-save can never
/// leave a half-written database that LoadDatabase accepts. All writes go
/// through `env` (nullptr = the real filesystem).
Status SaveDatabase(const Database& db, const std::string& directory,
                    Env* env = nullptr);

/// Loads a database previously written by SaveDatabase. Rejects malformed
/// input with a Status naming the offender: a bad manifest (ParseCatalog),
/// truncated or non-numeric CSV fields.
StatusOr<Database> LoadDatabase(const std::string& directory);

}  // namespace eba

#endif  // EBA_STORAGE_PERSIST_H_
