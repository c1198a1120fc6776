// Database: the catalog of tables plus the join metadata the mining
// algorithms are allowed to use (paper §3.1):
//   (2) equi-joins along key/FK relationships (modeled as shared key
//       domains plus explicitly declared foreign keys),
//   (3) self-joins only on administrator-allowed attributes, and
//       administrator-provided relationships between attribute pairs.
// Mapping tables (e.g. the caregiver_id <-> audit_id table of §5.3.3) can be
// marked so they count toward neither the table budget T nor the reported
// template length.

#ifndef EBA_STORAGE_DATABASE_H_
#define EBA_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/epoch.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace eba {

/// A declared foreign-key relationship (from child attr to parent key attr).
struct ForeignKey {
  AttrId from;
  AttrId to;
};

/// An administrator-provided joinable attribute pair (paper §3.1 item 2).
struct AdminRelationship {
  AttrId a;
  AttrId b;
};

/// What changed between two Database::Snapshot handles. Tables only grow
/// (storage/table.h), so within one catalog generation every change is an
/// append, reported per table with the grown row range; a catalog change
/// (a table added, dropped or replaced) is the one change incremental
/// consumers cannot follow, and they rebuild from scratch.
struct CatalogDrift {
  /// One table whose append watermark advanced: rows
  /// [from_watermark, to_watermark) are new.
  struct Append {
    std::string table;
    uint64_t from_watermark = 0;
    uint64_t to_watermark = 0;
  };

  /// CreateTable/AddTable/DropTable moved the catalog generation (table
  /// pointers from the snapshot's era may dangle, and a same-name table
  /// may hold different rows). Per-table append ranges are meaningful only
  /// when this is false.
  bool catalog_changed = false;
  /// Tables that grew, in name order.
  std::vector<Append> appends;
};

class Database {
 public:
  /// A consistent read view of the database: the sole read-side handle of
  /// the single-writer/multi-reader contract. Creating one pins the
  /// reclamation epoch (storage/epoch.h) and captures the catalog
  /// generation plus every table's append watermark.
  /// A reader executing against a snapshot
  ///
  ///   * only dereferences state reachable below the pinned watermarks
  ///     (every scan, probe, and stats read is clamped to the watermark),
  ///     which stays valid — versioned column tails above the watermark
  ///     grow concurrently without disturbing it;
  ///   * holds const Table pointers only, so a mutation cannot compile
  ///     through the handle.
  ///
  /// Snapshots are cheap (one mutex hop plus one watermark read per
  /// table) and copyable — copies share the pin. Release the pin (drop the
  /// snapshot, or ReleasePin() for long-lived drift baselines) promptly:
  /// retired tail versions cannot be reclaimed while a pin from their era
  /// lives.
  ///
  /// The writer side is NOT covered: appends need a single serialized
  /// writer, and catalog changes (CreateTable/AddTable/DropTable)
  /// additionally require that no reader is executing — snapshot holders
  /// detect them afterwards via generation drift.
  class Snapshot {
   public:
    /// One table's pinned view, in name order.
    struct TableView {
      const Table* table = nullptr;
      std::string name;
      uint64_t watermark = 0;
    };

    /// An empty snapshot (no database, no pin); assign a real one over it.
    Snapshot() = default;

    const Database* database() const { return db_; }
    uint64_t generation() const { return generation_; }
    const std::vector<TableView>& tables() const { return tables_; }

    /// The pinned view of a table by name; nullptr when the table did not
    /// exist at snapshot time.
    const TableView* Find(const std::string& name) const;

    /// The pinned watermark of `table`, or 0 when the table is not part of
    /// this snapshot (a table created afterwards has no visible rows in
    /// it). O(#tables) — catalogs are small.
    size_t BoundOf(const Table* table) const;

    /// Classifies what changed from `older` to this snapshot. Pure counter
    /// comparison — no live reads, and safe on unpinned snapshots.
    /// Consumers check catalog_changed before reading the append ranges.
    CatalogDrift DriftSince(const Snapshot& older) const;

    /// Rewinds one table's captured watermark — baseline bookkeeping only.
    /// Recovery installs the checkpointed audit watermarks over a fresh
    /// handle so rows that landed after the last audit re-surface as drift.
    /// Meaningless on a handle used for reads; pair with ReleasePin().
    void SetWatermark(const std::string& name, uint64_t watermark);

    /// Drops the reclamation pin while keeping the captured counters:
    /// long-lived drift baselines (StreamingAuditor's last-audit snapshot,
    /// checkpoint bookkeeping) must not block tail reclamation forever.
    /// After this, the handle must not be used for reads — only for
    /// DriftSince comparisons.
    void ReleasePin() { pin_.reset(); }
    bool pinned() const { return pin_ != nullptr; }

   private:
    friend class Database;

    const Database* db_ = nullptr;
    uint64_t generation_ = 0;
    std::vector<TableView> tables_;
    std::shared_ptr<EpochPin> pin_;
  };

  Database();

  // Movable only: tables are not copyable.
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Explicit deep copy: schemas, rows, and join metadata. The clone draws
  /// its own catalog generations — it is a fresh catalog, not a shared
  /// history, so snapshots taken on the original do not apply to it.
  Database Clone() const;

  /// Creates an empty table with the given schema.
  Status CreateTable(TableSchema schema);

  /// Moves an already-populated table into the database.
  Status AddTable(Table table);

  /// Removes a table together with the join metadata that names it: its
  /// foreign keys (either end), admin relationships, self-join attributes
  /// and mapping mark. A same-name table added later starts without them.
  Status DropTable(const std::string& name);

  bool HasTable(const std::string& name) const;
  StatusOr<Table*> GetTable(const std::string& name);
  StatusOr<const Table*> GetTable(const std::string& name) const;

  /// All table names in deterministic (sorted) order.
  std::vector<std::string> TableNames() const;

  /// Resolves an attribute to (table, column index); errors if missing.
  StatusOr<int> ResolveColumn(const AttrId& attr) const;

  /// Declares a foreign key; both endpoints must exist and `to` must be a
  /// primary key.
  Status AddForeignKey(const AttrId& from, const AttrId& to);

  /// Declares an administrator-provided relationship between two attributes.
  Status AddAdminRelationship(const AttrId& a, const AttrId& b);

  /// Allows `attr`'s table to participate in a self-join through `attr`
  /// (paper §3.1 item 3).
  Status AllowSelfJoin(const AttrId& attr);

  /// Marks a table as an identifier-mapping table that is exempt from the
  /// table budget T and from reported template length (paper §5.3.3).
  Status MarkMappingTable(const std::string& name);

  const std::vector<ForeignKey>& foreign_keys() const { return fks_; }
  const std::vector<AdminRelationship>& admin_relationships() const {
    return admin_rels_;
  }
  const std::vector<AttrId>& self_join_attrs() const {
    return self_join_attrs_;
  }
  bool IsSelfJoinAllowed(const AttrId& attr) const;
  bool IsMappingTable(const std::string& name) const {
    return mapping_tables_.count(name) > 0;
  }
  const std::set<std::string>& mapping_tables() const {
    return mapping_tables_;
  }

  /// Total number of rows across all tables (diagnostics).
  size_t TotalRows() const;

  /// Pins a consistent read view (see Snapshot above). Safe to call from
  /// any reader concurrently with the single appending writer.
  Snapshot CreateSnapshot() const;

  /// The reclamation domain retired column-tail state (chunk directories,
  /// index buckets) is deferred to until every older snapshot unpins.
  EpochManager* epoch_manager() const { return epochs_.get(); }

  /// Catalog generation: a new value on construction and on every
  /// CreateTable/AddTable/DropTable, drawn from one process-wide counter,
  /// so no two catalogs in the process share one — not even a database
  /// move-assigned over another at the same address. Within one generation,
  /// Table pointers returned by GetTable are stable (std::map nodes only die
  /// on erase); consumers caching Table pointers (e.g. compiled query plans)
  /// record the database and generation at build time and treat a mismatch
  /// as "stale — do not dereference".
  uint64_t catalog_generation() const { return catalog_generation_; }

 private:
  Status ValidateAttr(const AttrId& attr) const;

  /// Declared first so it is destroyed last: retired-state deleters are
  /// independent of the tables, but pins must never outlive the manager.
  /// Boxed so the Database stays movable (the manager's address — which
  /// tables and snapshots hold — is stable across moves).
  std::unique_ptr<EpochManager> epochs_;
  std::map<std::string, Table> tables_;
  uint64_t catalog_generation_;
  std::vector<ForeignKey> fks_;
  std::vector<AdminRelationship> admin_rels_;
  std::vector<AttrId> self_join_attrs_;
  std::set<std::string> mapping_tables_;
};

}  // namespace eba

#endif  // EBA_STORAGE_DATABASE_H_
