// PathQuery: the stylized query form of Definition 1.
//
//   SELECT Log.Lid, A_1, ..., A_m
//   FROM Log, T_1, ..., T_n
//   WHERE C_1 AND ... AND C_j
//
// Tuple variable 0 is always the audited log. `join_chain` holds the path's
// selection-condition edges in traversal order: each condition either binds
// a new tuple variable (equi-join) or — for the final edge back to
// Log.User — filters already-bound variables. `extra_conditions` and
// `const_conditions` carry decorations (Definition 3).

#ifndef EBA_QUERY_PATH_QUERY_H_
#define EBA_QUERY_PATH_QUERY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "query/expr.h"
#include "storage/database.h"

namespace eba {

/// One tuple variable: a table plus its alias in the query.
struct TupleVar {
  std::string table;
  std::string alias;
};

class PathQuery {
 public:
  PathQuery() = default;

  /// Tuple variables; index 0 is the log.
  std::vector<TupleVar> vars;

  /// Path conditions in traversal order.
  std::vector<VarCondition> join_chain;

  /// Decorations: additional attribute-attribute conditions.
  std::vector<VarCondition> extra_conditions;

  /// Decorations: attribute-literal conditions.
  std::vector<ConstCondition> const_conditions;

  /// Output attributes for instance materialization. If empty, the executor
  /// projects every attribute mentioned in the conditions plus Log.Lid.
  std::vector<QAttr> projection;

  /// Resolves `alias.Column` to a QAttr (alias lookup is case-sensitive).
  StatusOr<QAttr> Resolve(const Database& db, const std::string& alias,
                          const std::string& column) const;

  /// Index of the tuple variable with the given alias, or -1.
  int VarIndexByAlias(const std::string& alias) const;

  /// Name of the attribute as "alias.Column".
  StatusOr<std::string> AttrName(const Database& db, const QAttr& attr) const;

  /// Column index bounds, alias uniqueness, var-0-is-log sanity, and that
  /// every condition references valid (var, col) pairs.
  Status Validate(const Database& db) const;

  /// All attributes mentioned anywhere in the query (deduplicated).
  std::vector<QAttr> ReferencedAttrs() const;

  /// Number of distinct tables referenced, counting multiple instances of a
  /// table (self-joins) once and skipping mapping tables (paper §5.3.3).
  int CountedTables(const Database& db) const;

  /// Path length: number of join-chain conditions.
  int RawLength() const { return static_cast<int>(join_chain.size()); }

  /// Reported length: join-chain conditions minus one per mapping-table
  /// instance traversed. A mapping hop replaces one direct edge with two
  /// conditions only because the data names one user by two identifiers;
  /// the paper does not count it toward a template's length (§5.3.3), so
  /// the figures' lengths match the paper's.
  int ReportedLength(const Database& db) const;
};

}  // namespace eba

#endif  // EBA_QUERY_PATH_QUERY_H_
