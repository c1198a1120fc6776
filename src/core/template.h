// ExplanationTemplate (Definitions 1-4): a stylized query that explains many
// accesses, plus a parameterized description string that renders each
// explanation instance as natural language (§2.1).

#ifndef EBA_CORE_TEMPLATE_H_
#define EBA_CORE_TEMPLATE_H_

#include <string>

#include "common/status.h"
#include "query/path_query.h"
#include "query/sql.h"
#include "storage/database.h"

namespace eba {

class ExplanationTemplate {
 public:
  /// Builds a template from a parsed/constructed query. `lid_attr` must be
  /// the log-id attribute of tuple variable 0. The description format uses
  /// `[alias.Column]` placeholders, e.g.
  ///   "[L.Patient] had an appointment with [L.User] on [T1.Date]".
  ExplanationTemplate(std::string name, PathQuery query, QAttr lid_attr,
                      std::string description_format);

  /// Parses FROM/WHERE text into a template (admin-specified templates).
  static StatusOr<ExplanationTemplate> Parse(const Database& db,
                                             const std::string& name,
                                             const std::string& from_clause,
                                             const std::string& where_clause,
                                             const std::string& description);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const PathQuery& query() const { return query_; }
  PathQuery* mutable_query() { return &query_; }
  QAttr lid_attr() const { return lid_attr_; }

  const std::string& description_format() const { return description_; }
  void set_description_format(std::string d) { description_ = std::move(d); }

  /// Simple template (Definition 2): no decorations beyond the join chain.
  bool IsSimple() const {
    return query_.extra_conditions.empty() && query_.const_conditions.empty();
  }
  /// Decorated template (Definition 3).
  bool IsDecorated() const { return !IsSimple(); }

  /// Raw path length (join-chain conditions) and the reported length used in
  /// the paper's figures (mapping-table hops excluded, as the paper counts
  /// them in §5.3.3; see PathQuery::ReportedLength).
  int RawLength() const { return query_.RawLength(); }
  int ReportedLength(const Database& db) const {
    return query_.ReportedLength(db);
  }
  /// Tables referenced, counting self-joins once, mapping tables never.
  int CountedTables(const Database& db) const {
    return query_.CountedTables(db);
  }

  /// Canonical key over the selection-condition set: invariant to traversal
  /// order and to the concrete log-table name, so templates mined from
  /// different log slices compare equal (Table 1's "common templates").
  StatusOr<std::string> CanonicalKey(const Database& db) const;

  /// Clone with every tuple variable that references `this` template's log
  /// table rebound to `log_table` (to evaluate a template mined on a
  /// training slice against a different test log).
  ExplanationTemplate WithLogTable(const std::string& log_table) const;

  /// SQL text (for admin review / display).
  StatusOr<std::string> ToSql(const Database& db,
                              const SqlRenderOptions& options = {}) const;

 private:
  std::string name_;
  PathQuery query_;
  QAttr lid_attr_;
  std::string description_;
};

}  // namespace eba

#endif  // EBA_CORE_TEMPLATE_H_
